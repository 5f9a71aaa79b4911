package telemetry

import (
	"testing"

	"triosim/internal/network"
	"triosim/internal/sim"
)

// Per-tier aggregation: flows routed over a tiered cluster must fold into
// TierStat rows (sorted, capacity-normalized) and survive Validate.
func TestCollectorTierAggregation(t *testing.T) {
	topo := network.RailFatTree(network.ClusterConfig{
		Machines: 2, GPUsPerMachine: 2,
		NVLinkBandwidth: 300e9, NICBandwidth: 50e9,
		HostBandwidth: 20e9,
	}, 2, 2)
	c := NewCollector(NewRegistry(), nil, topo, nil)
	gpus := topo.GPUs()

	intra, err := topo.Route(gpus[0], gpus[1]) // same machine: nvlink only
	if err != nil {
		t.Fatal(err)
	}
	inter, err := topo.Route(gpus[0], gpus[2]) // cross machine: nic (+fabric)
	if err != nil {
		t.Fatal(err)
	}
	c.FlowFinished(intra, 1e9, 0, sim.Sec)
	c.FlowFinished(inter, 2e9, 0, sim.Sec)

	rep := c.Finalize(RunInfo{NumGPUs: len(gpus), TotalSec: 1})
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	byTier := map[string]TierStat{}
	for i, ts := range rep.Tiers {
		byTier[ts.Tier] = ts
		if i > 0 && rep.Tiers[i-1].Tier >= ts.Tier {
			t.Fatalf("tiers not sorted: %v", rep.Tiers)
		}
	}
	nv, ok := byTier[network.TierNVLink]
	if !ok || nv.Bytes != 1e9*float64(len(intra)) {
		t.Fatalf("nvlink tier = %+v (route %d hops)", nv, len(intra))
	}
	nic, ok := byTier[network.TierNIC]
	if !ok || nic.Bytes <= 0 {
		t.Fatalf("nic tier = %+v", nic)
	}
	// Utilization normalizes by the tier's full directed capacity over the
	// makespan, not just the links that carried traffic.
	var nvCap float64
	var nvLinks int
	for i := range topo.Links {
		if topo.Links[i].Tier == network.TierNVLink {
			nvCap += 2 * topo.Links[i].Bandwidth
			nvLinks += 2
		}
	}
	if nv.Links != nvLinks {
		t.Fatalf("nvlink directed links = %d, want %d", nv.Links, nvLinks)
	}
	want := nv.Bytes / nvCap
	if diff := nv.Utilization - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("nvlink utilization = %g, want %g", nv.Utilization, want)
	}

	// Untiered topologies must produce no tier section at all.
	flat := network.Ring(network.Config{
		NumGPUs: 4, LinkBandwidth: 100e9, HostBandwidth: 20e9,
	})
	fc := NewCollector(NewRegistry(), nil, flat, nil)
	route, err := flat.Route(flat.GPUs()[0], flat.GPUs()[1])
	if err != nil {
		t.Fatal(err)
	}
	fc.FlowFinished(route, 1e9, 0, sim.Sec)
	if rep := fc.Finalize(RunInfo{NumGPUs: 4, TotalSec: 1}); len(rep.Tiers) != 0 {
		t.Fatalf("flat topology produced tiers: %+v", rep.Tiers)
	}
}
