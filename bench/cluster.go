package main

import (
	"fmt"

	"triosim/internal/core"
	"triosim/internal/gpu"
	"triosim/internal/network"
	"triosim/internal/sim"
)

// cluster-2k-exact and cluster-10k-approx: one llama32-1b DP×TP×PP training
// step on a rail fat tree with fused compute, repeated. The 2,048-GPU step
// uses the exact solver, the default and the only mode with stable replay
// digests; its host time splits across the engine queue, the digest and
// max-min solving. The 10,000-GPU step is BenchmarkClusterStep/10000gpus,
// the repository's acceptance bar: partitioned approximate solves dominate
// and the heap is large. Neither has a reference result, and neither has a
// random input: the seed does not change them.

// clusterSpec sizes one cluster workload.
type clusterSpec struct {
	gpus, dp, tp, pp int
	tol              float64
	// setupReps is how many times set-up (which holds one warm-up step) is
	// repeated for setup_s; one for the 10k step, whose warm-up alone takes
	// several seconds.
	setupReps int
}

func clusterSpecFor(name string, smoke bool) clusterSpec {
	switch {
	case name == "cluster-2k-exact" && !smoke:
		return clusterSpec{2048, 32, 8, 8, 0, 3}
	case name == "cluster-2k-exact":
		return clusterSpec{64, 2, 8, 4, 0, 3}
	case !smoke:
		return clusterSpec{10000, 125, 8, 10, 0.01, 1}
	default:
		return clusterSpec{128, 2, 8, 8, 0.01, 1}
	}
}

// topology builds the rail fat tree of BenchmarkClusterStep.
func (c clusterSpec) topology() *network.Topology {
	return network.RailFatTree(network.ClusterConfig{
		Machines: c.gpus / 8, GPUsPerMachine: 8,
		NVLinkBandwidth: 300e9, NVLinkLatency: sim.USec,
		NICBandwidth: 50e9, NICLatency: 2 * sim.USec,
		FabricBandwidth: 100e9, FabricLatency: 2 * sim.USec,
		HostBandwidth: 20e9, HostLatency: 5 * sim.USec,
	}, 8, 2)
}

// config is the step's configuration without its topology.
func (c clusterSpec) config() core.Config {
	p3 := gpu.P3
	const traceBatch = 16
	return core.Config{
		Model: "llama32-1b", Platform: &p3,
		Parallelism: core.DPTPPP, NumGPUs: c.gpus,
		TPRanks: c.tp, PPStages: c.pp,
		TraceBatch: traceBatch, GlobalBatch: c.dp * 4 * traceBatch,
		MicroBatches: 4, FuseCompute: true, NetApproxTol: c.tol,
	}
}

// step is one timed operation: build the topology and simulate the step.
func (c clusterSpec) step() (*core.Result, error) {
	cfg := c.config()
	cfg.Topology = c.topology()
	return core.Simulate(cfg)
}

func runCluster(name string, o options) (*outcome, error) {
	c := clusterSpecFor(name, o.smoke)
	ref, setupS, err := setupMedian(c.setupReps, func() (simOutput, error) {
		res, err := c.step()
		if err != nil {
			return simOutput{}, fmt.Errorf("warm-up step: %w", err)
		}
		return outputOf(res), nil
	}, nil)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.info["gpus"] = c.gpus
	out.info["output_digest"] = outputDigest([]string{fmt.Sprintf("%s %v %d %#x",
		name, float64(ref.TotalTime), ref.Events, ref.EventDigest)})

	step := func(samples []float64) []float64 {
		return out.timeOp(samples, name, ref, c.step)
	}
	if o.trace {
		out.spans = newSpanLog()
		acc := &layerAcc{}
		out.alternate(o.seconds, acc, func() {
			acc.untraced = step(acc.untraced)
		}, func() {
			out.traceOp(acc, name, ref, c.config(), c.topology)
		})
		return out, nil
	}

	var samples []float64
	elapsed, mem := timed(o.seconds, func() { samples = step(samples) })
	out.setEndToEnd(setupS, float64(len(samples))/elapsed.Seconds(), samples,
		mem, out.attempted)
	return out, nil
}
