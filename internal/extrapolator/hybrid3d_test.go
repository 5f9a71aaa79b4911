package extrapolator

import (
	"math"
	"strings"
	"testing"

	"triosim/internal/network"
	"triosim/internal/sim"
	"triosim/internal/task"
	"triosim/internal/telemetry"
)

func TestHybrid3DGridValidation(t *testing.T) {
	tr, m, topo := testSetup(t, "resnet18", 64, 8)
	cfg := Config{Trace: tr, Topo: topo, NumGPUs: 8, Timer: m,
		GlobalBatch: 64}
	if _, err := Hybrid3D(cfg, 2, 2, 3); err == nil {
		t.Fatal("2×2×3 ≠ 8 GPUs accepted")
	}
	if _, err := Hybrid3D(cfg, 3, 2, 1); err == nil {
		t.Fatal("grid product mismatch accepted")
	}
}

func TestHybrid3DStructure(t *testing.T) {
	tr, m, topo := testSetup(t, "resnet18", 64, 8)
	cfg := Config{Trace: tr, Topo: topo, NumGPUs: 8, Timer: m,
		MicroBatches: 2, GlobalBatch: 64}
	res, err := Hybrid3D(cfg, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Meta.Strategy != "dp+tp+pp" || res.Meta.Replicas != 2 ||
		res.Meta.Stages != 2 || res.Meta.TPRanks != 2 {
		t.Fatalf("meta %+v", res.Meta)
	}
	makespan, tl, _ := runCfg(t, cfg.defaults(), res)
	if makespan <= 0 {
		t.Fatal("zero makespan")
	}
	_ = tl
	// Sharded pipeline activations, TP syncs, and DP allreduce all exist.
	var act, tp3, ar int
	for id := 0; id < res.Graph.Len(); id++ {
		tk := res.Graph.Task(id)
		switch {
		case strings.HasPrefix(tk.Label(), "act-"):
			act++
		case strings.HasPrefix(tk.Label(), "tp-fwd-l"),
			strings.HasPrefix(tk.Label(), "tp-bwd-l"):
			tp3++
		case strings.HasPrefix(tk.Label(), "3d-allreduce"):
			ar++
		}
	}
	if act == 0 || tp3 == 0 || ar == 0 {
		t.Fatalf("missing structure: %d act, %d tp-sync, %d allreduce tasks",
			act, tp3, ar)
	}
}

// FuseCompute preserves the schedule's bandwidth terms: per chunk the fused
// task carries the summed op duration and the fused ring step the summed
// sync bytes. What fusion drops is the per-step route latency of the
// (N−1)-step rings it replaces, so the fused makespan is slightly
// optimistic — bounded here at 2% — and never slower.
func TestHybrid3DFusedMatchesUnfused(t *testing.T) {
	tr, m, topo := testSetup(t, "resnet18", 64, 4)
	base := Config{Trace: tr, Topo: topo, NumGPUs: 4, Timer: m,
		MicroBatches: 1, GlobalBatch: 64}

	plain, err := Hybrid3D(base, 1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	fusedCfg := base
	fusedCfg.FuseCompute = true
	fused, err := Hybrid3D(fusedCfg, 1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	tPlain, _, _ := runCfg(t, base.defaults(), plain)
	tFused, _, _ := runCfg(t, fusedCfg.defaults(), fused)
	rel := math.Abs(float64(tFused-tPlain)) / float64(tPlain)
	if rel > 0.02 || tFused > tPlain {
		t.Fatalf("fused %v vs unfused %v (rel %g)", tFused, tPlain, rel)
	}
	if fused.Graph.Len()*4 > plain.Graph.Len() {
		t.Fatalf("fusion barely shrank the graph: %d vs %d tasks",
			fused.Graph.Len(), plain.Graph.Len())
	}
}

// On a tiered cluster whose machine size equals tp, each DP gradient ring
// spans machines rank-aligned — the auto collective must pick the
// hierarchical schedule.
func TestHybrid3DAutoSelectsHierCollective(t *testing.T) {
	tr, m, _ := testSetup(t, "resnet18", 64, 1)
	topo := network.RailFatTree(network.ClusterConfig{
		Machines: 4, GPUsPerMachine: 2,
		NVLinkBandwidth: 300e9, NICBandwidth: 50e9,
		HostBandwidth: 20e9, HostLatency: 5 * sim.USec,
	}, 2, 2)
	log := telemetry.NewCollectiveLog()
	cfg := Config{Trace: tr, Topo: topo, NumGPUs: 8, Timer: m,
		GlobalBatch: 64, Collectives: log}
	res, err := Hybrid3D(cfg, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, _, net := runCfg(t, cfg.defaults(), res); net.TotalBytes <= 0 {
		t.Fatal("no traffic")
	}
	found := false
	for id := 0; id < res.Graph.Len(); id++ {
		tk := res.Graph.Task(id)
		if tk.Kind == task.Comm &&
			strings.HasPrefix(tk.Label(), "3d-allreduce") &&
			strings.Contains(tk.Label(), "rail") {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no rail-phase tasks: auto collective did not go hierarchical")
	}
	if e := log.Get("3d-allreduce-s0-r0-it0"); e == nil ||
		e.Algo != "hier-allreduce" {
		t.Fatalf("collective log %+v", e)
	}
}

// TestGraphBuildAllocs gates the allocation count of a 64-GPU fused
// DP×TP×PP build, Validate's freeze included. Tasks live in chunks, edges in
// a chunked log frozen once into CSR lists, and the per-task labels are
// stored unrendered, so the build allocates per chunk and per collective,
// not per task: about 1,400 allocations for 2,050 tasks, where a single
// allocation per task would add 2,050.
func TestGraphBuildAllocs(t *testing.T) {
	tr, m, _ := testSetup(t, "gpt2", 16, 1)
	topo := network.RailFatTree(network.ClusterConfig{
		Machines: 8, GPUsPerMachine: 8,
		NVLinkBandwidth: 300e9, NICBandwidth: 50e9, FabricBandwidth: 100e9,
		HostBandwidth: 20e9, HostLatency: 5 * sim.USec,
	}, 8, 2)
	cfg := Config{Trace: tr, Topo: topo, NumGPUs: 64, Timer: m,
		MicroBatches: 4, GlobalBatch: 64, FuseCompute: true}
	const ceiling = 2000
	tasks := 0
	allocs := testing.AllocsPerRun(5, func() {
		res, err := Hybrid3D(cfg, 4, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Graph.Validate(); err != nil {
			t.Fatal(err)
		}
		tasks = res.Graph.Len()
	})
	if allocs > ceiling {
		t.Fatalf("%d-task build: %.0f allocations, ceiling %d", tasks, allocs,
			ceiling)
	}
	t.Logf("%d-task build: %.0f allocations", tasks, allocs)
}
