package telemetry

import (
	"testing"

	"triosim/internal/network"
	"triosim/internal/sim"
	"triosim/internal/task"
)

// markEvent is a non-funcEvent kind for the engine-hook tests.
type markEvent struct{ sim.EventBase }

// TestEngineHookKindCache drives the engine hook with primary and secondary
// events of two types, interleaved, and checks every per-kind count — in the
// collector and in triosim_events_total — against uncached eventKind labels.
// The hook must not allocate once each kind has been seen.
func TestEngineHookKindCache(t *testing.T) {
	noop := func(sim.VTime) error { return nil }
	events := []sim.Event{
		sim.NewFuncEvent(1, noop),
		sim.NewSecondaryFuncEvent(1, noop),
		&markEvent{},
		sim.NewFuncEvent(2, noop),
		&markEvent{sim.EventBase{Secondary: true}},
		&markEvent{},
	}
	reg := NewRegistry()
	c := NewCollector(reg, network.NewTopology(), nil)
	hook := c.EngineHook(nil)
	dispatch := func() {
		for _, e := range events {
			hook.Func(sim.HookCtx{Pos: sim.HookPosAfterEvent, Now: e.Time(), Item: e})
		}
	}
	const passes = 3
	for i := 0; i < passes; i++ {
		dispatch()
	}
	want := map[string]uint64{}
	for _, e := range events {
		want[eventKind(e)] += passes
	}
	if len(want) != 4 || len(c.kinds) != len(want) {
		t.Fatalf("kinds %v, want %v", c.kinds, want)
	}
	for kind, n := range want {
		if c.kinds[kind] != n {
			t.Errorf("kind %q counted %d, want %d", kind, c.kinds[kind], n)
		}
		got := reg.Counter("triosim_events_total", "kind", kind, "").Value()
		if got != float64(n) {
			t.Errorf("triosim_events_total{kind=%q} = %v, want %d", kind, got, n)
		}
	}
	if allocs := testing.AllocsPerRun(20, dispatch); allocs != 0 {
		t.Fatalf("engine hook allocates %v times per pass, want 0", allocs)
	}
}

// TestCollectorGPUPartitionOverlapAware pins the per-GPU partition on a hand
// built overlap: gpu0 computes [0,4), has a transfer in flight [2,6) (2s
// hidden under compute, 2s exposed) and stages input [5,7) (1s under the
// transfer, 1s exposed); the run lasts 10s. gpu1 computes throughout.
func TestCollectorGPUPartitionOverlapAware(t *testing.T) {
	topo := network.Switch(network.Config{
		NumGPUs: 3, LinkBandwidth: 1e9, HostBandwidth: 1e9,
	})
	gpus := topo.GPUs()
	g := task.NewGraph()
	c := NewCollector(NewRegistry(), topo, nil)
	c.TaskDone(g.AddCompute(0, 4, "op"), 0, 4)
	c.TaskDone(g.AddComm(gpus[0], gpus[2], 1e9, "xfer"), 2, 6)
	c.TaskDone(g.AddHostLoad(topo.Host(), gpus[0], 1e9, "stage"), 5, 7)
	c.TaskDone(g.AddCompute(1, 10, "op"), 0, 10)

	rep := c.Finalize(RunInfo{NumGPUs: 3, TotalSec: 10})
	if len(rep.GPUs) != 3 {
		t.Fatalf("%d GPU rows, want 3", len(rep.GPUs))
	}
	want := []GPUStat{
		{GPU: 0, ComputeSec: 4, ExposedCommSec: 2, ExposedHostSec: 1,
			IdleSec: 3, ComputeTasks: 1},
		{GPU: 1, ComputeSec: 10, ComputeTasks: 1},
		// gpu2 receives the transfer: none of it is hidden under compute.
		{GPU: 2, ExposedCommSec: 4, IdleSec: 6},
	}
	for i, w := range want {
		if rep.GPUs[i] != w {
			t.Fatalf("gpu%d = %+v, want %+v", i, rep.GPUs[i], w)
		}
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
}
