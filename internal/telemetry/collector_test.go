package telemetry

import (
	"testing"

	"triosim/internal/network"
	"triosim/internal/sim"
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
