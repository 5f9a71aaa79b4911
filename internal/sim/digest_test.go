package sim

import (
	"fmt"
	"strings"
	"testing"
)

// mixedWorkload schedules a deliberately adversarial mix: primary and
// secondary events at identical timestamps, cascading re-schedules, and
// ties that only the (time, secondary, sequence) total order resolves.
func mixedWorkload(eng *SerialEngine) error {
	for i := 0; i < 8; i++ {
		i := i
		at := VTime(1 + i%3) // times 1,2,3 with many ties
		eng.Schedule(NewFuncEvent(at, func(now VTime) error {
			if i%2 == 0 {
				eng.Schedule(NewSecondaryFuncEvent(now, func(VTime) error {
					return nil
				}))
			}
			eng.Schedule(NewFuncEvent(now+VTime(i)*MSec, func(VTime) error {
				return nil
			}))
			return nil
		}))
		eng.Schedule(NewSecondaryFuncEvent(at, func(VTime) error { return nil }))
	}
	return nil
}

// goldenMixedDigest pins the event-schedule digest of mixedWorkload. If an
// engine change alters same-time ordering (primary-before-secondary, FIFO
// within a class), this value changes and the regression is caught — update
// it only when the ordering change is intentional and documented.
const goldenMixedDigest = uint64(0xb74c39ce8ef02660)

func TestMixedWorkloadDigestStable(t *testing.T) {
	digest, err := ReplayCheck(3, mixedWorkload)
	if err != nil {
		t.Fatal(err)
	}
	if digest != goldenMixedDigest {
		t.Fatalf("mixed workload digest = %#x, want pinned %#x "+
			"(same-time event ordering changed?)", digest, goldenMixedDigest)
	}
}

func TestReplayCheckDetectsDivergence(t *testing.T) {
	run := 0
	diverging := func(eng *SerialEngine) error {
		run++
		eng.Schedule(NewFuncEvent(VTime(run), func(VTime) error { return nil }))
		return nil
	}
	_, err := ReplayCheck(2, diverging)
	if err == nil {
		t.Fatal("ReplayCheck accepted a diverging workload")
	}
	if !strings.Contains(err.Error(), "replay divergence") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestReplayCheckNeedsTwoRuns(t *testing.T) {
	if _, err := ReplayCheck(1, mixedWorkload); err == nil {
		t.Fatal("ReplayCheck(1, ...) should be rejected")
	}
}

func TestDigestHookCountsAndNames(t *testing.T) {
	eng := NewSerialEngine()
	d := NewDigestHook()
	d.NameOf = func(e Event) string { return "ev" }
	eng.RegisterHook(d)
	for i := 1; i <= 3; i++ {
		eng.Schedule(NewFuncEvent(VTime(i), func(VTime) error { return nil }))
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Count() != 3 {
		t.Fatalf("digest count = %d, want 3", d.Count())
	}
	if d.Sum64() == NewDigestHook().Sum64() {
		t.Fatal("digest did not change after events")
	}
}

func TestDigestDiffersAcrossSchedules(t *testing.T) {
	digestOf := func(times []VTime) uint64 {
		eng := NewSerialEngine()
		d := NewDigestHook()
		eng.RegisterHook(d)
		for _, at := range times {
			eng.Schedule(NewFuncEvent(at, func(VTime) error { return nil }))
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return d.Sum64()
	}
	if digestOf([]VTime{1, 2, 3}) == digestOf([]VTime{1, 2, 4}) {
		t.Fatal("different schedules produced the same digest")
	}
}

func TestMonitorHandlerCountsSorted(t *testing.T) {
	m := NewMonitor(nil)
	m.ByHandler = map[string]uint64{"zeta": 3, "alpha": 1, "mid": 2}
	counts := m.HandlerCounts()
	if len(counts) != 3 {
		t.Fatalf("len = %d", len(counts))
	}
	want := []string{"alpha", "mid", "zeta"}
	for i, hc := range counts {
		if hc.Name != want[i] {
			t.Fatalf("order %v, want %v", counts, want)
		}
	}
	if counts[0].Count != 1 || counts[2].Count != 3 {
		t.Fatalf("counts wrong: %v", counts)
	}
}

// tickEvent embeds EventBase, so its handler type is whatever the scheduler
// passes; the label cache must key on both types, not the event alone.
type tickEvent struct {
	EventBase
	n int
}

type countHandler struct{ n int }

func (h *countHandler) Handle(Event) error { h.n++; return nil }

type otherHandler struct{}

func (otherHandler) Handle(Event) error { return nil }

// labelMix schedules a mix of (event, handler) type pairs in an order that
// alternates pairs, repeats them back to back and comes back to earlier
// ones: pooled and unpooled funcEvents (primary and secondary), and an
// EventBase-embedding event under two handler types.
func labelMix(eng *SerialEngine) error {
	ch := &countHandler{}
	for i := 0; i < 6; i++ {
		at := VTime(1 + i%2)
		ScheduleFunc(eng, at, func(VTime) error { return nil })
		eng.Schedule(NewFuncEvent(at, func(VTime) error { return nil }))
		eng.Schedule(&tickEvent{EventBase: NewEventBase(at, ch), n: i})
		eng.Schedule(&tickEvent{EventBase: NewEventBase(at, otherHandler{}), n: i})
		eng.Schedule(&tickEvent{EventBase: NewEventBase(at, ch), n: i})
		ScheduleSecondaryFunc(eng, at, func(VTime) error { return nil })
		eng.Schedule(NewSecondaryFuncEvent(at, func(VTime) error { return nil }))
	}
	return nil
}

// TestDigestLabelCacheMatchesSprintf checks the cached default labels fold
// exactly the bytes of the historical per-event fmt.Sprintf("%T/%T").
func TestDigestLabelCacheMatchesSprintf(t *testing.T) {
	digestOf := func(nameOf func(Event) string) uint64 {
		eng := NewSerialEngine()
		d := NewDigestHook()
		d.NameOf = nameOf
		eng.RegisterHook(d)
		if err := labelMix(eng); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if d.Count() != 42 {
			t.Fatalf("folded %d events, want 42", d.Count())
		}
		return d.Sum64()
	}
	cached := digestOf(nil)
	want := digestOf(func(e Event) string {
		return fmt.Sprintf("%T/%T", e, e.Handler())
	})
	if cached != want {
		t.Fatalf("cached-label digest %#x, Sprintf-label digest %#x", cached, want)
	}
}

// TestDigestHookFuncAllocs gates the digest hook at zero allocations per
// event once each (event, handler) pair has been labeled.
func TestDigestHookFuncAllocs(t *testing.T) {
	eng := NewSerialEngine()
	ScheduleFunc(eng, 1, func(VTime) error { return nil })
	pooled := eng.queue.items[0].event // a funcEvent from the engine's pool
	events := []Event{
		pooled,
		NewFuncEvent(1, func(VTime) error { return nil }),
		NewSecondaryFuncEvent(1, func(VTime) error { return nil }),
		&tickEvent{EventBase: NewEventBase(1, &countHandler{})},
		&tickEvent{EventBase: NewEventBase(1, otherHandler{})},
	}
	d := NewDigestHook()
	fold := func() {
		for _, e := range events {
			d.Func(HookCtx{Pos: HookPosBeforeEvent, Now: 1, Item: e})
		}
	}
	fold() // label each pair once
	if allocs := testing.AllocsPerRun(100, fold); allocs != 0 {
		t.Fatalf("DigestHook.Func allocates %v times per pass, want 0", allocs)
	}
}
