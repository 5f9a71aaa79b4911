package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"sync"
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

// tickEvent embeds EventBase, so its handler type is whatever the scheduler
// passes; the fold tables must key on both types, not the event alone.
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

// TestDigestLabelCacheMatchesSprintf checks the default labels' fold tables
// fold exactly the bytes of the historical per-event fmt.Sprintf("%T/%T"):
// the table-folded digest equals the byte-wise digest of the Sprintf label,
// and each shared table is the one built from that label.
func TestDigestLabelCacheMatchesSprintf(t *testing.T) {
	sprintf := func(e Event) string { return fmt.Sprintf("%T/%T", e, e.Handler()) }
	type dispatched struct {
		key   foldKey
		e     Event
		h     Handler
		label string
	}
	var seen []dispatched
	digestOf := func(nameOf func(Event) string) uint64 {
		eng := NewSerialEngine()
		d := NewDigestHook()
		d.NameOf = nameOf
		eng.RegisterHook(d)
		eng.RegisterHook(HookFunc(func(ctx HookCtx) {
			if ctx.Pos != HookPosBeforeEvent || nameOf != nil {
				return
			}
			e := ctx.Item.(Event)
			h := e.Handler()
			seen = append(seen, dispatched{
				foldKey{reflect.TypeOf(e), reflect.TypeOf(h), e.IsSecondary()},
				e, h, sprintf(e)})
		}))
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
	want := digestOf(sprintf)
	if cached != want {
		t.Fatalf("cached-label digest %#x, Sprintf-label digest %#x", cached, want)
	}
	for _, s := range seen {
		got := sharedFoldTable(s.key, s.e, s.h)
		if ref := newFoldTable(s.label, s.key.secondary); *got != *ref {
			t.Fatalf("%s (secondary %v): shared table differs from the %%T/%%T label's",
				s.label, s.key.secondary)
		}
	}
}

// concEvent and concHandler appear only in TestDigestHookConcurrentEngines,
// so their fold tables are built while its engines run side by side.
type concEvent struct{ EventBase }

type concHandler struct{}

func (concHandler) Handle(Event) error { return nil }

// TestDigestHookConcurrentEngines runs engines on several goroutines at
// once, as the daemon's workers do, so they build and read the shared fold
// tables concurrently (run under -race in CI); every run must produce the
// digest a lone run does.
func TestDigestHookConcurrentEngines(t *testing.T) {
	workload := func(eng *SerialEngine) error {
		for i := 0; i < 50; i++ {
			at := VTime(i % 5)
			eng.Schedule(&concEvent{NewEventBase(at, concHandler{})})
			eng.Schedule(&concEvent{EventBase{EventTime: at, EventHdl: concHandler{}, Secondary: true}})
			ScheduleFunc(eng, at, func(VTime) error { return nil })
		}
		return labelMix(eng)
	}
	const workers = 4
	digests := make([]uint64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			digests[w], errs[w] = ReplayCheck(2, workload)
		}(w)
	}
	wg.Wait()
	want, err := ReplayCheck(2, workload)
	if err != nil {
		t.Fatal(err)
	}
	for w := range digests {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if digests[w] != want {
			t.Fatalf("worker %d digest %#x, lone run %#x", w, digests[w], want)
		}
	}
}

// fnv1aRef is the byte-wise FNV-1a reference for FuzzDigestFold: it folds
// label, its length and the secondary bit from state d, one byte at a time.
func fnv1aRef(d uint64, label []byte, secondary bool) uint64 {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(len(label)))
	if secondary {
		buf[8] = 1
	}
	for _, b := range append(append([]byte(nil), label...), buf[:]...) {
		d = (d ^ uint64(b)) * fnvPrime
	}
	return d
}

// FuzzDigestFold checks the constant-time table fold against the byte-wise
// FNV-1a fold for arbitrary start states, labels and secondary bits,
// including the empty label and labels longer than the table's 256 rows.
func FuzzDigestFold(f *testing.F) {
	f.Add(fnvOffset, []byte(nil), false)
	f.Add(fnvOffset, []byte("*sim.funcEvent/sim.HandlerFunc"), true)
	f.Add(uint64(0), []byte("x"), false)
	f.Add(^uint64(0), []byte(strings.Repeat("long label/", 30)), true)
	f.Add(uint64(0x1234567890abcdef), bytes.Repeat([]byte{0xff, 0}, 200), false)
	f.Fuzz(func(t *testing.T, d uint64, label []byte, secondary bool) {
		tab := newFoldTable(string(label), secondary)
		if got, want := tab.fold(d), fnv1aRef(d, label, secondary); got != want {
			t.Fatalf("fold(%#x, %q, %v) = %#x, byte-wise FNV-1a %#x",
				d, label, secondary, got, want)
		}
		var h DigestHook
		h.digest = d
		h.foldString(string(label))
		h.foldUint64(uint64(boolBit(secondary)))
		if h.digest != tab.fold(d) {
			t.Fatalf("fold(%#x, %q, %v) = %#x, DigestHook byte-wise fold %#x",
				d, label, secondary, tab.fold(d), h.digest)
		}
	})
}

// TestDigestHookFuncAllocs gates the digest hook at zero allocations per
// event once each (event, handler, secondary) fold table has been built.
func TestDigestHookFuncAllocs(t *testing.T) {
	eng := NewSerialEngine()
	ScheduleFunc(eng, 1, func(VTime) error { return nil })
	_, pooled := eng.queue.pop() // a funcEvent from the engine's pool
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
