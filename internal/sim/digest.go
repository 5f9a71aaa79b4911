package sim

import (
	"fmt"
	"math"
	"reflect"
	"sync" //triosim:nolint no-goroutine-in-sim -- guards the process-wide fold-table store that concurrent daemon workers' engines share; no engine state
)

// FNV-1a constants (64-bit).
const (
	fnvOffset uint64 = 0xcbf29ce484222325
	fnvPrime  uint64 = 0x100000001b3
)

// DigestHook folds every dispatched event's (virtual time, handler name,
// dispatch sequence) into a running FNV-1a digest. Two runs of the same
// workload must produce the same digest; a mismatch means the schedule
// itself diverged — the exact failure mode map iteration order, wall-clock
// reads, or unseeded randomness introduce. It is the runtime complement to
// the triosimvet static analyzers.
type DigestHook struct {
	// NameOf labels events in the digest. Nil uses the dynamic types of the
	// event and its handler, which are stable across runs of a binary.
	NameOf func(e Event) string

	digest uint64
	count  uint64

	// memo holds, per secondary bit, the most recent fold table and its
	// key, so a run of same-kind events skips the shared table store.
	memo [2]struct {
		key foldKey
		tab *foldTable
	}
}

// NewDigestHook returns a hook with an empty digest.
func NewDigestHook() *DigestHook {
	return &DigestHook{digest: fnvOffset}
}

var _ Hook = (*DigestHook)(nil)

// Func implements Hook, folding each dispatch as it begins: the time's
// bytes, the event's label, the label length and the secondary flag, then
// the dispatch count.
func (d *DigestHook) Func(ctx HookCtx) {
	if ctx.Pos != HookPosBeforeEvent {
		return
	}
	d.foldUint64(math.Float64bits(float64(ctx.Now)))
	if e, ok := ctx.Item.(Event); ok {
		if d.NameOf != nil {
			d.foldString(d.NameOf(e))
			d.foldUint64(uint64(boolBit(e.IsSecondary())))
		} else {
			d.digest = d.table(e).fold(d.digest)
		}
	}
	d.foldUint64(d.count)
	d.count++
}

// table returns the fold table of e's default label and secondary flag,
// from the hook's memo or the process-wide store.
func (d *DigestHook) table(e Event) *foldTable {
	h := e.Handler()
	k := foldKey{reflect.TypeOf(e), reflect.TypeOf(h), e.IsSecondary()}
	m := &d.memo[boolBit(k.secondary)]
	if m.key != k { // e is non-nil, so k is never the empty slot's zero key
		m.key, m.tab = k, sharedFoldTable(k, e, h)
	}
	return m.tab
}

// Sum64 returns the digest over all events folded so far.
func (d *DigestHook) Sum64() uint64 { return d.digest }

// Count returns the number of events folded.
func (d *DigestHook) Count() uint64 { return d.count }

func (d *DigestHook) foldUint64(v uint64) {
	for i := 0; i < 8; i++ {
		d.digest = (d.digest ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
}

func (d *DigestHook) foldString(s string) {
	for i := 0; i < len(s); i++ {
		d.digest = (d.digest ^ uint64(s[i])) * fnvPrime
	}
	d.foldUint64(uint64(len(s)))
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// foldTable folds one fixed byte string S — an event's label, the label
// length and the secondary flag, exactly the bytes DigestHook folds per
// event between the time and the count — into an FNV-1a state in constant
// time.
//
// One FNV-1a step is d ↦ (d ^ b)·p. The xor changes only the low byte of
// d, so it adds a correction, (d&0xff ^ b) − d&0xff, that depends on that
// low byte alone, and the new low byte depends on the old one alone. By
// induction, folding S of length k maps d ↦ d·pᵏ + C[d & 0xff] (mod 2⁶⁴).
// add holds C for all 256 low bytes, each found by folding S byte-wise from
// that low byte.
type foldTable struct {
	mul uint64 // pᵏ
	add [256]uint64
}

// newFoldTable builds the table of label, len(label) and the secondary bit.
func newFoldTable(label string, secondary bool) *foldTable {
	t := &foldTable{mul: 1}
	for k := len(label) + 8 + 8; k > 0; k-- { // label, length, secondary flag
		t.mul *= fnvPrime
	}
	var h DigestHook
	for x := range t.add {
		h.digest = uint64(x)
		h.foldString(label)
		h.foldUint64(uint64(boolBit(secondary)))
		t.add[x] = h.digest - uint64(x)*t.mul
	}
	return t
}

// fold returns the state after folding the table's string from d.
func (t *foldTable) fold(d uint64) uint64 {
	return d*t.mul + t.add[d&0xff]
}

// foldKey identifies one default-label fold table.
type foldKey struct {
	event, handler reflect.Type
	secondary      bool
}

// foldTables is the process-wide fold-table store. Tables are pure
// functions of their key, so every DigestHook — including the ones
// concurrent daemon workers run on their own engines — shares them; each is
// built once per process, on a key's first event.
var foldTables struct {
	mu   sync.Mutex
	tabs map[foldKey]*foldTable
}

// sharedFoldTable returns the table of fmt.Sprintf("%T/%T", e, h) and k's
// secondary bit, building it on first use.
func sharedFoldTable(k foldKey, e Event, h Handler) *foldTable {
	foldTables.mu.Lock()
	defer foldTables.mu.Unlock()
	t, ok := foldTables.tabs[k]
	if !ok {
		if foldTables.tabs == nil {
			foldTables.tabs = map[foldKey]*foldTable{}
		}
		t = newFoldTable(fmt.Sprintf("%T/%T", e, h), k.secondary)
		foldTables.tabs[k] = t
	}
	return t
}

// ReplayCheck runs the workload `runs` times, each on a fresh engine with a
// fresh DigestHook, and returns the common event digest. It fails when any
// run's digest (or event count) differs from the first — the replay gate CI
// uses to prove the simulation is deterministic end to end.
func ReplayCheck(runs int, workload func(eng *SerialEngine) error) (uint64, error) {
	if runs < 2 {
		return 0, fmt.Errorf("sim: ReplayCheck needs at least 2 runs, got %d", runs)
	}
	var first *DigestHook
	for i := 0; i < runs; i++ {
		eng := NewSerialEngine()
		d := NewDigestHook()
		eng.RegisterHook(d)
		if err := workload(eng); err != nil {
			return 0, fmt.Errorf("sim: ReplayCheck run %d: %w", i+1, err)
		}
		if err := eng.Run(); err != nil {
			return 0, fmt.Errorf("sim: ReplayCheck run %d: %w", i+1, err)
		}
		if first == nil {
			first = d
			continue
		}
		if d.Sum64() != first.Sum64() || d.Count() != first.Count() {
			return 0, fmt.Errorf(
				"sim: replay divergence on run %d: digest %#x (%d events) vs %#x (%d events)",
				i+1, d.Sum64(), d.Count(), first.Sum64(), first.Count())
		}
	}
	return first.Sum64(), nil
}

// OutcomeDigest digests what a run computed, not the order it computed it
// in: a wrapping sum of a 64-bit mix of each record, an ID and two times'
// bits. The sum commutes, so same-time events that reorder leave it alone,
// and it stores nothing per record.
type OutcomeDigest uint64

// OutcomeMakespanID is the record ID a run's makespan is folded under. Task
// and request IDs are non-negative, so it never collides with one.
const OutcomeMakespanID = math.MaxUint64

// Add folds one record.
//
//triosim:hotpath
func (d *OutcomeDigest) Add(id uint64, start, end VTime) {
	h := mix64(id)
	h = mix64(h ^ math.Float64bits(float64(start)))
	h = mix64(h ^ math.Float64bits(float64(end)))
	*d += OutcomeDigest(h)
}

// mix64 is SplitMix64's output function: a bijective avalanche mix, offset
// so that zero does not map to zero.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
