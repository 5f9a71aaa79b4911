package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// refItem is one reference-heap element: the (time, secondary, seq) key,
// compared field by field.
type refItem struct {
	time      VTime
	seq       uint64
	secondary bool
}

// refHeap is the reference priority queue: the exact container/heap
// implementation the engine used before its specialized queues, kept here so
// the property test and fuzz target can assert the two produce identical pop
// orders for arbitrary interleavings of pushes and pops.
type refHeap []refItem

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	if h[i].secondary != h[j].secondary {
		return !h[i].secondary // primary before secondary
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *refHeap) Push(x any) { *h = append(*h, x.(refItem)) }

func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// seqEvent is a queue test event that remembers its insertion sequence, so
// a pop can check which event came out, not only its time.
type seqEvent struct {
	EventBase
	seq uint64
}

// queuePair drives an eventQueue and the container/heap reference side by
// side.
type queuePair struct {
	t   testing.TB
	q   eventQueue
	ref refHeap
	seq uint64
}

func (p *queuePair) push(at VTime, secondary bool) {
	p.seq++
	e := &seqEvent{EventBase: EventBase{EventTime: at, Secondary: secondary}, seq: p.seq}
	p.q.push(at, secondary, e)
	heap.Push(&p.ref, refItem{time: at, seq: p.seq, secondary: secondary})
}

// pop pops both queues and fails unless they agree on the event's (time,
// secondary, seq) key, the popped time is the event's own, and -0 and +0 keep
// their sign bits. It returns the popped time.
func (p *queuePair) pop(where string) VTime {
	p.t.Helper()
	if p.ref.Len() == 0 {
		p.t.Fatalf("%s: eventQueue holds %d events, reference is empty", where, p.q.len())
	}
	at, e := p.q.pop()
	want := heap.Pop(&p.ref).(refItem)
	se, ok := e.(*seqEvent)
	if !ok {
		p.t.Fatalf("%s: popped %+v, not a queue test event", where, e)
	}
	if bitsOf(at) != bitsOf(want.time) || bitsOf(se.Time()) != bitsOf(at) ||
		se.Secondary != want.secondary || se.seq != want.seq {
		p.t.Fatalf("%s: pop mismatch: eventQueue %v (%v,%v,%d) vs container/heap (%v,%v,%d)",
			where, at, se.Time(), se.Secondary, se.seq, want.time, want.secondary, want.seq)
	}
	return at
}

func bitsOf(t VTime) uint64 { return math.Float64bits(float64(t)) }

// drain pops both queues empty.
func (p *queuePair) drain(where string) {
	p.t.Helper()
	for p.q.len() > 0 {
		p.pop(where)
	}
	if p.ref.Len() != 0 {
		p.t.Fatalf("%s: reference holds %d events after eventQueue drained", where, p.ref.Len())
	}
}

// slots returns how many slots the queue's store has handed out.
func (q *eventQueue) slots() int {
	n := 0
	for _, c := range q.chunks {
		n += len(c)
	}
	return n - 1 // slot 0 is the nil link
}

// TestQueueMatchesContainerHeap drives push/pop interleavings through
// eventQueue and the container/heap reference side by side and asserts
// identical pop order, on random streams and on the shapes the radix queue
// handles apart: huge same-time groups, a store of several chunks, signed
// zeros and infinities, and pushes below the last popped time.
func TestQueueMatchesContainerHeap(t *testing.T) {
	// Times are drawn from a tiny set so same-timestamp collisions (where
	// the secondary flag and seq tiebreaks matter) dominate, and later
	// pushes often land below the last popped time.
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 200; trial++ {
			p := &queuePair{t: t}
			ops := 1 + rng.Intn(400)
			for op := 0; op < ops; op++ {
				if p.q.len() == 0 || rng.Intn(3) > 0 {
					p.push(VTime(rng.Intn(5))*MSec, rng.Intn(4) == 0)
					continue
				}
				p.pop("interleaved")
			}
			p.drain("drain")
		}
	})

	// The eager exact solver's shape: every re-solve (a secondary event) pops
	// and reschedules a burst of deliveries to one shared future time, so over
	// 10,000 events wait at that time, and more primaries and secondaries
	// join the group at its own time while it drains. Never below the last
	// popped time.
	t.Run("same-time group", func(t *testing.T) {
		const shared = 50 * MSec
		p := &queuePair{t: t}
		p.push(0, true)
		for solve := 0; solve < 60; solve++ {
			now := p.pop("re-solve")
			for j := 0; j < 200; j++ {
				p.push(shared, j%50 == 49)
			}
			p.push(now+VTime(1+solve%3)*USec, true)
		}
		for n := 0; p.q.len() > 0; n++ {
			now := p.pop("group")
			if now == shared && n%7 == 0 {
				p.push(shared, n%14 == 0)
			}
		}
		if p.ref.Len() != 0 {
			t.Fatalf("reference holds %d events after eventQueue drained", p.ref.Len())
		}
	})

	// More than 4,096 live entries fill several chunks, and the partial
	// drains free slots that later pushes must reuse before the store
	// grows.
	t.Run("chunks and free list", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		p := &queuePair{t: t}
		live := 0
		for round := 0; round < 3; round++ {
			for j := 0; j < 6000; j++ {
				p.push(VTime(rng.Intn(3000))*USec+VTime(round)*MSec, rng.Intn(5) == 0)
			}
			for j := 0; j < 4500; j++ {
				p.pop("partial drain")
			}
			live = max(live, p.q.len()+4500)
		}
		if got := p.q.slots(); got != live {
			t.Fatalf("store handed out %d slots for a peak of %d live events", got, live)
		}
		if got := len(p.q.chunks); got != (live+1+chunkMask)/chunkSize {
			t.Fatalf("store holds %d chunks for %d slots", got, live)
		}
		p.drain("drain")
	})

	// -0 next to +0, the infinities, and negative times, all pushed before
	// the first pop, then again after pops have moved the base.
	t.Run("signed zeros and infinities", func(t *testing.T) {
		negZero := VTime(math.Copysign(0, -1))
		times := []VTime{negZero, 0, Infinity, -Infinity, -MSec, MSec,
			VTime(math.SmallestNonzeroFloat64), -VTime(math.SmallestNonzeroFloat64),
			VTime(math.MaxFloat64), -VTime(math.MaxFloat64)}
		p := &queuePair{t: t}
		for round := 0; round < 3; round++ {
			for i, at := range times {
				p.push(at, i%3 == 1)
				p.push(at, i%3 != 1)
			}
			for j := 0; j < len(times); j++ {
				p.pop("interleaved")
			}
		}
		p.drain("drain")
	})

	// Pushes below the last popped time (past events, which Run rejects)
	// pop first, smallest key first, ahead of the same-time group.
	t.Run("below last popped", func(t *testing.T) {
		p := &queuePair{t: t}
		for j := 0; j < 20; j++ {
			p.push(VTime(10+j%4)*MSec, j%5 == 0)
		}
		p.pop("first")
		p.pop("second")
		p.push(5*MSec, true)
		p.push(2*MSec, false)
		p.push(5*MSec, false)
		p.push(10*MSec, true)
		p.push(-MSec, true)
		for j := 0; j < 8; j++ {
			p.pop("past first")
		}
		p.push(MSec, false)
		p.push(11*MSec, false)
		p.drain("drain")
	})
}

// TestQueueSteadyStateAllocs gates the queue itself at zero allocations per
// push and pop once its store has reached the queue's high-water mark.
func TestQueueSteadyStateAllocs(t *testing.T) {
	const events = 3 * chunkSize
	var q eventQueue
	now := VTime(0)
	cycle := func() {
		for j := 0; j < events; j++ {
			q.push(now+VTime(j%13)*USec, j%4 == 0, nil)
			if j%3 == 2 {
				now, _ = q.pop()
			}
		}
		for q.len() > 0 {
			now, _ = q.pop()
		}
	}
	cycle() // size the store
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("eventQueue push/pop allocates %v times per cycle, want 0", allocs)
	}
}

// TestQueuePopOrderIsTotal drains a shuffled batch and checks the output is
// strictly increasing in the (time, secondary, seq) total order.
func TestQueuePopOrderIsTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q eventQueue
	for seq := uint64(1); seq <= 1000; seq++ {
		at, secondary := VTime(rng.Intn(10))*USec, rng.Intn(2) == 0
		q.push(at, secondary, &seqEvent{EventBase: EventBase{EventTime: at, Secondary: secondary}, seq: seq})
	}
	var prev refItem
	for n := 0; q.len() > 0; n++ {
		_, e := q.pop()
		se := e.(*seqEvent)
		next := refItem{time: se.Time(), seq: se.seq, secondary: se.Secondary}
		if pair := (refHeap{prev, next}); n > 0 && !pair.Less(0, 1) {
			t.Fatalf("pop order violated: (%v,%v,%d) after (%v,%v,%d)",
				next.time, next.secondary, next.seq, prev.time, prev.secondary, prev.seq)
		}
		prev = next
	}
}

// TestEventKeyOrder pins the dispatch key's order, (time, secondary, seq),
// on the cases a radix key could get wrong: a secondary event pushed before
// a primary at the same time, and -0 next to +0 (equal times: the flag, then
// the sequence, decides). Each case pushes its two events in sequence order
// and expects a to pop first.
func TestEventKeyOrder(t *testing.T) {
	negZero := VTime(math.Copysign(0, -1))
	cases := []struct {
		name string
		a, b refItem
	}{
		{"primary before earlier secondary", refItem{1, 9, false}, refItem{1, 2, true}},
		{"seq within primaries", refItem{1, 2, false}, refItem{1, 9, false}},
		{"seq within secondaries", refItem{1, 2, true}, refItem{1, 9, true}},
		{"time before secondary flag", refItem{1, 9, true}, refItem{2, 1, false}},
		{"-0 ties +0, seq decides", refItem{negZero, 1, false}, refItem{0, 2, false}},
		{"+0 ties -0, seq decides", refItem{0, 1, false}, refItem{negZero, 2, false}},
		{"-0 primary before +0 secondary", refItem{negZero, 2, false}, refItem{0, 1, true}},
	}
	for _, c := range cases {
		var q eventQueue
		first, second := c.a, c.b
		if first.seq > second.seq {
			first, second = second, first
		}
		for _, it := range []refItem{first, second} {
			q.push(it.time, it.secondary, &seqEvent{EventBase: EventBase{EventTime: it.time, Secondary: it.secondary}, seq: it.seq})
		}
		if at, e := q.pop(); e.(*seqEvent).seq != c.a.seq || bitsOf(at) != bitsOf(c.a.time) {
			t.Errorf("%s: want (%v,%v,%d) to pop before (%v,%v,%d), got seq %d at %v",
				c.name, c.a.time, c.a.secondary, c.a.seq, c.b.time, c.b.secondary, c.b.seq,
				e.(*seqEvent).seq, at)
		}
	}
}

// ringCollectiveSeed encodes the event pattern a ring all-reduce produces:
// per step, one primary send per GPU at the same timestamp (a same-time
// burst that only the seq tie-break orders) followed by a secondary
// bookkeeping flush, with the next step offset in time. Each byte is one fuzz op (see
// FuzzEventQueueOrder for the decoding).
func ringCollectiveSeed(gpus, steps int) []byte {
	var ops []byte
	for s := 0; s < steps; s++ {
		tick := byte(s % 8)
		for g := 0; g < gpus; g++ {
			ops = append(ops, tick) // primary send at this step's time
		}
		ops = append(ops, tick|0x80) // secondary flush at the same time
		for g := 0; g < gpus; g++ {
			ops = append(ops, 0xFF) // drain the step
		}
	}
	return ops
}

// FuzzEventQueueOrder fuzzes push/pop interleavings: byte 0xFF pops from both
// queues and compares; any other byte pushes a secondary event when its high
// bit is set, at a time built from its low bits:
//
//   - bits 0x07: the time in ms;
//   - 0x08: one ulp later, so radix keys differ only in their lowest bits;
//   - 0x10: scaled by 2³⁰, so radix keys differ in the exponent;
//   - 0x20: +Inf instead;
//   - 0x40: negated (so 0x40 pushes -0 and 0x60 -Inf).
//
// Seeds include ring-collective patterns so the corpus starts on the
// same-timestamp bursts collectives produce. The larger seeds are checked in
// under testdata/fuzz/FuzzEventQueueOrder: a same-time group of over 10,000
// events, over 4,096 live events, signed zeros and infinities before the
// first pop, and pushes below the last popped time.
func FuzzEventQueueOrder(f *testing.F) {
	f.Add(ringCollectiveSeed(4, 3))
	f.Add(ringCollectiveSeed(8, 2))
	f.Add([]byte{0, 0, 0x80, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	// A secondary and then a primary at one time: the primary pops first.
	f.Add([]byte{0x81, 0x01, 0x81, 0x01, 0xFF, 0xFF, 0xFF, 0xFF})
	// -0 next to +0, primary and secondary: only ord separates them.
	f.Add([]byte{0x40, 0x00, 0xC0, 0x80, 0x40, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	// Pushes interleaved with pops, so refills start from partly drained
	// queues.
	f.Add([]byte{3, 1, 0xFF, 2, 0x82, 0, 0xFF, 0x81, 1, 0xFF, 4, 0x40, 0xFF, 0xC4, 0xFF})
	f.Fuzz(func(t *testing.T, ops []byte) {
		p := &queuePair{t: t}
		for _, b := range ops {
			if b == 0xFF {
				if p.q.len() == 0 {
					if p.ref.Len() != 0 {
						t.Fatalf("eventQueue empty but reference holds %d", p.ref.Len())
					}
					continue
				}
				p.pop("interleaved")
				continue
			}
			p.push(fuzzTime(b), b&0x80 != 0)
		}
		p.drain("drain")
	})
}

// fuzzTime decodes a push byte's time (see FuzzEventQueueOrder).
func fuzzTime(b byte) VTime {
	at := float64(b&0x07) * float64(MSec)
	if b&0x08 != 0 {
		at = math.Nextafter(at, math.Inf(1))
	}
	if b&0x10 != 0 {
		at *= 1 << 30
	}
	if b&0x20 != 0 {
		at = math.Inf(1)
	}
	if b&0x40 != 0 {
		at = -at
	}
	return VTime(at)
}
