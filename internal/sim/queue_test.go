package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// refItem is one reference-heap element: the (time, secondary, seq) key in
// its unpacked form, compared field by field as the engine did before the
// keys were packed into eventKey.
type refItem struct {
	time      VTime
	seq       uint64
	secondary bool
}

// refHeap is the reference priority queue: the exact container/heap
// implementation the engine used before the specialized 4-ary heap, kept here
// so the property test and fuzz target can assert the two produce identical
// pop orders for arbitrary interleavings of pushes and pops.
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
// a pop can check the event array moved in step with the key array.
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
	p.q.push(newEventKey(at, p.seq, secondary), e)
	heap.Push(&p.ref, refItem{time: at, seq: p.seq, secondary: secondary})
}

// pop pops both queues and fails unless they agree on the key, the event
// belongs to the key, and -0 and +0 keep their sign bits.
func (p *queuePair) pop(where string) {
	p.t.Helper()
	if p.ref.Len() == 0 {
		p.t.Fatalf("%s: eventQueue holds %d events, reference is empty", where, p.q.len())
	}
	k, e := p.q.pop()
	want := heap.Pop(&p.ref).(refItem)
	seq, secondary := k.ord&^secondaryBit, k.ord&secondaryBit != 0
	if math.Float64bits(float64(k.time)) != math.Float64bits(float64(want.time)) ||
		secondary != want.secondary || seq != want.seq {
		p.t.Fatalf("%s: pop mismatch: eventQueue (%v,%v,%d) vs container/heap (%v,%v,%d)",
			where, k.time, secondary, seq, want.time, want.secondary, want.seq)
	}
	if se, ok := e.(*seqEvent); !ok || se.seq != seq || se.Time() != k.time {
		p.t.Fatalf("%s: popped key seq %d carries event %+v", where, seq, e)
	}
}

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

// TestQueueMatchesContainerHeap drives randomized push/pop interleavings
// through eventQueue and the container/heap reference side by side and asserts
// identical pop order. Times are drawn from a tiny set so same-timestamp
// collisions (where the secondary flag and seq tiebreaks matter) dominate.
func TestQueueMatchesContainerHeap(t *testing.T) {
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
}

// TestQueuePopOrderIsTotal drains a shuffled batch and checks the output is
// strictly increasing in the (time, secondary, seq) total order.
func TestQueuePopOrderIsTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q eventQueue
	for seq := uint64(1); seq <= 1000; seq++ {
		q.push(newEventKey(VTime(rng.Intn(10))*USec, seq, rng.Intn(2) == 0), nil)
	}
	prev, _ := q.pop()
	for q.len() > 0 {
		next, _ := q.pop()
		if !prev.before(&next) {
			t.Fatalf("pop order violated: (%v,%#x) after (%v,%#x)",
				next.time, next.ord, prev.time, prev.ord)
		}
		prev = next
	}
}

// TestEventKeyOrder pins the packed key's order on the cases the packing
// could get wrong: a secondary event with a lower sequence than a primary
// at the same time, and -0 next to +0 (equal times: ord decides).
func TestEventKeyOrder(t *testing.T) {
	negZero := VTime(math.Copysign(0, -1))
	cases := []struct {
		name string
		a, b eventKey
	}{
		{"primary before earlier secondary", newEventKey(1, 9, false), newEventKey(1, 2, true)},
		{"seq within primaries", newEventKey(1, 2, false), newEventKey(1, 9, false)},
		{"seq within secondaries", newEventKey(1, 2, true), newEventKey(1, 9, true)},
		{"time before secondary flag", newEventKey(1, 9, true), newEventKey(2, 1, false)},
		{"-0 ties +0, seq decides", newEventKey(negZero, 1, false), newEventKey(0, 2, false)},
		{"+0 ties -0, seq decides", newEventKey(0, 1, false), newEventKey(negZero, 2, false)},
		{"-0 primary before +0 secondary", newEventKey(negZero, 2, false), newEventKey(0, 1, true)},
	}
	for _, c := range cases {
		if !c.a.before(&c.b) || c.b.before(&c.a) {
			t.Errorf("%s: want (%v,%#x) strictly before (%v,%#x)",
				c.name, c.a.time, c.a.ord, c.b.time, c.b.ord)
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
// queues and compares; any other byte pushes an event with time = low 3 bits
// (in ms), negated when bit 0x40 is set (so 0x40 pushes -0), and secondary =
// high bit. Seeds include ring-collective patterns so the corpus starts on
// the same-timestamp bursts collectives produce.
func FuzzEventQueueOrder(f *testing.F) {
	f.Add(ringCollectiveSeed(4, 3))
	f.Add(ringCollectiveSeed(8, 2))
	f.Add([]byte{0, 0, 0x80, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	// A secondary and then a primary at one time: the primary pops first.
	f.Add([]byte{0x81, 0x01, 0x81, 0x01, 0xFF, 0xFF, 0xFF, 0xFF})
	// -0 next to +0, primary and secondary: only ord separates them.
	f.Add([]byte{0x40, 0x00, 0xC0, 0x80, 0x40, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	// Pushes interleaved with pops, so sifts start from partly drained heaps.
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
			at := VTime(b&0x07) * MSec
			if b&0x40 != 0 {
				at = -at
			}
			p.push(at, b&0x80 != 0)
		}
		p.drain("drain")
	})
}
