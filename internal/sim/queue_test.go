package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is the reference priority queue: the exact container/heap
// implementation the engine used before the specialized 4-ary heap, kept here
// so the property test and fuzz target can assert the two produce identical
// pop orders for arbitrary interleavings of pushes and pops.
type refHeap []queuedEvent

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

func (h *refHeap) Push(x any) { *h = append(*h, x.(queuedEvent)) }

func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	item := old[n-1]
	old[n-1] = queuedEvent{}
	*h = old[:n-1]
	return item
}

func sameKey(a, b queuedEvent) bool {
	return a.time == b.time && a.secondary == b.secondary && a.seq == b.seq
}

// TestQueueMatchesContainerHeap drives randomized push/pop interleavings
// through eventQueue and the container/heap reference side by side and asserts
// identical pop order. Times are drawn from a tiny set so same-timestamp
// collisions (where the secondary flag and seq tiebreaks matter) dominate.
func TestQueueMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		var q eventQueue
		ref := &refHeap{}
		var seq uint64
		ops := 1 + rng.Intn(400)
		for op := 0; op < ops; op++ {
			if q.len() == 0 || rng.Intn(3) > 0 {
				seq++
				qe := queuedEvent{
					time:      VTime(rng.Intn(5)) * MSec,
					seq:       seq,
					secondary: rng.Intn(4) == 0,
				}
				q.push(qe)
				heap.Push(ref, qe)
				continue
			}
			got := q.pop()
			want := heap.Pop(ref).(queuedEvent)
			if !sameKey(got, want) {
				t.Fatalf("trial %d op %d: pop mismatch: eventQueue (%v,%v,%d) vs container/heap (%v,%v,%d)",
					trial, op, got.time, got.secondary, got.seq,
					want.time, want.secondary, want.seq)
			}
		}
		for q.len() > 0 {
			if ref.Len() == 0 {
				t.Fatalf("trial %d: eventQueue has %d leftover events, reference is empty",
					trial, q.len())
			}
			got := q.pop()
			want := heap.Pop(ref).(queuedEvent)
			if !sameKey(got, want) {
				t.Fatalf("trial %d drain: pop mismatch: eventQueue (%v,%v,%d) vs container/heap (%v,%v,%d)",
					trial, got.time, got.secondary, got.seq,
					want.time, want.secondary, want.seq)
			}
		}
		if ref.Len() != 0 {
			t.Fatalf("trial %d: reference has %d leftover events, eventQueue is empty",
				trial, ref.Len())
		}
	}
}

// TestQueuePopOrderIsTotal drains a shuffled batch and checks the output is
// strictly increasing in the (time, secondary, seq) total order.
func TestQueuePopOrderIsTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q eventQueue
	for seq := uint64(1); seq <= 1000; seq++ {
		q.push(queuedEvent{
			time:      VTime(rng.Intn(10)) * USec,
			seq:       seq,
			secondary: rng.Intn(2) == 0,
		})
	}
	prev := q.pop()
	for q.len() > 0 {
		next := q.pop()
		if next.before(&prev) {
			t.Fatalf("pop order violated: (%v,%v,%d) after (%v,%v,%d)",
				next.time, next.secondary, next.seq,
				prev.time, prev.secondary, prev.seq)
		}
		prev = next
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
// (in ms) and secondary = high bit. Seeds include ring-collective patterns so
// the corpus starts on the same-timestamp bursts collectives produce.
func FuzzEventQueueOrder(f *testing.F) {
	f.Add(ringCollectiveSeed(4, 3))
	f.Add(ringCollectiveSeed(8, 2))
	f.Add([]byte{0, 0, 0x80, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q eventQueue
		ref := &refHeap{}
		var seq uint64
		for _, b := range ops {
			if b == 0xFF {
				if q.len() == 0 {
					if ref.Len() != 0 {
						t.Fatalf("eventQueue empty but reference holds %d", ref.Len())
					}
					continue
				}
				got := q.pop()
				want := heap.Pop(ref).(queuedEvent)
				if !sameKey(got, want) {
					t.Fatalf("pop mismatch: eventQueue (%v,%v,%d) vs container/heap (%v,%v,%d)",
						got.time, got.secondary, got.seq,
						want.time, want.secondary, want.seq)
				}
				continue
			}
			seq++
			qe := queuedEvent{
				time:      VTime(b&0x07) * MSec,
				seq:       seq,
				secondary: b&0x80 != 0,
			}
			q.push(qe)
			heap.Push(ref, qe)
		}
		for q.len() > 0 {
			got := q.pop()
			want := heap.Pop(ref).(queuedEvent)
			if !sameKey(got, want) {
				t.Fatalf("drain mismatch: eventQueue (%v,%v,%d) vs container/heap (%v,%v,%d)",
					got.time, got.secondary, got.seq,
					want.time, want.secondary, want.seq)
			}
		}
		if ref.Len() != 0 {
			t.Fatalf("reference holds %d events after eventQueue drained", ref.Len())
		}
	})
}
