package sim

import (
	"math"
	"math/bits"
)

// This file is the engine's event queue: a monotone radix heap over a
// chunked slot store.
//
// The engine never schedules into the past without failing (Run rejects such
// an event with ErrPastEvent), so the times it pops never decrease. A radix
// heap exploits that: it keeps the time of the last refill as a base and
// files each pending event in the bucket named by the highest bit in which
// the event's time differs from the base. Everything in bucket b is later
// than everything in bucket b-1, so the next events always come from the
// lowest non-empty bucket. Refilling moves that one bucket's entries to lower
// buckets against the new base (the bucket's smallest time, kept up to date
// as entries are filed), and each entry moves down at most 64 times over its
// life; a bucket's lone entry pops without moving. Pop compares no keys on
// the common path.
//
// Entries live in one slot store and every list is an intrusive circular
// list of int32 slot numbers, named by its tail, so a refill relinks indices
// and never copies an entry. Chunk 0 grows by doubling up to 4,096 slots,
// so a run whose queue peaks at a handful of events stays small; beyond it
// the store adds fixed 4,096-slot chunks, never grows by copying, and has at
// most one partly used chunk. Freed slots go on a free list and are reused
// first.
//
// The order is exactly the one the engine has always used — event time, then
// primary before secondary, then insertion sequence — so the dispatch
// schedule, and therefore the pinned replay digests, are bit-identical to the
// container/heap implementation (property-tested side by side in
// queue_test.go and fuzzed in FuzzEventQueueOrder):
//
//   - Every list is appended at its tail and a refill walks its bucket in
//     list order. Entries filed together arrive in the order they were
//     pushed, and every later push is newer than all of them, so each list
//     stays in push order and the sequence number need not be stored.
//   - Events at the base time wait in two FIFOs, primaries then secondaries.
//   - -0 and +0 map to one radix key, so they tie and push order decides, as
//     the float comparison always did. The slot keeps the sign.
//   - Events earlier than the base wait in a small list, in push order,
//     that pops first, earliest (time, secondary) first. The base only
//     rises to the time being dispatched, so these are past events: Run
//     reports them, and a Terminate/resume sees them, exactly as it did with
//     a heap. The list is scanned on each pop, which is fine because no
//     valid schedule puts anything in it.

// radix maps a time to the uint64 whose unsigned order is the float order
// of the times, with -0 folded onto +0 so the two tie.
func radix(t VTime) uint64 {
	if t == 0 {
		t = 0 // -0 == 0: take +0's bits
	}
	b := math.Float64bits(float64(t))
	// Negative floats flip every bit (their magnitude order is reversed);
	// non-negative ones set the sign bit so they sort above every negative.
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

const (
	chunkBits = 12
	chunkSize = 1 << chunkBits // slots per chunk
	chunkMask = chunkSize - 1
)

// slot holds one pending event and the link to the next slot of its list.
// Slot numbers start at 1: 0 is the nil link, and slot 0 is never used.
type slot struct {
	time      VTime
	ev        Event
	next      int32
	secondary bool
}

// before reports whether s dispatches ahead of an entry o pushed after it.
func (s *slot) before(o *slot) bool {
	if s.time != o.time {
		return s.time < o.time
	}
	return !s.secondary || o.secondary
}

// slotList is an intrusive FIFO of slots: the number of its tail slot, whose
// next link closes the circle at the head, or 0 when the list is empty.
type slotList int32

// eventQueue is a monotone radix heap of events in dispatch order. The zero
// value is an empty, ready-to-use queue.
type eventQueue struct {
	chunks  [][]slot // slot i lives at chunks[i>>chunkBits][i&chunkMask]
	free    int32    // head of the free-slot list
	n       int      // pending events
	base    uint64   // radix key of the last refill
	now     [2]slotList
	past    slotList
	buckets [64]slotList
	lowest  [64]uint64 // smallest radix key in each non-empty bucket
	used    uint64     // bit b set ⇔ buckets[b] is non-empty
}

func (q *eventQueue) len() int { return q.n }

func (q *eventQueue) at(i int32) *slot {
	return &q.chunks[i>>chunkBits][i&chunkMask]
}

// add appends slot s, numbered i, to l.
func (q *eventQueue) add(l *slotList, i int32, s *slot) {
	if *l == 0 {
		s.next = i
	} else {
		tail := q.at(int32(*l))
		s.next, tail.next = tail.next, i
	}
	*l = slotList(i)
}

// take unlinks and returns the head of the non-empty list l.
func (q *eventQueue) take(l *slotList) int32 {
	tail := q.at(int32(*l))
	head := tail.next
	if head == int32(*l) {
		*l = 0
	} else {
		tail.next = q.at(head).next
	}
	return head
}

// file appends slot s, numbered i, to the list the base assigns it: a
// same-time FIFO, a bucket, or the past list.
func (q *eventQueue) file(i int32, s *slot) {
	r := radix(s.time)
	switch {
	case r == q.base:
		if s.secondary {
			q.add(&q.now[1], i, s)
		} else {
			q.add(&q.now[0], i, s)
		}
	case r > q.base:
		b := bits.Len64(r^q.base) - 1
		if q.used&(1<<b) == 0 || r < q.lowest[b] {
			q.lowest[b] = r
		}
		q.add(&q.buckets[b], i, s)
		q.used |= 1 << b
	default:
		q.add(&q.past, i, s)
	}
}

// push inserts e, due at t, into a free slot.
//
//triosim:hotpath
func (q *eventQueue) push(t VTime, secondary bool, e Event) {
	i := q.free
	if i == 0 {
		i = q.grow()
	} else {
		q.free = q.at(i).next
	}
	s := q.at(i)
	s.time, s.secondary, s.ev = t, secondary, e
	q.n++
	q.file(i, s)
}

// grow returns a never-used slot: the next one of chunk 0, which doubles up
// to chunkSize, or of the newest chunk, with a fresh chunk every chunkSize
// slots.
//
//triosim:hotpath
func (q *eventQueue) grow() int32 {
	if len(q.chunks) == 0 {
		q.chunks = append(q.chunks, make([]slot, 1, 8)) //triosim:nolint hotpath-alloc -- first push only: chunk 0 starts with the nil slot
	}
	last := len(q.chunks) - 1
	c := q.chunks[last]
	if len(c) == chunkSize {
		q.chunks = append(q.chunks, make([]slot, 0, chunkSize)) //triosim:nolint hotpath-alloc -- once per 4,096 slots, up to the queue's high-water mark; no entry is copied
		last++
		c = q.chunks[last]
	} else if len(c) == cap(c) {
		grown := make([]slot, len(c), min(2*cap(c), chunkSize)) //triosim:nolint hotpath-alloc -- chunk 0 only, doubling up to 4,096 slots
		copy(grown, c)
		c = grown
	}
	q.chunks[last] = c[:len(c)+1]
	return int32(last<<chunkBits | len(c))
}

// pop removes the next event in dispatch order and returns it with its time.
//
//triosim:hotpath
func (q *eventQueue) pop() (VTime, Event) {
	var i int32
	switch {
	case q.past != 0:
		i = q.takePast()
	case q.now[0] != 0:
		i = q.take(&q.now[0])
	case q.now[1] != 0:
		i = q.take(&q.now[1])
	default:
		i = q.refill()
	}
	s := q.at(i)
	t, e := s.time, s.ev
	s.ev = nil // release the reference held by the freed slot
	s.next = q.free
	q.free = i
	q.n--
	return t, e
}

// refill empties the lowest non-empty bucket, unlinks and returns the slot
// to pop next. The bucket's smallest radix key becomes the base, and every
// entry is filed again against that base, into a FIFO or a lower bucket, in
// one walk of the bucket; a lone entry is the one to pop. Called with both
// FIFOs and the past list empty and at least one event pending.
//
//triosim:hotpath
func (q *eventQueue) refill() int32 {
	b := bits.TrailingZeros64(q.used)
	tail := int32(q.buckets[b])
	q.buckets[b] = 0
	q.used &^= 1 << b
	q.base = q.lowest[b]
	i := q.at(tail).next
	if i == tail {
		return i
	}
	for {
		s := q.at(i)
		next := s.next
		q.file(i, s)
		if i == tail {
			break
		}
		i = next
	}
	if q.now[0] != 0 {
		return q.take(&q.now[0])
	}
	return q.take(&q.now[1])
}

// takePast unlinks and returns the past list's first entry in dispatch
// order. The list is in push order, so the earliest (time, secondary) wins
// and ties go to the older entry.
func (q *eventQueue) takePast() int32 {
	tail := int32(q.past)
	bestPrev, best := tail, q.at(tail).next
	for prev, i := best, q.at(best).next; prev != tail; prev, i = i, q.at(i).next {
		if !q.at(best).before(q.at(i)) {
			bestPrev, best = prev, i
		}
	}
	if best == tail {
		if bestPrev == tail {
			q.past = 0
			return best
		}
		q.past = slotList(bestPrev)
	}
	q.at(bestPrev).next = q.at(best).next
	return best
}
