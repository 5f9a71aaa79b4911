package sim

// This file is the engine's specialized event queue: a hand-rolled 4-ary
// min-heap. It replaces container/heap, whose Push(x any)/Pop() any
// interface boxes every element on the heap's hot path (one allocation per
// scheduled event) and whose binary layout costs one extra comparison level
// for every doubling of the queue. The 4-ary layout halves the tree depth,
// and both sifts move a hole instead of swapping, writing each displaced
// element once.
//
// The heap is split into two parallel arrays: 16-byte ordering keys and the
// events they order. A sift compares keys only — four children's keys share
// one 64-byte cache line — and touches the event array only to move the
// events along the sift path, so ordering never calls back into the Event
// interface.
//
// The total order is exactly the one the engine has always used — event time,
// then primary-before-secondary, then insertion sequence — so the dispatch
// schedule, and therefore the pinned replay digests, are bit-identical to the
// container/heap implementation (property-tested side by side in
// queue_test.go and fuzzed in FuzzEventQueueOrder).

// eventKey is an event's ordering key, cached at enqueue. ord packs the
// secondary flag above the insertion sequence (secondary<<63 | seq), so one
// unsigned comparison orders primary before secondary and then by sequence.
// time stays a float comparison: -0 and +0 tie and fall through to ord.
type eventKey struct {
	time VTime
	ord  uint64
}

// secondaryBit is eventKey.ord's secondary flag. Sequence numbers stay below
// it: 2⁶³ events would take centuries to schedule.
const secondaryBit = 1 << 63

// newEventKey builds the key of the seq-th scheduled event.
func newEventKey(t VTime, seq uint64, secondary bool) eventKey {
	if secondary {
		seq |= secondaryBit
	}
	return eventKey{time: t, ord: seq}
}

// before reports whether a sorts strictly ahead of b in the engine's total
// dispatch order: (time, primary before secondary, insertion sequence).
func (a *eventKey) before(b *eventKey) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.ord < b.ord
}

// eventQueue is a 4-ary min-heap of events ordered by their keys. Children
// of node i live at 4i+1..4i+4; the parent of node i is (i-1)/4. keys[i]
// orders events[i]. The zero value is an empty, ready-to-use queue.
type eventQueue struct {
	keys   []eventKey
	events []Event
}

func (q *eventQueue) len() int { return len(q.keys) }

// push inserts e under key k, keeping the heap property: a hole opens at the
// new tail and climbs while k sorts ahead of the parent.
//
//triosim:hotpath
func (q *eventQueue) push(k eventKey, e Event) {
	q.keys = append(q.keys, k)     //triosim:nolint hotpath-alloc -- amortized: the key array grows until the queue's high-water mark, then is reused
	q.events = append(q.events, e) //triosim:nolint hotpath-alloc -- amortized: the event array grows until the queue's high-water mark, then is reused
	keys, events := q.keys, q.events
	i := len(keys) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !k.before(&keys[p]) {
			break
		}
		keys[i], events[i] = keys[p], events[p]
		i = p
	}
	keys[i], events[i] = k, e
}

// pop removes and returns the minimum event and its key: the tail element
// fills the hole left at the root and sinks while a child sorts ahead of it.
//
//triosim:hotpath
func (q *eventQueue) pop() (eventKey, Event) {
	keys, events := q.keys, q.events
	rootKey, root := keys[0], events[0]
	n := len(keys) - 1
	k, e := keys[n], events[n]
	events[n] = nil // release the reference held by the vacated slot
	keys, events = keys[:n], events[:n]
	q.keys, q.events = keys, events
	if n == 0 {
		return rootKey, root
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if keys[c].before(&keys[min]) {
				min = c
			}
		}
		if !keys[min].before(&k) {
			break
		}
		keys[i], events[i] = keys[min], events[min]
		i = min
	}
	keys[i], events[i] = k, e
	return rootKey, root
}
