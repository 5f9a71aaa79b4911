package sim

// This file is the engine's specialized event queue: a hand-rolled 4-ary
// min-heap over queuedEvent values. It replaces container/heap, whose
// Push(x any)/Pop() any interface boxes every queuedEvent on the heap's hot
// path (one allocation per scheduled event) and whose binary layout costs one
// extra comparison level for every doubling of the queue. The 4-ary layout
// halves the tree depth, the concrete element type removes the boxing and the
// Less/Swap interface calls, and the (time, secondary, seq) key is cached in
// the element so ordering never calls back into the Event interface. The heap
// is monomorphic — it holds queuedEvent only — so before inlines into the
// sift loops, and both sifts move a hole instead of swapping, writing each
// displaced element once.
//
// The total order is exactly the one the engine has always used — event time,
// then primary-before-secondary, then insertion sequence — so the dispatch
// schedule, and therefore the pinned replay digests, are bit-identical to the
// container/heap implementation (property-tested side by side in
// queue_test.go and fuzzed in FuzzEventQueueOrder).

// before reports whether a sorts strictly ahead of b in the engine's total
// dispatch order: (time, primary before secondary, insertion sequence).
func (a *queuedEvent) before(b *queuedEvent) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.secondary != b.secondary {
		return !a.secondary
	}
	return a.seq < b.seq
}

// eventQueue is a 4-ary min-heap of queuedEvents. Children of node i live at
// 4i+1..4i+4; the parent of node i is (i-1)/4. The zero value is an empty,
// ready-to-use queue.
type eventQueue struct {
	items []queuedEvent
}

func (q *eventQueue) len() int { return len(q.items) }

// push inserts v, keeping the heap property: a hole opens at the new tail
// and climbs while v sorts ahead of the parent.
//
//triosim:hotpath
func (q *eventQueue) push(v queuedEvent) {
	q.items = append(q.items, v) //triosim:nolint hotpath-alloc -- amortized: the heap's backing array grows until the queue's high-water mark, then is reused
	items := q.items
	i := len(items) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !v.before(&items[p]) {
			break
		}
		items[i] = items[p]
		i = p
	}
	items[i] = v
}

// pop removes and returns the minimum element: the tail element fills the
// hole left at the root and sinks while a child sorts ahead of it.
//
//triosim:hotpath
func (q *eventQueue) pop() queuedEvent {
	items := q.items
	root := items[0]
	n := len(items) - 1
	v := items[n]
	items[n] = queuedEvent{} // release references held by the vacated slot
	items = items[:n]
	q.items = items
	if n == 0 {
		return root
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
			if items[c].before(&items[min]) {
				min = c
			}
		}
		if !items[min].before(&v) {
			break
		}
		items[i] = items[min]
		i = min
	}
	items[i] = v
	return root
}
