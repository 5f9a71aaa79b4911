package network

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"triosim/internal/sim"
)

// Network is the interface TrioSim requires of any interconnect model: a
// Send that starts a transfer and later invokes onDone (the Deliver step) at
// the virtual time the destination receives the data.
type Network interface {
	Send(src, dst NodeID, bytes float64, onDone func(now sim.VTime))
}

// FlowObserver is notified of flow-network activity. Observers may record
// but must never schedule events — the event schedule (and the replay
// digest) is identical with or without them.
type FlowObserver interface {
	// FlowFinished fires when a flow's last byte leaves the network, before
	// the delivery latency. start is when Send admitted the flow.
	FlowFinished(route []DirLink, bytes float64, start, end sim.VTime)
	// RatesRecomputed fires after each max-min fair-share recomputation.
	RatesRecomputed(flows int, now sim.VTime)
}

// flow is one in-flight message in the flow network. Completed flows are
// recycled through FlowNetwork.freeFlows (releaseFlow/acquireFlow); after
// releaseFlow, only the monotonic gen field distinguishes a stale delivery
// event's reference from the object's next life.
//
//triosim:pooled
type flow struct {
	id int
	// route is the flow's path, appended into a buffer the flow keeps
	// across lives (see releaseFlow).
	route     []DirLink
	remaining float64
	bytes     float64 // original transfer size
	rate      float64 // bytes/s currently achieved
	eff       float64 // achieved fraction of the allocated share
	latency   sim.VTime
	start     sim.VTime
	onDone    func(now sim.VTime)
	// gen invalidates superseded delivery events. It is NEVER reset when the
	// flow object is recycled through the free list: stale delivery events
	// from a previous life still hold this object, and only the monotonic
	// generation distinguishes them from the current life's events.
	gen int
	// mark is the computeRates solve generation that froze this flow's rate
	// (scratch state replacing a per-solve "unassigned" set).
	mark int
	// seen is the solve generation that collected this flow into the dirty
	// closure (dedup stamp; monotonic like mark, survives recycling).
	seen int
	// schedRate is the achieved rate the live delivery event was scheduled
	// with (0 = starved / no event).
	schedRate float64
	// lastAdv is the virtual time remaining was last materialized at. Each
	// flow integrates lazily from it: remaining drains at schedRate until a
	// solve moves the flow's rate, and only then is it stepped to now.
	lastAdv sim.VTime
}

// delivery is a pooled record behind one scheduled delivery event: a flow's
// finish (f set: complete f unless its gen has moved on) or the receiver's
// notification one route-latency later (onDone set). Pooling it instead of
// scheduling a fresh closure keeps rescheduling allocation-free.
// sim.ScheduleCall runs it through the same pooled funcEvent and
// sim.HandlerFunc handler as sim.ScheduleFunc, so the replay digest's event
// names do not move. The record returns to FlowNetwork.freeDeliveries as
// soon as its event fires, stale or live: each record backs exactly one
// scheduled event.
//
//triosim:pooled
type delivery struct {
	n      *FlowNetwork
	f      *flow
	gen    int
	onDone func(now sim.VTime)
}

// Call is the delivery event's body (sim.Caller). It copies the record's
// fields and releases it before acting, so the completion may reacquire it.
func (d *delivery) Call(now sim.VTime) error {
	n, f, gen, onDone := d.n, d.f, d.gen, d.onDone
	d.f, d.onDone = nil, nil
	n.freeDeliveries = append(n.freeDeliveries, d)
	if onDone != nil {
		onDone(now)
		return nil
	}
	n.completeFlow(f, gen, now)
	return nil
}

// linkState is the per-directed-link allocator state. flows is maintained
// incrementally across Send/complete instead of being rebuilt on every
// max-min solve; cap, active, heapKey and seenGen are scratch fields valid
// only inside one computeRates call. Two links belong to the same
// link-sharing component — the unit max-min provably decomposes over — when
// a chain of in-flight flows connects them; the solve finds components by
// walking flows, so nothing about them is stored here.
type linkState struct {
	cap    float64 // scratch: remaining capacity during a solve
	active int     // scratch: unassigned crossing flows during a solve
	flows  []*flow // in-flight flows crossing this link, ascending id

	key DirLink
	// sortKey reproduces the historical sorted-scan tie-break order
	// (ascending link ID, forward before reverse) for the solve heap.
	sortKey uint64
	// heapKey is the fair share of this link's most recent live heap entry;
	// entries popped with a mismatching key are superseded and discarded.
	heapKey float64
	// seenGen stamps the solve generation that initialized the scratch
	// fields, so a solve touches each closure link's state exactly once.
	seenGen int
}

// FlowNetwork is the flow-based packet-switching model: shortest-path
// routing, max-min fair bandwidth sharing per directed link, and
// reschedule-on-change delivery events.
type FlowNetwork struct {
	eng  sim.Engine
	topo *Topology

	// RampBytes models the message-size-dependent achieved bandwidth of
	// real transport stacks: a transfer of B bytes achieves the fraction
	// B/(B+RampBytes) of its allocated share (protocol setup, chunking and
	// pipelining warm-up). Zero — TrioSim's lightweight assumption — gives
	// every transfer its full share regardless of size; the reference
	// hardware emulator sets it, making small messages one of the
	// controlled error sources (paper §8.2, "varying data transfer unit
	// sizes").
	RampBytes float64

	// ordered holds the in-flight flows in ascending id order: it is the
	// network's only flow set. Per-flow work runs in id order (this slice,
	// or the solve's closure sorted by id), so same-timestamp events (which
	// tie-break on scheduling sequence) never depend on anything but ids.
	// ids are assigned monotonically, so appends keep it sorted without
	// re-sorting.
	ordered []*flow
	nextID  int
	// recomputePending coalesces same-timestamp flow arrivals/departures
	// into one max-min reallocation (a secondary event), so an 84-rank ring
	// step triggers one recompute instead of 84. Virtual-time semantics are
	// unchanged: no time passes between the individual changes.
	recomputePending bool

	// ApproxTol is the relative rate change a flow's delivery event
	// tolerates across a re-solve (see reschedule). Rates are always solved
	// exactly, so makespan error is bounded by the tolerance (property-tested
	// at ≤1%); zero, the default, keeps an event only for a bit-identical
	// rate. Set before the first Send and never change it mid-run.
	ApproxTol float64

	// Incremental allocator state: the per-link crossing-flow sets persist
	// across solves. links indexes them densely by 2·linkID+direction (the
	// sortKey encoding) — a slice, not a map keyed by DirLink, because the
	// solver pays one lookup per route hop per filling round and the hash
	// alone dominated 10k-GPU solves. nil entries are directed links no route
	// has crossed yet.
	links    []*linkState
	solveGen int

	// Dirty-set state. seeds holds links a flow joined or left since the
	// last solve (duplicates allowed): the next solve re-solves exactly the
	// current link-sharing components that contain one.
	seeds []*linkState
	// allDirty forces a full re-solve: set when the topology's capacity
	// generation moved (SetLinkBandwidth without an explicit refresh mark),
	// preserving the historical "capacities are re-read every solve"
	// semantics.
	allDirty   bool
	lastCapGen int

	// Per-solve scratch, reused across solves: the dirty closure's flows
	// and links (solveLinks doubles as the closure walk's work queue), and
	// the bottleneck min-heap keyed by (fair share, sortKey).
	scratchFlows []*flow
	solveLinks   []*linkState
	heap         []solveEntry

	// freeFlows recycles completed flow objects (see flow.gen for why the
	// generation survives recycling).
	freeFlows []*flow
	// freeDeliveries recycles fired delivery records (see delivery).
	freeDeliveries []*delivery
	// reallocFn is onReallocate, bound once at construction for the
	// coalesced re-solve event scheduleReallocate schedules.
	reallocFn func(now sim.VTime) error

	// Stats.
	TotalBytes     float64
	TotalTransfers int

	// obs receive flow-completion and rate-recompute notifications, in
	// registration order (see Observe).
	obs []FlowObserver

	// SolveClock, when set, times each max-min solve on the host clock for
	// self-profiling (ROADMAP: profile the solver at scale). It is an
	// injected clock — never time.Now directly — so the wall-clock read
	// stays out of the deterministic simulation core and the no-wallclock
	// analyzer holds. The measured wall time feeds SolveWall and never
	// influences virtual time.
	SolveClock func() time.Time
	// SolveWall accumulates host time spent inside computeRates.
	SolveWall time.Duration
	// Solves counts max-min recomputations.
	Solves int
	// SolvedFlows/SolvedLinks count the flows and directed links actually
	// re-solved across all solves — the dirty-set win shows up as these
	// staying far below Solves × InFlight on partitioned topologies.
	SolvedFlows int
	SolvedLinks int
}

// solveEntry is one bottleneck-heap entry: a candidate most-constrained
// link at the fair share it had when pushed. Entries are superseded (not
// removed) when a charge changes the link's fair share; heapKey arbitrates.
type solveEntry struct {
	fair    float64
	sortKey uint64
	st      *linkState
}

// NewFlowNetwork builds a flow network over topo driven by eng.
func NewFlowNetwork(eng sim.Engine, topo *Topology) *FlowNetwork {
	n := &FlowNetwork{
		eng:   eng,
		topo:  topo,
		links: make([]*linkState, 2*len(topo.Links)),
	}
	n.reallocFn = n.onReallocate
	return n
}

var _ Network = (*FlowNetwork)(nil)

// Observe registers a flow observer; call before the first Send.
func (n *FlowNetwork) Observe(o FlowObserver) {
	n.obs = append(n.obs, o)
}

// Topology returns the underlying topology.
func (n *FlowNetwork) Topology() *Topology { return n.topo }

// InFlight returns the number of active flows.
func (n *FlowNetwork) InFlight() int { return len(n.ordered) }

// Send starts a transfer of bytes from src to dst. onDone fires at delivery.
// Local transfers (src == dst) complete immediately. The route is appended
// into the pooled flow's own buffer, so a steady-state Send allocates
// nothing for it.
//
//triosim:hotpath
func (n *FlowNetwork) Send(src, dst NodeID, bytes float64,
	onDone func(now sim.VTime)) {

	now := n.eng.CurrentTime()
	n.TotalTransfers++
	n.TotalBytes += bytes
	if src == dst || bytes <= 0 {
		n.scheduleNotify(now, onDone)
		return
	}

	f := n.acquireFlow()
	route, err := n.topo.AppendRoute(f.route[:0], src, dst)
	if err != nil {
		panic(fmt.Sprintf("network: Send: %v", err))
	}
	n.nextID++
	eff := 1.0
	if n.RampBytes > 0 {
		eff = bytes / (bytes + n.RampBytes)
	}
	f.id = n.nextID
	f.route = route
	f.remaining = bytes
	f.bytes = bytes
	f.rate = 0
	f.eff = eff
	f.latency = n.topo.RouteLatency(route)
	f.start = now
	f.onDone = onDone
	f.schedRate = 0
	f.lastAdv = now
	n.ordered = append(n.ordered, f) //triosim:nolint hotpath-alloc -- the in-flight list grows to its peak length once
	n.attachLinks(f)
	n.scheduleReallocate(now)
}

// acquireFlow pops the free list or allocates. gen is deliberately left at
// its previous-life value (see the flow.gen doc).
func (n *FlowNetwork) acquireFlow() *flow {
	if k := len(n.freeFlows); k > 0 {
		f := n.freeFlows[k-1]
		n.freeFlows[k-1] = nil
		n.freeFlows = n.freeFlows[:k-1]
		return f
	}
	return &flow{}
}

// releaseFlow drops the flow's external references and returns it to the
// free list. The route buffer stays with the flow, so the next Send that
// reuses it appends its route without allocating.
func (n *FlowNetwork) releaseFlow(f *flow) {
	f.onDone = nil
	f.route = f.route[:0]
	n.freeFlows = append(n.freeFlows, f)
}

// acquireDelivery pops the free list or allocates a record.
func (n *FlowNetwork) acquireDelivery() *delivery {
	if k := len(n.freeDeliveries); k > 0 {
		d := n.freeDeliveries[k-1]
		n.freeDeliveries[k-1] = nil
		n.freeDeliveries = n.freeDeliveries[:k-1]
		return d
	}
	return &delivery{n: n}
}

// scheduleFinish schedules f's finish event at t for its current generation.
func (n *FlowNetwork) scheduleFinish(f *flow, t sim.VTime) {
	d := n.acquireDelivery()
	d.f, d.gen = f, f.gen
	sim.ScheduleCall(n.eng, t, d)
}

// scheduleNotify schedules the receiver's onDone callback at t.
func (n *FlowNetwork) scheduleNotify(t sim.VTime, onDone func(now sim.VTime)) {
	d := n.acquireDelivery()
	d.onDone = onDone
	sim.ScheduleCall(n.eng, t, d)
}

// attachLinks registers f on every directed link of its route. Flows are
// admitted in ascending id order and removal preserves relative order, so
// each linkState.flows slice stays sorted by id — the invariant the solve's
// freeze loop relies on for deterministic (and bit-identical) allocation.
// f now joins every link of its route into one component, so its first link
// alone seeds the next solve's walk.
func (n *FlowNetwork) attachLinks(f *flow) {
	for _, dl := range f.route {
		st := n.linkFor(dl)
		if st == nil {
			st = n.newLinkState(dl)
		}
		st.flows = append(st.flows, f)
	}
	n.seeds = append(n.seeds, n.linkFor(f.route[0]))
}

// detachLinks removes f from its route's link sets and from the ordered
// slice, preserving order. f's departure can split its component, so every
// link of its route seeds the next solve's walk.
func (n *FlowNetwork) detachLinks(f *flow) {
	for _, dl := range f.route {
		st := n.linkFor(dl)
		st.flows = removeFlow(st.flows, f)
		n.seeds = append(n.seeds, st)
	}
	n.ordered = removeFlow(n.ordered, f)
}

// denseIndex maps a directed link to its slot in FlowNetwork.links: the
// sortKey encoding (ascending link ID, forward before reverse) as an int.
func denseIndex(dl DirLink) int {
	i := dl.Link << 1
	if !dl.Forward {
		i |= 1
	}
	return i
}

// linkFor returns the allocator state of dl, or nil if no route has crossed
// it yet.
func (n *FlowNetwork) linkFor(dl DirLink) *linkState {
	if i := denseIndex(dl); i < len(n.links) {
		return n.links[i]
	}
	return nil
}

// newLinkState creates the allocator state for a directed link the first
// time a route crosses it.
func (n *FlowNetwork) newLinkState(dl DirLink) *linkState {
	st := &linkState{key: dl}
	st.sortKey = uint64(dl.Link) << 1
	if !dl.Forward {
		st.sortKey |= 1
	}
	// Links added to the topology after construction (AddLink mid-setup)
	// land past the initial sizing; grow to cover them.
	di := denseIndex(dl)
	for di >= len(n.links) {
		n.links = append(n.links, nil)
	}
	n.links[di] = st
	return st
}

// removeFlow deletes f from s, which is sorted by ascending id, keeping the
// remaining order.
func removeFlow(s []*flow, f *flow) []*flow {
	i, ok := slices.BinarySearchFunc(s, f.id, func(g *flow, id int) int {
		return cmp.Compare(g.id, id)
	})
	if !ok {
		return s
	}
	return slices.Delete(s, i, i+1)
}

// scheduleReallocate defers the max-min recomputation to a secondary event
// at the current timestamp, coalescing bursts of changes.
func (n *FlowNetwork) scheduleReallocate(now sim.VTime) {
	if n.recomputePending {
		return
	}
	n.recomputePending = true
	sim.ScheduleSecondaryFunc(n.eng, now, n.reallocFn)
}

// onReallocate is the coalesced re-solve event's body.
func (n *FlowNetwork) onReallocate(t sim.VTime) error {
	n.recomputePending = false
	n.reallocate(t)
	for _, o := range n.obs {
		o.RatesRecomputed(len(n.ordered), t)
	}
	return nil
}

// RefreshRates re-solves the max-min fair shares at the current virtual
// time, picking up topology bandwidth changes made mid-run (fault
// injection, degradation experiments). The recompute is coalesced through
// the same secondary event as flow arrivals/departures, so several
// same-timestamp capacity changes trigger one solve.
func (n *FlowNetwork) RefreshRates() {
	n.scheduleReallocate(n.eng.CurrentTime())
}

// reallocate recomputes max-min fair rates and reschedules the delivery
// events of the re-solved flows whose rate moved beyond ApproxTol.
func (n *FlowNetwork) reallocate(now sim.VTime) {
	n.Solves++
	if n.SolveClock != nil {
		t0 := n.SolveClock()
		n.computeRates()
		n.SolveWall += n.SolveClock().Sub(t0)
	} else {
		n.computeRates()
	}
	n.reschedule(now)
}

// reschedule examines only the re-solved closure, whose flows computeRates
// left at their raw max-min shares: a flow keeps its live delivery event
// (and its current drain rate) when its new achieved rate is within
// ApproxTol of the rate that event was scheduled with — at tolerance 0,
// when the two are bit-identical. Starvation transitions always reschedule.
// Flows outside the closure keep their rates, so they keep their events.
func (n *FlowNetwork) reschedule(now sim.VTime) {
	// Deterministic reschedule order regardless of closure-collection
	// order: ascending flow id.
	slices.SortFunc(n.scratchFlows, func(a, b *flow) int {
		return cmp.Compare(a.id, b.id)
	})
	tol := n.ApproxTol
	for _, f := range n.scratchFlows {
		// Size-dependent achieved fraction: the unachieved share of a
		// flow's allocation is protocol dead time, not reusable by others.
		old, next := f.schedRate, f.rate*f.eff
		if old > 0 && next > 0 && math.Abs(next-old) <= tol*old {
			f.rate = old // keep the event; keep draining at its rate
			continue
		}
		// Materialize the lazily integrated remaining bytes at the old
		// rate, then reschedule at the new one.
		if dt := float64(now - f.lastAdv); dt > 0 && old > 0 {
			f.remaining -= old * dt
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
		f.lastAdv = now
		f.gen++
		f.rate, f.schedRate = next, next
		if next <= 0 {
			continue
		}
		n.scheduleFinish(f, now+sim.VTime(f.remaining/next))
	}
}

// completeFlow finalizes a flow when its delivery event fires, unless the
// event was superseded by a reallocation. The generation alone identifies
// the live event: every scheduleFinish follows a gen bump, so each
// generation value backs at most one event, and the live one is consumed
// here before f can be recycled. An event from a flow's previous life, or
// one a later solve superseded, carries an older gen.
func (n *FlowNetwork) completeFlow(f *flow, gen int, now sim.VTime) {
	if f.gen != gen {
		return // stale event
	}
	n.detachLinks(f)
	for _, o := range n.obs {
		o.FlowFinished(f.route, f.bytes, f.start, now)
	}
	n.scheduleReallocate(now)
	// The receiver observes the data one route-latency later. The record
	// holds onDone itself: the flow object goes back to the pool now, while
	// the delivery event fires later.
	n.scheduleNotify(now+f.latency, f.onDone)
	n.releaseFlow(f)
}

// computeRates assigns max-min fair rates: repeatedly find the most
// constrained directed link (lowest capacity per crossing flow), freeze its
// flows at that fair share, remove them, and continue (progressive filling).
//
// Two structural fast paths make this scale to 10k-GPU fabrics while
// producing bit-identical rates (TestMaxMinMatchesReferenceSolve and
// TestPartitionedSolveMatchesReference pin this):
//
//  1. Dirty components. Max-min decomposes exactly over the connected
//     components of the link-sharing graph (flows in disjoint components
//     never exchange capacity, and the global freeze order restricted to a
//     component equals the component's own freeze order). Only the current
//     components that contain a flow that arrived or left since the last
//     solve — or all of them, when a capacity changed — are re-solved; every
//     other flow keeps the rate an earlier solve froze, which is exactly
//     what the global solve would recompute for it, since neither its
//     component's membership nor its capacities have moved since.
//
//  2. Bottleneck heap. Within a component, the most constrained link is
//     popped from a min-heap keyed by (fair share, historical scan order)
//     instead of an O(links) scan per filling round. Heap entries are
//     superseded eagerly whenever a charge moves a link's fair share
//     (heapKey arbitrates), so the pop order — including float-equal
//     ties — replays the sorted scan's selection order exactly.
//
// The arithmetic — capacity reset, fair-share division, freeze order,
// capacity charging order — is exactly the from-scratch solve's, so the
// resulting rates are bit-identical.
//
//triosim:hotpath
func (n *FlowNetwork) computeRates() {
	n.solveGen++
	gen := n.solveGen
	if cg := n.topo.CapacityGen(); cg != n.lastCapGen {
		n.lastCapGen = cg
		n.allDirty = true
	}
	n.scratchFlows = n.scratchFlows[:0]
	n.solveLinks = n.solveLinks[:0]
	if n.allDirty {
		n.allDirty = false
		n.gatherAll(gen)
	}
	n.gatherDirty(gen)
	n.SolvedFlows += len(n.scratchFlows)
	n.SolvedLinks += len(n.solveLinks)

	n.heap = n.heap[:0]
	for _, st := range n.solveLinks {
		if st.active == 0 {
			continue
		}
		fair := st.cap / float64(st.active)
		st.heapKey = fair
		n.heapPush(solveEntry{fair: fair, sortKey: st.sortKey, st: st})
	}
	for _, f := range n.scratchFlows {
		f.rate = 0
	}

	assigned := 0
	total := len(n.scratchFlows)
	for assigned < total && len(n.heap) > 0 {
		e := n.heapPop()
		bn := e.st
		if bn.active == 0 || e.fair != bn.heapKey {
			continue // superseded entry (link frozen or fair share moved)
		}
		best := e.fair
		// Freeze the bottleneck's unassigned flows at the fair share and
		// charge their rate against every link they cross, refreshing the
		// heap entry of every link whose fair share moves.
		for _, f := range bn.flows {
			if f.mark == gen {
				continue
			}
			f.rate = best
			f.mark = gen
			assigned++
			for _, dl := range f.route {
				st := n.links[denseIndex(dl)]
				st.cap -= best
				if st.cap < 0 {
					st.cap = 0
				}
				st.active--
				if st.active > 0 {
					fair := st.cap / float64(st.active)
					if fair != st.heapKey {
						st.heapKey = fair
						n.heapPush(solveEntry{
							fair: fair, sortKey: st.sortKey, st: st,
						})
					}
				}
			}
		}
	}
}

// gatherAll makes every in-flight flow's component part of the closure:
// the full re-solve the historical allocator always did.
func (n *FlowNetwork) gatherAll(gen int) {
	for _, f := range n.ordered {
		n.visitLink(n.links[denseIndex(f.route[0])], gen)
	}
}

// gatherDirty collects the current link-sharing components that contain a
// seed (or a link gatherAll visited) into the solve scratch: a breadth-first
// walk from link to crossing flow to that flow's links, with solveLinks as
// the work queue. Components the walk does not reach keep the rates an
// earlier solve gave them.
func (n *FlowNetwork) gatherDirty(gen int) {
	for _, st := range n.seeds {
		n.visitLink(st, gen)
	}
	n.seeds = n.seeds[:0]
	for i := 0; i < len(n.solveLinks); i++ {
		for _, f := range n.solveLinks[i].flows {
			if f.seen == gen {
				continue
			}
			f.seen = gen
			n.scratchFlows = append(n.scratchFlows, f) //triosim:nolint hotpath-alloc -- reused scratch buffer, grows to steady-state size once
			for _, dl := range f.route {
				n.visitLink(n.links[denseIndex(dl)], gen)
			}
		}
	}
}

// visitLink adds st to the solve's closure the first time the walk reaches
// it in solve generation gen, resetting its scratch fields. A link no flow
// crosses any more constrains nothing and is skipped.
func (n *FlowNetwork) visitLink(st *linkState, gen int) {
	if st.seenGen == gen || len(st.flows) == 0 {
		return
	}
	st.seenGen = gen
	// Capacity is re-read from the topology each solve so mid-run
	// bandwidth changes keep taking effect.
	st.cap = n.topo.Links[st.key.Link].Bandwidth
	st.active = len(st.flows)
	n.solveLinks = append(n.solveLinks, st) //triosim:nolint hotpath-alloc -- reused scratch buffer, grows to steady-state size once
}

// heapPush adds e to the bottleneck min-heap ordered by (fair, sortKey).
// The heap is 4-ary: supersession pushes far outnumber pops in big solves,
// and a 4-ary sift-up is half the depth of a binary one. (fair, sortKey) is a strict total order over live entries, so
// the pop sequence is identical at any arity.
func (n *FlowNetwork) heapPush(e solveEntry) {
	n.heap = append(n.heap, e)
	i := len(n.heap) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !solveEntryLess(n.heap[i], n.heap[p]) {
			break
		}
		n.heap[i], n.heap[p] = n.heap[p], n.heap[i]
		i = p
	}
}

// heapPop removes and returns the minimum entry.
func (n *FlowNetwork) heapPop() solveEntry {
	h := n.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = solveEntry{}
	n.heap = h[:last]
	h = n.heap
	i := 0
	for {
		first := 4*i + 1
		if first >= len(h) {
			break
		}
		small := first
		end := first + 4
		if end > len(h) {
			end = len(h)
		}
		for c := first + 1; c < end; c++ {
			if solveEntryLess(h[c], h[small]) {
				small = c
			}
		}
		if !solveEntryLess(h[small], h[i]) {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}

// solveEntryLess orders heap entries by fair share, then by the historical
// sorted-scan position so float-equal ties freeze in the same order the
// O(links) scan froze them.
func solveEntryLess(a, b solveEntry) bool {
	if a.fair != b.fair {
		return a.fair < b.fair
	}
	return a.sortKey < b.sortKey
}

// Rates returns the current flow rates keyed by flow ID in a fresh map
// (convenience/test hook; steady-state callers use RatesInto).
func (n *FlowNetwork) Rates() map[int]float64 {
	out := map[int]float64{}
	n.RatesInto(out)
	return out
}

// RatesInto fills dst — cleared first — with the current flow rates keyed
// by flow ID, reusing the caller's map so periodic monitors don't allocate
// a fresh one per sample.
//
//triosim:hotpath
func (n *FlowNetwork) RatesInto(dst map[int]float64) {
	for id := range dst {
		delete(dst, id)
	}
	for _, f := range n.ordered {
		dst[f.id] = f.rate
	}
}

// IdealNetwork gives every transfer the full configured bandwidth with a
// fixed latency, with no sharing. It serves as the uncontended reference in
// tests and the equal-split ablation baseline.
type IdealNetwork struct {
	eng       sim.Engine
	Bandwidth float64
	Latency   sim.VTime
}

// NewIdealNetwork returns an IdealNetwork.
func NewIdealNetwork(eng sim.Engine, bandwidth float64,
	latency sim.VTime) *IdealNetwork {
	return &IdealNetwork{eng: eng, Bandwidth: bandwidth, Latency: latency}
}

var _ Network = (*IdealNetwork)(nil)

// Send delivers after latency + bytes/bandwidth.
func (n *IdealNetwork) Send(src, dst NodeID, bytes float64,
	onDone func(now sim.VTime)) {
	now := n.eng.CurrentTime()
	var dur sim.VTime
	if src != dst && bytes > 0 {
		dur = n.Latency + sim.VTime(bytes/n.Bandwidth)
	}
	sim.ScheduleFunc(n.eng, now+dur, func(t sim.VTime) error {
		onDone(t)
		return nil
	})
}
