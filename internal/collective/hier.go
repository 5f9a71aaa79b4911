package collective

import (
	"fmt"

	"triosim/internal/network"
	"triosim/internal/task"
)

// groupByMachine splits the ring into per-machine rank groups, preserving
// ring order, and returns them in first-appearance order. ok is false when
// the grouping cannot support the rail-aligned hierarchical schedule: the
// topology declares no machines, everything is on one machine, or the
// machines hold unequal rank counts (rails would not line up).
func groupByMachine(topo *network.Topology,
	ring []network.NodeID) (groups [][]int, ok bool) {

	idx := map[int]int{} // machine → group index
	for i, nd := range ring {
		m := topo.MachineOf(nd)
		if m < 0 {
			return nil, false
		}
		gi, seen := idx[m]
		if !seen {
			gi = len(groups)
			idx[m] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}
	if len(groups) < 2 {
		return nil, false
	}
	for _, g := range groups {
		if len(g) != len(groups[0]) {
			return nil, false
		}
	}
	return groups, true
}

// HierAllReduce emits a hierarchy-aware AllReduce for tiered topologies:
// reduce-scatter inside each machine over NVLink, then an inter-machine
// AllReduce per local rank (each rank's shard travels its own rail — ring
// for small clusters, chunked tree beyond treeThreshold machines), then an
// intra-machine all-gather. Per-rank traffic over the inter-machine NICs
// drops from 2(N−1)/N·B to 2(M−1)/M·B/L for M machines of L ranks, which is
// what makes cluster-scale data parallelism affordable.
//
// When the topology is untiered, the ranks sit on fewer than two machines,
// or the machines hold unequal rank counts, it falls back to the flat ring.
func HierAllReduce(g *task.Graph, topo *network.Topology,
	ring []network.NodeID, bytes float64, after []*task.Task,
	opt Options) *task.Task {

	if opt.Label == "" {
		opt.Label = "allreduce"
	}
	n := len(ring)
	if n <= 1 {
		return trivial(g, after, opt.Label)
	}
	groups, ok := groupByMachine(topo, ring)
	if !ok {
		return RingAllReduce(g, ring, bytes, after, opt)
	}
	machines := len(groups)
	local := len(groups[0])
	opt.Log.Record(opt.Label, "hier-allreduce", n, bytes,
		2*float64(machines-1)/float64(machines)/float64(local))

	// Phase 1: intra-machine reduce-scatter. Each local rank ends with the
	// machine-reduced 1/local shard. The generators read their ring and
	// gates only while emitting, so one pair of buffers serves every call.
	rsDone := make([]*task.Task, machines)
	nodes := make([]network.NodeID, local)
	gates := make([]*task.Task, local)
	for m, grp := range groups {
		for i, ri := range grp {
			nodes[i] = ring[ri]
			if after != nil {
				gates[i] = after[ri]
			}
		}
		rsDone[m] = RingReduceScatter(g, nodes, bytes, gates, Options{
			StepDelay: opt.StepDelay,
			Label:     fmt.Sprintf("%s-intra-rs-m%d", opt.Label, m),
			Log:       opt.Log,
		})
	}

	// Phase 2: per local rank, AllReduce the shard across machines — each
	// rail carries only its own 1/local of the payload. Rings are fine at
	// small machine counts; beyond that the chunked tree's O(log M) depth
	// wins.
	const treeThreshold = 16
	shard := bytes / float64(local)
	railDone := make([]*task.Task, local)
	railNodes := make([]network.NodeID, machines)
	for r := 0; r < local; r++ {
		for m, grp := range groups {
			railNodes[m] = ring[grp[r]]
		}
		railOpt := Options{
			StepDelay: opt.StepDelay,
			Label:     fmt.Sprintf("%s-rail%d", opt.Label, r),
			Log:       opt.Log,
		}
		if machines > treeThreshold {
			railDone[r] = TreeAllReduce(g, railNodes, shard, rsDone, railOpt)
		} else {
			railDone[r] = RingAllReduce(g, railNodes, shard, rsDone, railOpt)
		}
	}

	// Phase 3: intra-machine all-gather of the globally reduced shards.
	done := g.AddBarrier(opt.Label + "-done")
	for m, grp := range groups {
		for i, ri := range grp {
			nodes[i] = ring[ri]
		}
		ag := RingAllGather(g, nodes, bytes, railDone, Options{
			StepDelay: opt.StepDelay,
			Label:     fmt.Sprintf("%s-intra-ag-m%d", opt.Label, m),
			Log:       opt.Log,
		})
		g.AddDep(ag, done)
	}
	return done
}

// HierAllGather emits a hierarchy-aware all-gather: each rank starts with a
// 1/N shard; shards first travel the rails (inter-machine all-gather per
// local rank), then each machine's ranks exchange the assembled machine
// blocks over NVLink.
func HierAllGather(g *task.Graph, topo *network.Topology,
	ring []network.NodeID, bytes float64, after []*task.Task,
	opt Options) *task.Task {

	if opt.Label == "" {
		opt.Label = "allgather"
	}
	n := len(ring)
	if n <= 1 {
		return trivial(g, after, opt.Label)
	}
	groups, ok := groupByMachine(topo, ring)
	if !ok {
		return RingAllGather(g, ring, bytes, after, opt)
	}
	machines := len(groups)
	local := len(groups[0])
	opt.Log.Record(opt.Label, "hier-allgather", n, bytes,
		float64(machines-1)/float64(machines)/float64(local))

	// Phase 1: per local rank, gather that rail's shards across machines.
	// Rail r moves the machines' r-th shards: machines·(bytes/n) payload.
	railDone := make([]*task.Task, local)
	railBytes := bytes * float64(machines) / float64(n)
	nodes := make([]network.NodeID, machines)
	gates := make([]*task.Task, machines)
	for r := 0; r < local; r++ {
		for m, grp := range groups {
			nodes[m] = ring[grp[r]]
			if after != nil {
				gates[m] = after[grp[r]]
			}
		}
		railDone[r] = RingAllGather(g, nodes, railBytes, gates, Options{
			StepDelay: opt.StepDelay,
			Label:     fmt.Sprintf("%s-rail%d", opt.Label, r),
			Log:       opt.Log,
		})
	}

	// Phase 2: intra-machine all-gather of the rail blocks over NVLink.
	done := g.AddBarrier(opt.Label + "-done")
	machineNodes := make([]network.NodeID, local)
	for m, grp := range groups {
		for i, ri := range grp {
			machineNodes[i] = ring[ri]
		}
		ag := RingAllGather(g, machineNodes, bytes, railDone, Options{
			StepDelay: opt.StepDelay,
			Label:     fmt.Sprintf("%s-intra-ag-m%d", opt.Label, m),
			Log:       opt.Log,
		})
		g.AddDep(ag, done)
	}
	return done
}

// FusedRingStep is the coarse-grained stand-in for a pipelined ring
// collective used by fused cluster-scale graphs: every rank sends its
// cumulative ring traffic (busFactor·bytes) to its right neighbor in one
// step. On symmetric links this takes the same wall-clock as the (N−1)-step
// ring it replaces — each real step's sends run concurrently on disjoint
// links — at 1/(N−1) of the task count.
func FusedRingStep(g *task.Graph, ring []network.NodeID, bytes float64,
	busFactor float64, after []*task.Task, opt Options) *task.Task {

	if opt.Label == "" {
		opt.Label = "fusedring"
	}
	n := len(ring)
	if n <= 1 {
		return trivial(g, after, opt.Label)
	}
	opt.Log.Record(opt.Label, "fused-ring", n, bytes, busFactor)
	perRank := bytes * busFactor
	done := g.AddBarrier(opt.Label + "-done")
	for i := 0; i < n; i++ {
		send := g.AddComm(ring[i], ring[(i+1)%n], perRank, "")
		send.SetLabelf(rankLabel, opt.Label, i)
		send.Collective = opt.Label
		if after != nil && after[i] != nil {
			g.AddDep(after[i], send)
		}
		g.AddDep(send, done)
	}
	if opt.StepDelay.After(0) {
		d := g.AddDelay(opt.StepDelay, opt.Label+"-proto")
		g.AddDep(done, d)
		return d
	}
	return done
}
