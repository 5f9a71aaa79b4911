package collective

import (
	"triosim/internal/network"
	"triosim/internal/task"
)

// Tree AllReduce task label forms (see the ring forms in collective.go).
var (
	upLabel        = task.NewCollectiveLabelForm("%s-up-n%d-c%d")
	upProtoLabel   = task.NewLabelForm("%s-up-n%d-proto")
	rootLabel      = task.NewLabelForm("%s-root-c%d")
	downLabel      = task.NewCollectiveLabelForm("%s-down-n%d-c%d")
	downProtoLabel = task.NewLabelForm("%s-down-n%d-proto")
)

// TreeAllReduce emits a binary-tree AllReduce: chunk-pipelined reduction up
// the tree followed by a chunk-pipelined broadcast down it. NCCL selects
// tree over ring for latency-bound (small) messages: a ring pays
// 2(N−1) step latencies while the tree pays ≈2·log₂(N); for bandwidth-bound
// messages both approach 2B/W. Implementing both lets the simulator study
// the crossover (see the ring-vs-tree ablation bench).
//
// Ranks are arranged in binary-heap order: rank 0 is the root and rank i's
// children are 2i+1 and 2i+2.
func TreeAllReduce(g *task.Graph, ranks []network.NodeID, bytes float64,
	after []*task.Task, opt Options) *task.Task {
	if opt.Label == "" {
		opt.Label = "treeallreduce"
	}
	n := len(ranks)
	if n <= 1 {
		return trivial(g, after, opt.Label)
	}
	opt.Log.Record(opt.Label, "tree-allreduce", n, bytes,
		2*float64(n-1)/float64(n))

	const chunks = 8
	chunkBytes := bytes / chunks
	gateOf := func(i int) *task.Task {
		if after != nil && after[i] != nil {
			return after[i]
		}
		return nil
	}

	// Reduce phase: node i sends chunk c to its parent once it holds the
	// reduced chunk c (its own data plus both children's contributions).
	// upRecv[i][c] marks chunk c's reduced value being complete at node i.
	upRecv := make([][]*task.Task, n)
	for i := range upRecv {
		upRecv[i] = make([]*task.Task, chunks)
	}
	// Process nodes bottom-up (higher indices are deeper in the heap).
	for i := n - 1; i >= 1; i-- {
		parent := (i - 1) / 2
		var prevChunk *task.Task
		for c := 0; c < chunks; c++ {
			send := g.AddComm(ranks[i], ranks[parent], chunkBytes, "")
			send.SetLabelf(upLabel, opt.Label, i, c)
			if gt := gateOf(i); gt != nil {
				g.AddDep(gt, send)
			}
			for _, ch := range []int{2*i + 1, 2*i + 2} {
				if ch < n && upRecv[ch][c] != nil {
					g.AddDep(upRecv[ch][c], send)
				}
			}
			if prevChunk != nil {
				g.AddDep(prevChunk, send) // link serialization
			}
			if opt.StepDelay.After(0) && c == 0 {
				d := g.AddDelay(opt.StepDelay, "")
				d.SetLabelf(upProtoLabel, opt.Label, i)
				g.AddDep(d, send)
			}
			prevChunk = send
			upRecv[i][c] = send
		}
	}
	// The root's chunk c is fully reduced when both its children delivered.
	rootReady := make([]*task.Task, chunks)
	for c := 0; c < chunks; c++ {
		br := g.AddBarrier("")
		br.SetLabelf(rootLabel, opt.Label, c)
		if gt := gateOf(0); gt != nil {
			g.AddDep(gt, br)
		}
		for _, ch := range []int{1, 2} {
			if ch < n {
				g.AddDep(upRecv[ch][c], br)
			}
		}
		rootReady[c] = br
	}

	// Broadcast phase: node i forwards chunk c to its children once it has
	// it. haveChunk[i][c] marks possession of the final reduced chunk.
	done := g.AddBarrier(opt.Label + "-done")
	haveChunk := make([][]*task.Task, n)
	for i := range haveChunk {
		haveChunk[i] = make([]*task.Task, chunks)
	}
	copy(haveChunk[0], rootReady)
	prevSendOf := make([]*task.Task, n) // per-parent link serialization
	for i := 0; i < n; i++ {
		for c := 0; c < chunks; c++ {
			for _, ch := range []int{2*i + 1, 2*i + 2} {
				if ch >= n {
					continue
				}
				send := g.AddComm(ranks[i], ranks[ch], chunkBytes, "")
				send.SetLabelf(downLabel, opt.Label, ch, c)
				g.AddDep(haveChunk[i][c], send)
				if prevSendOf[i] != nil {
					g.AddDep(prevSendOf[i], send)
				}
				if opt.StepDelay.After(0) && c == 0 {
					d := g.AddDelay(opt.StepDelay, "")
					d.SetLabelf(downProtoLabel, opt.Label, ch)
					g.AddDep(d, send)
				}
				prevSendOf[i] = send
				haveChunk[ch][c] = send
				if c == chunks-1 {
					g.AddDep(send, done)
				}
			}
		}
		// Nodes with no children finish when they hold the last chunk.
		if 2*i+1 >= n {
			g.AddDep(haveChunk[i][chunks-1], done)
		}
	}
	return done
}
