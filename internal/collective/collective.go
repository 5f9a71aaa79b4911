// Package collective generates NCCL-style ring collective communication as
// task sequences, the way TrioSim's trace extrapolator does: memory-transfer
// tasks are appended to the extrapolated trace and the network model prices
// each transfer (paper §4.3, "Ring-based collective communication").
//
// The ring AllReduce is the reduce-scatter + all-gather formulation: with N
// ranks and B bytes, 2(N−1) steps each move B/N bytes per rank to its right
// neighbor, for the classic 2(N−1)/N·B per-rank traffic.
//
// A configurable per-step delay models the protocol cost real NCCL pays per
// ring step; TrioSim's own graphs pass zero (its lightweight network model
// ignores protocol details — paper §8.2), while the hardware emulator's
// graphs pass the platform's measured step latency.
package collective

import (
	"triosim/internal/network"
	"triosim/internal/sim"
	"triosim/internal/task"
	"triosim/internal/telemetry"
)

// Options configures collective generation.
type Options struct {
	// StepDelay is added between consecutive ring steps (hardware protocol
	// latency; zero for TrioSim's own prediction graphs).
	StepDelay sim.VTime
	// Label prefixes the generated task labels.
	Label string
	// Log optionally records per-collective metadata (algorithm, ranks,
	// payload, bus factor) for telemetry. Nil disables recording.
	Log *telemetry.CollectiveLog
}

// Per-task label forms, rendered only when a label is read (see
// task.NewLabelForm): a cluster-scale collective emits hundreds of thousands
// of tasks whose labels nothing reads unless telemetry or tracing is on.
var (
	stepDoneLabel  = task.NewLabelForm("%s-step%d-done")
	stepRankLabel  = task.NewLabelForm("%s-step%d-rank%d")
	stepProtoLabel = task.NewLabelForm("%s-step%d-proto")
	rankLabel      = task.NewLabelForm("%s-rank%d")
	hopChunkLabel  = task.NewLabelForm("%s-hop%d-chunk%d")
	hopProtoLabel  = task.NewLabelForm("%s-hop%d-proto")
)

// steps emits nSteps synchronized ring steps, each sending chunkBytes from
// every rank to its right neighbor. after gates the first step (per-rank);
// the returned barrier marks completion of the whole collective.
func steps(g *task.Graph, ring []network.NodeID, nSteps int,
	chunkBytes float64, after []*task.Task, opt Options) *task.Task {

	n := len(ring)
	prevBarrier := (*task.Task)(nil)
	for s := 0; s < nSteps; s++ {
		barrier := g.AddBarrier("")
		barrier.SetLabelf(stepDoneLabel, opt.Label, s)
		for i := 0; i < n; i++ {
			send := g.AddComm(ring[i], ring[(i+1)%n], chunkBytes, "")
			send.SetLabelf(stepRankLabel, opt.Label, s, i)
			send.Collective = opt.Label
			if s == 0 {
				// A rank cannot start until its local data is ready.
				if after != nil && after[i] != nil {
					g.AddDep(after[i], send)
				}
			} else {
				g.AddDep(prevBarrier, send)
			}
			g.AddDep(send, barrier)
		}
		if opt.StepDelay.After(0) {
			d := g.AddDelay(opt.StepDelay, "")
			d.SetLabelf(stepProtoLabel, opt.Label, s)
			g.AddDep(barrier, d)
			barrier = d
		}
		prevBarrier = barrier
	}
	return prevBarrier
}

// trivial handles the 0/1-rank case: the collective is a no-op that still
// orders after the gating tasks.
func trivial(g *task.Graph, after []*task.Task, label string) *task.Task {
	b := g.AddBarrier(label + "-noop")
	for _, a := range after {
		g.AddDep(a, b)
	}
	return b
}

// RingAllReduce emits a ring AllReduce of bytes across the ranks in ring
// order. after[i] (optional) gates rank i's participation. The returned task
// completes when every rank holds the fully reduced data.
func RingAllReduce(g *task.Graph, ring []network.NodeID, bytes float64,
	after []*task.Task, opt Options) *task.Task {
	if opt.Label == "" {
		opt.Label = "allreduce"
	}
	n := len(ring)
	if n <= 1 {
		return trivial(g, after, opt.Label)
	}
	opt.Log.Record(opt.Label, "ring-allreduce", n, bytes,
		2*float64(n-1)/float64(n))
	chunk := bytes / float64(n)
	return steps(g, ring, 2*(n-1), chunk, after, opt)
}

// RingReduceScatter emits the reduce-scatter half: each rank ends with the
// reduced 1/N shard.
func RingReduceScatter(g *task.Graph, ring []network.NodeID, bytes float64,
	after []*task.Task, opt Options) *task.Task {
	if opt.Label == "" {
		opt.Label = "reducescatter"
	}
	n := len(ring)
	if n <= 1 {
		return trivial(g, after, opt.Label)
	}
	opt.Log.Record(opt.Label, "ring-reducescatter", n, bytes,
		float64(n-1)/float64(n))
	return steps(g, ring, n-1, bytes/float64(n), after, opt)
}

// RingAllGather emits an all-gather: every rank starts with a 1/N shard of
// bytes and ends with the full buffer.
func RingAllGather(g *task.Graph, ring []network.NodeID, bytes float64,
	after []*task.Task, opt Options) *task.Task {
	if opt.Label == "" {
		opt.Label = "allgather"
	}
	n := len(ring)
	if n <= 1 {
		return trivial(g, after, opt.Label)
	}
	opt.Log.Record(opt.Label, "ring-allgather", n, bytes,
		float64(n-1)/float64(n))
	return steps(g, ring, n-1, bytes/float64(n), after, opt)
}

// Broadcast emits a chunk-pipelined ring broadcast of bytes from ring[0]
// around the ring. Chunks flow link-to-link concurrently, approximating
// NCCL's pipelined broadcast.
func Broadcast(g *task.Graph, ring []network.NodeID, bytes float64,
	after *task.Task, opt Options) *task.Task {
	if opt.Label == "" {
		opt.Label = "broadcast"
	}
	n := len(ring)
	done := g.AddBarrier(opt.Label + "-done")
	if n <= 1 {
		if after != nil {
			g.AddDep(after, done)
		}
		return done
	}
	opt.Log.Record(opt.Label, "ring-broadcast", n, bytes, 1)
	const chunks = 8
	chunkBytes := bytes / chunks
	prevHop := make([]*task.Task, chunks) // chunk arrivals at previous hop
	for hop := 0; hop < n-1; hop++ {
		var prevChunk *task.Task // serializes chunks on this hop's link
		for c := 0; c < chunks; c++ {
			send := g.AddComm(ring[hop], ring[hop+1], chunkBytes, "")
			send.SetLabelf(hopChunkLabel, opt.Label, hop, c)
			send.Collective = opt.Label
			if hop == 0 {
				if after != nil {
					g.AddDep(after, send)
				}
			} else {
				g.AddDep(prevHop[c], send) // chunk must arrive first
			}
			if prevChunk != nil {
				g.AddDep(prevChunk, send) // one chunk at a time per link
			}
			if opt.StepDelay.After(0) && c == 0 {
				d := g.AddDelay(opt.StepDelay, "")
				d.SetLabelf(hopProtoLabel, opt.Label, hop)
				g.AddDep(d, send)
				if hop > 0 {
					g.AddDep(prevHop[0], d)
				}
			}
			prevChunk = send
			prevHop[c] = send
			if hop == n-2 {
				g.AddDep(send, done)
			}
		}
	}
	return done
}

// GatherToRoot emits direct sends of shardBytes from every non-root rank to
// ring[0].
func GatherToRoot(g *task.Graph, ring []network.NodeID, shardBytes float64,
	after []*task.Task, opt Options) *task.Task {
	if opt.Label == "" {
		opt.Label = "gather"
	}
	done := g.AddBarrier(opt.Label + "-done")
	if len(ring) > 1 {
		opt.Log.Record(opt.Label, "gather", len(ring),
			shardBytes*float64(len(ring)-1), 1)
	}
	for i := 1; i < len(ring); i++ {
		send := g.AddComm(ring[i], ring[0], shardBytes, "")
		send.SetLabelf(rankLabel, opt.Label, i)
		send.Collective = opt.Label
		if after != nil && after[i] != nil {
			g.AddDep(after[i], send)
		}
		g.AddDep(send, done)
	}
	if after != nil && after[0] != nil {
		g.AddDep(after[0], done)
	}
	return done
}

// ScatterFromRoot emits direct sends of shardBytes from ring[0] to every
// other rank.
func ScatterFromRoot(g *task.Graph, ring []network.NodeID, shardBytes float64,
	after *task.Task, opt Options) *task.Task {
	if opt.Label == "" {
		opt.Label = "scatter"
	}
	done := g.AddBarrier(opt.Label + "-done")
	if len(ring) > 1 {
		opt.Log.Record(opt.Label, "scatter", len(ring),
			shardBytes*float64(len(ring)-1), 1)
	}
	for i := 1; i < len(ring); i++ {
		send := g.AddComm(ring[0], ring[i], shardBytes, "")
		send.SetLabelf(rankLabel, opt.Label, i)
		send.Collective = opt.Label
		if after != nil {
			g.AddDep(after, send)
		}
		g.AddDep(send, done)
	}
	if after != nil {
		g.AddDep(after, done)
	}
	return done
}
