package extrapolator

import (
	"fmt"

	"triosim/internal/collective"
	"triosim/internal/network"
	"triosim/internal/sim"
	"triosim/internal/task"
	"triosim/internal/telemetry"
	"triosim/internal/trace"
)

// allReduce dispatches to the configured AllReduce algorithm. With the
// default "auto" selection, topologies that declare link tiers get the
// hierarchical schedule (intra-machine reduce-scatter → per-rail
// inter-machine ring/tree → intra-machine all-gather); flat topologies keep
// the ring, so paper-scale replays are unchanged.
func (b *builder) allReduce(ring []network.NodeID, bytes float64,
	after []*task.Task, opt collective.Options) *task.Task {
	switch b.cfg.Collective {
	case "tree":
		return collective.TreeAllReduce(b.g, ring, bytes, after, opt)
	case "ring":
		return collective.RingAllReduce(b.g, ring, bytes, after, opt)
	case "hier":
		return collective.HierAllReduce(b.g, b.cfg.Topo, ring, bytes,
			after, opt)
	}
	if b.cfg.Topo.Tiered() {
		return collective.HierAllReduce(b.g, b.cfg.Topo, ring, bytes,
			after, opt)
	}
	return collective.RingAllReduce(b.g, ring, bytes, after, opt)
}

// DataParallel extrapolates the trace to N-GPU data-parallel training.
//
// The trace extrapolator duplicates all computing operators onto every GPU
// at the per-GPU batch share, then adds the AllReduce operators for gradient
// synchronization — after the whole backward pass for standard DataParallel
// (overlap=false), or bucketed and overlapped with backward propagation for
// DistributedDataParallel (overlap=true), mirroring PyTorch's behaviour.
func DataParallel(cfg Config, overlap bool) (*Result, error) {
	b, err := newBuilder(cfg)
	if err != nil {
		return nil, err
	}
	cfg = b.cfg
	n := cfg.NumGPUs
	// Each GPU processes its share of the global batch.
	perGPU := float64(cfg.GlobalBatch) / float64(n)
	scale := perGPU / float64(b.tr.BatchSize)

	strategy := "dp"
	if overlap {
		strategy = "ddp"
	}
	res := &Result{Graph: b.g,
		Meta: telemetry.ParallelStat{Strategy: strategy, Replicas: n}}
	gate := b.g.AddBarrier("start")
	for it := 0; it < cfg.Iterations; it++ {
		suffix := fmt.Sprintf("-it%d", it)
		var end *task.Task
		if overlap {
			end = b.ddpIteration(scale, gate, suffix)
		} else {
			end = b.stdDPIteration(scale, gate, suffix)
		}
		res.IterationEnds = append(res.IterationEnds, end)
		gate = end
	}
	res.Meta.Buckets = b.lastBuckets
	return res, nil
}

// stdDPIteration: forward+backward replicas, one big AllReduce after the
// whole backward pass, then the optimizer step. Standard DataParallel's
// single-process dispatch overhead (GIL) appears as a chained per-layer
// delay when the hardware Effects request it.
func (b *builder) stdDPIteration(scale float64, gate *task.Task,
	suffix string) *task.Task {

	n := b.cfg.NumGPUs
	lastBwd := make([]*task.Task, n)

	// Per-layer dispatch delays (standard DP only, hardware runs only).
	var dispatch map[int]*task.Task
	if b.cfg.Effects.DPDispatchPerLayer.After(0) {
		dispatch = map[int]*task.Task{}
		prev := gate
		for l := 0; l < b.tr.NumLayers(); l++ {
			d := b.g.AddDelay(b.cfg.Effects.DPDispatchPerLayer,
				fmt.Sprintf("dp-dispatch-l%d%s", l, suffix))
			b.g.AddDep(prev, d)
			dispatch[l] = d
			prev = d
		}
	}

	for i := 0; i < n; i++ {
		load := b.stageInput(b.node(i), scale, gate,
			fmt.Sprintf("stage-input-g%d%s", i, suffix))
		prev := load
		infl := sim.VTime(1 + b.cfg.Effects.DPComputeInflation)
		for _, idx := range append(append([]int{}, b.fwd...), b.bwd...) {
			op := &b.tr.Ops[idx]
			t := b.g.AddCompute(b.phys(i), b.opDuration(op, scale, 1)*infl,
				op.Name+suffix)
			t.Layer = int32(op.Layer)
			b.g.AddDep(prev, t)
			if dispatch != nil && op.Phase == trace.Forward {
				b.g.AddDep(dispatch[op.Layer], t)
			}
			prev = t
		}
		lastBwd[i] = prev
	}

	end := b.g.AddBarrier("iter-done" + suffix)
	if b.cfg.ForwardOnly {
		for i := 0; i < n; i++ {
			b.g.AddDep(lastBwd[i], end)
		}
		return end
	}
	ar := b.allReduce(b.ringNodes(),
		float64(b.tr.GradientBytes()),
		b.permuteGates(lastBwd), collective.Options{
			StepDelay: b.cfg.Effects.CommStepLatency,
			Label:     "allreduce" + suffix,
			Log:       b.cfg.Collectives,
		})
	for i := 0; i < n; i++ {
		opt := b.emitSeq(i, b.opt, scale, 1, ar, suffix)
		b.g.AddDep(opt, end)
	}
	return end
}

// ddpIteration: DistributedDataParallel overlaps bucketed gradient
// AllReduces with backward computation. Buckets fill in backward (reverse
// layer) order; each bucket's AllReduce launches as soon as its gradients
// exist on every GPU, and buckets serialize on the communication stream.
func (b *builder) ddpIteration(scale float64, gate *task.Task,
	suffix string) *task.Task {

	n := b.cfg.NumGPUs

	// Forward on every replica.
	lastFwd := make([]*task.Task, n)
	for i := 0; i < n; i++ {
		load := b.stageInput(b.node(i), scale, gate,
			fmt.Sprintf("stage-input-g%d%s", i, suffix))
		lastFwd[i] = b.emitSeq(i, b.fwd, scale, 1, load, suffix)
	}

	// Backward, tracking bucket fills. bwd ops are already in reverse layer
	// order in the trace.
	type bucket struct {
		bytes   float64
		gates   []*task.Task // per GPU, last contributing bwd op
		started bool
	}
	cur := &bucket{gates: make([]*task.Task, n)}
	var prevCollective *task.Task
	var allReduces []*task.Task
	prevBwd := make([]*task.Task, n)
	copy(prevBwd, lastFwd)

	flush := func(idx int) {
		if cur.bytes <= 0 {
			return
		}
		// Gate each rank on its bucket-completing bwd op plus the previous
		// bucket's AllReduce (NCCL serializes collectives per stream).
		gates := make([]*task.Task, n)
		for i := 0; i < n; i++ {
			gt := b.g.AddBarrier(fmt.Sprintf("bucket%d-ready-g%d%s",
				idx, i, suffix))
			b.g.AddDep(cur.gates[i], gt)
			if prevCollective != nil {
				b.g.AddDep(prevCollective, gt)
			}
			gates[i] = gt
		}
		ar := b.allReduce(b.ringNodes(), cur.bytes,
			b.permuteGates(gates),
			collective.Options{
				StepDelay: b.cfg.Effects.CommStepLatency,
				Label:     fmt.Sprintf("allreduce-b%d%s", idx, suffix),
				Log:       b.cfg.Collectives,
			})
		prevCollective = ar
		allReduces = append(allReduces, ar)
		cur = &bucket{gates: make([]*task.Task, n)}
	}

	bucketIdx := 0
	for _, idx := range b.bwd {
		op := &b.tr.Ops[idx]
		for i := 0; i < n; i++ {
			t := b.g.AddCompute(b.phys(i), b.opDuration(op, scale, 1),
				op.Name+suffix)
			t.Layer = int32(op.Layer)
			b.g.AddDep(prevBwd[i], t)
			prevBwd[i] = t
			cur.gates[i] = t
		}
		cur.bytes += b.gradBytesOf(op)
		if cur.bytes >= b.cfg.BucketBytes {
			flush(bucketIdx)
			bucketIdx++
		}
	}
	flush(bucketIdx)

	b.lastBuckets = len(allReduces)

	// Optimizer waits for the final AllReduce and local backward.
	end := b.g.AddBarrier("iter-done" + suffix)
	for i := 0; i < n; i++ {
		optGate := b.g.AddBarrier(fmt.Sprintf("opt-gate-g%d%s", i, suffix))
		b.g.AddDep(prevBwd[i], optGate)
		if prevCollective != nil {
			b.g.AddDep(prevCollective, optGate)
		}
		opt := b.emitSeq(i, b.opt, scale, 1, optGate, suffix)
		b.g.AddDep(opt, end)
	}
	return end
}
