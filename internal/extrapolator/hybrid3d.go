package extrapolator

import (
	"fmt"
	"math"
	"strconv"

	"triosim/internal/collective"
	"triosim/internal/network"
	"triosim/internal/sim"
	"triosim/internal/task"
	"triosim/internal/telemetry"
	"triosim/internal/tensor"
)

// Hybrid3D's per-task label forms, rendered only when a label is read (see
// task.NewLabelForm). The string operand is the iteration/replica suffix.
var (
	fusedFwdLabel = task.NewLabelForm("fwd-s%d-mb%d%s")
	fusedBwdLabel = task.NewLabelForm("bwd-s%d-mb%d%s")
	actLabel      = task.NewLabelForm("act-s%d-mb%d-r%d%s")
	gradLabel     = task.NewLabelForm("grad-s%d-mb%d-r%d%s")
	optLabel      = task.NewLabelForm("opt-s%d-r%d%s-d%d")
)

// Hybrid3D extrapolates the trace to full 3D parallelism — DP×TP×PP, the
// cluster-scale Megatron-style layout: dp pipeline replicas, each a GPipe
// pipeline of pp stages, each stage tensor-parallel across tp ranks. It is
// the "dp+tp+pp" preset of the grid generator.
func Hybrid3D(cfg Config, dp, tp, pp int) (*Result, error) {
	return Build("dp+tp+pp", cfg, dp, tp, pp)
}

// grid is the one generator of every strategy: the DP×TP×PP grid, run as
// preset ps (named name) directs.
//
// GPU layout (machine-major clusters line up automatically when tp equals
// the machine size): replica d, stage s, rank r → physical GPU
// d·tp·pp + s·tp + r. Stage boundaries ship sharded activations rank-to-rank
// (rail-aligned); each (stage, rank) gradient shard then synchronizes
// across the dp replicas as ps.sync says, through builder.allReduce, which
// selects the hierarchical schedule on tiered topologies. Any ring, dp or
// TP, that spans all of the run's GPUs rings in the topology's ring order.
//
// Unfused, each chunk runs its stage's ops through tpLayers, the one
// per-layer tensor-parallel loop (which emits no sync for a single rank),
// and the pipeline presets charge the hardware's per-micro-batch CPU
// scheduling delay, chained per GPU. With cfg.FuseCompute set, each
// (stage, micro-batch, rank) op chain — each gradient bucket, under bucket
// sync — collapses into one compute task and the per-layer TP syncs
// coalesce into one FusedRingStep per chunk: the graph-size reduction that
// makes 10,000-GPU steps simulable in seconds.
func grid(cfg Config, name string, ps preset, dp, tp, pp int) (*Result, error) {
	b, err := newBuilder(cfg)
	if err != nil {
		return nil, err
	}
	cfg = b.cfg
	m := 1
	if ps.pipeline {
		m = cfg.MicroBatches
		if cfg.GlobalBatch%dp != 0 {
			return nil, fmt.Errorf("extrapolator: batch %d not divisible by %d replicas",
				cfg.GlobalBatch, dp)
		}
	}
	microScale := float64(cfg.GlobalBatch) / float64(dp) / float64(m) /
		float64(b.tr.BatchSize)
	shard := 1.0 / float64(tp)
	optShard := shard
	if ps.sync == zeroSync {
		optShard = 1.0 / float64(tp*dp)
	}
	if ps.gil {
		b.infl += sim.VTime(cfg.Effects.DPComputeInflation)
	}
	bucket := math.Inf(1)
	if ps.sync == bucketSync {
		bucket = cfg.BucketBytes
	}

	// The layer→stage assignment, shared by every replica (the
	// data-parallel presets' one stage needs none).
	stageOf := cfg.StageOf
	if stageOf == nil && (pp > 1 || ps.pipeline) {
		stageOf = StageAssignment(b.tr, pp)
	}
	if stageOf != nil && len(stageOf) != b.tr.NumLayers() {
		return nil, fmt.Errorf("extrapolator: stage map covers %d of %d layers",
			len(stageOf), b.tr.NumLayers())
	}
	// byStage splits op indices by their layer's stage, in order, into out.
	byStage := func(ops []int, out [][]int) [][]int {
		if pp == 1 {
			out[0] = ops
			return out
		}
		for _, idx := range ops {
			s := stageOf[b.tr.Ops[idx].Layer]
			out[s] = append(out[s], idx)
		}
		return out
	}
	split := make([][]int, 3*pp)
	fwdOps := byStage(b.fwd, split[:pp:pp])
	bwdOps := byStage(b.bwd, split[pp:2*pp:2*pp])
	optOps := byStage(b.opt, split[2*pp:])

	// Per-stage precomputation: the chunks' segments, stage boundary bytes,
	// owned gradient and weight bytes and, for fused chunks, the summed
	// durations and TP sync payloads. Identical across replicas and
	// micro-batches, so pricing runs once, not dp·m times.
	type segment struct {
		runs     []layerGroup
		grad     float64   // gradient bytes its ops produce
		dur      sim.VTime // fused only
		syncSize float64   // fused only: TP bytes per chunk
	}
	type stagePre struct {
		fwd           [1]segment // an array, so both phases slice alike
		bwd           []segment  // one, or the gradient buckets in fill order
		boundary      float64    // activation bytes leaving the stage
		grad, weights float64
		optDur        sim.VTime // fused only
		buckets       int       // bucket sync: the bwd segments with gradients
	}
	pre := make([]stagePre, pp)
	sumDur := func(ops []int) sim.VTime {
		var total sim.VTime
		for _, idx := range ops {
			op := &b.tr.Ops[idx]
			sh := 1.0
			if op.Parallelizable {
				sh = shard
			}
			total += b.opDuration(op, microScale, sh) * b.infl
		}
		return total
	}
	syncBytes := func(runs []layerGroup) float64 {
		var total float64
		for _, grp := range runs {
			if grp.sync {
				last := &b.tr.Ops[grp.ops[len(grp.ops)-1]]
				total += b.outBytes(last, microScale)
			}
		}
		return total
	}
	newSegment := func(ops []int) segment {
		sg := segment{runs: b.groupByLayer(ops)}
		for _, idx := range ops {
			sg.grad += b.catBytes(b.tr.Ops[idx].Outputs, tensor.Gradient)
		}
		if cfg.FuseCompute {
			sg.dur = sumDur(ops)
		}
		return sg
	}
	for s := 0; s < pp; s++ {
		p := &pre[s]
		p.fwd[0] = newSegment(fwdOps[s])
		// Split the backward ops into buckets: a bucket closes once its
		// gradients reach the bucket size (without bucket sync, never).
		ops, start, grad := bwdOps[s], 0, 0.0
		for i, idx := range ops {
			grad += b.catBytes(b.tr.Ops[idx].Outputs, tensor.Gradient)
			if grad >= bucket {
				p.bwd = append(p.bwd, newSegment(ops[start:i+1]))
				start, grad = i+1, 0
			}
		}
		if start < len(ops) || len(p.bwd) == 0 {
			p.bwd = append(p.bwd, newSegment(ops[start:]))
		}
		// A layer whose ops straddle a bucket boundary syncs once, at its
		// end in the later bucket.
		for k := 1; k < len(p.bwd); k++ {
			a := &p.bwd[k-1].runs[len(p.bwd[k-1].runs)-1]
			if z := &p.bwd[k].runs[0]; z.layer == a.layer {
				z.sync, a.sync = z.sync || a.sync, false
			}
		}
		if cfg.FuseCompute {
			p.fwd[0].syncSize = syncBytes(p.fwd[0].runs)
			for k := range p.bwd {
				p.bwd[k].syncSize = syncBytes(p.bwd[k].runs)
			}
		}
		for _, sg := range p.bwd {
			p.grad += sg.grad
			if sg.grad > 0 {
				p.buckets++
			}
		}
		if len(fwdOps[s]) > 0 {
			last := &b.tr.Ops[fwdOps[s][len(fwdOps[s])-1]]
			p.boundary = b.outBytes(last, microScale)
		}
		if ps.sync == zeroSync {
			for _, idx := range fwdOps[s] {
				p.weights += b.catBytes(b.tr.Ops[idx].Inputs, tensor.Weight)
			}
		}
		if cfg.FuseCompute {
			for _, idx := range optOps[s] {
				p.optDur += b.opDuration(&b.tr.Ops[idx], 1, optShard)
			}
		}
	}

	gpuAt := func(d, s, r int) int { return d*tp*pp + s*tp + r }

	cpu := cfg.Effects.CPUSchedPerMicroBatch
	var prevCPU []*task.Task // serializes each GPU's host dispatch
	if ps.pipeline && cpu.After(0) {
		prevCPU = make([]*task.Task, cfg.NumGPUs)
	}
	// A TP ring that spans all of the run's GPUs rings in the topology's
	// ring order, as a spanning dp ring does: its chunks run on no window.
	// Any other chunk runs on its (d, s) rank window.
	var win []int
	if tp < cfg.NumGPUs {
		win = make([]int, tp)
	}
	// ready holds, per (stage, rank), each replica's bucket gates in fill
	// order, replica-major (bucket sync only).
	var ready [][]*task.Task
	if ps.sync == bucketSync {
		ready = make([][]*task.Task, pp*tp)
	}

	// emitChunk runs one (replica, stage, micro-batch) chunk across the tp
	// ranks: per segment, compute (fused or per-op) then the TP boundary
	// syncs and, under bucket sync, a gate per rank for the bucket's
	// AllReduce. deps[r] gates rank r; nil entries gate nothing. It leaves
	// the per-rank completion tasks in last.
	emitChunk := func(d, s, mb int, deps [][3]*task.Task, fwd bool,
		dsuffix string, last []*task.Task) {

		p := &pre[s]
		phase, segs, form := "fwd", p.fwd[:], fusedFwdLabel
		if !fwd {
			phase, segs, form = "bwd", p.bwd, fusedBwdLabel
		}
		if win != nil {
			for r := range win {
				win[r] = gpuAt(d, s, r)
			}
			b.logMap = win
		}
		var csuffix string
		if !cfg.FuseCompute {
			// Unfused: per rank the pipeline presets' entry barrier and the
			// host's per-micro-batch scheduling delay (any other chunk has
			// one gate and chains onto it), then tpLayers.
			csuffix = "-s" + strconv.Itoa(s) + "-mb" + strconv.Itoa(mb) +
				dsuffix
			if !ps.pipeline {
				for r := range last {
					last[r] = deps[r][0]
				}
			} else {
				label := phase + csuffix
				for r := range last {
					entry := b.g.AddBarrier(label + "-entry")
					for _, dep := range deps[r] {
						b.g.AddDep(dep, entry)
					}
					last[r] = entry
					if prevCPU != nil {
						gpu := gpuAt(d, s, r)
						delay := b.g.AddDelay(cpu, label+"-cpusched")
						b.g.AddDep(entry, delay)
						if prevCPU[gpu] != nil {
							b.g.AddDep(prevCPU[gpu], delay)
						}
						prevCPU[gpu] = delay
						last[r] = delay
					}
				}
			}
		}
		for k, sg := range segs {
			if !cfg.FuseCompute {
				b.tpLayers(sg.runs, microScale, shard, last, csuffix, phase)
			} else {
				for r := range last {
					t := b.g.AddCompute(gpuAt(d, s, r), sg.dur, "")
					t.SetLabelf(form, dsuffix, s, mb)
					if k > 0 {
						b.g.AddDep(last[r], t)
					} else {
						for _, dep := range deps[r] {
							b.g.AddDep(dep, t)
						}
						// Fused, the chunk waits for its first layer's
						// dispatch only.
						if fwd && b.dispatch != nil && len(sg.runs) > 0 {
							b.g.AddDep(b.dispatch[sg.runs[0].layer], t)
						}
					}
					last[r] = t
				}
				if tp > 1 && sg.syncSize > 0 {
					bus := float64(tp-1) / float64(tp)
					if !fwd {
						bus *= 2 // allreduce, not allgather
					}
					label := fmt.Sprintf("%s-s%d-mb%d%s-tpsync", phase, s,
						mb, dsuffix)
					if len(segs) > 1 { // one sync per gradient bucket
						label = fmt.Sprintf("%s-s%d-mb%d%s-b%d-tpsync", phase,
							s, mb, dsuffix, k)
					}
					coll := collective.FusedRingStep(b.g, b.ringNodes(),
						sg.syncSize, bus, b.permuteGates(last),
						collective.Options{
							StepDelay: b.cfg.Effects.CommStepLatency,
							Label:     label,
							Log:       b.cfg.Collectives,
						})
					for r := range last {
						last[r] = coll
					}
				}
			}
			if !fwd && ps.sync == bucketSync && dp > 1 && sg.grad > 0 {
				for r := range last {
					gate := b.g.AddBarrier(fmt.Sprintf("bucket%d-ready-s%d%s",
						k, s, dsuffix))
					b.g.AddDep(last[r], gate)
					ready[s*tp+r] = append(ready[s*tp+r], gate)
				}
			}
		}
		b.logMap = nil
	}

	// syncOpts names a gradient-sync collective. Labels are unique within a
	// graph, since the collective log is keyed by them: the pipeline
	// presets, and any grid with more than one (stage, rank) shard, name
	// the shard; any other grid has one shard, named by the iteration
	// alone.
	namedShards := ps.pipeline || tp*pp > 1
	syncOpts := func(kind string, s, r int, suffix string) collective.Options {
		label := kind + suffix
		if namedShards {
			label = fmt.Sprintf("3d-%s-s%d-r%d%s", kind, s, r, suffix)
		}
		return collective.Options{StepDelay: b.cfg.Effects.CommStepLatency,
			Label: label, Log: b.cfg.Collectives}
	}
	// A dp ring that spans the run's GPUs rings in the topology's ring
	// order, with its per-replica gates permuted to match; any other rings
	// the shard's replicas in replica order, refilled per shard.
	spans := dp == cfg.NumGPUs
	inRing := func(gates []*task.Task) []*task.Task {
		if spans {
			return b.permuteGates(gates)
		}
		return gates
	}
	dpRing := b.ringNodes()
	if !spans && dp > 1 {
		dpRing = make([]network.NodeID, dp)
	}

	res := &Result{Graph: b.g, Meta: telemetry.ParallelStat{Strategy: name}}
	if ps.replicas {
		res.Meta.Replicas = dp
	}
	if ps.tpRanks {
		res.Meta.TPRanks = tp
	}
	if ps.pipeline {
		res.Meta.Stages, res.Meta.StageOfLayer = pp, stageOf
	}
	if ps.sync == bucketSync {
		for s := range pre {
			res.Meta.Buckets += pre[s].buckets
		}
	}

	// The build's bookkeeping, made once and overwritten by every replica
	// and iteration. The chunk tables of the replica being emitted hold per
	// (stage, micro-batch) a run of tp entries: each forward chunk's
	// per-rank ends, what arrives at it (the staged input at stage 0, the
	// previous stage's activations after), and the gradients arriving at
	// each backward chunk from the next stage. done holds each replica's
	// last backward (for inference, forward) tasks per (stage, rank). The
	// per-replica gates of the (stage, rank) shard being synchronized are
	// each replica's backward end, the gates of the bucket being
	// AllReduced, what each optimizer waits for and each optimizer's end.
	cells := pp * m * tp
	tables := make([]*task.Task, 3*cells+dp*pp*tp+4*dp)
	take := func(n int) []*task.Task { // the next n entries of tables
		t := tables[:n:n]
		tables = tables[n:]
		return t
	}
	fwdLast, arrive, gradArrive := take(cells), take(cells), take(cells)
	done := take(dp * pp * tp)
	gates, bucketGates, optGates, optDone := take(dp), take(dp), take(dp),
		take(dp)
	chunk := func(tab []*task.Task, s, mb int) []*task.Task {
		i := (s*m + mb) * tp
		return tab[i : i+tp : i+tp]
	}
	doneAt := func(d, s int) []*task.Task {
		i := (d*pp + s) * tp
		return done[i : i+tp : i+tp]
	}

	gate := b.g.AddBarrier("start")
	deps := make([][3]*task.Task, tp) // the gates of the chunk being emitted
	for it := 0; it < cfg.Iterations; it++ {
		suffix := fmt.Sprintf("-it%d", it)
		for i := range ready {
			ready[i] = ready[i][:0]
		}
		if ps.gil && cfg.Effects.DPDispatchPerLayer.After(0) {
			// Standard DataParallel's host dispatches layer by layer for
			// every replica at once.
			b.dispatch = make([]*task.Task, b.tr.NumLayers())
			prev := gate
			for l := range b.dispatch {
				delay := b.g.AddDelay(cfg.Effects.DPDispatchPerLayer,
					fmt.Sprintf("dp-dispatch-l%d%s", l, suffix))
				b.g.AddDep(prev, delay)
				b.dispatch[l], prev = delay, delay
			}
		}

		for d := 0; d < dp; d++ {
			dsuffix := suffix + "-d" + strconv.Itoa(d)

			// Stage the input: each micro-batch to the first stage's rank
			// 0 under a pipeline preset, whose ranks all wait for it, and
			// the batch to every rank of the first stage otherwise.
			for mb := 0; mb < m; mb++ {
				in := chunk(arrive, 0, mb)
				label := "stage-input-mb" + strconv.Itoa(mb) + dsuffix
				for r := range in {
					if r > 0 && ps.pipeline {
						in[r] = in[0]
						continue
					}
					in[r] = b.stageInput(b.gpus[gpuAt(d, 0, r)], microScale,
						gate, label)
				}
			}
			// Forward pipeline (GPipe) with sharded rank-to-rank boundary
			// sends: rank r of stage s ships its 1/tp activation slice to
			// rank r of stage s+1 over the rail.
			for s := 0; s < pp; s++ {
				for mb := 0; mb < m; mb++ {
					in, last := chunk(arrive, s, mb), chunk(fwdLast, s, mb)
					for r := range deps {
						deps[r] = [3]*task.Task{in[r]}
						if mb > 0 {
							deps[r][1] = chunk(fwdLast, s, mb-1)[r]
						}
					}
					emitChunk(d, s, mb, deps, true, dsuffix, last)
					if s+1 < pp {
						next := chunk(arrive, s+1, mb)
						for r := range next {
							send := b.g.AddComm(b.gpus[gpuAt(d, s, r)],
								b.gpus[gpuAt(d, s+1, r)],
								pre[s].boundary*shard, "")
							send.SetLabelf(actLabel, dsuffix, s, mb, r)
							send.MicroBatch = int32(mb)
							b.g.AddDep(last[r], send)
							next[r] = send
						}
					}
				}
			}

			if cfg.ForwardOnly {
				for s := 0; s < pp; s++ {
					copy(doneAt(d, s), chunk(fwdLast, s, m-1))
				}
				continue
			}

			// Backward: GPipe flush, reverse micro-batch order, sharded
			// gradient sends back down the rails.
			for s := pp - 1; s >= 0; s-- {
				last := doneAt(d, s)
				for k := 0; k < m; k++ {
					mb := m - 1 - k
					for r := range deps {
						deps[r] = [3]*task.Task{chunk(fwdLast, s, m-1)[r]}
						if s+1 < pp {
							deps[r][1] = chunk(gradArrive, s, mb)[r]
						}
						if k > 0 {
							deps[r][2] = last[r]
						}
					}
					emitChunk(d, s, mb, deps, false, dsuffix, last)
					if s > 0 {
						back := chunk(gradArrive, s-1, mb)
						for r := range back {
							send := b.g.AddComm(b.gpus[gpuAt(d, s, r)],
								b.gpus[gpuAt(d, s-1, r)],
								pre[s-1].boundary*shard, "")
							send.SetLabelf(gradLabel, dsuffix, s, mb, r)
							send.MicroBatch = int32(mb)
							b.g.AddDep(last[r], send)
							back[r] = send
						}
					}
				}
			}
		}

		end := b.g.AddBarrier("iter-done" + suffix)
		if cfg.ForwardOnly {
			for _, t := range done {
				b.g.AddDep(t, end)
			}
			res.IterationEnds = append(res.IterationEnds, end)
			gate = end
			continue
		}

		// Per (stage, rank) shard: the cross-replica gradient sync (a
		// single replica has nothing to synchronize), then the sharded
		// optimizer on every replica.
		for s := 0; s < pp; s++ {
			p := &pre[s]
			for r := 0; r < tp; r++ {
				for d := range gates {
					gates[d] = doneAt(d, s)[r]
				}
				copy(optGates, gates)
				if dp > 1 && !spans {
					for d := range dpRing {
						dpRing[d] = b.gpus[gpuAt(d, s, r)]
					}
				}
				switch {
				case dp == 1:
				case ps.sync == allReduceSync:
					ar := b.allReduce(dpRing, p.grad*shard, inRing(gates),
						syncOpts("allreduce", s, r, suffix))
					for d := range optGates {
						optGates[d] = ar
					}
				case ps.sync == bucketSync:
					// Each bucket waits for every replica to fill it and for
					// the previous bucket's AllReduce.
					var prev *task.Task
					fills := ready[s*tp+r]
					for k := 0; k < p.buckets; k++ {
						for d := range bucketGates {
							bucketGates[d] = fills[d*p.buckets+k]
							if prev != nil {
								b.g.AddDep(prev, bucketGates[d])
							}
						}
						prev = b.allReduce(dpRing, p.bwd[k].grad*shard,
							inRing(bucketGates), syncOpts(
								fmt.Sprintf("allreduce-b%d", k), s, r, suffix))
					}
					for d := range optGates {
						optGates[d] = b.g.AddBarrier(fmt.Sprintf(
							"opt-gate-s%d-r%d%s-d%d", s, r, suffix, d))
						b.g.AddDep(gates[d], optGates[d])
						if prev != nil {
							b.g.AddDep(prev, optGates[d])
						}
					}
				case ps.sync == zeroSync:
					rs := collective.RingReduceScatter(b.g, dpRing,
						p.grad*shard, inRing(gates),
						syncOpts("zero-rs", s, r, suffix))
					for d := range optGates {
						optGates[d] = rs
					}
				}
				for d := range optDone {
					if cfg.FuseCompute {
						opt := b.g.AddCompute(gpuAt(d, s, r), p.optDur, "")
						opt.SetLabelf(optLabel, suffix, s, r, d)
						b.g.AddDep(optGates[d], opt)
						optDone[d] = opt
						continue
					}
					prev := optGates[d]
					for _, idx := range optOps[s] {
						op := &b.tr.Ops[idx]
						t := b.g.AddCompute(gpuAt(d, s, r),
							b.opDuration(op, 1, optShard), op.Name+suffix)
						t.Layer = int32(op.Layer)
						b.g.AddDep(prev, t)
						prev = t
					}
					optDone[d] = prev
				}
				if ps.sync == zeroSync && dp > 1 {
					// All-gather the updated parameter shards.
					b.g.AddDep(collective.RingAllGather(b.g, dpRing,
						p.weights*shard, inRing(optDone),
						syncOpts("zero-ag", s, r, suffix)), end)
					continue
				}
				for _, t := range optDone {
					b.g.AddDep(t, end)
				}
			}
		}
		res.IterationEnds = append(res.IterationEnds, end)
		gate = end
	}
	return res, nil
}
