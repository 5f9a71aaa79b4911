package extrapolator

import (
	"fmt"
	"math"

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

// grid is the one generator of every strategy but tp and dp+tp: the
// DP×TP×PP grid, run as preset ps (named name) directs.
//
// GPU layout (machine-major clusters line up automatically when tp equals
// the machine size): replica d, stage s, rank r → physical GPU
// d·tp·pp + s·tp + r. Stage boundaries ship sharded activations rank-to-rank
// (rail-aligned); each (stage, rank) gradient shard then synchronizes
// across the dp replicas as ps.sync says, through builder.allReduce, which
// selects the hierarchical schedule on tiered topologies. A dp ring that
// spans all of the run's GPUs rings in the topology's ring order.
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
	// byStage splits op indices by their layer's stage, in order.
	byStage := func(ops []int) [][]int {
		out := make([][]int, pp)
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
	fwdOps, bwdOps, optOps := byStage(b.fwd), byStage(b.bwd), byStage(b.opt)

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
		fwd, bwd      []segment // bwd: one, or the gradient buckets in fill order
		boundary      float64   // activation bytes leaving the stage
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
			par := false
			for _, idx := range grp.ops {
				if b.tr.Ops[idx].Parallelizable {
					par = true
					break
				}
			}
			if par && len(grp.ops) > 0 {
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
			sg.dur, sg.syncSize = sumDur(ops), syncBytes(sg.runs)
		}
		return sg
	}
	for s := 0; s < pp; s++ {
		p := &pre[s]
		p.fwd = []segment{newSegment(fwdOps[s])}
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
	prevCPU := make([]*task.Task, cfg.NumGPUs) // serializes each GPU's host dispatch
	win := make([]int, tp)                     // the (d, s) window tpLayers runs on
	// ready holds, per (stage, rank), each replica's bucket gates in fill
	// order, replica-major (bucket sync only).
	var ready [][]*task.Task

	// emitChunk runs one (replica, stage, micro-batch) chunk across the tp
	// ranks: per segment, compute (fused or per-op) then the TP boundary
	// syncs and, under bucket sync, a gate per rank for the bucket's
	// AllReduce. deps[r] gates rank r; nil entries gate nothing. Returns the
	// per-rank completion tasks.
	ring := make([]network.NodeID, tp) // the fused TP sync's ring, reused
	emitChunk := func(d, s, mb int, deps [][3]*task.Task, fwd bool,
		dsuffix string) []*task.Task {

		p := &pre[s]
		phase, segs, form := "fwd", p.fwd, fusedFwdLabel
		if !fwd {
			phase, segs, form = "bwd", p.bwd, fusedBwdLabel
		}
		last := make([]*task.Task, tp)
		var csuffix string
		if !cfg.FuseCompute {
			// Unfused: per rank the pipeline presets' entry barrier and the
			// host's per-micro-batch scheduling delay (a data-parallel
			// chunk has one gate and chains onto it), then tpLayers on the
			// chunk's rank window.
			csuffix = fmt.Sprintf("-s%d-mb%d%s", s, mb, dsuffix)
			label := phase + csuffix
			for r := 0; r < tp; r++ {
				if !ps.pipeline {
					last[r] = deps[r][0]
					continue
				}
				entry := b.g.AddBarrier(label + "-entry")
				for _, dep := range deps[r] {
					b.g.AddDep(dep, entry)
				}
				last[r] = entry
				if cpu.After(0) {
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
			for r := range win {
				win[r] = gpuAt(d, s, r)
			}
			b.logMap = win
		}
		for k, sg := range segs {
			if !cfg.FuseCompute {
				last = b.tpLayers(sg.runs, microScale, shard, last, csuffix,
					phase)
			} else {
				for r := 0; r < tp; r++ {
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
					for r := range ring {
						ring[r] = b.gpus[gpuAt(d, s, r)]
					}
					coll := collective.FusedRingStep(b.g, ring, sg.syncSize,
						bus, last, collective.Options{
							StepDelay: b.cfg.Effects.CommStepLatency,
							Label: fmt.Sprintf("%s-s%d-mb%d%s-tpsync", phase,
								s, mb, dsuffix),
							Log: b.cfg.Collectives,
						})
					for r := 0; r < tp; r++ {
						last[r] = coll
					}
				}
			}
			if !fwd && ps.sync == bucketSync && dp > 1 && sg.grad > 0 {
				for r := 0; r < tp; r++ {
					gate := b.g.AddBarrier(fmt.Sprintf("bucket%d-ready-s%d%s",
						k, s, dsuffix))
					b.g.AddDep(last[r], gate)
					ready[s*tp+r] = append(ready[s*tp+r], gate)
				}
			}
		}
		b.logMap = nil
		return last
	}

	// syncOpts names a gradient-sync collective: the pipeline presets name
	// the (stage, rank) shard, the data-parallel presets sync one shard and
	// name it by the iteration alone.
	syncOpts := func(kind string, s, r int, suffix string) collective.Options {
		label := kind + suffix
		if ps.pipeline {
			label = fmt.Sprintf("3d-%s-s%d-r%d%s", kind, s, r, suffix)
		}
		return collective.Options{StepDelay: b.cfg.Effects.CommStepLatency,
			Label: label, Log: b.cfg.Collectives}
	}
	// inRing orders per-replica gates as the dp ring: the topology's ring
	// order when the ring spans the run's GPUs, else replica order.
	spans := dp == cfg.NumGPUs
	inRing := func(gates []*task.Task) []*task.Task {
		if spans {
			return b.permuteGates(gates)
		}
		return gates
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
	gate := b.g.AddBarrier("start")
	deps := make([][3]*task.Task, tp) // the gates of the chunk being emitted
	// Per-replica gates of the (stage, rank) shard being synchronized: each
	// replica's backward end, the gates of the bucket being AllReduced,
	// what each optimizer waits for and each optimizer's end.
	gates, bucketGates := make([]*task.Task, dp), make([]*task.Task, dp)
	optGates, optDone := make([]*task.Task, dp), make([]*task.Task, dp)
	for it := 0; it < cfg.Iterations; it++ {
		suffix := fmt.Sprintf("-it%d", it)
		bwdDone := make([][][]*task.Task, dp) // [d][s][r]
		if ps.sync == bucketSync {
			ready = make([][]*task.Task, pp*tp)
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
			dsuffix := fmt.Sprintf("%s-d%d", suffix, d)

			// Forward pipeline (GPipe) with sharded rank-to-rank boundary
			// sends: rank r of stage s ships its 1/tp activation slice to
			// rank r of stage s+1 over the rail.
			fwdLast := make([][][]*task.Task, pp) // [s][mb][r]
			arrive := make([][][]*task.Task, pp)
			for s := 0; s < pp; s++ {
				fwdLast[s] = make([][]*task.Task, m)
				arrive[s] = make([][]*task.Task, m)
			}
			for mb := 0; mb < m; mb++ {
				load := b.stageInput(b.gpus[gpuAt(d, 0, 0)], microScale, gate,
					fmt.Sprintf("stage-input-mb%d%s", mb, dsuffix))
				arrive[0][mb] = make([]*task.Task, tp)
				for r := 0; r < tp; r++ {
					arrive[0][mb][r] = load
				}
			}
			for s := 0; s < pp; s++ {
				for mb := 0; mb < m; mb++ {
					for r := 0; r < tp; r++ {
						deps[r] = [3]*task.Task{arrive[s][mb][r]}
						if mb > 0 {
							deps[r][1] = fwdLast[s][mb-1][r]
						}
					}
					last := emitChunk(d, s, mb, deps, true, dsuffix)
					fwdLast[s][mb] = last
					if s+1 < pp {
						arrive[s+1][mb] = make([]*task.Task, tp)
						for r := 0; r < tp; r++ {
							send := b.g.AddComm(b.gpus[gpuAt(d, s, r)],
								b.gpus[gpuAt(d, s+1, r)],
								pre[s].boundary*shard, "")
							send.SetLabelf(actLabel, dsuffix, s, mb, r)
							send.MicroBatch = int32(mb)
							b.g.AddDep(last[r], send)
							arrive[s+1][mb][r] = send
						}
					}
				}
			}

			if cfg.ForwardOnly {
				bwdDone[d] = make([][]*task.Task, pp)
				for s := 0; s < pp; s++ {
					bwdDone[d][s] = fwdLast[s][m-1]
				}
				continue
			}

			// Backward: GPipe flush, reverse micro-batch order, sharded
			// gradient sends back down the rails.
			gradArrive := make([][][]*task.Task, pp)
			for s := 0; s < pp; s++ {
				gradArrive[s] = make([][]*task.Task, m)
			}
			bwdDone[d] = make([][]*task.Task, pp)
			for s := pp - 1; s >= 0; s-- {
				var prevMicro []*task.Task
				for k := 0; k < m; k++ {
					mb := m - 1 - k
					for r := 0; r < tp; r++ {
						deps[r] = [3]*task.Task{fwdLast[s][m-1][r]}
						if gradArrive[s][mb] != nil {
							deps[r][1] = gradArrive[s][mb][r]
						}
						if prevMicro != nil {
							deps[r][2] = prevMicro[r]
						}
					}
					last := emitChunk(d, s, mb, deps, false, dsuffix)
					prevMicro = last
					if s > 0 {
						gradArrive[s-1][mb] = make([]*task.Task, tp)
						for r := 0; r < tp; r++ {
							send := b.g.AddComm(b.gpus[gpuAt(d, s, r)],
								b.gpus[gpuAt(d, s-1, r)],
								pre[s-1].boundary*shard, "")
							send.SetLabelf(gradLabel, dsuffix, s, mb, r)
							send.MicroBatch = int32(mb)
							b.g.AddDep(last[r], send)
							gradArrive[s-1][mb][r] = send
						}
					}
				}
				bwdDone[d][s] = prevMicro
			}
		}

		end := b.g.AddBarrier("iter-done" + suffix)
		if cfg.ForwardOnly {
			for d := 0; d < dp; d++ {
				for s := 0; s < pp; s++ {
					for r := 0; r < tp; r++ {
						b.g.AddDep(bwdDone[d][s][r], end)
					}
				}
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
					gates[d] = bwdDone[d][s][r]
				}
				copy(optGates, gates)
				var dpRing []network.NodeID
				if dp > 1 {
					if spans {
						dpRing = b.ringNodes()
					} else {
						dpRing = make([]network.NodeID, dp)
						for d := range dpRing {
							dpRing[d] = b.gpus[gpuAt(d, s, r)]
						}
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
