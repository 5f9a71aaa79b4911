package extrapolator

import (
	"fmt"

	"triosim/internal/collective"
	"triosim/internal/network"
	"triosim/internal/sim"
	"triosim/internal/task"
	"triosim/internal/telemetry"
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
// pipeline of pp stages, each stage tensor-parallel across tp ranks.
//
// GPU layout (machine-major clusters line up automatically when tp equals
// the machine size): replica d, stage s, rank r → physical GPU
// d·tp·pp + s·tp + r. Stage boundaries ship sharded activations rank-to-rank
// (rail-aligned); after the backward drain, each (stage, rank) gradient
// shard AllReduces across the dp replicas via builder.allReduce, which
// selects the hierarchical schedule on tiered topologies.
//
// It is the one GPipe schedule in the package: PipelineParallel (1×1×N)
// and HybridDPPP (g×1×N/g) are its tp = 1 presets. Unfused, each chunk
// charges the hardware's per-micro-batch CPU scheduling delay, chained per
// GPU, and runs its stage's ops through tpLayers, the one per-layer
// tensor-parallel loop (which emits no sync for a single rank). With
// cfg.FuseCompute set, each (stage, micro-batch, rank) op chain collapses
// into one compute task and the per-layer TP syncs coalesce into one
// FusedRingStep per chunk — the graph-size reduction that makes 10,000-GPU
// steps simulable in seconds.
func Hybrid3D(cfg Config, dp, tp, pp int) (*Result, error) {
	b, err := newBuilder(cfg)
	if err != nil {
		return nil, err
	}
	cfg = b.cfg
	if dp < 1 || tp < 1 || pp < 1 {
		return nil, fmt.Errorf("extrapolator: 3d grid %d×%d×%d", dp, tp, pp)
	}
	if dp*tp*pp != cfg.NumGPUs {
		return nil, fmt.Errorf("extrapolator: 3d grid %d×%d×%d ≠ %d GPUs",
			dp, tp, pp, cfg.NumGPUs)
	}
	if cfg.GlobalBatch%dp != 0 {
		return nil, fmt.Errorf("extrapolator: batch %d not divisible by %d replicas",
			cfg.GlobalBatch, dp)
	}
	m := cfg.MicroBatches
	microScale := float64(cfg.GlobalBatch) / float64(dp) / float64(m) /
		float64(b.tr.BatchSize)
	shard := 1.0 / float64(tp)

	// The layer→stage assignment, shared by every replica.
	stageOf := cfg.StageOf
	if stageOf == nil {
		stageOf = StageAssignment(b.tr, pp)
	}
	if len(stageOf) != b.tr.NumLayers() {
		return nil, fmt.Errorf("extrapolator: stage map covers %d of %d layers",
			len(stageOf), b.tr.NumLayers())
	}
	fwdOps := make([][]int, pp)
	bwdOps := make([][]int, pp)
	optOps := make([][]int, pp)
	for _, idx := range b.fwd {
		s := stageOf[b.tr.Ops[idx].Layer]
		fwdOps[s] = append(fwdOps[s], idx)
	}
	for _, idx := range b.bwd {
		s := stageOf[b.tr.Ops[idx].Layer]
		bwdOps[s] = append(bwdOps[s], idx)
	}
	for _, idx := range b.opt {
		s := stageOf[b.tr.Ops[idx].Layer]
		optOps[s] = append(optOps[s], idx)
	}

	// Per-stage precomputation: layer runs, stage boundary bytes, owned
	// gradient bytes and, for fused chunks, the summed durations and TP
	// sync payloads. Identical across replicas and micro-batches, so pricing
	// runs once, not dp·m times.
	type stagePre struct {
		fwdRuns, bwdRuns       []layerGroup
		boundary               float64 // activation bytes leaving the stage
		gradBytes              float64
		fwdDur, bwdDur, optDur sim.VTime // fused only
		syncFwd, syncBwd       float64   // fused only: TP bytes per chunk
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
			total += b.opDuration(op, microScale, sh)
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
	for s := 0; s < pp; s++ {
		p := &pre[s]
		p.fwdRuns = b.groupByLayer(fwdOps[s])
		p.bwdRuns = b.groupByLayer(bwdOps[s])
		if len(fwdOps[s]) > 0 {
			last := &b.tr.Ops[fwdOps[s][len(fwdOps[s])-1]]
			p.boundary = b.outBytes(last, microScale)
		}
		for _, idx := range bwdOps[s] {
			p.gradBytes += b.gradBytesOf(&b.tr.Ops[idx])
		}
		if !cfg.FuseCompute {
			continue
		}
		p.fwdDur = sumDur(fwdOps[s])
		p.bwdDur = sumDur(bwdOps[s])
		p.syncFwd = syncBytes(p.fwdRuns)
		p.syncBwd = syncBytes(p.bwdRuns)
		for _, idx := range optOps[s] {
			p.optDur += b.opDuration(&b.tr.Ops[idx], 1, shard)
		}
	}

	gpuAt := func(d, s, r int) int { return d*tp*pp + s*tp + r }

	cpu := cfg.Effects.CPUSchedPerMicroBatch
	prevCPU := make([]*task.Task, cfg.NumGPUs) // serializes each GPU's host dispatch
	win := make([]int, tp)                     // the (d, s) window tpLayers runs on

	// emitChunk runs one (replica, stage, micro-batch) chunk across the tp
	// ranks: compute (fused or per-op) then the TP boundary syncs. deps[r]
	// gates rank r; nil entries gate nothing. Returns the per-rank
	// completion tasks.
	ring := make([]network.NodeID, tp) // the fused TP sync's ring, reused
	emitChunk := func(d, s, mb int, deps [][3]*task.Task, fwd bool,
		dsuffix string) []*task.Task {

		p := &pre[s]
		phase, dur, runs, sync := "fwd", p.fwdDur, p.fwdRuns, p.syncFwd
		form := fusedFwdLabel
		if !fwd {
			phase, dur, runs, sync = "bwd", p.bwdDur, p.bwdRuns, p.syncBwd
			form = fusedBwdLabel
		}
		last := make([]*task.Task, tp)
		if cfg.FuseCompute {
			for r := 0; r < tp; r++ {
				t := b.g.AddCompute(gpuAt(d, s, r), dur, "")
				t.SetLabelf(form, dsuffix, s, mb)
				for _, dep := range deps[r] {
					b.g.AddDep(dep, t)
				}
				last[r] = t
			}
			if tp > 1 && sync > 0 {
				bus := float64(tp-1) / float64(tp)
				if !fwd {
					bus *= 2 // allreduce, not allgather
				}
				for r := range ring {
					ring[r] = b.gpus[gpuAt(d, s, r)]
				}
				coll := collective.FusedRingStep(b.g, ring, sync,
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
			return last
		}

		// Unfused: per rank an entry barrier and the host's per-micro-batch
		// scheduling delay, then the per-layer tensor-parallel loop over the
		// stage's ops on the chunk's rank window.
		csuffix := fmt.Sprintf("-s%d-mb%d%s", s, mb, dsuffix)
		label := phase + csuffix
		for r := 0; r < tp; r++ {
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
		last = b.tpLayers(runs, microScale, shard, last, csuffix, phase)
		b.logMap = nil
		return last
	}

	res := &Result{Graph: b.g,
		Meta: telemetry.ParallelStat{Strategy: "dp+tp+pp", Replicas: dp,
			Stages: pp, TPRanks: tp, StageOfLayer: stageOf}}
	gate := b.g.AddBarrier("start")
	deps := make([][3]*task.Task, tp) // the gates of the chunk being emitted
	for it := 0; it < cfg.Iterations; it++ {
		suffix := fmt.Sprintf("-it%d", it)
		bwdDone := make([][][]*task.Task, dp) // [d][s][r]

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

		// Cross-replica gradient AllReduce per (stage, rank) shard; the
		// dispatcher picks the hierarchical schedule on tiered topologies.
		// A single replica has nothing to synchronize. Then the sharded
		// optimizer, fused into one task per GPU.
		for s := 0; s < pp; s++ {
			for r := 0; r < tp; r++ {
				synced := bwdDone[0][s][r]
				if dp > 1 {
					ring := make([]network.NodeID, dp)
					gates := make([]*task.Task, dp)
					for d := 0; d < dp; d++ {
						ring[d] = b.gpus[gpuAt(d, s, r)]
						gates[d] = bwdDone[d][s][r]
					}
					synced = b.allReduce(ring, pre[s].gradBytes*shard, gates,
						collective.Options{
							StepDelay: b.cfg.Effects.CommStepLatency,
							Label: fmt.Sprintf("3d-allreduce-s%d-r%d%s", s,
								r, suffix),
							Log: b.cfg.Collectives,
						})
				}
				for d := 0; d < dp; d++ {
					var opt *task.Task
					if cfg.FuseCompute {
						opt = b.g.AddCompute(gpuAt(d, s, r), pre[s].optDur,
							"")
						opt.SetLabelf(optLabel, suffix, s, r, d)
						b.g.AddDep(synced, opt)
					} else {
						prev := synced
						for _, idx := range optOps[s] {
							op := &b.tr.Ops[idx]
							t := b.g.AddCompute(gpuAt(d, s, r),
								b.opDuration(op, 1, shard), op.Name+suffix)
							t.Layer = int32(op.Layer)
							b.g.AddDep(prev, t)
							prev = t
						}
						opt = prev
					}
					b.g.AddDep(opt, end)
				}
			}
		}
		res.IterationEnds = append(res.IterationEnds, end)
		gate = end
	}
	return res, nil
}
