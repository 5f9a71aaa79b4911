package extrapolator

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"testing"

	"triosim/internal/collective"
	"triosim/internal/gpu"
	"triosim/internal/hwsim"
	"triosim/internal/models"
	"triosim/internal/network"
	"triosim/internal/perfmodel"
	"triosim/internal/sim"
	"triosim/internal/task"
	"triosim/internal/telemetry"
	"triosim/internal/tensor"
	"triosim/internal/trace"
)

// This file keeps the hand-written single-GPU, DataParallel, DDP and ZeRO-1
// loops the grid generator's data-parallel presets replaced, as a reference:
// TestDPPresetsMatchLoops runs both and compares what they simulate.

// emitSeq emits the ops (by index) as a dependency chain on one GPU at the
// given scales, gated on start. Returns the last task (or start if none).
func (b *builder) emitSeq(gpu int, ops []int, batchScale, shard float64,
	start *task.Task, labelSuffix string) *task.Task {
	prev := start
	for _, idx := range ops {
		op := &b.tr.Ops[idx]
		dur := b.opDuration(op, batchScale, shard)
		t := b.g.AddCompute(b.phys(gpu), dur, b.label(op.Name, labelSuffix))
		t.Layer = int32(op.Layer)
		b.g.AddDep(prev, t)
		prev = t
	}
	return prev
}

// loopSingleGPU replays the trace on one GPU, rescaled to the global batch.
func loopSingleGPU(cfg Config) (*Result, error) {
	b, err := newBuilder(cfg)
	if err != nil {
		return nil, err
	}
	cfg = b.cfg
	scale := float64(cfg.GlobalBatch) / float64(b.tr.BatchSize)

	res := &Result{Graph: b.g,
		Meta: telemetry.ParallelStat{Strategy: "single", Replicas: 1}}
	var gate *task.Task = b.g.AddBarrier("start")
	for it := 0; it < cfg.Iterations; it++ {
		suffix := fmt.Sprintf("-it%d", it)
		load := b.stageInput(b.node(0), scale, gate, "stage-input"+suffix)
		last := b.emitSeq(0, b.fwd, scale, 1, load, suffix)
		last = b.emitSeq(0, b.bwd, scale, 1, last, suffix)
		last = b.emitSeq(0, b.opt, scale, 1, last, suffix)
		end := b.g.AddBarrier("iter-done" + suffix)
		b.g.AddDep(last, end)
		res.IterationEnds = append(res.IterationEnds, end)
		gate = end
	}
	return res, nil
}

// loopDataParallel is N-GPU standard DataParallel (overlap=false) or DDP
// (overlap=true).
func loopDataParallel(cfg Config, overlap bool) (*Result, error) {
	b, err := newBuilder(cfg)
	if err != nil {
		return nil, err
	}
	cfg = b.cfg
	n := cfg.NumGPUs
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
			end, res.Meta.Buckets = b.loopDDPIteration(scale, gate, suffix)
		} else {
			end = b.loopStdDPIteration(scale, gate, suffix)
		}
		res.IterationEnds = append(res.IterationEnds, end)
		gate = end
	}
	return res, nil
}

// loopStdDPIteration: forward+backward replicas, one AllReduce after the
// whole backward pass, then the optimizer step, with standard DataParallel's
// per-layer dispatch chain and compute inflation when Effects request them.
func (b *builder) loopStdDPIteration(scale float64, gate *task.Task,
	suffix string) *task.Task {

	n := b.cfg.NumGPUs
	lastBwd := make([]*task.Task, n)

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

// loopDDPIteration: bucketed gradient AllReduces overlapped with the
// backward pass, buckets serialized on the communication stream. It returns
// the iteration's end and its bucket count.
func (b *builder) loopDDPIteration(scale float64, gate *task.Task,
	suffix string) (*task.Task, int) {

	n := b.cfg.NumGPUs
	lastFwd := make([]*task.Task, n)
	for i := 0; i < n; i++ {
		load := b.stageInput(b.node(i), scale, gate,
			fmt.Sprintf("stage-input-g%d%s", i, suffix))
		lastFwd[i] = b.emitSeq(i, b.fwd, scale, 1, load, suffix)
	}

	type bucket struct {
		bytes float64
		gates []*task.Task // per GPU, last contributing bwd op
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
		cur.bytes += b.catBytes(op.Outputs, tensor.Gradient)
		if cur.bytes >= b.cfg.BucketBytes {
			flush(bucketIdx)
			bucketIdx++
		}
	}
	flush(bucketIdx)

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
	return end, len(allReduces)
}

// loopZeRO is ZeRO stage-1 data parallelism: replicated forward and
// backward, a gradient reduce-scatter, the optimizer on a 1/N shard, and an
// all-gather of the updated parameters.
func loopZeRO(cfg Config) (*Result, error) {
	b, err := newBuilder(cfg)
	if err != nil {
		return nil, err
	}
	cfg = b.cfg
	n := cfg.NumGPUs
	scale := float64(cfg.GlobalBatch) / float64(n) / float64(b.tr.BatchSize)
	shard := 1.0 / float64(n)

	res := &Result{Graph: b.g,
		Meta: telemetry.ParallelStat{Strategy: "zero1", Replicas: n}}
	gate := b.g.AddBarrier("start")
	for it := 0; it < cfg.Iterations; it++ {
		suffix := fmt.Sprintf("-it%d", it)

		lastBwd := make([]*task.Task, n)
		for i := 0; i < n; i++ {
			load := b.stageInput(b.node(i), scale, gate,
				fmt.Sprintf("stage-input-g%d%s", i, suffix))
			last := b.emitSeq(i, b.fwd, scale, 1, load, suffix)
			lastBwd[i] = b.emitSeq(i, b.bwd, scale, 1, last, suffix)
		}

		end := b.g.AddBarrier("iter-done" + suffix)
		if cfg.ForwardOnly {
			for i := 0; i < n; i++ {
				b.g.AddDep(lastBwd[i], end)
			}
			res.IterationEnds = append(res.IterationEnds, end)
			gate = end
			continue
		}

		opts := collective.Options{
			StepDelay: b.cfg.Effects.CommStepLatency,
			Log:       b.cfg.Collectives,
		}
		opts.Label = "zero-rs" + suffix
		rs := collective.RingReduceScatter(b.g, b.ringNodes(),
			float64(b.tr.GradientBytes()), b.permuteGates(lastBwd), opts)

		optDone := make([]*task.Task, n)
		for i := 0; i < n; i++ {
			last := rs
			for _, idx := range b.opt {
				op := &b.tr.Ops[idx]
				t := b.g.AddCompute(b.phys(i),
					b.opDuration(op, scale, shard), op.Name+suffix)
				t.Layer = int32(op.Layer)
				b.g.AddDep(last, t)
				last = t
			}
			optDone[i] = last
		}

		opts.Label = "zero-ag" + suffix
		ag := collective.RingAllGather(b.g, b.ringNodes(),
			float64(b.tr.WeightBytes()), b.permuteGates(optDone), opts)
		b.g.AddDep(ag, end)

		res.IterationEnds = append(res.IterationEnds, end)
		gate = end
	}
	return res, nil
}

// taskRecord is what a run did with one non-barrier task: its kind, where
// it ran (GPU, or source and destination), and its bytes, start and end as
// float64 bits.
type taskRecord struct {
	kind              task.Kind
	gpu               int32
	src, dst          network.NodeID
	bytes, start, end uint64
}

// recorder collects a run's task records and their order-free digest: the
// sum of the records' hashes.
type recorder struct {
	recs []taskRecord
	sum  uint64
}

var recordSeed = maphash.MakeSeed()

func (r *recorder) TaskDone(t *task.Task, start, end sim.VTime) {
	if t.Kind == task.Barrier {
		return
	}
	rec := taskRecord{t.Kind, t.GPU, t.Src, t.Dst, math.Float64bits(t.Bytes),
		math.Float64bits(float64(start)), math.Float64bits(float64(end))}
	r.recs = append(r.recs, rec)
	r.sum += maphash.Comparable(recordSeed, rec)
}

// runRecords executes a graph and returns its makespan and task records.
func runRecords(t *testing.T, cfg Config, res *Result) (sim.VTime, *recorder) {
	t.Helper()
	eng := sim.NewSerialEngine()
	net := network.NewFlowNetwork(eng, cfg.Topo)
	net.RampBytes = cfg.Effects.CommRampBytes
	x := task.NewExecutor(eng, net, res.Graph, nil)
	rec := &recorder{}
	x.Observe(rec)
	makespan, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	return makespan, rec
}

// firstDiff sorts two record lists and returns the first pair that differs.
func firstDiff(a, b []taskRecord) (taskRecord, taskRecord) {
	order := func(x, y taskRecord) int {
		return cmp.Or(cmp.Compare(x.kind, y.kind), cmp.Compare(x.gpu, y.gpu),
			cmp.Compare(x.src, y.src), cmp.Compare(x.dst, y.dst),
			cmp.Compare(x.start, y.start), cmp.Compare(x.end, y.end),
			cmp.Compare(x.bytes, y.bytes))
	}
	slices.SortFunc(a, order)
	slices.SortFunc(b, order)
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return a[i], b[i]
		}
	}
	return taskRecord{}, taskRecord{}
}

// dpBuilds pairs each data-parallel preset with its reference loop.
var dpBuilds = []struct {
	name         string
	preset, loop func(Config) (*Result, error)
}{
	{"single", singleGPU, loopSingleGPU},
	{"dp", func(c Config) (*Result, error) { return DataParallel(c, false) },
		func(c Config) (*Result, error) { return loopDataParallel(c, false) }},
	{"ddp", func(c Config) (*Result, error) { return DataParallel(c, true) },
		func(c Config) (*Result, error) { return loopDataParallel(c, true) }},
	{"zero1", zero1, loopZeRO},
}

// matchLoop builds cfg with a preset and with its reference loop, runs both,
// and fails unless they simulate the same: equal makespan bits, equal
// multisets of non-barrier task records, and equal metadata.
func matchLoop(t *testing.T, key string, cfg Config,
	preset, loop func(Config) (*Result, error)) {
	t.Helper()
	want, err := loop(cfg)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	got, err := preset(cfg)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	if !slices.Equal(got.Meta.StageOfLayer, want.Meta.StageOfLayer) ||
		got.Meta.Strategy != want.Meta.Strategy ||
		got.Meta.Replicas != want.Meta.Replicas ||
		got.Meta.TPRanks != want.Meta.TPRanks ||
		got.Meta.Buckets != want.Meta.Buckets {
		t.Errorf("%s: meta %+v, loop %+v", key, got.Meta, want.Meta)
	}
	gotSpan, gotRec := runRecords(t, cfg, got)
	wantSpan, wantRec := runRecords(t, cfg, want)
	if gotSpan != wantSpan {
		t.Errorf("%s: makespan %v, loop %v", key, gotSpan, wantSpan)
	}
	if len(gotRec.recs) != len(wantRec.recs) {
		t.Errorf("%s: %d tasks, loop %d", key, len(gotRec.recs),
			len(wantRec.recs))
	} else if gotRec.sum != wantRec.sum {
		g, w := firstDiff(gotRec.recs, wantRec.recs)
		t.Errorf("%s: task record %+v, loop %+v", key, g, w)
	}
}

// platformTopology is the validation platform's interconnect.
func platformTopology(p *gpu.Platform) *network.Topology {
	cfg := network.Config{NumGPUs: p.NumGPUs, LinkBandwidth: p.LinkBandwidth,
		LinkLatency: p.LinkLatency, HostBandwidth: p.HostBandwidth,
		HostLatency: p.HostLatency}
	if p.Topology == gpu.TopoPCIeTree {
		return network.PCIeTree(cfg)
	}
	return network.Switch(cfg)
}

// eachZooConfig calls f with one Config per run shape of the model on the
// validation platforms P1–P3: predicted (fitted timer, no effects) and
// ground truth (hwsim timer, the platform's effects), for one and two
// training iterations and for inference, on all of the platform's GPUs at a
// global batch that leaves P3's replicas a fractional share. key names the
// model, platform, path and shape.
func eachZooConfig(t *testing.T, model string, f func(key string, cfg Config)) {
	t.Helper()
	for _, plat := range []gpu.Platform{gpu.P1, gpu.P2, gpu.P3} {
		tr, err := hwsim.CollectTrace(model, 32, &plat.GPU)
		if err != nil {
			t.Fatal(err)
		}
		fitted, err := perfmodel.Fit(tr)
		if err != nil {
			t.Fatal(err)
		}
		topo := platformTopology(&plat)
		paths := []struct {
			name    string
			timer   OpTimer
			effects hwsim.Effects
		}{
			{"sim", fitted, hwsim.NoEffects},
			{"gt", hwsim.NewTimer(&plat.GPU), hwsim.PlatformEffects(&plat)},
		}
		for _, path := range paths {
			for _, shape := range []struct {
				name        string
				iterations  int
				forwardOnly bool
			}{{"it1", 1, false}, {"it2", 2, false}, {"inference", 1, true}} {
				f(fmt.Sprintf("%s/%s/%s/%s", model, plat.Name, path.name,
					shape.name), Config{Trace: tr, Topo: topo,
					NumGPUs: plat.NumGPUs, Timer: path.timer,
					Effects: path.effects, GlobalBatch: 36,
					Iterations:  shape.iterations,
					ForwardOnly: shape.forwardOnly})
			}
		}
	}
}

// scaleTopologies returns the two topologies whose collectives take
// another path than the platforms': Fig 15's 84-GPU wafer mesh, whose ring
// order is its snake, and a 16-GPU rail fat tree, where the auto collective
// goes hierarchical.
func scaleTopologies() (mesh, rail *network.Topology) {
	mesh = network.Mesh(12, 7, network.Config{LinkBandwidth: 30e9,
		LinkLatency: sim.USec, HostBandwidth: 30e9,
		HostLatency: 5 * sim.USec})
	rail = network.RailFatTree(network.ClusterConfig{
		Machines: 2, GPUsPerMachine: 8,
		NVLinkBandwidth: 300e9, NVLinkLatency: sim.USec,
		NICBandwidth: 50e9, NICLatency: 2 * sim.USec,
		FabricBandwidth: 100e9, FabricLatency: 2 * sim.USec,
		HostBandwidth: 20e9, HostLatency: 5 * sim.USec,
	}, 8, 2)
	return mesh, rail
}

// TestDPPresetsMatchLoops checks that the grid generator's single, dp, ddp
// and zero1 presets simulate exactly what the hand-written loops they
// replaced did: every zoo model in every eachZooConfig shape, and DDP on
// both scaleTopologies.
func TestDPPresetsMatchLoops(t *testing.T) {
	for _, model := range models.List() {
		t.Run(model, func(t *testing.T) {
			t.Parallel()
			eachZooConfig(t, model, func(key string, cfg Config) {
				for _, bc := range dpBuilds {
					cfg := cfg
					if bc.name == "single" {
						cfg.NumGPUs = 1
					}
					matchLoop(t, bc.name+"/"+key, cfg, bc.preset, bc.loop)
				}
			})
		})
	}
	t.Run("ddp-at-scale", func(t *testing.T) {
		t.Parallel()
		mesh, rail := scaleTopologies()
		for _, c := range []struct {
			name, model string
			topo        *network.Topology
			gpus        int
			bucket      float64
		}{
			{"wafer-mesh-84", "resnet50", mesh, 84, 256 << 20},
			{"rail-16", "resnet18", rail, 16, 0},
		} {
			tr, m, _ := testSetup(t, c.model, 128, 1)
			cfg := Config{Trace: tr, Topo: c.topo, NumGPUs: c.gpus, Timer: m,
				GlobalBatch: 128, BucketBytes: c.bucket}
			matchLoop(t, "ddp/"+c.name, cfg, dpBuilds[2].preset,
				dpBuilds[2].loop)
		}
	})
}
