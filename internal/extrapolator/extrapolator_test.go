package extrapolator

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"triosim/internal/gpu"
	"triosim/internal/hwsim"
	"triosim/internal/network"
	"triosim/internal/perfmodel"
	"triosim/internal/sim"
	"triosim/internal/task"
	"triosim/internal/timeline"
	"triosim/internal/trace"
)

// testSetup returns a stamped trace, a fitted model, and a topology.
func testSetup(t *testing.T, model string, batch, nGPUs int) (*trace.Trace,
	*perfmodel.Model, *network.Topology) {
	t.Helper()
	tr, err := hwsim.CollectTrace(model, batch, &gpu.A100)
	if err != nil {
		t.Fatal(err)
	}
	m, err := perfmodel.Fit(tr)
	if err != nil {
		t.Fatal(err)
	}
	topo := network.Switch(network.Config{
		NumGPUs:       nGPUs,
		LinkBandwidth: 235e9,
		LinkLatency:   1 * sim.USec,
		HostBandwidth: 20e9,
		HostLatency:   5 * sim.USec,
	})
	return tr, m, topo
}

// singleGPU, zero1, hybridDPPP and hybridDPTP build the named presets at
// their grid points.
func singleGPU(cfg Config) (*Result, error) { return Build("single", cfg, 1, 1, 1) }

func zero1(cfg Config) (*Result, error) {
	return Build("zero1", cfg, cfg.NumGPUs, 1, 1)
}

func hybridDPPP(cfg Config, groups int) (*Result, error) {
	return Build("dp+pp", cfg, groups, 1, cfg.NumGPUs/groups)
}

func hybridDPTP(cfg Config, groups int) (*Result, error) {
	return Build("dp+tp", cfg, groups, cfg.NumGPUs/groups, 1)
}

// runCfg executes the result graph and returns makespan and timeline.
func runCfg(t *testing.T, cfg Config, res *Result) (sim.VTime,
	*timeline.Timeline, *network.FlowNetwork) {
	t.Helper()
	eng := sim.NewSerialEngine()
	net := network.NewFlowNetwork(eng, cfg.Topo)
	tl := timeline.New()
	makespan, err := task.NewExecutor(eng, net, res.Graph, tl).Run()
	if err != nil {
		t.Fatal(err)
	}
	return makespan, tl, net
}

func TestSingleGPUReplayMatchesTrace(t *testing.T) {
	tr, m, topo := testSetup(t, "resnet18", 32, 1)
	cfg := Config{Trace: tr, Topo: topo, NumGPUs: 1, Timer: m}
	res, err := singleGPU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	makespan, tl, _ := runCfg(t, cfg.defaults(), res)
	// Replay (scale=1, passthrough) compute time equals the trace total.
	compute := tl.SumTime(timeline.ByPhase("compute"))
	if math.Abs(float64(compute-tr.TotalTime()))/float64(tr.TotalTime()) > 1e-9 {
		t.Fatalf("replayed compute %v != trace total %v",
			compute, tr.TotalTime())
	}
	// Makespan additionally includes the input staging.
	if makespan <= tr.TotalTime() {
		t.Fatalf("makespan %v should exceed compute-only %v",
			makespan, tr.TotalTime())
	}
}

func TestSingleGPUBatchScaling(t *testing.T) {
	tr, m, topo := testSetup(t, "resnet18", 64, 1)
	base, err := singleGPU(Config{Trace: tr, Topo: topo, NumGPUs: 1, Timer: m})
	if err != nil {
		t.Fatal(err)
	}
	big, err := singleGPU(Config{Trace: tr, Topo: topo, NumGPUs: 1, Timer: m,
		GlobalBatch: 128})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Trace: tr, Topo: topo, NumGPUs: 1, Timer: m}
	t0, _, _ := runCfg(t, cfg.defaults(), base)
	t1, _, _ := runCfg(t, cfg.defaults(), big)
	r := float64(t1) / float64(t0)
	if r < 1.5 || r > 2.2 {
		t.Fatalf("batch 64→128 time ratio %.3f, want ≈2", r)
	}
}

// TestDataParallelStructure runs the data-parallel strategies on 4 GPUs and
// checks that every GPU computes and that the network carries exactly the
// staged input plus the gradient sync: a ring AllReduce moves 2(N−1)·G
// bytes in total for G gradient bytes, and ZeRO-1's reduce-scatter and
// all-gather move (N−1)·G and (N−1)·W for W weight bytes.
func TestDataParallelStructure(t *testing.T) {
	builds := []struct {
		name  string
		build func(Config) (*Result, error)
		sync  func(tr *trace.Trace, n float64) float64
	}{
		{"dp", func(c Config) (*Result, error) { return DataParallel(c, false) },
			func(tr *trace.Trace, n float64) float64 {
				return 2 * (n - 1) * float64(tr.GradientBytes())
			}},
		{"ddp", func(c Config) (*Result, error) { return DataParallel(c, true) },
			func(tr *trace.Trace, n float64) float64 {
				return 2 * (n - 1) * float64(tr.GradientBytes())
			}},
		{"zero1", zero1, func(tr *trace.Trace, n float64) float64 {
			return (n - 1) * float64(tr.GradientBytes()+tr.WeightBytes())
		}},
	}
	for _, model := range []string{"resnet18", "gpt2", "vgg16"} {
		tr, m, topo := testSetup(t, model, 64, 4)
		for _, bc := range builds {
			cfg := Config{Trace: tr, Topo: topo, NumGPUs: 4, Timer: m}
			res, err := bc.build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Graph.Validate(); err != nil {
				t.Fatal(err)
			}
			makespan, tl, net := runCfg(t, cfg.defaults(), res)
			if makespan <= 0 {
				t.Fatalf("%s/%s: zero makespan", bc.name, model)
			}
			for i := 0; i < 4; i++ {
				res := timeline.ByResource("gpu" + string(rune('0'+i)))
				if tl.UnionTime(res) <= 0 {
					t.Fatalf("%s/%s: gpu%d idle", bc.name, model, i)
				}
			}
			// Each GPU stages a quarter of the batch's input.
			want := float64(tr.InputBytes()) + bc.sync(tr, 4)
			if net.TotalBytes != want {
				t.Errorf("%s/%s: traffic %g B, want %g B", bc.name, model,
					net.TotalBytes, want)
			}
		}
	}
}

func TestDPFasterThanSingleGPU(t *testing.T) {
	// Same global batch on 4 GPUs vs 1 GPU: DP should win handily on an
	// NVSwitch platform.
	tr, m, topo := testSetup(t, "resnet50", 128, 4)
	single, err := singleGPU(Config{Trace: tr, Topo: topo, NumGPUs: 1, Timer: m})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := DataParallel(Config{Trace: tr, Topo: topo, NumGPUs: 4,
		Timer: m}, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Trace: tr, Topo: topo, NumGPUs: 4, Timer: m}
	t1, _, _ := runCfg(t, cfg.defaults(), single)
	t4, _, _ := runCfg(t, cfg.defaults(), dp)
	speedup := float64(t1) / float64(t4)
	if speedup < 2 || speedup > 4.2 {
		t.Fatalf("4-GPU DDP speedup %.2f implausible", speedup)
	}
}

func TestDDPNotSlowerThanStdDP(t *testing.T) {
	tr, m, topo := testSetup(t, "vgg11", 128, 4)
	cfg := Config{Trace: tr, Topo: topo, NumGPUs: 4, Timer: m}
	std, err := DataParallel(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	ddp, err := DataParallel(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	tStd, _, _ := runCfg(t, cfg.defaults(), std)
	tDdp, _, _ := runCfg(t, cfg.defaults(), ddp)
	// Overlapping comm with backward can only help (same volumes).
	if tDdp > tStd*sim.VTime(1.001) {
		t.Fatalf("DDP %v slower than std DP %v", tDdp, tStd)
	}
	// For a comm-heavy model like VGG, overlap should visibly help.
	if tDdp > tStd*sim.VTime(0.995) {
		t.Logf("warning: DDP %v barely beats std DP %v", tDdp, tStd)
	}
}

func TestDDPBucketCount(t *testing.T) {
	tr, m, topo := testSetup(t, "resnet18", 32, 2)
	cfg := Config{Trace: tr, Topo: topo, NumGPUs: 2, Timer: m,
		BucketBytes: 5 << 20}
	res, err := DataParallel(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	// Count distinct allreduce buckets via comm task labels.
	buckets := map[string]bool{}
	for id := 0; id < res.Graph.Len(); id++ {
		tk := res.Graph.Task(id)
		if label := tk.Label(); tk.Kind == task.Comm && len(label) > 11 &&
			label[:11] == "allreduce-b" {
			// label: allreduce-b<k>-it0-step...
			end := 11
			for end < len(label) && label[end] != '-' {
				end++
			}
			buckets[label[:end]] = true
		}
	}
	// ResNet-18 has ~46.7 MB of gradients; with 5 MB buckets (and single
	// >5 MB gradients overflowing a bucket alone) several buckets form.
	if len(buckets) < 5 {
		t.Fatalf("only %d buckets for 5 MB bucket size", len(buckets))
	}
	// And a 1 GB bucket collapses everything into a single AllReduce.
	cfgBig := Config{Trace: tr, Topo: topo, NumGPUs: 2, Timer: m,
		BucketBytes: 1 << 30}
	resBig, err := DataParallel(cfgBig, true)
	if err != nil {
		t.Fatal(err)
	}
	bigBuckets := map[string]bool{}
	for id := 0; id < resBig.Graph.Len(); id++ {
		tk := resBig.Graph.Task(id)
		if label := tk.Label(); tk.Kind == task.Comm && len(label) > 11 &&
			label[:11] == "allreduce-b" {
			end := 11
			for end < len(label) && label[end] != '-' {
				end++
			}
			bigBuckets[label[:end]] = true
		}
	}
	if len(bigBuckets) != 1 {
		t.Fatalf("%d buckets with 1 GB bucket size, want 1", len(bigBuckets))
	}
}

func TestTensorParallelStructure(t *testing.T) {
	tr, m, topo := testSetup(t, "resnet18", 64, 4)
	cfg := Config{Trace: tr, Topo: topo, NumGPUs: 4, Timer: m}
	res, err := TensorParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	makespan, tl, net := runCfg(t, cfg.defaults(), res)
	if makespan <= 0 {
		t.Fatal("zero makespan")
	}
	if net.TotalTransfers == 0 {
		t.Fatal("tensor parallelism generated no communication")
	}
	// Per-GPU compute must shrink vs the single-GPU replay (shards).
	single, _ := singleGPU(Config{Trace: tr, Topo: topo, NumGPUs: 1, Timer: m})
	_, tlS, _ := runCfg(t, cfg.defaults(), single)
	tpGPU0 := tl.SumTime(timeline.And(
		timeline.ByResource("gpu0"), timeline.ByPhase("compute")))
	soloGPU0 := tlS.SumTime(timeline.And(
		timeline.ByResource("gpu0"), timeline.ByPhase("compute")))
	if tpGPU0 >= soloGPU0 {
		t.Fatalf("TP gpu0 compute %v not below single-GPU %v",
			tpGPU0, soloGPU0)
	}
}

func TestPipelineParallelStructure(t *testing.T) {
	tr, m, topo := testSetup(t, "resnet18", 128, 2)
	for _, chunks := range []int{1, 2, 4} {
		cfg := Config{Trace: tr, Topo: topo, NumGPUs: 2, Timer: m,
			MicroBatches: chunks}
		res, err := PipelineParallel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Graph.Validate(); err != nil {
			t.Fatalf("chunks=%d: %v", chunks, err)
		}
		makespan, _, net := runCfg(t, cfg.defaults(), res)
		if makespan <= 0 {
			t.Fatalf("chunks=%d: zero makespan", chunks)
		}
		// Boundary traffic: m micro-batches × (act fwd + grad bwd).
		wantTransfers := chunks * 2
		gotComm := 0
		for id := 0; id < res.Graph.Len(); id++ {
			tk := res.Graph.Task(id)
			if tk.Kind == task.Comm {
				gotComm++
			}
		}
		if gotComm != wantTransfers {
			t.Fatalf("chunks=%d: %d comm tasks, want %d",
				chunks, gotComm, wantTransfers)
		}
		_ = net
	}
}

func TestPipelineMoreChunksHelpWithoutOverheads(t *testing.T) {
	// With zero CPU overheads (TrioSim's own view), more micro-batches can
	// only shrink or hold the bubble, so time must not increase materially.
	tr, m, topo := testSetup(t, "vgg16", 128, 4)
	var prev sim.VTime
	for i, chunks := range []int{1, 2, 4} {
		cfg := Config{Trace: tr, Topo: topo, NumGPUs: 4, Timer: m,
			MicroBatches: chunks}
		res, err := PipelineParallel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		makespan, _, _ := runCfg(t, cfg.defaults(), res)
		if i > 0 && makespan > prev*sim.VTime(1.10) {
			t.Fatalf("chunks=%d (%v) much slower than previous (%v)",
				chunks, makespan, prev)
		}
		prev = makespan
	}
}

func TestPipelineCPUOverheadAnomaly(t *testing.T) {
	// With hardware CPU scheduling overheads and a small fast model, more
	// chunks can *increase* end-to-end time — the paper's orange-triangle
	// anomaly (Fig 10).
	tr, err := hwsim.CollectTrace("resnet18", 32, &gpu.A100)
	if err != nil {
		t.Fatal(err)
	}
	topo := network.Switch(network.Config{
		NumGPUs: 4, LinkBandwidth: 235e9, HostBandwidth: 20e9,
	})
	hwTimer := hwsim.NewTimer(&gpu.A100)
	eff := hwsim.Effects{CPUSchedPerMicroBatch: 2 * sim.MSec}
	times := map[int]sim.VTime{}
	for _, chunks := range []int{1, 4} {
		cfg := Config{Trace: tr, Topo: topo, NumGPUs: 4, Timer: hwTimer,
			MicroBatches: chunks, Effects: eff}
		res, err := PipelineParallel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		makespan, _, _ := runCfg(t, cfg.defaults(), res)
		times[chunks] = makespan
	}
	if times[4] <= times[1] {
		t.Fatalf("CPU overhead anomaly absent: 4 chunks %v <= 1 chunk %v",
			times[4], times[1])
	}
}

func TestIterationsChain(t *testing.T) {
	tr, m, topo := testSetup(t, "resnet18", 32, 2)
	cfg1 := Config{Trace: tr, Topo: topo, NumGPUs: 2, Timer: m, Iterations: 1}
	cfg3 := Config{Trace: tr, Topo: topo, NumGPUs: 2, Timer: m, Iterations: 3}
	r1, err := DataParallel(cfg1, true)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := DataParallel(cfg3, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(r3.IterationEnds) != 3 {
		t.Fatalf("iteration ends = %d", len(r3.IterationEnds))
	}
	t1, _, _ := runCfg(t, cfg1.defaults(), r1)
	t3, _, _ := runCfg(t, cfg3.defaults(), r3)
	r := float64(t3) / float64(t1)
	if r < 2.99 || r > 3.01 {
		t.Fatalf("3 iterations / 1 iteration = %.4f, want 3", r)
	}
}

func TestDeterminism(t *testing.T) {
	tr, m, topo := testSetup(t, "densenet121", 32, 4)
	cfg := Config{Trace: tr, Topo: topo, NumGPUs: 4, Timer: m}
	var times []sim.VTime
	for i := 0; i < 2; i++ {
		res, err := DataParallel(cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		ms, _, _ := runCfg(t, cfg.defaults(), res)
		times = append(times, ms)
	}
	if times[0] != times[1] {
		t.Fatalf("nondeterministic: %v vs %v", times[0], times[1])
	}
}

func TestConfigValidation(t *testing.T) {
	tr, m, topo := testSetup(t, "resnet18", 32, 2)
	if _, err := singleGPU(Config{Topo: topo, NumGPUs: 1, Timer: m}); err == nil {
		t.Fatal("nil trace accepted")
	}
	if _, err := singleGPU(Config{Trace: tr, NumGPUs: 1, Timer: m}); err == nil {
		t.Fatal("nil topo accepted")
	}
	if _, err := singleGPU(Config{Trace: tr, Topo: topo, NumGPUs: 1}); err == nil {
		t.Fatal("nil timer accepted")
	}
	if _, err := DataParallel(Config{Trace: tr, Topo: topo, NumGPUs: 0,
		Timer: m}, true); err == nil {
		t.Fatal("0 GPUs accepted")
	}
	if _, err := DataParallel(Config{Trace: tr, Topo: topo, NumGPUs: 99,
		Timer: m}, true); err == nil {
		t.Fatal("too many GPUs accepted")
	}
}

func TestPartitionStagesProperties(t *testing.T) {
	f := func(raw []uint8, stagesRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		var total float64
		for i, r := range raw {
			weights[i] = float64(r) + 1
			total += weights[i]
		}
		stages := int(stagesRaw%8) + 1
		assign := partitionStages(weights, stages)
		if len(assign) != len(weights) {
			return false
		}
		// Monotone non-decreasing, starting at 0, contiguous.
		if assign[0] != 0 {
			return false
		}
		maxStage := 0
		sums := map[int]float64{}
		for i, s := range assign {
			if i > 0 && (s < assign[i-1] || s > assign[i-1]+1) {
				return false
			}
			if s > maxStage {
				maxStage = s
			}
			sums[s] += weights[i]
		}
		if maxStage >= stages && stages <= len(weights) {
			return false
		}
		// Balance: max stage sum ≤ total (trivially) and ≥ total/stages.
		var maxSum float64
		for _, v := range sums {
			if v > maxSum {
				maxSum = v
			}
		}
		used := float64(len(sums))
		return maxSum >= total/used-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionStagesOptimal(t *testing.T) {
	// Known instance: [1,2,3,4,5] into 2 stages → best max sum is 9
	// ([1,2,3,4 | 5] gives 10; [1,2,3 | 4,5] gives 9).
	assign := partitionStages([]float64{1, 2, 3, 4, 5}, 2)
	sums := map[int]float64{}
	for i, s := range assign {
		sums[s] += []float64{1, 2, 3, 4, 5}[i]
	}
	var maxSum float64
	for _, v := range sums {
		if v > maxSum {
			maxSum = v
		}
	}
	if maxSum != 9 {
		t.Fatalf("partition max sum %v, want 9 (assign %v)", maxSum, assign)
	}
}

func TestStageAssignmentBalance(t *testing.T) {
	tr, _, _ := testSetup(t, "resnet50", 32, 4)
	assign := StageAssignment(tr, 4)
	if len(assign) != tr.NumLayers() {
		t.Fatalf("assignment covers %d layers of %d",
			len(assign), tr.NumLayers())
	}
	// Per-stage fwd time within 2× of the mean: balanced enough.
	stageTime := map[int]float64{}
	layerTime := make([]float64, tr.NumLayers())
	var total float64
	for i := range tr.Ops {
		op := &tr.Ops[i]
		if op.Phase == trace.Forward {
			layerTime[op.Layer] += float64(op.Time)
			total += float64(op.Time)
		}
	}
	for l, s := range assign {
		stageTime[s] += layerTime[l]
	}
	mean := total / 4
	for s, v := range stageTime {
		if v > 2*mean {
			t.Fatalf("stage %d has %.3gs of %.3gs total (unbalanced)",
				s, v, total)
		}
	}
}
