package experiments

import (
	"context"
	"fmt"

	"triosim/internal/extrapolator"
	"triosim/internal/gpu"
	"triosim/internal/hop"
	"triosim/internal/hwsim"
	"triosim/internal/network"
	"triosim/internal/perfmodel"
	"triosim/internal/sim"
	"triosim/internal/sweep"
	"triosim/internal/task"
	"triosim/internal/trace"
	"triosim/internal/tracecache"
)

// Wafer-scale case study parameters (§7.1): 12×7 = 84 A100-class chiplets.
// Passage provides 484 GB/s across 8 photonic links per GPU (60.5 GB/s per
// circuit) with a 20 ms link-establishment latency; the electrical baseline
// is a 2-D mesh of inter-reticle links.
const (
	waferRows             = 12
	waferCols             = 7
	waferElectricalLinkBW = 30e9
	waferPhotonicPerLink  = 484e9 / 8
	waferPhotonicPorts    = 8
	waferPhotonicSetup    = 20 * sim.MSec
	waferIterations       = 3
	waferTotalBatch       = 128
)

// snakeOrder returns the boustrophedon (snake) traversal of the wafer mesh:
// consecutive ring positions are always mesh neighbors, so the electrical
// ring AllReduce never pays multi-hop congestion.
func snakeOrder(rows, cols int) []int {
	out := make([]int, 0, rows*cols)
	for r := 0; r < rows; r++ {
		if r%2 == 0 {
			for c := 0; c < cols; c++ {
				out = append(out, r*cols+c)
			}
		} else {
			for c := cols - 1; c >= 0; c-- {
				out = append(out, r*cols+c)
			}
		}
	}
	return out
}

// runWafer extrapolates DDP training for one model across the wafer and
// executes it on the given network, returning per-iteration total and
// communication time. The trace and fitted model come from cache when one is
// supplied (the electrical and photonic variants share both).
func runWafer(model string, topo *network.Topology, net network.Network,
	eng *sim.SerialEngine, ringOrder []int,
	cache *tracecache.Store) (total, comm sim.VTime, err error) {

	key := tracecache.Key{
		Model:    model,
		Batch:    traceBatchFor(model),
		Spec:     gpu.A100,
		NoiseAmp: hwsim.DefaultNoiseAmp,
	}
	collect := func() (*trace.Trace, error) {
		return hwsim.CollectTrace(model, traceBatchFor(model), &gpu.A100)
	}
	var tr *trace.Trace
	if cache != nil {
		tr, err = cache.GetTrace(key, collect)
	} else {
		tr, err = collect()
	}
	if err != nil {
		return 0, 0, err
	}
	var pm extrapolator.OpTimer
	fit := func() (tracecache.OpTimer, error) { return perfmodel.Fit(tr) }
	if cache != nil {
		pm, err = cache.GetTimer(tracecache.TimerKey{
			Trace: key, ComputeModel: "li", Target: gpu.A100}, fit)
	} else {
		pm, err = fit()
	}
	if err != nil {
		return 0, 0, err
	}
	res, err := extrapolator.DataParallel(extrapolator.Config{
		Trace:       tr,
		Topo:        topo,
		NumGPUs:     waferRows * waferCols,
		Timer:       pm,
		GlobalBatch: waferTotalBatch,
		Iterations:  waferIterations,
		RingOrder:   ringOrder,
		// Large gradient buckets keep the 84-rank collective count sane for
		// billion-parameter models (240 buckets × 166 ring steps × 84 ranks
		// would otherwise dominate graph size, not fidelity).
		BucketBytes: 256 << 20,
	}, true)
	if err != nil {
		return 0, 0, err
	}
	x := task.NewExecutor(eng, net, res.Graph, nil)
	makespan, err := x.Run()
	if err != nil {
		return 0, 0, err
	}
	iters := sim.VTime(waferIterations)
	return makespan / iters, x.BusyTime(task.Comm) / iters, nil
}

// waferModels picks the case-study workloads.
func waferModels(quick bool) []string {
	if quick {
		return []string{"vgg19", "resnet50"}
	}
	return []string{"resnet50", "resnet152", "densenet201", "vgg19",
		"gpt2", "bert", "llama32-1b"}
}

// Fig15 — photonic-connected wafer-scale GPUs: 84 A100-class chiplets
// training with data parallelism at a fixed total batch, electrical mesh vs
// Passage-style photonic circuits. Reproduction targets: communication
// dominates on the electrical network (≈90%+ for VGG-19) and the optical
// network cuts communication time by roughly half.
func Fig15(quick bool) (*Figure, error) { return Fig15Opts(quick, Serial) }

// Fig15Opts is Fig15 with sweep options.
func Fig15Opts(quick bool, opts Options) (*Figure, error) {
	f := &Figure{
		ID:      "fig15",
		Title:   "Wafer-scale 84-GPU DP: electrical mesh vs photonic",
		Columns: []string{"total_s", "comm_s", "comm_ratio"},
	}
	meshCfg := network.Config{
		LinkBandwidth: waferElectricalLinkBW,
		LinkLatency:   1 * sim.USec,
		HostBandwidth: 30e9,
		HostLatency:   5 * sim.USec,
	}
	opts = opts.withCache()
	type cellID struct{ model, variant string }
	var grid []cellID
	for _, m := range waferModels(quick) {
		grid = append(grid, cellID{m, "electrical"}, cellID{m, "photonic"})
	}
	cells := make([]sweep.Job[vals], len(grid))
	for i, c := range grid {
		c := c
		cells[i] = func(context.Context) (vals, error) {
			// Engine, topology (route cache!), and network are all private
			// to the cell.
			topo := network.Mesh(waferRows, waferCols, meshCfg)
			eng := sim.NewSerialEngine()
			var net network.Network
			var ringOrder []int
			if c.variant == "electrical" {
				// Electrical: flow network over the mesh.
				net = network.NewFlowNetwork(eng, topo)
				ringOrder = snakeOrder(waferRows, waferCols)
			} else {
				// Photonic: same workload graph, circuit-switching network.
				// The mesh topology still provides node IDs and the host
				// staging path; inter-GPU transfers ride photonic circuits.
				net = newHybridPhotonic(eng, topo)
			}
			total, comm, err := runWafer(c.model, topo, net, eng, ringOrder,
				opts.cache)
			if err != nil {
				return nil, fmt.Errorf("fig15/%s/%s: %w", c.model,
					c.variant, err)
			}
			return vals{
				"total_s":    float64(total),
				"comm_s":     float64(comm),
				"comm_ratio": float64(comm) / float64(total),
			}, nil
		}
	}
	out, err := runCells(opts, cells)
	if err != nil {
		return nil, err
	}
	for i, c := range grid {
		f.Add(c.model, c.variant, out[i])
	}
	f.Note("avg comm ratio electrical: %.3f, photonic: %.3f",
		f.MeanValue("comm_ratio", "electrical"),
		f.MeanValue("comm_ratio", "photonic"))
	f.Note("avg comm time reduction: %.1f%%",
		100*(1-f.MeanValue("comm_s", "photonic")/
			f.MeanValue("comm_s", "electrical")))
	return f, nil
}

// hybridPhotonic routes host staging over the electrical flow network and
// GPU↔GPU transfers over photonic circuits, mirroring the case study's
// "swap the network model, keep the devices" integration (§7.1).
type hybridPhotonic struct {
	photonic *network.PhotonicNetwork
	hostNet  *network.FlowNetwork
	topo     *network.Topology
}

func newHybridPhotonic(eng *sim.SerialEngine,
	topo *network.Topology) *hybridPhotonic {
	return &hybridPhotonic{
		photonic: network.NewPhotonicNetwork(eng, waferPhotonicPerLink,
			waferPhotonicSetup, waferPhotonicPorts),
		hostNet: network.NewFlowNetwork(eng, topo),
		topo:    topo,
	}
}

func (h *hybridPhotonic) Send(src, dst network.NodeID, bytes float64,
	onDone func(now sim.VTime)) {
	if h.topo.Nodes[src].Kind == network.HostNode ||
		h.topo.Nodes[dst].Kind == network.HostNode {
		h.hostNet.Send(src, dst, bytes, onDone)
		return
	}
	h.photonic.Send(src, dst, bytes, onDone)
}

// Fig16 — Hop heterogeneous training: speedup from one backup worker across
// 8 random slowdown scenarios on ring-with-chords and double-ring graphs of
// 8 A100 GPUs running VGG-11 at batch 128.
func Fig16(quick bool) (*Figure, error) { return Fig16Opts(quick, Serial) }

// Fig16Opts is Fig16 with sweep options.
func Fig16Opts(quick bool, opts Options) (*Figure, error) {
	f := &Figure{
		ID:      "fig16",
		Title:   "Hop: backup-worker speedup across slowdown scenarios",
		Columns: []string{"speedup"},
	}
	// VGG-11 local step time and update volume from a single-GPU A100 trace.
	// The trace is reduced to two scalars here, so nothing mutable is shared
	// with the cells below.
	tr, err := hwsim.CollectTrace("vgg11", 128, &gpu.A100)
	if err != nil {
		return nil, err
	}
	computeTime := tr.TotalTime()
	updateBytes := float64(tr.GradientBytes())

	netCfg := network.Config{
		NumGPUs:       8,
		LinkBandwidth: 235e9,
		LinkLatency:   1.2 * sim.USec,
		HostBandwidth: 20e9,
	}
	scenarios := 8
	if quick {
		scenarios = 3
	}
	graphs := []struct {
		name  string
		build func(network.Config) *network.Topology
	}{
		{"ring", network.RingWithChords},
		{"double-ring", network.DoubleRing},
	}
	type cellID struct {
		graph int
		seed  int
	}
	var grid []cellID
	for gi := range graphs {
		for seed := 1; seed <= scenarios; seed++ {
			grid = append(grid, cellID{gi, seed})
		}
	}
	cells := make([]sweep.Job[vals], len(grid))
	for i, c := range grid {
		c := c
		cells[i] = func(context.Context) (vals, error) {
			g := graphs[c.graph]
			cfg := hop.Config{
				Topo:         g.build(netCfg),
				Workers:      8,
				ComputeTime:  computeTime,
				UpdateBytes:  updateBytes,
				MaxStaleness: 2,
				Iterations:   10,
				Slowdowns:    hop.RandomSlowdowns(8, int64(c.seed)),
			}
			sp, err := hop.Speedup(cfg, 1)
			if err != nil {
				return nil, fmt.Errorf("fig16/%s/seed%d: %w", g.name,
					c.seed, err)
			}
			return vals{"speedup": sp}, nil
		}
	}
	out, err := runCells(opts, cells)
	if err != nil {
		return nil, err
	}
	for i, c := range grid {
		f.Add(fmt.Sprintf("scenario%d", c.seed), graphs[c.graph].name,
			out[i])
	}
	for _, g := range graphs {
		f.Note("avg speedup on %s: %.3f", g.name,
			f.MeanValue("speedup", g.name))
	}
	return f, nil
}
