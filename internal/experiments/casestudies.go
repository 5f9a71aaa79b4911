package experiments

import (
	"context"
	"fmt"

	"triosim/internal/core"
	"triosim/internal/gpu"
	"triosim/internal/hop"
	"triosim/internal/hwsim"
	"triosim/internal/network"
	"triosim/internal/sim"
	"triosim/internal/sweep"
)

// waferConfig is one Fig 15 cell: DDP training of model on 84 A100-class
// chiplets, a 12×7 wafer, at a fixed total batch. The electrical wafer is a
// 2-D mesh of inter-reticle links, and a ring over the whole mesh runs in
// its snake order; the photonic wafer lays Passage-style circuits over the
// same mesh, which then carries only host staging (§7.1).
func waferConfig(model string, photonic bool) core.Config {
	p := gpu.Platform{Name: "wafer-electrical", GPU: gpu.A100, NumGPUs: 84,
		Topology: gpu.TopoMesh, LinkBandwidth: 30e9, LinkLatency: sim.USec,
		HostBandwidth: 30e9, HostLatency: 5 * sim.USec}
	topo := network.Mesh(12, 7, network.Config{
		LinkBandwidth: p.LinkBandwidth, LinkLatency: p.LinkLatency,
		HostBandwidth: p.HostBandwidth, HostLatency: p.HostLatency,
	})
	if photonic {
		passage := network.Passage
		p.Name, topo.Circuits = "wafer-photonic", &passage
	}
	return core.Config{Model: model, Platform: &p, Topology: topo,
		Parallelism: core.DDP, TraceBatch: traceBatchFor(model),
		GlobalBatch: 128, Iterations: 3,
		// Large gradient buckets keep the 84-rank collective count sane for
		// billion-parameter models (240 buckets × 166 ring steps × 84 ranks
		// would otherwise dominate graph size, not fidelity).
		BucketBytes: 256 << 20}
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
	opts = opts.withCache()
	type cellID struct{ model, variant string }
	var grid []cellID
	for _, m := range waferModels(quick) {
		grid = append(grid, cellID{m, "electrical"}, cellID{m, "photonic"})
	}
	cells := make([]sweep.Job[vals], len(grid))
	for i, c := range grid {
		c := c
		cells[i] = func(ctx context.Context) (vals, error) {
			cfg := opts.cached(waferConfig(c.model, c.variant == "photonic"))
			cfg.Context = ctx
			res, err := core.Simulate(cfg)
			if err != nil {
				return nil, fmt.Errorf("fig15/%s/%s: %w", c.model,
					c.variant, err)
			}
			if err := opts.exportSpans(cfg, res); err != nil {
				return nil, err
			}
			comm := res.CommTime / sim.VTime(cfg.Iterations)
			return vals{
				"total_s":    float64(res.PerIteration),
				"comm_s":     float64(comm),
				"comm_ratio": float64(comm) / float64(res.PerIteration),
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
