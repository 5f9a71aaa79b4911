package extrapolator

import (
	"fmt"
	"testing"

	"triosim/internal/collective"
	"triosim/internal/models"
	"triosim/internal/network"
	"triosim/internal/task"
	"triosim/internal/telemetry"
)

// This file keeps the hand-written tensor-parallel loop the grid
// generator's tp and dp+tp presets replaced, as a reference:
// TestTPPresetsMatchLoops runs both and compares what they simulate.

// node resolves a logical GPU index to its topology node.
func (b *builder) node(l int) network.NodeID { return b.gpus[b.phys(l)] }

// loopDPTP emits dpGroups tensor-parallel replicas. Replica g runs its ranks
// on physical GPUs [g·R, (g+1)·R), R = NumGPUs/dpGroups, through a logMap
// window; a single replica keeps the identity map (so the topology's ring
// order applies) and unsuffixed labels, and has no cross-replica AllReduce.
// Its metadata is the presets': dp+tp reports its replicas and both report
// their TP ranks.
func loopDPTP(cfg Config, dpGroups int) (*Result, error) {
	b, err := newBuilder(cfg)
	if err != nil {
		return nil, err
	}
	cfg = b.cfg
	ranks := cfg.NumGPUs / dpGroups
	scale := float64(cfg.GlobalBatch) / float64(dpGroups) /
		float64(b.tr.BatchSize)
	shard := 1.0 / float64(ranks)
	// Each replica rank holds 1/ranks of the weights; the cross-replica
	// AllReduce moves that shard's gradients.
	shardGradBytes := float64(b.tr.GradientBytes()) * shard

	res := &Result{Graph: b.g, Meta: telemetry.ParallelStat{Strategy: "dp+tp",
		Replicas: dpGroups, TPRanks: ranks}}
	if dpGroups == 1 {
		res.Meta = telemetry.ParallelStat{Strategy: "tp", TPRanks: ranks}
	}
	fwd, bwd := b.groupByLayer(b.fwd), b.groupByLayer(b.bwd)
	gate := b.g.AddBarrier("start")
	for it := 0; it < cfg.Iterations; it++ {
		suffix := fmt.Sprintf("-it%d", it)

		// TP forward+backward per replica.
		lastByGPU := make([][]*task.Task, dpGroups)
		for g := 0; g < dpGroups; g++ {
			gsuffix := suffix
			if dpGroups > 1 {
				win := make([]int, ranks)
				for r := 0; r < ranks; r++ {
					win[r] = g*ranks + r
				}
				b.logMap = win
				gsuffix = fmt.Sprintf("%s-r%d", suffix, g)
			}
			prev := make([]*task.Task, ranks)
			for r := 0; r < ranks; r++ {
				// Tensor parallelism replicates the input batch on every
				// rank.
				prev[r] = b.stageInput(b.node(r), scale, gate,
					fmt.Sprintf("stage-input-g%d%s", r, gsuffix))
			}
			prev = b.tpLayers(fwd, scale, shard, prev, gsuffix, "fwd")
			prev = b.tpLayers(bwd, scale, shard, prev, gsuffix, "bwd")
			lastByGPU[g] = prev
		}
		b.logMap = nil

		// Cross-replica gradient AllReduce per TP rank (training only).
		var synced []*task.Task
		if dpGroups > 1 && !cfg.ForwardOnly {
			synced = make([]*task.Task, ranks)
			for r := 0; r < ranks; r++ {
				ring := make([]network.NodeID, dpGroups)
				gates := make([]*task.Task, dpGroups)
				for g := 0; g < dpGroups; g++ {
					ring[g] = b.gpus[g*ranks+r]
					gates[g] = lastByGPU[g][r]
				}
				synced[r] = b.allReduce(ring, shardGradBytes, gates,
					collective.Options{
						StepDelay: b.cfg.Effects.CommStepLatency,
						Label:     fmt.Sprintf("hp-allreduce-r%d%s", r, suffix),
						Log:       b.cfg.Collectives,
					})
			}
		}

		// Sharded optimizer per GPU: it updates the local weight shard only.
		end := b.g.AddBarrier("iter-done" + suffix)
		for g := 0; g < dpGroups; g++ {
			for r := 0; r < ranks; r++ {
				prev := lastByGPU[g][r]
				if synced != nil {
					prev = synced[r]
				}
				for _, idx := range b.opt {
					op := &b.tr.Ops[idx]
					t := b.g.AddCompute(g*ranks+r,
						b.opDuration(op, scale, shard), op.Name+suffix)
					t.Layer = int32(op.Layer)
					b.g.AddDep(prev, t)
					prev = t
				}
				b.g.AddDep(prev, end)
			}
		}
		res.IterationEnds = append(res.IterationEnds, end)
		gate = end
	}
	return res, nil
}

// tpBuilds pairs the tp and dp+tp presets, dp+tp at two replicas, with the
// reference loop at the same replica count.
var tpBuilds = []struct {
	name         string
	preset, loop func(Config) (*Result, error)
}{
	{"tp", TensorParallel,
		func(c Config) (*Result, error) { return loopDPTP(c, 1) }},
	{"dp+tp", func(c Config) (*Result, error) { return hybridDPTP(c, 2) },
		func(c Config) (*Result, error) { return loopDPTP(c, 2) }},
}

// TestTPPresetsMatchLoops checks that the grid generator's tp and dp+tp
// presets simulate exactly what the hand-written loop they replaced did:
// every zoo model in every eachZooConfig shape (dp+tp on the platforms with
// at least four GPUs), and both presets on both scaleTopologies, where a tp
// ring spanning the wafer mesh rings in its snake order.
func TestTPPresetsMatchLoops(t *testing.T) {
	for _, model := range models.List() {
		t.Run(model, func(t *testing.T) {
			t.Parallel()
			eachZooConfig(t, model, func(key string, cfg Config) {
				for _, bc := range tpBuilds {
					if bc.name == "dp+tp" && cfg.NumGPUs < 4 {
						continue
					}
					matchLoop(t, bc.name+"/"+key, cfg, bc.preset, bc.loop)
				}
			})
		})
	}
	t.Run("at-scale", func(t *testing.T) {
		t.Parallel()
		mesh, rail := scaleTopologies()
		for _, c := range []struct {
			name string
			topo *network.Topology
			gpus int
		}{{"wafer-mesh-84", mesh, 84}, {"rail-16", rail, 16}} {
			tr, m, _ := testSetup(t, "resnet18", 128, 1)
			cfg := Config{Trace: tr, Topo: c.topo, NumGPUs: c.gpus, Timer: m,
				GlobalBatch: 128}
			for _, bc := range tpBuilds {
				matchLoop(t, bc.name+"/"+c.name, cfg, bc.preset, bc.loop)
			}
		}
	})
}
