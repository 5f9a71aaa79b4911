// Package extrapolator converts single-GPU traces into multi-GPU execution
// task graphs according to a parallelism strategy — the paper's multi-GPU
// trace extrapolator (§4.3). It decides which GPU performs each traced
// operator, inserts data-movement tasks when tensors are not resident where
// they are needed, generates NCCL-style collective communication, and prices
// every operator through a pluggable OpTimer (the trace-provided time when
// the operator is unmodified, Li's Model when it was rescaled — §4.4).
//
// The same extrapolation logic serves two masters: TrioSim's prediction
// (OpTimer = perfmodel, Effects = none) and the reference hardware emulator's
// ground truth (OpTimer = hwsim, Effects = platform protocol overheads).
package extrapolator

import (
	"fmt"

	"triosim/internal/collective"
	"triosim/internal/hwsim"
	"triosim/internal/network"
	"triosim/internal/sim"
	"triosim/internal/task"
	"triosim/internal/telemetry"
	"triosim/internal/tensor"
	"triosim/internal/trace"
)

// OpTimer prices one operator instance. scaled reports whether the operator
// was resized relative to the trace (different batch, shard, or micro-batch),
// in which case traceTime cannot be replayed verbatim.
type OpTimer interface {
	OpTime(name string, flops, bytes float64, traceTime sim.VTime,
		scaled bool) sim.VTime
}

// Config parameterizes an extrapolation.
type Config struct {
	// Trace is the stamped single-GPU trace.
	Trace *trace.Trace
	// Topo is the interconnect; the first NumGPUs GPU nodes are used.
	Topo *network.Topology
	// NumGPUs is how many GPUs participate.
	NumGPUs int
	// Timer prices operators.
	Timer OpTimer
	// Effects are the hardware protocol overheads (zero for TrioSim).
	Effects hwsim.Effects
	// GlobalBatch is the simulated total mini-batch size; 0 means the
	// traced batch size. Data parallelism divides it across GPUs.
	GlobalBatch int
	// MicroBatches is the GPipe chunk count for pipeline parallelism
	// (minimum 1).
	MicroBatches int
	// BucketBytes is the DDP gradient-bucket size; 0 means 25 MB.
	BucketBytes float64
	// Iterations is how many training iterations to simulate (minimum 1).
	Iterations int
	// Collective selects the AllReduce algorithm for data-parallel
	// gradient synchronization: "auto" (default: hierarchical on tiered
	// topologies, ring otherwise), "ring", "tree", or "hier".
	Collective string
	// FuseCompute collapses each sequential op chain (per stage chunk /
	// replica sequence) into one compute task with the summed duration, and
	// coalesces per-layer TP syncs into one fused ring step per chunk.
	// Durations and traffic totals are preserved; per-op task identity is
	// not, so leave it off when per-layer telemetry matters. Essential at
	// cluster scale, where the unfused graph would hold tens of millions of
	// tasks.
	FuseCompute bool
	// ForwardOnly simulates inference: only forward operators replay, and
	// no gradient synchronization or optimizer step occurs (the workload
	// class Li's Model originally targeted).
	ForwardOnly bool
	// Collectives optionally records per-collective metadata (algorithm,
	// ranks, payload bytes) for telemetry. Nil disables recording.
	Collectives *telemetry.CollectiveLog
	// StageOf optionally fixes the pipeline layer→stage partition, one stage
	// per trace layer; nil balances this trace (StageAssignment).
	StageOf []int
}

func (c *Config) defaults() Config {
	out := *c
	if out.GlobalBatch == 0 {
		out.GlobalBatch = out.Trace.BatchSize
	}
	if out.MicroBatches < 1 {
		out.MicroBatches = 1
	}
	if out.BucketBytes <= 0 {
		out.BucketBytes = 25 << 20
	}
	if out.Iterations < 1 {
		out.Iterations = 1
	}
	return out
}

func (c *Config) validate() error {
	if c.Trace == nil {
		return fmt.Errorf("extrapolator: nil trace")
	}
	switch c.Collective {
	case "", "auto", "ring", "tree", "hier":
	default:
		return fmt.Errorf("extrapolator: unknown collective %q", c.Collective)
	}
	if c.Timer == nil {
		return fmt.Errorf("extrapolator: nil op timer")
	}
	if c.Topo == nil {
		return fmt.Errorf("extrapolator: nil topology")
	}
	if c.NumGPUs < 1 {
		return fmt.Errorf("extrapolator: %d GPUs", c.NumGPUs)
	}
	if len(c.Topo.GPUs()) < c.NumGPUs {
		return fmt.Errorf("extrapolator: topology has %d GPUs, need %d",
			len(c.Topo.GPUs()), c.NumGPUs)
	}
	return nil
}

// builder holds shared state while emitting one extrapolated graph.
type builder struct {
	cfg  Config
	g    *task.Graph
	gpus []network.NodeID // topology node IDs of the participating GPUs
	host network.NodeID
	tr   *trace.Trace
	fwd  []int // op indices by phase
	bwd  []int
	opt  []int
	// logMap maps logical GPU indices to physical ones (nil = identity).
	// Hybrid parallelism runs tpLayers per replica or pipeline stage with
	// a window into the physical GPU range.
	logMap []int
	// ring is the topology's ring order when the run spans all of the GPUs
	// it orders (nil = index order); a hybrid logical window rings in
	// window order.
	ring []int
	// infl stretches every tpLayers compute task (1 but under standard
	// DataParallel's compute inflation), and dispatch, when set, holds the
	// iteration's per-layer dispatch delays that gate each forward op of
	// the layer (standard DataParallel's single-process dispatch).
	infl     sim.VTime
	dispatch []*task.Task
	// labels interns op.Name+labelSuffix task labels for the current suffix:
	// a trace has hundreds of ops but only a handful of distinct op names, so
	// tpLayers would otherwise rebuild the same few strings once per op.
	labels      map[string]string
	labelSuffix string
}

// label returns the interned name+suffix task label, switching the intern
// table when the suffix changes (suffixes change per iteration/replica/stage,
// i.e. between tpLayers calls, so the table stays hot within each sequence).
func (b *builder) label(name, suffix string) string {
	if b.labels == nil {
		b.labels = make(map[string]string, 16)
	}
	if b.labelSuffix != suffix {
		b.labelSuffix = suffix
		clear(b.labels)
	}
	l, ok := b.labels[name]
	if !ok {
		l = name + suffix
		b.labels[name] = l
	}
	return l
}

// phys resolves a logical GPU index to its physical compute-resource index.
func (b *builder) phys(l int) int {
	if b.logMap == nil {
		return l
	}
	return b.logMap[l]
}

// node resolves a logical GPU index to its topology node.
func (b *builder) node(l int) network.NodeID { return b.gpus[b.phys(l)] }

func newBuilder(cfg Config) (*builder, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.defaults()
	b := &builder{
		cfg:  cfg,
		g:    task.NewGraph(),
		gpus: cfg.Topo.GPUs()[:cfg.NumGPUs],
		host: cfg.Topo.Host(),
		tr:   cfg.Trace,
		fwd:  cfg.Trace.OpsInPhase(trace.Forward),
		bwd:  cfg.Trace.OpsInPhase(trace.Backward),
		opt:  cfg.Trace.OpsInPhase(trace.Optimizer),
		infl: 1,
	}
	if cfg.ForwardOnly {
		b.bwd, b.opt = nil, nil
	}
	if order := cfg.Topo.RingOrder(); len(order) == cfg.NumGPUs {
		b.ring = order
	}
	return b, nil
}

// ringNodes returns the GPUs in collective ring order: the topology's ring
// order when the run spans all of its GPUs, else index order. Under a hybrid
// logical window it returns only the window's GPUs.
func (b *builder) ringNodes() []network.NodeID {
	if b.logMap != nil {
		out := make([]network.NodeID, len(b.logMap))
		for k, idx := range b.logMap {
			out[k] = b.gpus[idx]
		}
		return out
	}
	if b.ring == nil {
		return b.gpus
	}
	out := make([]network.NodeID, len(b.gpus))
	for k, idx := range b.ring {
		out[k] = b.gpus[idx]
	}
	return out
}

// permuteGates reorders per-GPU gate tasks to match ringNodes positions.
func (b *builder) permuteGates(gates []*task.Task) []*task.Task {
	if b.logMap != nil || b.ring == nil || gates == nil {
		return gates
	}
	out := make([]*task.Task, len(gates))
	for k, idx := range b.ring {
		out[k] = gates[idx]
	}
	return out
}

// scaledBytes sums an op's tensor bytes with batch-scaled tensors resized by
// scale (weights and gradients are batch-free and unchanged).
func (b *builder) scaledBytes(op *trace.Op, scale float64) float64 {
	var total float64
	add := func(ids []tensor.ID) {
		for _, id := range ids {
			t := b.tr.Tensors.Get(id)
			if t == nil {
				continue
			}
			bytes := float64(t.Bytes())
			if t.BatchDim >= 0 {
				bytes *= scale
			}
			total += bytes
		}
	}
	add(op.Inputs)
	add(op.Outputs)
	return total
}

// outBytes sums an op's output tensor bytes at the given batch scale.
func (b *builder) outBytes(op *trace.Op, scale float64) float64 {
	var total float64
	for _, id := range op.Outputs {
		t := b.tr.Tensors.Get(id)
		if t == nil {
			continue
		}
		bytes := float64(t.Bytes())
		if t.BatchDim >= 0 {
			bytes *= scale
		}
		total += bytes
	}
	return total
}

// catBytes sums the bytes of the tensors of category cat among ids: a
// backward op's gradient outputs are what a data-parallel AllReduce moves
// for it, a forward op's weight inputs are the parameters it reads.
func (b *builder) catBytes(ids []tensor.ID, cat tensor.Category) float64 {
	var total float64
	for _, id := range ids {
		if t := b.tr.Tensors.Get(id); t != nil && t.Category == cat {
			total += float64(t.Bytes())
		}
	}
	return total
}

// opDuration prices an op at batchScale (1 = verbatim replay) and shard
// fraction (1 = unsharded). Optimizer ops never scale with batch.
func (b *builder) opDuration(op *trace.Op, batchScale, shard float64) sim.VTime {
	if op.Phase == trace.Optimizer {
		batchScale = 1
	}
	scaled := batchScale != 1 || shard != 1
	flops := op.FLOPs * batchScale * shard
	bytes := b.scaledBytes(op, batchScale) * shard
	return b.cfg.Timer.OpTime(op.Name, flops, bytes, op.Time, scaled)
}

// inputBytes is the host→GPU staging volume at the given batch scale.
func (b *builder) inputBytes(scale float64) float64 {
	return float64(b.tr.InputBytes()) * scale
}

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

// stageInput emits the host-load of the input batch portion to one GPU.
func (b *builder) stageInput(gpu network.NodeID, scale float64,
	after *task.Task, label string) *task.Task {
	load := b.g.AddHostLoad(b.host, gpu, b.inputBytes(scale), label)
	b.g.AddDep(after, load)
	return load
}

// Result bundles an extrapolated graph with its metadata.
type Result struct {
	Graph *task.Graph
	// IterationEnds marks the completion task of each simulated iteration.
	IterationEnds []*task.Task
	// Meta describes the generated parallelism structure (strategy, replica
	// and stage counts, DDP bucket count, layer→stage map) for telemetry.
	Meta telemetry.ParallelStat
}
