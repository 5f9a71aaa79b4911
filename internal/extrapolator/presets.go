package extrapolator

import "fmt"

// gradSync is how the dp replicas of a grid synchronize each (stage, rank)
// gradient shard.
type gradSync uint8

const (
	// allReduceSync AllReduces each shard once the backward pass drains.
	allReduceSync gradSync = iota
	// bucketSync is DistributedDataParallel's, over one micro-batch: the
	// backward pass fills gradient buckets of Config.BucketBytes, each
	// bucket AllReduces as soon as every replica has filled it, and buckets
	// serialize on the communication stream.
	bucketSync
	// zeroSync is ZeRO stage 1's: a reduce-scatter, the optimizer on a 1/dp
	// shard, then an all-gather of the updated parameters.
	zeroSync
)

// preset is how one named strategy runs: what sets it apart from the plain
// DP×TP×PP grid that Hybrid3D's generator emits.
type preset struct {
	// pipeline presets run Config.MicroBatches micro-batches, stage each
	// micro-batch's input to the first stage's rank 0, open every unfused
	// chunk with an entry barrier and the host's per-micro-batch scheduling
	// delay (Effects.CPUSchedPerMicroBatch), need the global batch to divide
	// over the replicas, and report their stages. The other presets run one
	// micro-batch of a possibly fractional per-replica batch, staged to
	// every rank of the first stage, each chunk chained straight onto its
	// one gate.
	pipeline bool
	sync     gradSync
	// gil charges standard DataParallel's single-process dispatch: a chained
	// Effects.DPDispatchPerLayer delay per layer gates that layer's forward
	// ops, and Effects.DPComputeInflation stretches forward and backward
	// compute.
	gil bool
	// minReplicas is the fewest dp replicas the preset accepts (0 = 1).
	minReplicas int
	// replicas and tpRanks report dp and tp in Result.Meta.
	replicas, tpRanks bool
}

// presets holds every strategy Build knows, by name.
var presets = map[string]preset{
	"single":   {replicas: true},
	"dp":       {gil: true, replicas: true},
	"ddp":      {sync: bucketSync, replicas: true},
	"zero1":    {sync: zeroSync, replicas: true},
	"pp":       {pipeline: true},
	"dp+pp":    {pipeline: true, minReplicas: 2, replicas: true},
	"dp+tp+pp": {pipeline: true, replicas: true, tpRanks: true},
	"tp":       {tpRanks: true},
	"dp+tp":    {minReplicas: 2, replicas: true, tpRanks: true},
}

// Build extrapolates the trace under the named strategy ("single", "dp",
// "ddp", "zero1", "tp", "pp", "dp+tp", "dp+pp" or "dp+tp+pp") at grid point
// (dp, tp, pp), whose product must be cfg.NumGPUs.
func Build(strategy string, cfg Config, dp, tp, pp int) (*Result, error) {
	ps, ok := presets[strategy]
	if !ok {
		return nil, fmt.Errorf("extrapolator: unknown strategy %q", strategy)
	}
	if dp < max(ps.minReplicas, 1) || tp < 1 || pp < 1 {
		return nil, fmt.Errorf("extrapolator: %s grid %d×%d×%d", strategy,
			dp, tp, pp)
	}
	if dp*tp*pp != cfg.NumGPUs {
		return nil, fmt.Errorf("extrapolator: %s grid %d×%d×%d ≠ %d GPUs",
			strategy, dp, tp, pp, cfg.NumGPUs)
	}
	return grid(cfg, strategy, ps, dp, tp, pp)
}

// DataParallel extrapolates the trace to N-GPU data-parallel training, the
// grid's dp = N point: every GPU replays the whole model on its share of the
// global batch, and the gradients AllReduce after the whole backward pass
// for standard DataParallel (overlap=false) or bucketed and overlapped with
// it for DistributedDataParallel (overlap=true), mirroring PyTorch.
func DataParallel(cfg Config, overlap bool) (*Result, error) {
	if overlap {
		return Build("ddp", cfg, cfg.NumGPUs, 1, 1)
	}
	return Build("dp", cfg, cfg.NumGPUs, 1, 1)
}
