package extrapolator

import "triosim/internal/trace"

// partitionStages solves the linear partition problem: split the layer
// weight sequence into `stages` contiguous groups minimizing the maximum
// group sum (the simulator's automatic layer-to-GPU balancing, §4.3/§8.2).
// Returns the stage index of each layer.
func partitionStages(weights []float64, stages int) []int {
	l := len(weights)
	if stages < 1 {
		stages = 1
	}
	if stages > l {
		stages = l
	}
	// prefix[i] = sum of weights[:i].
	prefix := make([]float64, l+1)
	for i, w := range weights {
		prefix[i+1] = prefix[i] + w
	}
	const inf = 1e308
	// cost[i][s] = minimal max-group-sum partitioning weights[:i] into s
	// groups.
	cost := make([][]float64, l+1)
	cut := make([][]int, l+1)
	for i := range cost {
		cost[i] = make([]float64, stages+1)
		cut[i] = make([]int, stages+1)
		for s := range cost[i] {
			cost[i][s] = inf
		}
	}
	cost[0][0] = 0
	for i := 1; i <= l; i++ {
		for s := 1; s <= stages && s <= i; s++ {
			for j := s - 1; j < i; j++ {
				group := prefix[i] - prefix[j]
				c := cost[j][s-1]
				if group > c {
					c = group
				}
				if c < cost[i][s] {
					cost[i][s] = c
					cut[i][s] = j
				}
			}
		}
	}
	// Walk back the cuts.
	out := make([]int, l)
	i, s := l, stages
	for s > 0 {
		j := cut[i][s]
		for k := j; k < i; k++ {
			out[k] = s - 1
		}
		i, s = j, s-1
	}
	return out
}

// PipelineParallel extrapolates the trace to GPipe pipeline parallelism:
// layers are auto-partitioned into NumGPUs balanced stages, the mini-batch
// is divided into MicroBatches equal micro-batches, forward micro-batches
// flow down the pipeline, and the backward pass runs after the stage's
// forward flush, in reverse micro-batch order (paper §4.3, Fig 4). It is
// the one-replica, one-rank point of the grid; "dp+pp" (HP, the hybrid the
// paper's Table 1 credits to DistSim/vTrain) is its one-rank row, dpGroups
// pipeline replicas that AllReduce corresponding stages' gradients.
func PipelineParallel(cfg Config) (*Result, error) {
	return Build("pp", cfg, 1, 1, cfg.NumGPUs)
}

// StageAssignment balances the trace's layers over the given number of
// pipeline stages by their forward op times and returns each layer's stage.
func StageAssignment(tr *trace.Trace, stages int) []int {
	if stages <= 1 {
		return make([]int, tr.NumLayers())
	}
	layerTime := make([]float64, tr.NumLayers())
	for i := range tr.Ops {
		op := &tr.Ops[i]
		if op.Phase == trace.Forward {
			layerTime[op.Layer] += float64(op.Time)
		}
	}
	return partitionStages(layerTime, stages)
}
