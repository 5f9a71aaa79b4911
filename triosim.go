// Package triosim is the public API of the TrioSim reproduction: a
// lightweight, trace-driven simulator for large-scale DNN training on
// multi-GPU systems (Li et al., ISCA 2025).
//
// TrioSim takes an operator-level trace collected on a single GPU and
// extrapolates it to a multi-GPU configuration under a chosen parallelism
// strategy (data, distributed-data, tensor, or pipeline parallelism),
// pricing computation with a linear-regression operator performance model
// (Li's Model) and communication with a flow-based network model.
//
// Quickstart:
//
//	platform := triosim.P2() // 4×A100, NVLink
//	res, err := triosim.Simulate(triosim.Config{
//		Model:       "resnet50",
//		Platform:    platform,
//		Parallelism: triosim.DDP,
//		TraceBatch:  128,
//	})
//	fmt.Println(res.PerIteration, res.CommTime, res.ComputeTime)
//
// The reproduction ships its own tracer substitute (an analytic model zoo
// stamped by a reference hardware emulator), so no GPU is needed; supply
// your own Trace to simulate measured workloads instead.
package triosim

import (
	"triosim/internal/core"
	"triosim/internal/faults"
	"triosim/internal/gpu"
	"triosim/internal/hwsim"
	"triosim/internal/models"
	"triosim/internal/network"
	"triosim/internal/serving"
	"triosim/internal/sim"
	"triosim/internal/telemetry"
	"triosim/internal/trace"
	"triosim/internal/tracecache"
)

// Config describes one simulation; see the field docs in internal/core.
type Config = core.Config

// Result is the simulator's output: total/per-iteration time, the
// communication/computation breakdown, the optional span log and RunReport,
// and the simulator's own wall-clock cost.
type Result = core.Result

// Comparison is a predicted-vs-hardware validation pair.
type Comparison = core.Comparison

// RunReport is the structured telemetry report produced when
// Config.Telemetry is enabled; see internal/telemetry and
// docs/OBSERVABILITY.md.
type RunReport = telemetry.RunReport

// MetricsRegistry is the deterministic virtual-time metrics registry. Share
// one between Config.Metrics and a monitor to serve live /metrics.
type MetricsRegistry = telemetry.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// Parallelism selects the training strategy.
type Parallelism = core.Parallelism

// Parallelism strategies.
const (
	SingleGPU = core.Single
	DP        = core.DP
	DDP       = core.DDP
	TP        = core.TP
	PP        = core.PP
	DPPP      = core.DPPP   // hybrid: data-parallel pipeline replicas
	DPTP      = core.DPTP   // hybrid: data-parallel tensor-parallel replicas
	DPTPPP    = core.DPTPPP // 3D: data × tensor × pipeline parallel grid
	ZeRO1     = core.ZeRO1  // ZeRO stage-1 optimizer-state sharding
)

// VTime is virtual time in seconds.
type VTime = sim.VTime

// Trace is an operator-level single-GPU execution trace.
type Trace = trace.Trace

// Platform describes a multi-GPU system (GPUs + interconnect).
type Platform = gpu.Platform

// Topology is an interconnect graph for custom network configurations.
type Topology = network.Topology

// Simulate predicts the multi-GPU execution time of the configured
// workload: TrioSim's main entry point.
func Simulate(cfg Config) (*Result, error) { return core.Simulate(cfg) }

// GroundTruth runs the reference hardware emulator (the stand-in for the
// paper's physical platforms) on the same configuration.
func GroundTruth(cfg Config) (*Result, error) { return core.GroundTruth(cfg) }

// Validate runs both paths and reports the prediction error.
func Validate(cfg Config) (*Comparison, error) { return core.Validate(cfg) }

// TraceCache shares collected traces and fitted operator timers across
// simulations. Assign one store to Config.Cache on every Config of a sweep
// (internal sweeps and cmd/experiments do this automatically): scenarios with
// the same (model, trace batch, GPU) then collect the trace once and reuse it
// read-only, with bit-identical results. See docs/PERFORMANCE.md.
type TraceCache = tracecache.Store

// NewTraceCache returns an empty shared trace cache.
func NewTraceCache() *TraceCache { return tracecache.New() }

// MemoryReport is a per-GPU peak-memory estimate.
type MemoryReport = core.MemoryReport

// MemoryFootprint estimates whether the configured run fits in GPU memory.
func MemoryFootprint(cfg Config) (*MemoryReport, error) {
	return core.MemoryFootprint(cfg)
}

// Candidate is one evaluated deployment strategy.
type Candidate = core.Candidate

// Advise simulates every applicable parallelism strategy for the workload
// and platform, checks memory feasibility, and returns candidates sorted
// fastest-feasible-first (the paper's §8.3 design-space exploration).
func Advise(cfg Config) ([]Candidate, error) { return core.Advise(cfg) }

// CollectTrace produces a stamped single-GPU trace for a model-zoo workload
// on the named GPU ("A40", "A100", "H100") — the tracer-substitute pipeline.
func CollectTrace(model string, batch int, gpuName string) (*Trace, error) {
	spec, err := gpu.SpecByName(gpuName)
	if err != nil {
		return nil, err
	}
	return hwsim.CollectTrace(model, batch, spec)
}

// ReadTrace loads a JSON trace from disk.
func ReadTrace(path string) (*Trace, error) { return trace.ReadFile(path) }

// Models returns every workload the model zoo can build.
func Models() []string { return models.List() }

// CNNModels returns the image-classification workloads.
func CNNModels() []string { return models.CNNs() }

// TransformerModels returns the NLP workloads.
func TransformerModels() []string { return models.Transformers() }

// P1 returns the paper's platform P1: 2×A40 connected with PCIe.
func P1() *Platform { p := gpu.P1; return &p }

// P2 returns the paper's platform P2: 4×A100 connected with NVLink.
func P2() *Platform { p := gpu.P2; return &p }

// P3 returns the paper's platform P3: 8×H100 connected with NVLink.
func P3() *Platform { p := gpu.P3; return &p }

// PlatformByName looks up P1/P2/P3.
func PlatformByName(name string) (*Platform, error) {
	return gpu.PlatformByName(name)
}

// FaultSchedule is a typed set of fault events (link degradations and
// outages, GPU stragglers and failures) plus an optional checkpoint policy.
// Assign one to Config.Faults to inject it; see docs/RESILIENCE.md.
type FaultSchedule = faults.Schedule

// FaultEvent is a single fault in a FaultSchedule.
type FaultEvent = faults.Event

// CheckpointPolicy configures the checkpoint/restart resilience overlay.
type CheckpointPolicy = faults.Checkpoint

// FaultGenConfig parameterizes GenerateFaults.
type FaultGenConfig = faults.GenConfig

// ResilienceResult is the checkpoint/restart overlay's extended-run
// accounting (goodput, replay/restart time), attached to Result.Resilience.
type ResilienceResult = faults.ResilienceResult

// Fault kinds for FaultEvent.Kind.
const (
	LinkDegrade = faults.LinkDegrade
	LinkDown    = faults.LinkDown
	GPUSlowdown = faults.GPUSlowdown
	GPUFail     = faults.GPUFail
)

// LoadFaultSchedule reads a triosim.faults/v1 JSON schedule from disk.
func LoadFaultSchedule(path string) (*FaultSchedule, error) {
	return faults.Load(path)
}

// GenerateFaults materializes a random — but fully seeded and reproducible —
// fault schedule up front, so the simulation itself stays deterministic.
func GenerateFaults(seed int64, cfg FaultGenConfig) (*FaultSchedule, error) {
	return faults.Generate(seed, cfg)
}

// OptimalCheckpointInterval is the Young–Daly approximation
// sqrt(2 × cost × MTBF).
func OptimalCheckpointInterval(cost, mtbf VTime) VTime {
	return faults.OptimalInterval(cost, mtbf)
}

// BuildTopology constructs the interconnect topology Simulate would use for
// the platform — handy for sizing fault schedules (GPU and link counts).
func BuildTopology(p *Platform) *Topology { return core.BuildTopology(p) }

// ServeConfig describes one request-level inference-serving simulation;
// see internal/core and docs/SERVING.md.
type ServeConfig = core.ServeConfig

// ServeResult is a serving simulation's output: request-level latency
// tails, throughput, batching efficiency, and the replay digest.
type ServeResult = core.ServeResult

// ServingConfig is the serving workload: model, scheduler, batch cap, and
// arrivals.
type ServingConfig = serving.Config

// ServingMetrics is the request-level outcome attached to ServeResult.
type ServingMetrics = serving.Metrics

// ServingRequest is one inference request in a serving workload.
type ServingRequest = serving.Request

// ServingArrivalConfig parameterizes the seeded Poisson workload generator.
type ServingArrivalConfig = serving.ArrivalConfig

// Serve runs one request-level inference-serving simulation: seeded
// arrivals, continuous batching with KV-cache accounting, and deterministic
// latency percentiles.
func Serve(cfg ServeConfig) (*ServeResult, error) { return core.Serve(cfg) }

// ServingSchedulers lists the admission policies Serve accepts (fifo,
// priority, sjf).
func ServingSchedulers() []string { return serving.Policies() }

// GenerateServingWorkload draws a seeded Poisson request workload.
func GenerateServingWorkload(cfg ServingArrivalConfig) ([]ServingRequest, error) {
	return serving.GenerateWorkload(cfg)
}

// LoadServingWorkload reads a request trace (JSON array of requests,
// arrival_sec ascending) from disk.
func LoadServingWorkload(path string) ([]ServingRequest, error) {
	return serving.LoadWorkload(path)
}

// NetworkConfig parameterizes the topology builders.
type NetworkConfig = network.Config

// Topology builders for custom interconnects. GPUs are the first nodes;
// a host node provides the input-staging path.
var (
	RingTopology       = network.Ring
	SwitchTopology     = network.Switch
	PCIeTreeTopology   = network.PCIeTree
	MeshTopology       = network.Mesh
	DoubleRingTopology = network.DoubleRing
	ChordRingTopology  = network.RingWithChords
)
