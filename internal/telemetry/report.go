package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"unicode/utf8"

	"triosim/internal/spantrace"
	"triosim/internal/tracecache"
)

// ReportSchema versions the RunReport JSON layout. Consumers (triosimvet
// -report, CI smoke checks, dashboards) key on it before parsing the rest.
const ReportSchema = "triosim.runreport/v1"

// RunReport is the structured end-of-run telemetry document: the quantitative
// answer to "where did the simulated time go, and what did the simulator
// itself do". It is emitted on core.Result and via triosim -metrics-out.
//
// All slices are sorted and all floats derive from virtual time, so two runs
// of the same configuration marshal to byte-identical JSON (wall-clock
// fields stay zero unless the caller injected a Clock).
type RunReport struct {
	Schema string `json:"schema"`

	// Workload identification.
	Model       string `json:"model,omitempty"`
	Platform    string `json:"platform,omitempty"`
	Parallelism string `json:"parallelism,omitempty"`
	NumGPUs     int    `json:"num_gpus"`
	Iterations  int    `json:"iterations"`

	// Simulated-time outcome.
	TotalSec        float64 `json:"total_sec"`
	PerIterationSec float64 `json:"per_iteration_sec"`

	GPUs        []GPUStat        `json:"gpus"`
	Links       []LinkStat       `json:"links,omitempty"`
	Tiers       []TierStat       `json:"tiers,omitempty"`
	Network     NetStat          `json:"network"`
	Collectives []CollectiveStat `json:"collectives,omitempty"`
	Parallel    ParallelStat     `json:"parallel"`
	Engine      EngineStat       `json:"engine"`
	// Faults carries fault-injection and resilience accounting (nil unless
	// the run had a fault schedule configured).
	Faults *FaultReport `json:"faults,omitempty"`
	// Serving carries the request-level inference-serving section (nil
	// unless the run was a serving simulation — core.Serve).
	Serving *ServingStat `json:"serving,omitempty"`
	// TraceCache carries the shared trace cache's counters (nil unless the
	// run used a cache). The counters accumulate across every simulation
	// sharing the store, so this section — unlike the rest of the report —
	// is NOT covered by the byte-identity guarantee above: the same config
	// reports different hit counts depending on what ran before it.
	TraceCache *TraceCacheStat `json:"trace_cache,omitempty"`
	// CriticalPath is the makespan-setting chain through the span DAG with
	// per-category attribution and the near-critical slack table (nil unless
	// the run enabled span tracing — core.Config.SpanTrace).
	CriticalPath *spantrace.Report `json:"critical_path,omitempty"`

	// Metrics is the raw registry dump backing the aggregates above.
	Metrics []MetricPoint `json:"metrics,omitempty"`
}

// GPUStat is the per-GPU time breakdown. The four components partition the
// run exactly: ComputeSec + ExposedCommSec + ExposedHostSec + IdleSec ==
// TotalSec. Communication fully overlapped with this GPU's compute does not
// appear (that is the point of exposed-comm accounting).
type GPUStat struct {
	GPU            int     `json:"gpu"`
	ComputeSec     float64 `json:"compute_sec"`
	ExposedCommSec float64 `json:"exposed_comm_sec"`
	ExposedHostSec float64 `json:"exposed_host_sec"`
	IdleSec        float64 `json:"idle_sec"`
	ComputeTasks   int     `json:"compute_tasks"`
}

// LinkStat is one directed link's traffic accounting.
type LinkStat struct {
	// Link names the direction, e.g. "gpu0->nvswitch".
	Link  string  `json:"link"`
	Bytes float64 `json:"bytes"`
	// Utilization is bytes / (bandwidth × makespan): the fraction of the
	// link's capacity the run actually moved.
	Utilization float64 `json:"utilization"`
	Flows       int     `json:"flows"`
}

// TierStat aggregates traffic for one hierarchy tier (nvlink, nic, fabric,
// host) on tiered cluster topologies — empty on single-node topologies. It
// answers the scaling question per-link stats cannot: which level of the
// hierarchy the workload saturates.
type TierStat struct {
	Tier  string  `json:"tier"`
	Bytes float64 `json:"bytes"`
	// Utilization is bytes / (aggregate tier bandwidth × makespan), where
	// aggregate bandwidth counts both directions of every link in the tier.
	Utilization float64 `json:"utilization"`
	Flows       int     `json:"flows"`
	// Links is the tier's directed-link count (2× its physical links).
	Links int `json:"links"`
}

// NetStat aggregates the flow network.
type NetStat struct {
	TotalBytes     float64 `json:"total_bytes"`
	Transfers      int     `json:"transfers"`
	RateRecomputes int     `json:"rate_recomputes"`
	// MaxLinkUtilization is the highest per-direction link utilization.
	MaxLinkUtilization float64 `json:"max_link_utilization"`
	// SolveSeconds is host time inside max-min solves (self-profiling;
	// wall-clock derived, only set when the caller injected a Clock).
	SolveSeconds float64 `json:"solve_wall_seconds,omitempty"`
}

// CollectiveStat is one collective operation instance (e.g. one DDP bucket's
// AllReduce) with NCCL-style bandwidth accounting: AlgBwBytesPerSec is
// payload/duration, BusBwBytesPerSec multiplies in the algorithm's traffic
// factor (2(N−1)/N for allreduce, (N−1)/N for reduce-scatter/all-gather), and
// Efficiency compares bus bandwidth to the bottleneck link on the routes the
// collective actually used.
type CollectiveStat struct {
	Label            string  `json:"label"`
	Algo             string  `json:"algo"`
	Ranks            int     `json:"ranks"`
	PayloadBytes     float64 `json:"payload_bytes"`
	MovedBytes       float64 `json:"moved_bytes"`
	StartSec         float64 `json:"start_sec"`
	EndSec           float64 `json:"end_sec"`
	AlgBwBytesPerSec float64 `json:"alg_bw_bytes_per_sec"`
	BusBwBytesPerSec float64 `json:"bus_bw_bytes_per_sec"`
	// IdealBwBytesPerSec is the minimum link bandwidth on the routes used.
	IdealBwBytesPerSec float64 `json:"ideal_bw_bytes_per_sec"`
	Efficiency         float64 `json:"efficiency"`
}

// ParallelStat describes the extrapolated parallelism structure.
type ParallelStat struct {
	Strategy string `json:"strategy,omitempty"`
	Replicas int    `json:"replicas,omitempty"`
	Stages   int    `json:"stages,omitempty"`
	// TPRanks is the tensor-parallel group size (3D parallelism only).
	TPRanks int `json:"tp_ranks,omitempty"`
	// Buckets is the DDP gradient-bucket count per iteration.
	Buckets int `json:"buckets,omitempty"`
	// StageOfLayer maps layer index → pipeline stage (PP only).
	StageOfLayer []int `json:"stage_of_layer,omitempty"`
}

// EngineStat is the simulator self-profile.
type EngineStat struct {
	Events uint64 `json:"events"`
	// ByKind counts dispatched events per event kind, sorted by kind.
	ByKind []KindCount `json:"by_kind,omitempty"`
	// QueueHighWater is the deepest the event queue got.
	QueueHighWater int `json:"queue_high_water"`
	// EventDigest is the hex FNV-1a digest of the dispatched event schedule
	// ("0x..."), the run's replay-determinism fingerprint. Two reports for
	// identical configurations must carry identical digests — the triosimd
	// byte-identity gate leans on this field.
	EventDigest string `json:"event_digest,omitempty"`
	// WallSeconds and EventsPerSecond are wall-clock derived and only set
	// when the caller injected a Clock (zero in deterministic test runs).
	WallSeconds     float64 `json:"wall_seconds,omitempty"`
	EventsPerSecond float64 `json:"events_per_second,omitempty"`
}

// TraceCacheStat is the shared trace cache's counter snapshot at the end of
// the run: how many trace collections and timer fits were skipped, and the
// approximate bytes the cached traces retain. It is the cache's own Stats
// value, JSON tags included.
type TraceCacheStat = tracecache.Stats

// KindCount is one per-event-kind dispatch count.
type KindCount struct {
	Kind  string `json:"kind"`
	Count uint64 `json:"count"`
}

// FaultReport is the fault-injection and resilience section: which windows
// perturbed the run, how long some hardware was degraded, and the
// checkpoint/restart overlay's goodput accounting. The four time components
// partition the extended timeline: UsefulSec + CheckpointSec + ReplaySec +
// RestartSec == ExtendedSec.
type FaultReport struct {
	Windows       []FaultWindow `json:"windows,omitempty"`
	DegradedSec   float64       `json:"degraded_sec"`
	Failures      int           `json:"failures"`
	Checkpoints   int           `json:"checkpoints"`
	CheckpointSec float64       `json:"checkpoint_sec"`
	ReplaySec     float64       `json:"replay_sec"`
	RestartSec    float64       `json:"restart_sec"`
	UsefulSec     float64       `json:"useful_sec"`
	ExtendedSec   float64       `json:"extended_sec"`
	// Goodput is UsefulSec / ExtendedSec in [0, 1].
	Goodput float64 `json:"goodput"`
}

// LatencyQuantiles summarizes a latency sample with deterministic
// nearest-rank percentiles (sorted[ceil(q·n)−1]) — no interpolation, so a
// given sample always reports the same values bit for bit.
type LatencyQuantiles struct {
	MeanSec float64 `json:"mean_sec"`
	P50Sec  float64 `json:"p50_sec"`
	P90Sec  float64 `json:"p90_sec"`
	P99Sec  float64 `json:"p99_sec"`
	P999Sec float64 `json:"p999_sec"`
	MaxSec  float64 `json:"p100_sec"`
}

// monotone reports whether the quantiles are ordered p50 ≤ p90 ≤ p99 ≤
// p999 ≤ max and non-negative.
func (q LatencyQuantiles) monotone() bool {
	return q.P50Sec >= 0 && q.P50Sec <= q.P90Sec && q.P90Sec <= q.P99Sec &&
		q.P99Sec <= q.P999Sec && q.P999Sec <= q.MaxSec
}

// ServingStat is the request-level serving section of a RunReport: offered
// vs achieved load, latency and time-to-first-token tails, and continuous
// batching efficiency.
type ServingStat struct {
	Scheduler string `json:"scheduler"`
	Replicas  int    `json:"replicas"`
	MaxBatch  int    `json:"max_batch"`
	Requests  int    `json:"requests"`
	Completed int    `json:"completed"`

	OfferedRPS    float64 `json:"offered_rps"`
	MakespanSec   float64 `json:"makespan_sec"`
	ThroughputRPS float64 `json:"throughput_rps"`
	TokensPerSec  float64 `json:"tokens_per_sec"`

	Latency LatencyQuantiles `json:"latency"`
	TTFT    LatencyQuantiles `json:"ttft"`

	Steps              int     `json:"steps"`
	MeanBatch          float64 `json:"mean_batch"`
	BatchingEfficiency float64 `json:"batching_efficiency"`
	GeneratedTokens    int     `json:"generated_tokens"`
	KVPeakBytes        float64 `json:"kv_peak_bytes"`
}

// FaultWindow is one fault event's footprint (GPUFail markers have
// StartSec == EndSec).
type FaultWindow struct {
	Kind     string  `json:"kind"`
	Resource string  `json:"resource"`
	Factor   float64 `json:"factor,omitempty"`
	StartSec float64 `json:"start_sec"`
	EndSec   float64 `json:"end_sec"`
}

// WriteJSON writes the report as indented JSON. Field order is fixed by the
// struct layout and slices are pre-sorted, so output is deterministic.
func (r *RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// sumTolerance is the relative float tolerance for the per-GPU partition
// invariant check.
const sumTolerance = 1e-6

// Validate checks the report's internal invariants: schema tag, the exact
// per-GPU time partition, utilization ranges, and collective sanity.
func (r *RunReport) Validate() error {
	if r.Schema != ReportSchema {
		return fmt.Errorf("telemetry: schema %q, want %q", r.Schema, ReportSchema)
	}
	if r.TotalSec < 0 || r.PerIterationSec < 0 {
		return fmt.Errorf("telemetry: negative total time")
	}
	for _, g := range r.GPUs {
		sum := g.ComputeSec + g.ExposedCommSec + g.ExposedHostSec + g.IdleSec
		tol := sumTolerance * math.Max(1e-12, r.TotalSec)
		if math.Abs(sum-r.TotalSec) > tol {
			return fmt.Errorf("telemetry: gpu%d breakdown sums to %g, total is %g",
				g.GPU, sum, r.TotalSec)
		}
		if g.ComputeSec < 0 || g.ExposedCommSec < 0 || g.ExposedHostSec < 0 ||
			g.IdleSec < -tol {
			return fmt.Errorf("telemetry: gpu%d has a negative component", g.GPU)
		}
	}
	for _, l := range r.Links {
		if l.Utilization < 0 || l.Utilization > 1+sumTolerance {
			return fmt.Errorf("telemetry: link %s utilization %g out of [0,1]",
				l.Link, l.Utilization)
		}
		if l.Bytes < 0 {
			return fmt.Errorf("telemetry: link %s negative bytes", l.Link)
		}
	}
	for _, t := range r.Tiers {
		if t.Utilization < 0 || t.Utilization > 1+sumTolerance {
			return fmt.Errorf("telemetry: tier %s utilization %g out of [0,1]",
				t.Tier, t.Utilization)
		}
		if t.Bytes < 0 {
			return fmt.Errorf("telemetry: tier %s negative bytes", t.Tier)
		}
	}
	for _, c := range r.Collectives {
		if c.EndSec < c.StartSec {
			return fmt.Errorf("telemetry: collective %s ends before it starts",
				c.Label)
		}
		if c.Ranks < 0 || c.PayloadBytes < 0 || c.MovedBytes < 0 {
			return fmt.Errorf("telemetry: collective %s has negative fields",
				c.Label)
		}
	}
	if f := r.Faults; f != nil {
		if f.Goodput < 0 || f.Goodput > 1+sumTolerance {
			return fmt.Errorf("telemetry: fault goodput %g out of [0,1]",
				f.Goodput)
		}
		if f.DegradedSec < 0 || f.CheckpointSec < 0 || f.ReplaySec < 0 ||
			f.RestartSec < 0 || f.UsefulSec < 0 || f.ExtendedSec < 0 {
			return fmt.Errorf("telemetry: fault section has negative times")
		}
		sum := f.UsefulSec + f.CheckpointSec + f.ReplaySec + f.RestartSec
		tol := sumTolerance * math.Max(1e-12, f.ExtendedSec)
		if math.Abs(sum-f.ExtendedSec) > tol {
			return fmt.Errorf(
				"telemetry: fault accounting sums to %g, extended total is %g",
				sum, f.ExtendedSec)
		}
		for _, w := range f.Windows {
			if w.EndSec < w.StartSec {
				return fmt.Errorf("telemetry: fault window %s/%s ends before it starts",
					w.Kind, w.Resource)
			}
		}
	}
	if s := r.Serving; s != nil {
		if s.Completed > s.Requests || s.Completed < 0 {
			return fmt.Errorf("telemetry: serving completed %d of %d requests",
				s.Completed, s.Requests)
		}
		if s.BatchingEfficiency < 0 || s.BatchingEfficiency > 1+sumTolerance {
			return fmt.Errorf("telemetry: serving batching efficiency %g out of [0,1]",
				s.BatchingEfficiency)
		}
		if s.ThroughputRPS < 0 || s.TokensPerSec < 0 || s.MakespanSec < 0 ||
			s.KVPeakBytes < 0 || s.GeneratedTokens < 0 || s.Steps < 0 {
			return fmt.Errorf("telemetry: serving section has negative fields")
		}
		if !s.Latency.monotone() {
			return fmt.Errorf("telemetry: serving latency quantiles not monotone: %+v",
				s.Latency)
		}
		if !s.TTFT.monotone() {
			return fmt.Errorf("telemetry: serving TTFT quantiles not monotone: %+v",
				s.TTFT)
		}
	}
	if cp := r.CriticalPath; cp != nil {
		if err := cp.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// ParseReport decodes and validates a RunReport JSON document.
func ParseReport(data []byte) (*RunReport, error) {
	var r RunReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("telemetry: parse report: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// opCategories maps operator-name substrings to breakdown categories, first
// match wins. The names come from the model zoo / PyTorch-style traces.
var opCategories = []struct{ substr, cat string }{
	{"conv", "conv"},
	{"linear", "gemm"},
	{"matmul", "gemm"},
	{"gemm", "gemm"},
	{"attention", "gemm"},
	{"attn", "gemm"},
	{"embedding", "gemm"},
	{"norm", "norm"},
	{"pool", "pool"},
	{"relu", "activation"},
	{"gelu", "activation"},
	{"sigmoid", "activation"},
	{"tanh", "activation"},
	{"softmax", "activation"},
	{"dropout", "elementwise"},
	{"add", "elementwise"},
	{"mul", "elementwise"},
	{"scale", "elementwise"},
	{"sgd", "optimizer"},
	{"adam", "optimizer"},
	{"optimizer", "optimizer"},
	{"step", "optimizer"},
	{"loss", "loss"},
	{"entropy", "loss"},
}

// OpCategory classifies an operator name into a coarse breakdown category
// (conv, gemm, norm, pool, activation, elementwise, optimizer, loss, other).
// Shared by the collector's op-duration histograms and cmd/traceinfo.
func OpCategory(name string) string {
	return opCategory(toLower([]byte(name)))
}

// opCategory classifies a lower-cased operator name without converting it
// to a string, so the collector classifies a rendered label allocation-free.
func opCategory(lower []byte) string {
	for _, e := range opCategories {
		if bytes.Contains(lower, []byte(e.substr)) {
			return e.cat
		}
	}
	return "other"
}

// toLower lower-cases b as strings.ToLower does: ASCII bytes in place, and a
// name with any other byte through strings.ToLower.
func toLower(b []byte) []byte {
	for i, ch := range b {
		if ch >= utf8.RuneSelf {
			return []byte(strings.ToLower(string(b)))
		}
		if 'A' <= ch && ch <= 'Z' {
			b[i] = ch + 'a' - 'A'
		}
	}
	return b
}
