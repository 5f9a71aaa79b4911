package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"triosim/internal/core"
	"triosim/internal/network"
)

// options are one workload run's settings.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	smoke   bool
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	// info holds numbers the benchmark prints and records but leaves out
	// of the machine-read result line: sample counts, checks, accuracy,
	// absolute server-layer times.
	info  map[string]any
	spans *spanLog
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, info: map[string]any{}}
}

// failf records a failed operation and says why on standard error (first
// few only, so a systematic failure does not flood the log).
func (o *outcome) failf(format string, args ...any) {
	o.failed++
	if o.failed <= 5 {
		fmt.Fprintf(stderr, "FAIL: "+format+"\n", args...)
	}
}

// setupMedian runs setup reps times, each from scratch, and returns the
// last instance with the median wall time in seconds. Earlier instances go
// to discard, when it is set, outside the timed region.
func setupMedian[T any](reps int, setup func() (T, error),
	discard func(T)) (T, float64, error) {

	var inst T
	var times []float64
	for i := 0; i < reps; i++ {
		if i > 0 && discard != nil {
			discard(inst)
		}
		t := time.Now()
		var err error
		inst, err = setup()
		if err != nil {
			return inst, 0, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	_, q2, _ := quartiles(times)
	return inst, q2, nil
}

// memMark is a snapshot of the runtime's cumulative allocation and GC
// counters.
type memMark struct {
	alloc   uint64
	numGC   uint32
	pauseNs uint64
}

func markMem() memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{m.TotalAlloc, m.NumGC, m.PauseTotalNs}
}

// memDelta accumulates allocation and GC activity over measured phases.
type memDelta struct {
	allocMB  float64
	gcCycles float64
	pauseMs  float64
}

func (d *memDelta) addSince(m memMark) {
	now := markMem()
	d.allocMB += float64(now.alloc-m.alloc) / (1 << 20)
	d.gcCycles += float64(now.numGC - m.numGC)
	d.pauseMs += float64(now.pauseNs-m.pauseNs) / 1e6
}

// peakRSSMB is the process's peak resident set size (ru_maxrss).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// timed repeats round until seconds have passed, at least once, and
// returns the time taken and the allocation over the rounds.
func timed(seconds time.Duration, round func()) (time.Duration, memDelta) {
	var mem memDelta
	m := markMem()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < seconds; i++ {
		round()
	}
	elapsed := time.Since(start)
	mem.addSince(m)
	return elapsed, mem
}

// alternate runs untraced and traced rounds in turn until seconds have
// passed, at least one of each, then fills the layer metrics. The GC counts
// come from the untraced rounds.
func (o *outcome) alternate(seconds time.Duration, acc *layerAcc,
	untraced, traced func()) {

	var gc memDelta
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < seconds; i++ {
		if i%2 == 1 {
			traced()
			continue
		}
		m := markMem()
		untraced()
		gc.addSince(m)
	}
	o.setLayers(acc, gc, len(acc.untraced))
	o.checkCoverage()
}

// timeOp runs one untraced operation, checks its result against want and
// appends its milliseconds to samples.
func (o *outcome) timeOp(samples []float64, label string, want simOutput,
	run func() (*core.Result, error)) []float64 {

	o.attempted++
	t := time.Now()
	res, err := run()
	ms := msSince(t)
	switch {
	case err != nil:
		o.failf("%s: %v", label, err)
	case outputOf(res) != want:
		o.failf("%s: %+v, the warm-up gave %+v", label, outputOf(res), want)
	default:
		samples = append(samples, ms)
	}
	return samples
}

// traceOp runs one operation through the traced pipeline copy and checks
// its result against want.
func (o *outcome) traceOp(acc *layerAcc, label string, want simOutput,
	cfg core.Config, buildTopo func() *network.Topology) {

	o.attempted++
	t := time.Now()
	got, n, err := tracedSimulate(o.spans, o.spans.nextOp(), label, cfg,
		buildTopo)
	ms := msSince(t)
	switch {
	case err != nil:
		o.failf("traced %s: %v", label, err)
	case got != want:
		o.failf("traced %s: %+v, core.Simulate gave %+v", label, got, want)
	default:
		acc.add(n)
		acc.traced = append(acc.traced, ms)
	}
}

// setEndToEnd fills the end-to-end metrics from a timed phase: samples are
// per-operation milliseconds, opsPerSec the workload's throughput, and mem
// the allocation over memOps operations.
func (o *outcome) setEndToEnd(setupS, opsPerSec float64, samples []float64,
	mem memDelta, memOps int) {

	n := len(samples)
	o.metrics["setup_s"] = setupS
	o.metrics["ops_per_s"] = opsPerSec
	o.metrics["op_ms_p50"] = percentile(samples, 50)
	o.metrics["op_ms_p95"] = percentile(samples, 95)
	o.metrics["peak_rss_mb"] = peakRSSMB()
	if memOps > 0 {
		o.metrics["alloc_mb_per_op"] = mem.allocMB / float64(memOps)
	}
	o.info["op_samples"] = n
	// A percentile with fewer than minBeyond samples past it is closer to a
	// maximum than a tail; say which ones are. The 99th is printed, not
	// gated: few workloads have a thousand samples in a run.
	o.info["op_ms_p99"] = percentile(samples, 99)
	o.info["op_ms_p99_is_tail"] = tailReportable(n, 99)
	o.info["op_ms_p95_is_tail"] = tailReportable(n, 95)
}

// setLayers fills the pipeline-layer metrics of a traced run.
func (o *outcome) setLayers(acc *layerAcc, gc memDelta, gcOps int) {
	if acc.ops == 0 {
		return
	}
	ops := float64(acc.ops)
	self := layerSelf(o.spans.spans)
	ms := func(name string) float64 { return float64(self[name]) / 1e6 / ops }
	o.metrics["hwsim.collect_ms"] = ms(spanCollect)
	o.metrics["perfmodel.fit_ms"] = ms(spanFit)
	o.metrics["network.topology_ms"] = ms(spanTopology)
	o.metrics["extrapolator.build_ms"] = ms(spanBuild)
	o.metrics["sim.engine_ms"] = ms(spanEngine)
	o.metrics["sim.digest_ms"] = ms(spanDigest)
	o.metrics["handlers.self_ms"] = ms(spanHandlers)
	o.metrics["network.solve_ms"] = ms(spanSolve)
	o.metrics["timeline.union_ms"] = ms(spanUnion)
	o.metrics["extrapolator.tasks"] = acc.tasks / ops
	o.metrics["task.tasks_done"] = acc.tasksDone / ops
	o.metrics["sim.events"] = acc.events / ops
	o.metrics["sim.queue_high_water"] = acc.hw / ops
	o.metrics["network.solves"] = acc.solves / ops
	if acc.engineWall > 0 {
		o.metrics["sim.events_per_s"] = acc.events / acc.engineWall.Seconds()
	}
	if acc.solves > 0 {
		o.metrics["network.flows_per_solve"] = acc.solvedFlows / acc.solves
	}
	if acc.cacheLookups > 0 {
		o.metrics["tracecache.hit_ratio"] =
			float64(acc.cacheHits) / float64(acc.cacheLookups)
	}
	if gcOps > 0 {
		o.metrics["runtime.gc_cycles_per_op"] = gc.gcCycles / float64(gcOps)
		o.metrics["runtime.gc_pause_ms_per_op"] = gc.pauseMs / float64(gcOps)
	}
	if u := percentile(acc.untraced, 50); u > 0 {
		o.metrics["trace.overhead_ratio"] = percentile(acc.traced, 50) / u
	}
	o.info["traced_ops"] = acc.ops
	if len(acc.untraced) > 0 {
		o.info["untraced_ops"] = len(acc.untraced)
	}
}

// checkCoverage fails every traced operation whose layer self times do not
// add up to within 5% of its wall time, and records the extremes.
func (o *outcome) checkCoverage() {
	cov := opCoverage(o.spans.spans, spanOp)
	lo, hi := math.Inf(1), math.Inf(-1)
	ops := make([]int, 0, len(cov))
	for op := range cov {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	for _, op := range ops {
		c := cov[op]
		lo, hi = math.Min(lo, c), math.Max(hi, c)
		if c < 0.95 || c > 1.05 {
			o.failf("op %d: layer self times cover %.1f%% of its wall time",
				op, 100*c)
		}
	}
	if len(cov) > 0 {
		o.info["trace_coverage_min"] = lo
		o.info["trace_coverage_max"] = hi
	}
}

// outputDigest is the SHA-256 of the sorted per-operation output lines, so
// two commits can show their outputs are the same without shipping them.
func outputDigest(lines []string) string {
	s := append([]string(nil), lines...)
	sort.Strings(s)
	h := sha256.Sum256([]byte(strings.Join(s, "\n")))
	return hex.EncodeToString(h[:])
}
