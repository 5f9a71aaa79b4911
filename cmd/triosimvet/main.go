// Command triosimvet is TrioSim's determinism gate. By default it runs the
// internal/lint static analyzers over the whole module and reports every
// violation of the simulator's determinism contract (wall-clock reads,
// unseeded randomness, order-dependent map iteration, goroutines in the
// serial engine's domain, raw VTime comparisons) with file:line positions.
//
//	triosimvet ./...            # analyze the module containing the cwd
//	triosimvet -json ./...      # machine-readable findings
//	triosimvet -baseline lint.baseline.json
//	                            # gate only on findings NOT in the committed
//	                            # baseline (new violations); stale baseline
//	                            # entries are reported, not fatal
//	triosimvet -write-baseline lint.baseline.json
//	                            # accept the current findings as the baseline
//	triosimvet -replay          # runtime gate: run a workload twice and
//	                            # compare event-schedule digests
//	triosimvet -replay -replay-serving
//	                            # also gate the request-level serving layer
//	                            # (same seed replays, different seed moves
//	                            # the digest, observers don't perturb it)
//	triosimvet -report r.json   # validate a telemetry RunReport's schema
//	                            # and accounting invariants
//	triosimvet -trace-check t.json
//	                            # validate a Chrome trace-event JSON export
//	                            # (well-formed phases, per-track monotonic ts)
//
// Exit status: 0 clean, 1 findings or replay divergence, 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"triosim/internal/core"
	"triosim/internal/faults"
	"triosim/internal/gpu"
	"triosim/internal/lint"
	"triosim/internal/serving"
	"triosim/internal/sim"
	"triosim/internal/spantrace"
	"triosim/internal/sweep"
	"triosim/internal/telemetry"
	"triosim/internal/tracecache"
)

func main() {
	var (
		jsonOut = flag.Bool("json", false, "emit findings as a JSON array")
		replay  = flag.Bool("replay", false,
			"run the replay-digest determinism check instead of static analysis")
		replayModel = flag.String("replay-model", "resnet18",
			"model zoo workload for -replay")
		replayN      = flag.Int("replay-runs", 2, "simulation repetitions for -replay")
		replayFaults = flag.Bool("replay-faults", false,
			"with -replay: also check fault-injection determinism (no-op schedule identity + seeded-schedule replay)")
		replayFaultSeed = flag.Int64("replay-fault-seed", 7,
			"fault-generator seed for -replay-faults and -replay-serving's faulted leg")
		replayServing = flag.Bool("replay-serving", false,
			"with -replay: also check request-level serving determinism (seeded replay identity, seed sensitivity, observer transparency)")
		baselinePath = flag.String("baseline", "",
			"compare findings against an accepted-findings baseline file; only new findings fail")
		writeBaseline = flag.String("write-baseline", "",
			"write the current findings to a baseline file and exit 0")
		reportPath = flag.String("report", "",
			"validate a telemetry RunReport JSON file instead of static analysis")
		traceCheckPath = flag.String("trace-check", "",
			"validate a Chrome trace-event JSON file instead of static analysis")
		cacheSmoke = flag.Bool("cache-smoke", false,
			"run the trace-cache effectiveness smoke: a small sweep twice over one shared cache (second pass must hit, digests must match a cache-off run)")
	)
	flag.Parse()

	if *reportPath != "" {
		os.Exit(runReportCheck(*reportPath))
	}
	if *traceCheckPath != "" {
		os.Exit(runTraceCheck(*traceCheckPath))
	}
	if *cacheSmoke {
		os.Exit(runCacheSmoke(*replayModel))
	}
	if *replay {
		code := runReplay(*replayModel, *replayN, *replayFaults,
			*replayFaultSeed)
		if code == 0 && *replayServing {
			code = runServingReplay(*replayN, *replayFaultSeed)
		}
		os.Exit(code)
	}
	os.Exit(runLint(*jsonOut, *baselinePath, *writeBaseline))
}

// runReportCheck validates a RunReport file: schema tag, per-GPU time
// accounting (compute + exposed comm + exposed host + idle = total), link
// utilization bounds, and collective bandwidth sanity.
func runReportCheck(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "triosimvet: -report:", err)
		return 2
	}
	rep, err := telemetry.ParseReport(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "triosimvet: -report:", err)
		return 1
	}
	if err := rep.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "triosimvet: -report:", err)
		return 1
	}
	fmt.Printf("report ok: %s %s/%s, %d GPUs, %d links, %d collectives, %v simulated\n",
		rep.Model, rep.Platform, rep.Parallelism, len(rep.GPUs),
		len(rep.Links), len(rep.Collectives), rep.TotalSec)
	fmt.Printf("engine: %d events, queue high-water %d\n",
		rep.Engine.Events, rep.Engine.QueueHighWater)
	if tc := rep.TraceCache; tc != nil {
		fmt.Printf("trace cache: %d/%d trace hits/misses, %d/%d timer hits/misses, %d traces (~%d bytes)\n",
			tc.TraceHits, tc.TraceMisses, tc.TimerHits, tc.TimerMisses,
			tc.Traces, tc.Bytes)
	}
	return 0
}

// runTraceCheck validates a Chrome trace-event JSON export: every event has
// a known phase, duration events carry ts/pid/tid with per-track monotonic
// timestamps, counters carry values, and flow ends match flow starts.
func runTraceCheck(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "triosimvet: -trace-check:", err)
		return 2
	}
	if err := spantrace.ValidateChromeTrace(data); err != nil {
		fmt.Fprintln(os.Stderr, "triosimvet: -trace-check:", err)
		return 1
	}
	fmt.Printf("trace ok: %s (%d bytes)\n", path, len(data))
	return 0
}

func runLint(jsonOut bool, baselinePath, writeBaseline string) int {
	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "triosimvet:", err)
		return 2
	}
	mod, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "triosimvet:", err)
		return 2
	}
	findings := lint.Run(mod)

	if writeBaseline != "" {
		b := lint.NewBaseline(root, findings)
		if err := b.Write(writeBaseline); err != nil {
			fmt.Fprintln(os.Stderr, "triosimvet: -write-baseline:", err)
			return 2
		}
		fmt.Printf("baseline written: %s (%d accepted finding(s))\n",
			writeBaseline, len(findings))
		return 0
	}

	if baselinePath != "" {
		b, err := lint.ReadBaseline(baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "triosimvet: -baseline:", err)
			return 2
		}
		diff := b.Diff(root, findings)
		// Stale entries are informational: the violation was fixed, the
		// baseline should be regenerated to shrink.
		for _, e := range diff.Stale {
			fmt.Fprintf(os.Stderr,
				"triosimvet: stale baseline entry (fixed? regenerate with -write-baseline): [%s] %s: %s\n",
				e.Analyzer, e.File, e.Message)
		}
		// Only new findings are reported and gate the exit status.
		findings = diff.New
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "triosimvet:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			rel := f
			if r, err := filepath.Rel(root, f.File); err == nil {
				rel.File = r
			}
			fmt.Println(rel)
		}
	}
	if len(findings) > 0 {
		if !jsonOut {
			fmt.Fprintf(os.Stderr, "triosimvet: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}

// replayRuns runs one workload runs times and checks that every run
// dispatches the first run's event schedule (digest and count) and predicts
// its time. It returns the first run and 0 when all agree, 1 on a
// divergence, and 2 when a run fails; gate names the check in messages.
func replayRuns(gate string, runs int,
	run func() (*core.Result, error)) (*core.Result, int) {

	var first *core.Result
	for i := 0; i < runs; i++ {
		res, err := run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "triosimvet: %s: %v\n", gate, err)
			return nil, 2
		}
		if first == nil {
			first = res
			continue
		}
		if res.EventDigest != first.EventDigest ||
			res.Events != first.Events ||
			res.TotalTime != first.TotalTime {
			fmt.Fprintf(os.Stderr,
				"triosimvet: %s: divergence on run %d: digest %#x (%d events, %v) vs %#x (%d events, %v)\n",
				gate, i+1, res.EventDigest, res.Events, res.TotalTime,
				first.EventDigest, first.Events, first.TotalTime)
			return nil, 1
		}
	}
	return first, 0
}

// sameSchedule runs a variant of base's workload once and checks that it
// dispatches base's event schedule; what names the variant in messages.
func sameSchedule(gate, what string, base *core.Result,
	run func() (*core.Result, error)) int {

	res, err := run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "triosimvet: %s: %v\n", gate, err)
		return 2
	}
	if res.EventDigest != base.EventDigest || res.Events != base.Events {
		fmt.Fprintf(os.Stderr,
			"triosimvet: %s: %s perturbed the schedule: digest %#x (%d events) vs %#x (%d events)\n",
			gate, what, res.EventDigest, res.Events, base.EventDigest,
			base.Events)
		return 1
	}
	return 0
}

// simulate and serve adapt one configuration to replayRuns' run function.
func simulate(cfg core.Config) func() (*core.Result, error) {
	return func() (*core.Result, error) { return core.Simulate(cfg) }
}

func serve(cfg core.ServeConfig) func() (*core.Result, error) {
	return func() (*core.Result, error) {
		res, err := core.Serve(cfg)
		if err != nil {
			return nil, err
		}
		return &res.Result, nil
	}
}

// runReplay is the runtime half of the determinism gate: the same
// configuration simulated repeatedly must dispatch a byte-identical event
// schedule (same FNV-1a digest) and predict the same time.
func runReplay(model string, runs int, withFaults bool,
	faultSeed int64) int {
	if runs < 2 {
		fmt.Fprintln(os.Stderr, "triosimvet: -replay-runs must be >= 2")
		return 2
	}
	p1 := gpu.P1
	cfg := core.Config{
		Model:       model,
		Platform:    &p1,
		Parallelism: core.DDP,
		TraceBatch:  32,
	}
	first, code := replayRuns("-replay", runs, simulate(cfg))
	if code != 0 {
		return code
	}
	// Telemetry must be observation-only: the same run with the collector
	// attached dispatches a byte-identical event schedule.
	tcfg := cfg
	tcfg.Telemetry = true
	if code := sameSchedule("-replay", "telemetry", first,
		simulate(tcfg)); code != 0 {
		return code
	}
	fmt.Printf("replay ok: %s ×%d runs (+1 with telemetry), digest %#x, %d events, %v simulated\n",
		model, runs, first.EventDigest, first.Events, first.TotalTime)
	if withFaults {
		return runFaultReplay(cfg, first, faultSeed)
	}
	return 0
}

// runFaultReplay extends the replay gate to fault injection: a no-op fault
// schedule must leave the event schedule bit-identical, and an effective
// seeded schedule must itself replay to the same digest twice.
func runFaultReplay(cfg core.Config, base *core.Result, seed int64) int {
	// Leg 1: empty / factor-1 schedules arm nothing.
	noop := cfg
	noop.Faults = &faults.Schedule{Events: []faults.Event{
		{Kind: faults.LinkDegrade, Link: 0, Factor: 1,
			Start: sim.MSec, Duration: sim.MSec},
		{Kind: faults.GPUSlowdown, GPU: 0, Factor: 1,
			Start: sim.MSec, Duration: sim.MSec},
	}}
	if code := sameSchedule("-replay-faults", "no-op fault schedule", base,
		simulate(noop)); code != 0 {
		return code
	}

	// Leg 2: a seeded effective schedule replays to the same digest.
	topo := core.BuildTopology(cfg.Platform)
	sched, err := faults.Generate(seed, faults.GenConfig{
		NumGPUs:      len(topo.GPUs()),
		NumLinks:     len(topo.Links),
		Horizon:      base.TotalTime,
		LinkDegrades: 1,
		GPUSlowdowns: 1,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "triosimvet: -replay-faults:", err)
		return 2
	}
	fcfg := cfg
	fcfg.Faults = sched
	first, code := replayRuns("-replay-faults", 2, simulate(fcfg))
	if code != 0 {
		return code
	}
	if first.EventDigest == base.EventDigest {
		fmt.Fprintf(os.Stderr,
			"triosimvet: seeded fault schedule (seed %d) had no effect on the digest\n",
			seed)
		return 1
	}
	fmt.Printf("fault replay ok: no-op identity + seed %d ×2 runs, digest %#x, %d events, %v simulated\n",
		seed, first.EventDigest, first.Events, first.TotalTime)
	return 0
}

// runServingReplay extends the replay gate to the request-level serving
// layer: the same seeded serving configuration must replay to a
// byte-identical event schedule, a different arrival seed must move the
// digest, attaching observers (telemetry + span tracing) must leave the
// schedule untouched, and a seeded fault schedule (faultSeed) must replay
// too, ending at the last response although its windows outlast the run.
func runServingReplay(runs int, faultSeed int64) int {
	const gate = "-replay-serving"
	cfg := func(seed int64, observe bool) core.ServeConfig {
		p := gpu.P1
		return core.ServeConfig{
			Platform:  &p,
			Telemetry: observe,
			SpanTrace: observe,
			Serving: serving.Config{
				Model:    "gpt2",
				MaxBatch: 4,
				Arrivals: serving.ArrivalConfig{
					Seed: seed, Rate: 300, Requests: 32,
				},
			},
		}
	}
	first, code := replayRuns(gate, runs, serve(cfg(7, false)))
	if code != 0 {
		return code
	}

	// A different arrival seed must change the workload, and with it the
	// event schedule — otherwise the seed isn't reaching the generator.
	other, err := core.Serve(cfg(8, false))
	if err != nil {
		fmt.Fprintf(os.Stderr, "triosimvet: %s: %v\n", gate, err)
		return 2
	}
	if other.EventDigest == first.EventDigest {
		fmt.Fprintf(os.Stderr,
			"triosimvet: serving arrival seed had no effect on the digest (%#x)\n",
			first.EventDigest)
		return 1
	}

	// Observers (telemetry collector + span recorder) must be record-only.
	if code := sameSchedule(gate, "serving observers", first,
		serve(cfg(7, true))); code != 0 {
		return code
	}

	// A seeded link-degrade plus GPU-slowdown schedule whose windows span
	// ten times the fault-free run: it must replay, and the run must still
	// end at its last delivered response, not at the windows' end.
	fcfg := cfg(7, true)
	topo := core.BuildTopology(fcfg.Platform)
	horizon := 10 * first.TotalTime
	fcfg.Faults, err = faults.Generate(faultSeed, faults.GenConfig{
		NumGPUs:      len(topo.GPUs()),
		NumLinks:     len(topo.Links),
		Horizon:      horizon,
		MinDuration:  horizon,
		MaxDuration:  horizon,
		LinkDegrades: 1,
		GPUSlowdowns: 1,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "triosimvet: %s: %v\n", gate, err)
		return 2
	}
	faulted, code := replayRuns(gate, 2, serve(fcfg))
	if code != 0 {
		return code
	}
	if faulted.EventDigest == first.EventDigest {
		fmt.Fprintf(os.Stderr,
			"triosimvet: %s: seeded fault schedule (seed %d) had no effect on the digest\n",
			gate, faultSeed)
		return 1
	}
	// Each request's lifetime span ends at its response's delivery.
	var done sim.VTime
	for _, sp := range faulted.Spans.Spans {
		if sp.Cat == spantrace.Request {
			done = done.Max(sp.End)
		}
	}
	if faulted.TotalTime != done || faulted.Report.TotalSec != done.Seconds() ||
		!horizon.After(done) {
		fmt.Fprintf(os.Stderr,
			"triosimvet: %s: faulted run ends at %v (report %vs), want its last response at %v, before the windows end at %v\n",
			gate, faulted.TotalTime, faulted.Report.TotalSec, done, horizon)
		return 1
	}
	fmt.Printf("serving replay ok: gpt2 ×%d runs (+1 reseeded, +1 observed, +2 with fault seed %d), digest %#x, %d events, %v simulated\n",
		runs, faultSeed, first.EventDigest, first.Events, first.TotalTime)
	return 0
}

// runCacheSmoke is the runtime gate for the trace cache: a small parallel
// sweep run twice in-process over one shared store. The second pass must be
// served entirely from cache (hits grow, misses don't), and every scenario's
// event digest must be identical across both passes AND a cache-off run —
// the cache may only save work, never change results.
func runCacheSmoke(model string) int {
	store := tracecache.New()
	grid := func(cached bool) []sweep.Scenario {
		var scs []sweep.Scenario
		for _, par := range []core.Parallelism{core.DP, core.DDP, core.TP} {
			par := par
			scs = append(scs, sweep.Scenario{
				Name: string(par),
				Build: func() core.Config {
					p := gpu.P1
					cfg := core.Config{
						Model: model, Platform: &p, Parallelism: par,
						TraceBatch: 32,
					}
					if cached {
						cfg.Cache = store
					}
					return cfg
				},
			})
		}
		return scs
	}
	run := func(label string, opts sweep.Options,
		scs []sweep.Scenario) ([]sweep.Result[sweep.SimResult], bool) {
		res := sweep.Simulate(opts, scs)
		if err := sweep.FirstErr(res); err != nil {
			fmt.Fprintf(os.Stderr, "triosimvet: -cache-smoke %s: %v\n",
				label, err)
			return nil, false
		}
		return res, true
	}

	first, ok := run("pass 1", sweep.Options{Workers: 4}, grid(true))
	if !ok {
		return 2
	}
	st1 := store.Stats()
	if st1.TraceMisses == 0 {
		fmt.Fprintln(os.Stderr,
			"triosimvet: -cache-smoke: first pass never built a trace")
		return 1
	}
	second, ok := run("pass 2", sweep.Options{Workers: 4}, grid(true))
	if !ok {
		return 2
	}
	st2 := store.Stats()
	if st2.TraceHits <= st1.TraceHits {
		fmt.Fprintf(os.Stderr,
			"triosimvet: -cache-smoke: second pass took no cache hits (%d before, %d after)\n",
			st1.TraceHits, st2.TraceHits)
		return 1
	}
	if st2.TraceMisses != st1.TraceMisses {
		fmt.Fprintf(os.Stderr,
			"triosimvet: -cache-smoke: second pass rebuilt traces (%d misses, was %d)\n",
			st2.TraceMisses, st1.TraceMisses)
		return 1
	}
	uncached, ok := run("cache-off", sweep.Options{Workers: 4, NoTraceCache: true},
		grid(false))
	if !ok {
		return 2
	}
	for i := range first {
		f, s, u := first[i].Value, second[i].Value, uncached[i].Value
		if f.Res.EventDigest != s.Res.EventDigest ||
			f.Res.EventDigest != u.Res.EventDigest {
			fmt.Fprintf(os.Stderr,
				"triosimvet: -cache-smoke: %s digest differs: pass1 %#x, pass2 %#x, cache-off %#x\n",
				f.Name, f.Res.EventDigest, s.Res.EventDigest,
				u.Res.EventDigest)
			return 1
		}
	}
	fmt.Printf("cache smoke ok: %s ×%d scenarios ×2 passes, %d/%d trace hits/misses, %d traces (~%d bytes), digests match cache-off\n",
		model, len(first), st2.TraceHits, st2.TraceMisses, st2.Traces,
		st2.Bytes)
	return 0
}

// findModuleRoot walks up from the working directory to the enclosing go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
