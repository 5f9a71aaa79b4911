package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"triosim/internal/core"
	"triosim/internal/faults"
	"triosim/internal/gpu"
	"triosim/internal/tracecache"
)

func TestMain(m *testing.M) {
	stderr = io.Discard
	os.Exit(m.Run())
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{1000, 99, 10, true},
		{999, 99, 9, false},
		{100, 90, 10, true},
		{99, 90, 9, false},
		{3, 90, 0, false},
		{0, 99, 0, false},
	} {
		if got := beyond(c.n, c.p); got != c.beyond {
			t.Errorf("beyond(%d, p%v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
		if got := tailReportable(c.n, c.p); got != c.ok {
			t.Errorf("tailReportable(%d, p%v) = %v, want %v", c.n, c.p, got, c.ok)
		}
	}
}

// The quartiles must match Python's statistics.quantiles(xs, n=4), which
// is how the spread of a metric across runs is judged.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 3, 2, 1}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1, 9}, [3]float64{1, 5, 9}},
		{[]float64{3.5, 1.25}, [3]float64{0.6875, 2.375, 4.0625}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSeedsDetermineInputs(t *testing.T) {
	sched := func(seed int64) []arrival {
		return openSchedule(seed, 2, 23, 45, 2*time.Second)
	}
	if !reflect.DeepEqual(sched(7), sched(7)) {
		t.Error("one seed gave two arrival schedules")
	}
	if reflect.DeepEqual(sched(7), sched(8)) {
		t.Error("two seeds gave the same arrival schedule")
	}
	if n := len(sched(7)); n != 90 {
		t.Errorf("schedule has %d arrivals, want rate·duration = 90", n)
	}

	counts := func(picks []int) map[int]int {
		m := map[int]int{}
		for _, p := range picks {
			m[p]++
		}
		return m
	}
	a := zipfPicks(newRand(1, 4), 23, 800)
	b := zipfPicks(newRand(2, 4), 23, 800)
	if !reflect.DeepEqual(counts(a), counts(b)) {
		t.Error("seeds changed the request mix, not only its order")
	}
	if reflect.DeepEqual(a, b) {
		t.Error("two seeds gave the same request sequence")
	}
	if !reflect.DeepEqual(a, zipfPicks(newRand(1, 4), 23, 800)) {
		t.Error("one seed gave two request sequences")
	}
	if c := counts(a); c[0] <= c[1] || c[1] <= c[22] || c[22] == 0 {
		t.Errorf("picks are not Zipf-ranked: %v", c)
	}

	names := func(seed int64) []string {
		var out []string
		for _, s := range sweepScenarios(false, seed) {
			out = append(out, s.name)
		}
		return out
	}
	if len(names(1)) != 216 {
		t.Errorf("sweep has %d scenarios, want 18 models × 3 platforms × 4 = 216",
			len(names(1)))
	}
	if !reflect.DeepEqual(names(1), names(1)) {
		t.Error("one seed gave two sweep orders")
	}
	if reflect.DeepEqual(names(1), names(2)) {
		t.Error("two seeds gave the same sweep order")
	}

	mixBodies := func(seed int64) [][]byte {
		mix, err := daemonMix(seed, false)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, m := range mix {
			out = append(out, m.body)
		}
		return out
	}
	if !reflect.DeepEqual(mixBodies(3), mixBodies(3)) {
		t.Error("one seed gave two request mixes")
	}
	if reflect.DeepEqual(mixBodies(3), mixBodies(4)) {
		t.Error("two seeds gave the same serving arrivals")
	}
}

func TestSelfTimes(t *testing.T) {
	us := time.Microsecond
	spans := []span{
		{Name: "op", ID: 0, Parent: -1, Start: 0, End: 100 * us},
		{Name: "a", ID: 1, Parent: 0, Start: 10 * us, End: 40 * us},
		{Name: "b", ID: 2, Parent: 0, Start: 30 * us, End: 60 * us},
		{Name: "c", ID: 3, Parent: 0, Start: 70 * us, End: 80 * us},
		{Name: "a1", ID: 4, Parent: 1, Start: 15 * us, End: 20 * us},
		// A child running past its parent counts only inside it.
		{Name: "c1", ID: 5, Parent: 3, Start: 75 * us, End: 90 * us},
	}
	want := []time.Duration{40 * us, 25 * us, 30 * us, 5 * us, 5 * us, 15 * us}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	// The descendants' self times cover 80 of the root's 100 µs.
	if got := opCoverage(spans, "op")[0]; math.Abs(got-0.8) > 1e-12 {
		t.Errorf("coverage %v, want 0.8", got)
	}
	if got := layerSelf(spans)["a"]; got != 25*us {
		t.Errorf("layer a self %v, want 25µs", got)
	}
}

func TestCompareRules(t *testing.T) {
	lower := boundDef{Name: "op_ms_p50", Better: "lower", Bound: 0.1}
	higher := boundDef{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	loose := boundDef{Name: "op_ms_p50", Better: "lower", Bound: 0.25}
	seq := func(base, step float64, n int) []float64 {
		var out []float64
		for i := 0; i < n; i++ {
			out = append(out, base+step*float64(i%3))
		}
		return out
	}
	old := seq(100, 1, 10) // median 101, IQR 2
	for _, c := range []struct {
		name        string
		def         boundDef
		old, new    []float64
		alternating bool
		want        string
	}{
		{"ten clear wins", lower, old, seq(90, 1, 10), true, verdictGain},
		{"nine of ten wins", lower, old,
			append(seq(90, 1, 9), 120), true, verdictGain},
		{"eight of ten wins", lower, old,
			append(seq(90, 1, 8), 120, 120), true, verdictSame},
		{"ties count for neither side", lower, old,
			append(seq(90, 1, 8), old[8], old[9]), true, verdictSame},
		{"nine wins and a tie", lower, old,
			append(seq(90, 1, 9), old[9]), true, verdictGain},
		{"fewer than ten pairs", lower, old[:9], seq(90, 1, 9), true,
			verdictSame},
		{"runs not alternating", lower, old, seq(90, 1, 10), false,
			verdictSame},
		{"gap within the parent's spread", loose, seq(100, 10, 10),
			seq(95, 10, 10), true, verdictSame},
		{"worse beyond the bound", lower, old, seq(120, 1, 10), true,
			verdictRegression},
		{"worse within the bound", lower, old, seq(105, 1, 10), true,
			verdictSame},
		{"higher is better", higher, old, seq(120, 1, 10), true, verdictGain},
		{"lower throughput", higher, old, seq(80, 1, 10), true,
			verdictRegression},
		{"parent spread over the bound", lower, seq(100, 30, 10),
			seq(125, 1, 10), true, verdictUnresolved},
		{"every run worse despite the spread", lower, seq(100, 30, 10),
			seq(200, 1, 10), true, verdictRegression},
	} {
		if got := compareMetric(c.def, c.old, c.new, c.alternating); got.verdict != c.want {
			t.Errorf("%s: verdict %q (%+v), want %q", c.name, got.verdict, got,
				c.want)
		}
	}
}

func TestCompareChecksDigestsAndFailures(t *testing.T) {
	run := func(start int, digest string, failed int) runResult {
		return runResult{Workload: "cluster-2k-exact", Seed: 1, Attempted: 10,
			Failed: failed, Started: time.Unix(int64(start), 0),
			Metrics: map[string]metricValue{"op_ms_p50": {Value: 100}},
			Info:    map[string]any{"output_digest": digest}}
	}
	defs := []boundDef{{Name: "op_ms_p50", Better: "lower", Bound: 0.1}}
	verdicts := func(before, after []runResult) map[string]string {
		out := map[string]string{}
		for _, r := range compareWorkload("cluster-2k-exact", defs, before, after) {
			out[r.metric] = r.verdict
		}
		return out
	}
	same := verdicts([]runResult{run(0, "x", 0)}, []runResult{run(1, "x", 0)})
	if same["output_digest"] != verdictOK || same["failed_ratio"] != verdictOK {
		t.Errorf("identical runs: %v", same)
	}
	if v := verdicts([]runResult{run(0, "x", 0)},
		[]runResult{run(1, "y", 0)}); v["output_digest"] != verdictDigest {
		t.Errorf("changed digest: %v", v)
	}
	if v := verdicts([]runResult{run(0, "x", 0)},
		[]runResult{run(1, "x", 1)}); v["failed_ratio"] != verdictMoreFailed {
		t.Errorf("more failures: %v", v)
	}
	if v := verdicts([]runResult{run(0, "x", 0), run(2, "x", 0)},
		[]runResult{run(1, "x", 0)}); v["runs"] != verdictMissing {
		t.Errorf("a change run missing: %v", v)
	}
	for _, c := range []struct {
		name          string
		before, after []runResult
	}{
		{"a changed digest", []runResult{run(0, "x", 0)}, []runResult{run(1, "y", 0)}},
		// A workload whose child crashed leaves no result on that side.
		{"the workload missing from the change",
			[]runResult{run(0, "x", 0), run(2, "x", 0)}, nil},
		{"the workload missing from the parent", nil, []runResult{run(1, "x", 0)}},
		{"one run fewer", []runResult{run(0, "x", 0), run(2, "x", 0)},
			[]runResult{run(1, "x", 0)}},
		{"nothing to compare", nil, nil},
	} {
		var buf bytes.Buffer
		if status := printComparison(&buf, defs, c.before, c.after); status != 1 {
			t.Errorf("%s exits %d, want 1:\n%s", c.name, status, buf.String())
		}
	}
	var buf bytes.Buffer
	if status := printComparison(&buf, defs, []runResult{run(0, "x", 0)},
		[]runResult{run(1, "x", 0)}); status != 0 {
		t.Errorf("identical runs exit %d, want 0:\n%s", status, buf.String())
	}
}

// The traced pipeline copy must reproduce core.Simulate exactly for every
// parallelism it supports.
func TestPipelineCopyMatchesSimulate(t *testing.T) {
	p2 := gpu.P2
	sched, err := faults.Parse([]byte(`{"events":[{"kind":"link-degrade",` +
		`"link":0,"factor":4,"duration_sec":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	small := clusterSpecFor("cluster-2k-exact", true)
	approx := clusterSpecFor("cluster-10k-approx", true)
	cases := []struct {
		name string
		cfg  func() core.Config
	}{
		{"dp", func() core.Config {
			return core.Config{Model: "resnet18", Platform: &p2, Parallelism: core.DP}
		}},
		{"ddp", func() core.Config {
			return core.Config{Model: "resnet18", Platform: &p2, Parallelism: core.DDP}
		}},
		{"tp", func() core.Config {
			return core.Config{Model: "gpt2", Platform: &p2, Parallelism: core.TP}
		}},
		{"pp", func() core.Config {
			return core.Config{Model: "resnet18", Platform: &p2,
				Parallelism: core.PP, MicroBatches: 2}
		}},
		{"ddp with a link fault", func() core.Config {
			return core.Config{Model: "resnet18", Platform: &p2,
				Parallelism: core.DDP, Faults: sched}
		}},
		{"dp+tp+pp exact", func() core.Config {
			cfg := small.config()
			cfg.Topology = small.topology()
			return cfg
		}},
		{"dp+tp+pp approximate", func() core.Config {
			cfg := approx.config()
			cfg.Topology = approx.topology()
			return cfg
		}},
	}
	log := newSpanLog()
	op := 0
	for _, c := range cases {
		for _, cached := range []bool{false, true} {
			var cache *tracecache.Store
			if cached {
				cache = tracecache.New()
			}
			cfg := c.cfg()
			cfg.Cache = cache
			res, err := core.Simulate(cfg)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			cfg = c.cfg()
			cfg.Cache = cache
			got, n, err := tracedSimulate(log, op, c.name, cfg, nil)
			op++
			if err != nil {
				t.Fatalf("%s: traced: %v", c.name, err)
			}
			if want := outputOf(res); got != want {
				t.Errorf("%s (cache %v): copy %+v, core.Simulate %+v", c.name,
					cached, got, want)
			}
			if n.tasks != res.Tasks || n.events != res.Events ||
				n.tasksDone != res.Tasks {
				t.Errorf("%s: counts %+v, core.Simulate has %d tasks, %d events",
					c.name, n, res.Tasks, res.Events)
			}
		}
	}
	for op, cov := range opCoverage(log.spans, spanOp) {
		if cov < 0.95 || cov > 1.05 {
			t.Errorf("op %d: layer self times cover %.3f of its wall time", op, cov)
		}
	}
	if _, _, err := tracedSimulate(log, op, "zero1", core.Config{
		Model: "resnet18", Platform: &p2, Parallelism: core.ZeRO1}, nil); err == nil {
		t.Error("the copy accepted a parallelism it does not implement")
	}
}

// benchmarkJSON is BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, workloads)
	}
	var e2e, layers []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range b.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, code reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer %v, code reports %v", layers, perLayer)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
}

// TestSmoke runs every workload, untraced and traced, at smoke scale through
// the same command line the benchmark is driven with, and checks the
// machine-read last line.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			args := []string{"--workload", w, "--seed", "5", "--seconds", "0.3",
				"--trace", trace, "--scale", "smoke"}
			if status := runMain(args, &out); status != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s", w, trace, status, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var got map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s: last line: %v", w, err)
			}
			var keys []string
			for k := range got {
				keys = append(keys, k)
			}
			if len(keys) != 4 {
				t.Errorf("%s: last line has keys %v", w, keys)
			}
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]metricValue
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace %s: %+v\n%s", w, trace, res, out.String())
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %s: %d metrics, want %d", w, trace,
					len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok || m.Unit != d.unit:
					t.Errorf("%s: metric %s missing or in %q", w, d.name, m.Unit)
				case trace == "0" && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v", w, d.name, m.Value)
				case d.unit == "ms" && m.Value <= 0:
					t.Errorf("%s: layer time %s is %v", w, d.name, m.Value)
				}
			}
		}
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--trace", "2"},
		{"--scale", "huge"},
		{"--seconds", "0"},
		{"extra"},
	} {
		if status := runMain(args, io.Discard); status != 2 {
			t.Errorf("%v: exit %d, want 2", args, status)
		}
	}
}
