package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []boundDef `json:"end_to_end"`
}

// boundDef is one end-to-end metric's direction and regression bound (a
// share of the parent's median).
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Verdicts of a compare row.
const (
	verdictGain       = "gain"
	verdictSame       = "within bound"
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictDigest     = "DIGEST CHANGED"
	verdictMoreFailed = "MORE FAILED"
	verdictInvalid    = "INVALID RUNS"
	verdictMissing    = "MISSING RUNS"
)

// Gain rules: at least minPairs pairs, and the change wins at least
// winShare of them.
const (
	minPairs = 10
	winShare = 0.9
)

// row is one workload × metric line of a comparison.
type row struct {
	workload, metric string
	oldMed, newMed   float64
	change           float64 // (after − before)/before
	bound, oldSpread float64
	wins, pairs      int
	verdict, note    string
	// check marks a pass/fail row (failures, digests, validity) that has
	// no bound or pairs.
	check bool
}

// compareMetric applies the rules, in order, to one metric's runs: before and
// after are per-run values in run order, paired by index; alternating says
// whether the two sides' runs were made alternately.
func compareMetric(def boundDef, before, after []float64, alternating bool) row {
	r := row{metric: def.Name, bound: def.Bound}
	q1, oldMed, q3 := quartiles(before)
	_, newMed, _ := quartiles(after)
	r.oldMed, r.newMed = oldMed, newMed
	if oldMed != 0 {
		r.change = (newMed - oldMed) / math.Abs(oldMed)
		r.oldSpread = (q3 - q1) / math.Abs(oldMed)
	}
	// better(a, b) reports whether value a reads better than b.
	better := func(a, b float64) bool {
		if def.Better == "higher" {
			return a > b
		}
		return a < b
	}
	r.pairs = min(len(before), len(after))
	for i := 0; i < r.pairs; i++ {
		if better(after[i], before[i]) {
			r.wins++
		}
	}
	// worse is the change in the bad direction, as a share of the parent.
	worse := r.change
	if def.Better == "higher" {
		worse = -worse
	}
	allBetter, allWorse := true, true
	for _, n := range after {
		for _, o := range before {
			allBetter = allBetter && better(n, o)
			allWorse = allWorse && better(o, n)
		}
	}
	gain := r.pairs >= minPairs && alternating &&
		float64(r.wins) >= math.Ceil(winShare*float64(r.pairs)) &&
		math.Abs(newMed-oldMed) > q3-q1 && better(newMed, oldMed)

	switch {
	case r.oldSpread > def.Bound && !allBetter && !allWorse:
		r.verdict = verdictUnresolved
		r.note = "parent's spread exceeds the bound"
	case worse > def.Bound:
		r.verdict = verdictRegression
	case gain:
		r.verdict = verdictGain
	default:
		r.verdict = verdictSame
		switch {
		case r.pairs < minPairs:
			r.note = fmt.Sprintf("a gain needs %d pairs", minPairs)
		case !alternating:
			r.note = "a gain needs alternating runs"
		}
	}
	return r
}

// alternates reports whether, ordered by start time, the runs of the two
// sides alternate.
func alternates(before, after []runResult) bool {
	type mark struct {
		t      int64
		parent bool
	}
	var ms []mark
	for _, r := range before {
		ms = append(ms, mark{r.Started.UnixNano(), true})
	}
	for _, r := range after {
		ms = append(ms, mark{r.Started.UnixNano(), false})
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].t < ms[j].t })
	for i := 1; i < len(ms); i++ {
		if ms[i].parent == ms[i-1].parent {
			return false
		}
	}
	return true
}

// compareWorkload compares one workload's runs on every end-to-end metric,
// then checks failures, output digests and generator validity. The two sides
// must hold the same number of runs: a run that crashed leaves no result, so
// a missing one blocks the change, and a side with none is not compared.
func compareWorkload(w string, defs []boundDef, before, after []runResult) []row {
	var rows []row
	if len(before) != len(after) {
		rows = append(rows, row{workload: w, metric: "runs", check: true,
			verdict: verdictMissing,
			note:    fmt.Sprintf("%d parent runs, %d change runs", len(before), len(after))})
		if len(before) == 0 || len(after) == 0 {
			return rows
		}
	}
	alt := alternates(before, after)
	for _, d := range defs {
		var ov, nv []float64
		for _, r := range before {
			ov = append(ov, r.Metrics[d.Name].Value)
		}
		for _, r := range after {
			nv = append(nv, r.Metrics[d.Name].Value)
		}
		r := compareMetric(d, ov, nv, alt)
		r.workload = w
		rows = append(rows, r)
	}

	failedRatio := func(rs []runResult) float64 {
		a, f := 0, 0
		for _, r := range rs {
			a += r.Attempted
			f += r.Failed
		}
		if a == 0 {
			return 1
		}
		return float64(f) / float64(a)
	}
	fr := row{workload: w, metric: "failed_ratio", oldMed: failedRatio(before),
		newMed: failedRatio(after), verdict: verdictOK, check: true}
	if fr.newMed > fr.oldMed {
		fr.verdict = verdictMoreFailed
	}
	rows = append(rows, fr)

	// Runs of one seed must all produce the same outputs.
	digests := map[int64]map[string]bool{}
	for _, rs := range [][]runResult{before, after} {
		for _, r := range rs {
			d, _ := r.Info["output_digest"].(string)
			if digests[r.Seed] == nil {
				digests[r.Seed] = map[string]bool{}
			}
			digests[r.Seed][d] = true
		}
	}
	dr := row{workload: w, metric: "output_digest", verdict: verdictOK,
		note: "identical in every run", check: true}
	for seed, ds := range digests {
		if len(ds) > 1 {
			dr.verdict = verdictDigest
			dr.note = fmt.Sprintf("%d different digests for seed %d", len(ds),
				seed)
		}
	}
	rows = append(rows, dr)

	invalid := 0
	for _, rs := range [][]runResult{before, after} {
		for _, r := range rs {
			if _, ok := r.Info["invalid"]; ok {
				invalid++
			}
		}
	}
	if invalid > 0 {
		rows = append(rows, row{workload: w, metric: "runs", check: true,
			verdict: verdictInvalid,
			note:    fmt.Sprintf("%d runs flagged invalid", invalid)})
	}
	return rows
}

// bad reports whether a verdict blocks a change.
func bad(v string) bool {
	switch v {
	case verdictRegression, verdictDigest, verdictMoreFailed, verdictInvalid,
		verdictMissing:
		return true
	}
	return false
}

func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	oldPat := fs.String("old", "", "glob of the parent's result files (quote it)")
	newPat := fs.String("new", "", "glob of the change's result files (quote it)")
	specPath := fs.String("bounds", "BENCHMARK.json", "file with the metrics' directions and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *oldPat == "" || *newPat == "" || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench compare: need -old and -new globs")
		return 2
	}
	data, err := os.ReadFile(*specPath)
	var spec benchSpec
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	before, err := loadRuns(*oldPat)
	if err == nil {
		var after []runResult
		after, err = loadRuns(*newPat)
		if err == nil {
			return printComparison(stdout, spec.EndToEnd, before, after)
		}
	}
	fmt.Fprintln(stderr, "bench compare:", err)
	return 2
}

// printComparison prints one row per workload × metric and returns 1 when
// any row blocks the change.
func printComparison(w io.Writer, defs []boundDef, before, after []runResult) int {
	byWorkload := func(rs []runResult) map[string][]runResult {
		m := map[string][]runResult{}
		for _, r := range rs {
			if !r.Trace {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	ow, nw := byWorkload(before), byWorkload(after)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median\tnew median\tchange\tbound\told spread\twins/pairs\tverdict\tnote")
	status, compared := 0, 0
	for _, wl := range workloads {
		if len(ow[wl]) == 0 && len(nw[wl]) == 0 {
			continue
		}
		compared++
		for _, r := range compareWorkload(wl, defs, ow[wl], nw[wl]) {
			switch {
			case r.metric == "failed_ratio":
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t\t\t\t\t%s\t%s\n",
					r.workload, r.metric, r.oldMed, r.newMed, r.verdict, r.note)
			case r.check:
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\t\t%s\t%s\n",
					r.workload, r.metric, r.verdict, r.note)
			default:
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%.2f%%\t%d/%d\t%s\t%s\n",
					r.workload, r.metric, r.oldMed, r.newMed, 100*r.change,
					100*r.bound, 100*r.oldSpread, r.wins, r.pairs, r.verdict,
					r.note)
			}
			if bad(r.verdict) {
				status = 1
			}
		}
	}
	tw.Flush()
	if compared == 0 {
		fmt.Fprintln(stderr, "bench compare: no untraced runs to compare")
		return 1
	}
	return status
}
