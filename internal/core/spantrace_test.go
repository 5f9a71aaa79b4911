package core

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"triosim/internal/faults"
	"triosim/internal/gpu"
	"triosim/internal/spantrace"
	"triosim/internal/telemetry"
)

// TestSpanTraceDoesNotPerturbSchedule pins the observation-only contract for
// span tracing, the same way telemetry's digest-identity test does: the same
// configuration dispatches a byte-identical event schedule with the span
// recorder attached and without it.
func TestSpanTraceDoesNotPerturbSchedule(t *testing.T) {
	cfg := Config{
		Model: "resnet18", Platform: p1(), Parallelism: DDP,
		TraceBatch: 32,
	}
	plain, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Spans != nil || plain.CriticalPath != nil {
		t.Fatal("span tracing off should leave Spans and CriticalPath nil")
	}
	cfg.SpanTrace = true
	traced, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Spans == nil || traced.CriticalPath == nil {
		t.Fatal("span tracing on should produce Spans and CriticalPath")
	}
	if traced.EventDigest != plain.EventDigest {
		t.Fatalf("span tracing perturbed the event schedule: %#x vs %#x",
			traced.EventDigest, plain.EventDigest)
	}
	if traced.Events != plain.Events || traced.TotalTime != plain.TotalTime ||
		traced.OutcomeDigest != plain.OutcomeDigest {
		t.Fatalf("span tracing changed the outcome: %d events %v vs %d events %v",
			traced.Events, traced.TotalTime, plain.Events, plain.TotalTime)
	}
	// One span per executed task.
	if len(traced.Spans.Spans) != traced.Tasks {
		t.Fatalf("recorded %d spans for %d tasks",
			len(traced.Spans.Spans), traced.Tasks)
	}
}

// TestSpanTraceDigestIdentityUnderFaults extends the identity to faulted
// runs: fault windows are recorded as marker spans without touching the
// schedule.
func TestSpanTraceDigestIdentityUnderFaults(t *testing.T) {
	cfg := Config{
		Model: "resnet18", Platform: p1(), Parallelism: DDP,
		TraceBatch: 32,
		Faults: &faults.Schedule{Events: []faults.Event{{
			Kind: faults.GPUSlowdown, GPU: 1, Factor: 2,
			Start: 0, Duration: 10,
		}}},
	}
	plain, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SpanTrace = true
	traced, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if traced.EventDigest != plain.EventDigest ||
		traced.Events != plain.Events {
		t.Fatalf("span tracing perturbed the faulted schedule: %#x (%d) vs %#x (%d)",
			traced.EventDigest, traced.Events,
			plain.EventDigest, plain.Events)
	}
	var faultSpans int
	for i := range traced.Spans.Spans {
		if traced.Spans.Spans[i].Cat == spantrace.Fault {
			faultSpans++
		}
	}
	if faultSpans == 0 {
		t.Fatal("faulted run recorded no fault-window spans")
	}
	// The straggler must surface as fault stretch on the critical path.
	if traced.CriticalPath.Attribution.FaultStretchSec <= 0 {
		t.Fatalf("straggler run attributed no fault stretch: %+v",
			traced.CriticalPath.Attribution)
	}
}

// TestSolveWallSeriesNeedsClock: with a clock injected, the span logs of
// both a training and a serving run carry the solver's wall-time series;
// without one, neither does, so clockless traces stay deterministic.
func TestSolveWallSeriesNeedsClock(t *testing.T) {
	tick := func() func() time.Time {
		now := time.Unix(0, 0)
		return func() time.Time {
			now = now.Add(time.Millisecond)
			return now
		}
	}
	hasSolveWall := func(l *spantrace.Log) bool {
		for _, cs := range l.Counters {
			if cs.Name == spantrace.CounterSolveWallMs {
				return len(cs.Samples) > 0
			}
		}
		return false
	}
	for _, clocked := range []bool{false, true} {
		cfg := Config{Model: "resnet18", Platform: p1(), Parallelism: DDP,
			TraceBatch: 32, SpanTrace: true}
		scfg := serveConfig()
		if clocked {
			cfg.Clock, scfg.Clock = tick(), tick()
		}
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sres, err := Serve(scfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := hasSolveWall(res.Spans); got != clocked {
			t.Errorf("Simulate, clock %v: %s series present = %v",
				clocked, spantrace.CounterSolveWallMs, got)
		}
		if got := hasSolveWall(sres.Spans); got != clocked {
			t.Errorf("Serve, clock %v: %s series present = %v",
				clocked, spantrace.CounterSolveWallMs, got)
		}
	}
}

// TestCriticalPathBoundedByMakespan checks the acceptance invariant across
// platforms and strategies: the extracted path validates and never exceeds
// the simulated makespan.
func TestCriticalPathBoundedByMakespan(t *testing.T) {
	cases := []struct {
		plat *gpu.Platform
		par  Parallelism
	}{
		{p1(), DDP}, {p1(), TP}, {p1(), PP},
		{p2(), DDP}, {p2(), TP},
	}
	for _, c := range cases {
		cfg := Config{
			Model: "resnet18", Platform: c.plat, Parallelism: c.par,
			TraceBatch: 32, SpanTrace: true,
		}
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.plat.Name, c.par, err)
		}
		cp := res.CriticalPath
		if err := cp.Validate(); err != nil {
			t.Fatalf("%s/%s: %v", c.plat.Name, c.par, err)
		}
		total := res.TotalTime.Seconds()
		tol := 1e-6 * total
		if cp.LengthSec > total+tol {
			t.Fatalf("%s/%s: critical path %g exceeds makespan %g",
				c.plat.Name, c.par, cp.LengthSec, total)
		}
		if len(cp.Steps) == 0 {
			t.Fatalf("%s/%s: empty critical path", c.plat.Name, c.par)
		}
	}
}

// TestSpanTraceInRunReport: with telemetry on, the critical path rides in
// the RunReport and the report (including the embedded path) validates.
func TestSpanTraceInRunReport(t *testing.T) {
	cfg := Config{
		Model: "resnet18", Platform: p1(), Parallelism: DDP,
		TraceBatch: 32, SpanTrace: true, Telemetry: true,
	}
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil || res.Report.CriticalPath == nil {
		t.Fatal("RunReport missing the critical-path section")
	}
	if err := res.Report.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSpanTraceChromeExport: a real run's exported trace passes the
// trace-event validator (the property check.sh's smoke leg gates on).
func TestSpanTraceChromeExport(t *testing.T) {
	cfg := Config{
		Model: "resnet18", Platform: p1(), Parallelism: DDP,
		TraceBatch: 32, SpanTrace: true,
	}
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/trace.json"
	if err := res.Spans.WriteChromeTraceFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := spantrace.ValidateChromeTrace(data); err != nil {
		t.Fatal(err)
	}
}

// TestTimelineHTMLHighlightsEachCriticalStepOnce: under data parallelism
// every GPU runs the same label at the same time, so the HTML view must
// match critical steps by task id, not by label and time. It outlines
// exactly one bar per critical compute, comm or host-load step.
func TestTimelineHTMLHighlightsEachCriticalStepOnce(t *testing.T) {
	res, err := Simulate(Config{
		Model: "resnet18", Platform: p1(), Parallelism: DDP,
		TraceBatch: 32, SpanTrace: true, Telemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, st := range res.CriticalPath.Steps {
		switch st.Category {
		case "compute", "comm", "hostload":
			want++
		}
	}
	var buf bytes.Buffer
	if err := telemetry.WriteTimelineHTML(&buf, "ddp", res.Spans,
		res.Report); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), `stroke="#222"`); got != want ||
		want == 0 {
		t.Fatalf("%d bars highlighted for %d critical resource steps",
			got, want)
	}
	if got := strings.Count(buf.String(), "<tr><td>gpu"); got != 2 {
		t.Fatalf("%d breakdown rows, want one per GPU (2)", got)
	}
}
