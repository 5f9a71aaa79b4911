package spantrace

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"triosim/internal/sim"
	"triosim/internal/task"
)

// addTask records t's span as the run's observer does, with its label
// rendered once.
func addTask(r *Recorder, t *task.Task, start, end sim.VTime) {
	r.AddTask(t, t.AppendLabel(nil), start, end)
}

// fixtureLog builds a small mixed log: compute on two GPUs, a dependent
// cross-GPU transfer, a barrier, a fault window, and a counter series.
func fixtureLog(t *testing.T) *Log {
	t.Helper()
	g := task.NewGraph()
	a := g.AddCompute(0, 1, "fwd0")
	b := g.AddCompute(1, 1, "fwd1")
	x := g.AddComm(0, 1, 4096, "grad-xfer")
	bar := g.AddBarrier("step-sync")
	g.AddDep(a, x)
	g.AddDep(x, bar)
	g.AddDep(b, bar)
	if err := g.Validate(); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	r := NewRecorder(g, nil)
	addTask(r, a, 0, 1)
	addTask(r, b, 0, 1)
	addTask(r, x, 1, 1.5)
	addTask(r, bar, 1.5, 1.5)
	r.AddFault("gpu1-straggler", 0.5, 1)
	r.Sample(CounterQueueDepth, 0, 3)
	r.Sample(CounterQueueDepth, 1, 5)
	return r.Finalize()
}

// TestChromeTraceRoundTrip: the exporter's output passes its own validator
// and carries the expected track structure.
func TestChromeTraceRoundTrip(t *testing.T) {
	l := fixtureLog(t)
	var buf bytes.Buffer
	if err := l.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	data := buf.Bytes()
	if err := ValidateChromeTrace(data); err != nil {
		t.Fatalf("ValidateChromeTrace rejected own output: %v", err)
	}

	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	var threads, durs, counters, flowS, flowF int
	names := map[string]bool{}
	for _, ev := range tr.TraceEvents {
		switch ev["ph"] {
		case "M":
			if ev["name"] == "thread_name" {
				threads++
				if args, ok := ev["args"].(map[string]any); ok {
					names[args["name"].(string)] = true
				}
			}
		case "X":
			durs++
		case "C":
			counters++
		case "s":
			flowS++
		case "f":
			flowF++
		}
	}
	// gpu0, gpu1, one transfer route, sync, faults.
	for _, want := range []string{"gpu0", "gpu1", "sync", "faults"} {
		if !names[want] {
			t.Fatalf("missing thread_name %q (have %v)", want, names)
		}
	}
	if durs != 5 {
		t.Fatalf("got %d X events, want 5 (4 tasks + 1 fault)", durs)
	}
	if counters != 2 {
		t.Fatalf("got %d C events, want 2", counters)
	}
	// Cross-track dep edges: a→x, x→bar, b→bar (a,b same-track-to-other all
	// cross); each edge is one s + one f.
	if flowS == 0 || flowS != flowF {
		t.Fatalf("flow arrows unbalanced: %d starts, %d finishes", flowS, flowF)
	}
}

// TestChromeTraceMonotonicPerTrack: exported X events never step backwards
// within one (pid, tid) — the property Perfetto's importer needs.
func TestChromeTraceMonotonicPerTrack(t *testing.T) {
	g := task.NewGraph()
	// Record completion out of start order on one lane: the exporter must
	// still sort per track.
	a := g.AddCompute(0, 1, "late")
	b := g.AddCompute(0, 1, "early")
	r := NewRecorder(g, nil)
	addTask(r, a, 5, 6)
	addTask(r, b, 0, 1)
	var buf bytes.Buffer
	if err := r.Finalize().WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("monotonicity: %v", err)
	}
}

func TestChromeTraceFileAndEmptyLog(t *testing.T) {
	r := NewRecorder(task.NewGraph(), nil)
	path := t.TempDir() + "/trace.json"
	if err := r.Finalize().WriteChromeTraceFile(path); err != nil {
		t.Fatalf("WriteChromeTraceFile: %v", err)
	}
	// An empty log still exports a valid (metadata-only) trace.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if err := ValidateChromeTrace(data); err != nil {
		t.Fatalf("empty-log trace invalid: %v", err)
	}
}

// TestValidateChromeTraceRejects: the validator catches the malformations
// the check.sh smoke leg gates on.
func TestValidateChromeTraceRejects(t *testing.T) {
	cases := map[string]string{
		"not json":      `{"traceEvents": [`,
		"no events":     `{"traceEvents": []}`,
		"unknown phase": `{"traceEvents": [{"ph":"Z","name":"x","ts":0,"pid":1,"tid":1}]}`,
		"X missing ts":  `{"traceEvents": [{"ph":"X","name":"x","pid":1,"tid":1,"dur":1}]}`,
		"X negative ts": `{"traceEvents": [{"ph":"X","name":"x","ts":-1,"dur":1,"pid":1,"tid":1}]}`,
		"X backwards ts": `{"traceEvents": [
			{"ph":"X","name":"a","ts":10,"dur":1,"pid":1,"tid":1},
			{"ph":"X","name":"b","ts":5,"dur":1,"pid":1,"tid":1}]}`,
		"C missing args": `{"traceEvents": [{"ph":"C","name":"c","ts":0,"pid":4,"tid":0}]}`,
		"f without s":    `{"traceEvents": [{"ph":"f","name":"dep","id":7,"ts":0,"pid":1,"tid":1,"bp":"e"}]}`,
	}
	for name, in := range cases {
		if err := ValidateChromeTrace([]byte(in)); err == nil {
			t.Errorf("%s: validator accepted malformed trace", name)
		}
	}
	// Distinct tracks may interleave timestamps freely.
	ok := `{"traceEvents": [
		{"ph":"X","name":"a","ts":10,"dur":1,"pid":1,"tid":1},
		{"ph":"X","name":"b","ts":5,"dur":1,"pid":1,"tid":2}]}`
	if err := ValidateChromeTrace([]byte(ok)); err != nil {
		t.Errorf("cross-track interleaving rejected: %v", err)
	}
	// Bare-array form (what chrome://tracing also accepts).
	arr := `[{"ph":"X","name":"a","ts":0,"dur":1,"pid":1,"tid":1}]`
	if err := ValidateChromeTrace([]byte(arr)); err != nil {
		t.Errorf("bare-array form rejected: %v", err)
	}
}

// TestRecorderInterning: repeated labels collapse to one id; distinct lanes
// get distinct tracks.
func TestRecorderInterning(t *testing.T) {
	g := task.NewGraph()
	a := g.AddCompute(0, 1, "step")
	b := g.AddCompute(0, 1, "step")
	c := g.AddCompute(1, 1, "step")
	r := NewRecorder(g, nil)
	addTask(r, a, 0, 1)
	addTask(r, b, 1, 2)
	addTask(r, c, 0, 1)
	l := r.Finalize()
	if l.Spans[0].Name != l.Spans[1].Name || l.Spans[1].Name != l.Spans[2].Name {
		t.Fatalf("same label interned to different ids: %d %d %d",
			l.Spans[0].Name, l.Spans[1].Name, l.Spans[2].Name)
	}
	if l.Spans[0].Track != l.Spans[1].Track {
		t.Fatalf("same lane interned to different tracks")
	}
	if l.Spans[0].Track == l.Spans[2].Track {
		t.Fatalf("distinct lanes share a track id")
	}
	if got := l.Name(l.Spans[2].Track); got != "gpu1" {
		t.Fatalf("track name = %q, want gpu1", got)
	}
}

// TestCounterDecimation: a series past maxCounterSamples is thinned, keeps a
// bounded length, stays time-ordered, and retains first and (near-)last
// points.
func TestCounterDecimation(t *testing.T) {
	r := NewRecorder(nil, nil)
	n := maxCounterSamples*2 + 100
	for i := 0; i < n; i++ {
		r.Sample("q", sim.VTime(i), float64(i))
	}
	l := r.Finalize()
	if len(l.Counters) != 1 {
		t.Fatalf("got %d series, want 1", len(l.Counters))
	}
	cs := l.Counters[0]
	if len(cs.Samples) > maxCounterSamples {
		t.Fatalf("series not bounded: %d > %d", len(cs.Samples),
			maxCounterSamples)
	}
	if len(cs.Samples) < maxCounterSamples/4 {
		t.Fatalf("series over-thinned: %d", len(cs.Samples))
	}
	for i := 1; i < len(cs.Samples); i++ {
		if !cs.Samples[i].T.After(cs.Samples[i-1].T) {
			t.Fatalf("samples out of order at %d", i)
		}
	}
	if cs.Samples[0].T != 0 {
		t.Fatalf("first sample lost: t=%v", cs.Samples[0].T)
	}
}

// TestCounterSameTimestampOverwrite: bursts at one timestamp keep only the
// latest value.
func TestCounterSameTimestampOverwrite(t *testing.T) {
	r := NewRecorder(nil, nil)
	r.Sample("q", 1, 10)
	r.Sample("q", 1, 20)
	r.Sample("q", 2, 30)
	cs := r.Finalize().Counters[0]
	if len(cs.Samples) != 2 || cs.Samples[0].V != 20 || cs.Samples[1].V != 30 {
		t.Fatalf("got %+v, want [(1,20) (2,30)]", cs.Samples)
	}
}
