package spantrace

import (
	"math"
	"testing"

	"triosim/internal/sim"
	"triosim/internal/task"
)

// window is one task's hand-chosen observed window; buildLog records one
// span per window, as the run's observer would.
type window struct {
	t          *task.Task
	start, end sim.VTime
}

func buildLog(t *testing.T, g *task.Graph, ws []window) *Log {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("fixture graph invalid: %v", err)
	}
	r := NewRecorder(g, nil)
	for _, w := range ws {
		addTask(r, w.t, w.start, w.end)
	}
	return r.Finalize()
}

func approx(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("%s = %g, want %g", name, got, want)
	}
}

// TestCriticalPathSerialChain pins the simplest invariant: on a serial chain
// of back-to-back compute tasks, the critical path IS the whole run — length
// equals makespan and the attribution is 100% compute.
func TestCriticalPathSerialChain(t *testing.T) {
	g := task.NewGraph()
	a := g.AddCompute(0, 1, "a")
	b := g.AddCompute(0, 1, "b")
	c := g.AddCompute(0, 1, "c")
	g.AddDep(a, b)
	g.AddDep(b, c)
	l := buildLog(t, g, []window{{a, 0, 1}, {b, 1, 2}, {c, 2, 3}})

	rep := l.CriticalPath(0)
	if err := rep.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	approx(t, "MakespanSec", rep.MakespanSec, 3)
	approx(t, "LengthSec", rep.LengthSec, 3)
	approx(t, "ComputeSec", rep.Attribution.ComputeSec, 3)
	approx(t, "IdleSec", rep.Attribution.IdleSec, 0)
	approx(t, "Sum", rep.Attribution.Sum(), rep.LengthSec)
	if len(rep.Steps) != 3 {
		t.Fatalf("got %d steps, want 3", len(rep.Steps))
	}
	for i, want := range []string{"a", "b", "c"} {
		if rep.Steps[i].Name != want {
			t.Fatalf("step %d = %q, want %q", i, rep.Steps[i].Name, want)
		}
	}
	if len(rep.Slack) != 0 {
		t.Fatalf("serial chain has no slack, got %d entries", len(rep.Slack))
	}
}

// TestCriticalPathForkJoin checks slack extraction: the short branch of a
// fork-join carries exactly the slack the long branch denies it, and the
// slack table is ascending.
func TestCriticalPathForkJoin(t *testing.T) {
	g := task.NewGraph()
	a := g.AddCompute(0, 1, "a")            // 0..1
	b := g.AddCompute(0, 2, "b-long")       // 1..3 (critical branch)
	c := g.AddCompute(1, 1, "c-short")      // 1..2, slack 1
	d := g.AddCompute(0, 1, "d-join")       // 3..4
	e := g.AddCompute(2, 0.5, "e-unjoined") // 0..0.5, slack 3.5
	g.AddDep(a, b)
	g.AddDep(a, c)
	g.AddDep(b, d)
	g.AddDep(c, d)
	l := buildLog(t, g, []window{
		{a, 0, 1}, {e, 0, 0.5}, {c, 1, 2}, {b, 1, 3}, {d, 3, 4},
	})

	rep := l.CriticalPath(0)
	if err := rep.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	approx(t, "MakespanSec", rep.MakespanSec, 4)
	approx(t, "LengthSec", rep.LengthSec, 4)
	var names []string
	for _, st := range rep.Steps {
		names = append(names, st.Name)
	}
	want := []string{"a", "b-long", "d-join"}
	if len(names) != len(want) {
		t.Fatalf("chain %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("chain %v, want %v", names, want)
		}
	}
	// c could finish at LF(c)=3 (d's latest start); e at 4.
	if len(rep.Slack) != 2 {
		t.Fatalf("got %d slack entries, want 2: %+v", len(rep.Slack), rep.Slack)
	}
	if rep.Slack[0].Name != "c-short" || rep.Slack[1].Name != "e-unjoined" {
		t.Fatalf("slack order %q, %q; want c-short, e-unjoined",
			rep.Slack[0].Name, rep.Slack[1].Name)
	}
	approx(t, "slack(c)", rep.Slack[0].SlackSec, 1)
	approx(t, "slack(e)", rep.Slack[1].SlackSec, 3.5)
}

// TestCriticalPathIdleGap: a dependency gap (network queueing the DAG does
// not model as an edge) lands in IdleSec and the partition still covers the
// makespan exactly.
func TestCriticalPathIdleGap(t *testing.T) {
	g := task.NewGraph()
	a := g.AddCompute(0, 1, "a")
	b := g.AddCompute(0, 1, "b")
	g.AddDep(a, b)
	l := buildLog(t, g, []window{{a, 0, 1}, {b, 2, 3}}) // 1s gap

	rep := l.CriticalPath(0)
	if err := rep.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	approx(t, "LengthSec", rep.LengthSec, 3)
	approx(t, "ComputeSec", rep.Attribution.ComputeSec, 2)
	approx(t, "IdleSec", rep.Attribution.IdleSec, 1)
	approx(t, "step b WaitSec", rep.Steps[1].WaitSec, 1)
}

// TestCriticalPathFaultStretch: a compute span observed longer than its
// nominal duration splits into nominal compute and fault stretch, exactly.
func TestCriticalPathFaultStretch(t *testing.T) {
	g := task.NewGraph()
	a := g.AddCompute(0, 1, "a") // nominal 1s
	b := g.AddCompute(0, 1, "b")
	g.AddDep(a, b)
	// a runs 0..1.5 under a 1.5× straggler; b runs clean.
	l := buildLog(t, g, []window{{a, 0, 1.5}, {b, 1.5, 2.5}})

	rep := l.CriticalPath(0)
	if err := rep.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	approx(t, "LengthSec", rep.LengthSec, 2.5)
	approx(t, "ComputeSec", rep.Attribution.ComputeSec, 2)
	approx(t, "FaultStretchSec", rep.Attribution.FaultStretchSec, 0.5)
	approx(t, "step a stretch", rep.Steps[0].FaultStretchSec, 0.5)
	approx(t, "step b stretch", rep.Steps[1].FaultStretchSec, 0)
}

// TestCriticalPathExcludesFaultWindows: fault-window marker spans are not
// work — they must not extend the makespan or join the DAG.
func TestCriticalPathExcludesFaultWindows(t *testing.T) {
	g := task.NewGraph()
	a := g.AddCompute(0, 1, "a")
	r := NewRecorder(g, nil)
	addTask(r, a, 0, 1)
	r.AddFault("link0-degrade", 0, 10) // far past the last task
	l := r.Finalize()

	rep := l.CriticalPath(0)
	if err := rep.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	approx(t, "MakespanSec", rep.MakespanSec, 1)
	if len(rep.Steps) != 1 || rep.Steps[0].Name != "a" {
		t.Fatalf("chain %+v, want just a", rep.Steps)
	}
}

// TestCriticalPathLaneSerialization: two independent compute tasks on one GPU
// serialize through the lane edge even without a task-graph dependency, so
// the chain covers both.
func TestCriticalPathLaneSerialization(t *testing.T) {
	g := task.NewGraph()
	a := g.AddCompute(0, 1, "a")
	b := g.AddCompute(0, 1, "b") // no dep on a — lane edge only
	l := buildLog(t, g, []window{{a, 0, 1}, {b, 1, 2}})

	rep := l.CriticalPath(0)
	if err := rep.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	approx(t, "LengthSec", rep.LengthSec, 2)
	if len(rep.Steps) != 2 {
		t.Fatalf("got %d steps, want 2 (lane edge missing?)", len(rep.Steps))
	}
}

// TestCriticalPathEmptyLog: no spans → empty report that still validates.
func TestCriticalPathEmptyLog(t *testing.T) {
	r := NewRecorder(task.NewGraph(), nil)
	rep := r.Finalize().CriticalPath(0)
	if err := rep.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if rep.MakespanSec != 0 || len(rep.Steps) != 0 {
		t.Fatalf("empty log produced %+v", rep)
	}
}

// TestCriticalPathTopK bounds the slack table.
func TestCriticalPathTopK(t *testing.T) {
	g := task.NewGraph()
	long := g.AddCompute(0, 10, "long")
	ws := []window{{long, 0, 10}}
	for i := 0; i < 5; i++ {
		sp := g.AddCompute(i+1, 1, "spare")
		ws = append(ws, window{sp, 0, 1})
	}
	l := buildLog(t, g, ws)
	rep := l.CriticalPath(2)
	if len(rep.Slack) != 2 {
		t.Fatalf("topK=2 kept %d entries", len(rep.Slack))
	}
}

// TestReportValidateRejects exercises the validator's failure modes.
func TestReportValidateRejects(t *testing.T) {
	bad := []*Report{
		{MakespanSec: 1, LengthSec: 2,
			Attribution: Attribution{ComputeSec: 2}}, // length > makespan
		{MakespanSec: 2, LengthSec: 2,
			Attribution: Attribution{ComputeSec: 1}}, // partition mismatch
		{MakespanSec: 1, LengthSec: 1,
			Attribution: Attribution{ComputeSec: 1},
			Steps:       []Step{{Name: "x", StartSec: 1, EndSec: 0}}},
		{MakespanSec: 1, LengthSec: 1,
			Attribution: Attribution{ComputeSec: 1},
			Slack:       []SlackEntry{{SlackSec: 2}, {SlackSec: 1}}},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Fatalf("case %d: Validate accepted an invalid report", i)
		}
	}
}
