package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"triosim/internal/sim"
	"triosim/internal/spantrace"
	"triosim/internal/task"
)

// taskRun is one task's observed occupancy window.
type taskRun struct {
	t          *task.Task
	start, end sim.VTime
}

// recordRuns returns a span recorder holding one span per run.
func recordRuns(g *task.Graph, runs ...taskRun) *spantrace.Recorder {
	rec := spantrace.NewRecorder(g, nil)
	for _, r := range runs {
		rec.AddTask(r.t, r.t.AppendLabel(nil), r.start, r.end)
	}
	return rec
}

func TestExportHTML(t *testing.T) {
	g := task.NewGraph()
	log := recordRuns(g,
		taskRun{g.AddCompute(0, 2e-3, "conv2d"), 0, 2e-3},
		taskRun{g.AddComm(0, 1, 1e6, "allreduce-step0"), 1e-3, 3e-3},
		taskRun{g.AddHostLoad(9, 0, 1e6, "stage-input"), 0, 5e-4},
	).Finalize()
	var buf bytes.Buffer
	if err := WriteTimelineHTML(&buf, "test timeline", log, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "<svg", "</svg>", "test timeline",
		"gpu0", "net", "conv2d", "allreduce-step0", "stage-input",
		"#4878cf", "#d65f5f", "#6acc65",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("HTML missing %q", want)
		}
	}
	// One rect per span plus one lane background per lane (gpu0, net).
	if got := strings.Count(out, "<rect"); got != 3+2 {
		t.Fatalf("rect count = %d, want 5", got)
	}
	if strings.Contains(out, "<table") {
		t.Fatal("breakdown table without a report")
	}
}

func TestExportHTMLEscapes(t *testing.T) {
	g := task.NewGraph()
	log := recordRuns(g,
		taskRun{g.AddCompute(0, 1, `<script>alert("x")</script>`), 0, 1},
	).Finalize()
	var buf bytes.Buffer
	if err := WriteTimelineHTML(&buf, "<title>", log, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "<script>") {
		t.Fatal("labels not escaped")
	}
}

func TestExportHTMLEmptyTimeline(t *testing.T) {
	log := spantrace.NewRecorder(nil, nil).Finalize()
	var buf bytes.Buffer
	if err := WriteTimelineHTML(&buf, "empty", log, &RunReport{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "</svg>") {
		t.Fatal("empty export malformed")
	}
	if strings.Contains(out, "<td>") || strings.Contains(out, "<rect") {
		t.Fatal("empty export drew rows or bars")
	}
}

// TestExportHTMLHighlight: spans of critical steps render at full opacity
// with an outline, the rest are dimmed, and the attribution appears under
// the legend.
func TestExportHTMLHighlight(t *testing.T) {
	g := task.NewGraph()
	on := g.AddCompute(0, 1e-3, "on-path")
	log := recordRuns(g,
		taskRun{on, 0, 1e-3},
		taskRun{g.AddCompute(1, 5e-4, "off-path"), 0, 5e-4},
	).Finalize()
	rep := &RunReport{CriticalPath: &spantrace.Report{
		LengthSec:   1e-3,
		Steps:       []spantrace.Step{{Task: int(on.ID), Name: "on-path"}},
		Attribution: spantrace.Attribution{ComputeSec: 1e-3},
	}}
	var buf bytes.Buffer
	if err := WriteTimelineHTML(&buf, "highlight", log, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if got := strings.Count(out, `stroke="#222"`); got != 1 {
		t.Fatalf("%d spans outlined, want 1", got)
	}
	if !strings.Contains(out, `opacity="0.35"`) {
		t.Fatal("non-critical span not dimmed")
	}
	if !strings.Contains(out, "critical path: 1 steps over 0.001s — compute 100.0%") {
		t.Fatal("summary line missing")
	}
	// Without a critical path nothing is dimmed or outlined.
	buf.Reset()
	if err := WriteTimelineHTML(&buf, "plain", log, nil); err != nil {
		t.Fatal(err)
	}
	plain := buf.String()
	if strings.Contains(plain, `opacity="0.35"`) ||
		strings.Contains(plain, `stroke="#222"`) {
		t.Fatal("plain export should not dim or outline")
	}
}

func TestExportHTMLIncludesBreakdownTable(t *testing.T) {
	g := task.NewGraph()
	log := recordRuns(g,
		taskRun{g.AddCompute(0, 1, "op"), 0, 1},
		taskRun{g.AddComm(0, 1, 1e6, "xfer"), 0.5, 2},
	).Finalize()
	rep := &RunReport{TotalSec: 2, GPUs: []GPUStat{
		{GPU: 0, ComputeSec: 1, ExposedCommSec: 1},
		{GPU: 1, ExposedCommSec: 1.5, IdleSec: 0.5},
	}}
	var buf bytes.Buffer
	if err := WriteTimelineHTML(&buf, "t", log, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`<table class="breakdown">`,
		"<th>exposed comm (s)</th>",
		"<tr><td>gpu0</td><td>1</td><td>1</td><td>0</td><td>0</td><td>100.0</td></tr>",
		"<tr><td>gpu1</td><td>0</td><td>1.5</td><td>0</td><td>0.5</td><td>75.0</td></tr>",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("HTML missing %q", want)
		}
	}
	if strings.Index(out, "<table") > strings.Index(out, "<svg") {
		t.Fatal("breakdown table should precede the SVG lanes")
	}
}

// TestExportHTMLDegenerateLane: a lane whose only activity is instantaneous
// (a GPUFail marker) still gets a lane, a GPU with no spans still gets its
// table row, and barriers are not drawn.
func TestExportHTMLDegenerateLane(t *testing.T) {
	g := task.NewGraph()
	conv := g.AddCompute(0, 1e-3, "conv")
	rec := recordRuns(g,
		taskRun{conv, 0, 1e-3},
		taskRun{g.AddBarrier("barrier-step0"), 5e-4, 5e-4},
	)
	rec.AddFault("gpu1 fail", 5e-4, 5e-4)
	rep := &RunReport{TotalSec: 1e-3, GPUs: []GPUStat{
		{GPU: 0, ComputeSec: 1e-3}, {GPU: 1, IdleSec: 1e-3},
	}}
	var buf bytes.Buffer
	if err := WriteTimelineHTML(&buf, "degenerate", rec.Finalize(),
		rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if got := strings.Count(out, "<tr><td>gpu"); got != 2 {
		t.Fatalf("breakdown table rows = %d, want 2", got)
	}
	if got := strings.Count(out, `fill="#f0f0f0"`); got != 2 {
		t.Fatalf("lane backgrounds = %d, want 2 (gpu0, faults)", got)
	}
	if !strings.Contains(out, "gpu1 fail") {
		t.Fatal("zero-length fault marker not drawn")
	}
	if strings.Contains(out, "barrier-step0") {
		t.Fatal("barrier drawn on the timeline")
	}
}

// TestPhaseColorStable: every drawn category has its own pinned color.
func TestPhaseColorStable(t *testing.T) {
	pinned := map[spantrace.Category]string{
		spantrace.Compute:  "#4878cf",
		spantrace.Comm:     "#d65f5f",
		spantrace.HostLoad: "#6acc65",
		spantrace.Fault:    "#ee854a",
	}
	if len(catColors) != len(pinned) {
		t.Fatalf("%d category colors, want %d", len(catColors), len(pinned))
	}
	for cat, want := range pinned {
		if got := catColors[cat]; got != want {
			t.Fatalf("color of %s = %q, want %q", cat, got, want)
		}
	}
}
