package timeline

import (
	"bytes"
	"strings"
	"testing"
)

// TestBreakdownDegenerateLane: a lane whose only activity is instantaneous
// (zero-duration barriers, failure markers) still gets an all-idle breakdown
// row, keeping the HTML table aligned with the SVG lanes.
func TestBreakdownDegenerateLane(t *testing.T) {
	tl := New()
	tl.Add("gpu0", "conv", "compute", 0, 1e-3)
	tl.Add("sync", "barrier-step0", "barrier", 5e-4, 5e-4) // zero duration
	rows := tl.Breakdown()
	if len(rows) != 2 {
		t.Fatalf("got %d breakdown rows, want 2 (degenerate lane dropped)",
			len(rows))
	}
	var sync *ResourceBreakdown
	for i := range rows {
		if rows[i].Resource == "sync" {
			sync = &rows[i]
		}
	}
	if sync == nil {
		t.Fatal("sync lane missing from breakdown")
	}
	if sync.BusySec != 0 || sync.IdleSec <= 0 {
		t.Fatalf("degenerate lane should be all idle: %+v", *sync)
	}
	// The HTML view renders without misalignment: one table row and one lane
	// background per resource.
	var buf bytes.Buffer
	if err := tl.ExportHTML(&buf, "degenerate"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if got := strings.Count(out, "<td>gpu0</td>") +
		strings.Count(out, "<td>sync</td>"); got != 2 {
		t.Fatalf("breakdown table rows = %d, want 2", got)
	}
	if got := strings.Count(out, `fill="#f0f0f0"`); got != 2 {
		t.Fatalf("lane backgrounds = %d, want 2", got)
	}
}

// TestPhaseColorStable: the well-known phases have pinned colors, and unknown
// phases map to a deterministic palette color — independent of insertion or
// map-iteration order.
func TestPhaseColorStable(t *testing.T) {
	pinned := map[string]string{
		"compute":  "#4878cf",
		"comm":     "#d65f5f",
		"hostload": "#6acc65",
		"fault":    "#ee854a",
		"barrier":  "#956cb4",
		"delay":    "#8c613c",
	}
	for phase, want := range pinned {
		if got := phaseColor(phase); got != want {
			t.Fatalf("phaseColor(%q) = %q, want %q", phase, got, want)
		}
	}
	for _, phase := range []string{"checkpoint", "restart", "custom-phase"} {
		a, b := phaseColor(phase), phaseColor(phase)
		if a != b {
			t.Fatalf("phaseColor(%q) unstable: %q vs %q", phase, a, b)
		}
		if !strings.HasPrefix(a, "#") {
			t.Fatalf("phaseColor(%q) = %q, not a color", phase, a)
		}
	}
}

// TestExportHTMLHighlight: critical intervals render at full opacity with an
// outline, the rest are dimmed, and summary lines appear under the legend.
func TestExportHTMLHighlight(t *testing.T) {
	tl := New()
	tl.Add("gpu0", "on-path", "compute", 0, 1e-3)
	tl.Add("gpu1", "off-path", "compute", 0, 5e-4)
	var buf bytes.Buffer
	err := tl.ExportHTMLHighlight(&buf, "highlight",
		func(iv *Interval) bool { return iv.Label == "on-path" },
		[]string{"critical path: 1 step, 100% compute"})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `stroke="#222"`) {
		t.Fatal("critical interval not outlined")
	}
	if !strings.Contains(out, `opacity="0.35"`) {
		t.Fatal("non-critical interval not dimmed")
	}
	if !strings.Contains(out, "critical path: 1 step, 100% compute") {
		t.Fatal("summary line missing")
	}
	// Without an overlay nothing is dimmed or outlined.
	buf.Reset()
	if err := tl.ExportHTML(&buf, "plain"); err != nil {
		t.Fatal(err)
	}
	plain := buf.String()
	if strings.Contains(plain, `opacity="0.35"`) ||
		strings.Contains(plain, `stroke="#222"`) {
		t.Fatal("plain export should not dim or outline")
	}
}
