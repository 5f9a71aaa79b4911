package timeline_test

import (
	"bytes"
	"strings"
	"testing"

	"triosim/internal/network"
	"triosim/internal/sim"
	"triosim/internal/spantrace"
	"triosim/internal/task"
	"triosim/internal/telemetry"
	"triosim/internal/timeline"
)

// TestExportHTMLEmptyTimeline: a run of an empty graph leaves the timeline
// empty, and its HTML export is well formed with no rows or bars.
func TestExportHTMLEmptyTimeline(t *testing.T) {
	eng := sim.NewSerialEngine()
	g := task.NewGraph()
	tl := timeline.New()
	x := task.NewExecutor(eng, network.NewIdealNetwork(eng, 1e9, 0), g, tl)
	rec := spantrace.NewRecorder(g, nil)
	x.Observe(telemetry.NewCollector(nil, rec, network.NewTopology(), nil))
	if _, err := x.Run(); err != nil {
		t.Fatal(err)
	}
	if len(tl.Intervals) != 0 {
		t.Fatalf("empty run recorded %d intervals", len(tl.Intervals))
	}
	var buf bytes.Buffer
	if err := telemetry.WriteTimelineHTML(&buf, "empty", rec.Finalize(),
		&telemetry.RunReport{}); err != nil {
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
