package telemetry

import (
	"fmt"
	"html"
	"io"
	"slices"
	"sort"

	"triosim/internal/sim"
	"triosim/internal/spantrace"
)

// catColors pins each drawn span category to a fixed color, so a run renders
// identically across runs and machines.
var catColors = map[spantrace.Category]string{
	spantrace.Compute:  "#4878cf",
	spantrace.Comm:     "#d65f5f",
	spantrace.HostLoad: "#6acc65",
	spantrace.Fault:    "#ee854a",
}

// htmlLane returns the timeline lane a span is drawn on: its GPU track for
// compute, one "net" lane for communication and host staging, the "faults"
// track for fault windows, and "" (not drawn) for barriers, delays and
// request lifetimes.
func htmlLane(l *spantrace.Log, sp *spantrace.Span) string {
	switch sp.Cat {
	case spantrace.Compute, spantrace.Fault:
		return l.Name(sp.Track)
	case spantrace.Comm, spantrace.HostLoad:
		return "net"
	}
	return ""
}

// WriteTimelineHTML writes a self-contained Daisen-style timeline viewer of
// one run: one SVG lane per GPU compute stream, one "net" lane for
// communication and host staging, and a "faults" lane, with every span drawn
// as a colored bar under a hover title. No external assets — open the file
// in any browser.
//
// rep, when non-nil, adds its per-GPU time partition (the numbers
// -metrics-out writes) as a table above the lanes and, when it carries a
// critical path, outlines the spans whose task is a critical step, dims the
// rest, and prints the path's attribution under the legend.
func WriteTimelineHTML(w io.Writer, title string, spans *spantrace.Log,
	rep *RunReport) error {

	var drawn []int
	var lanes []string
	var start, end sim.VTime
	for i := range spans.Spans {
		sp := &spans.Spans[i]
		lane := htmlLane(spans, sp)
		if lane == "" {
			continue
		}
		if len(drawn) == 0 || sp.Start.Before(start) {
			start = sp.Start
		}
		if sp.End.After(end) {
			end = sp.End
		}
		drawn = append(drawn, i)
		lanes = append(lanes, lane)
	}
	slices.Sort(lanes)
	lanes = slices.Compact(lanes)
	// Bars are drawn in start order so later bars overlay earlier ones.
	sort.SliceStable(drawn, func(a, b int) bool {
		return spans.Spans[drawn[a]].Start.Before(spans.Spans[drawn[b]].Start)
	})
	span := float64(end - start)
	if span <= 0 {
		span = 1
	}

	var critical map[int]bool
	var summary []string
	if rep != nil && rep.CriticalPath != nil && len(rep.CriticalPath.Steps) > 0 {
		cp := rep.CriticalPath
		critical = make(map[int]bool, len(cp.Steps))
		for _, st := range cp.Steps {
			critical[st.Task] = true
		}
		summary = criticalSummary(cp)
	}

	const (
		width      = 1200.0
		laneHeight = 28.0
		laneGap    = 6.0
		leftPad    = 90.0
		topPad     = 40.0
	)
	height := topPad + float64(len(lanes))*(laneHeight+laneGap) + 20

	if _, err := fmt.Fprintf(w, `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>%s</title>
<style>
body { font-family: sans-serif; background: #fafafa; margin: 16px; }
svg { background: white; border: 1px solid #ddd; }
.lane-label { font-size: 12px; fill: #333; }
.axis { font-size: 10px; fill: #777; }
.legend { font-size: 12px; }
.critpath { font-size: 12px; color: #444; }
table.breakdown { border-collapse: collapse; font-size: 12px; margin-bottom: 12px; }
table.breakdown th, table.breakdown td { border: 1px solid #ddd; padding: 3px 8px; text-align: right; }
table.breakdown th:first-child, table.breakdown td:first-child { text-align: left; }
</style></head><body>
<h2>%s</h2>
<p class="legend">
<span style="color:%s">&#9632;</span> compute&nbsp;
<span style="color:%s">&#9632;</span> communication&nbsp;
<span style="color:%s">&#9632;</span> host load&nbsp;
<span style="color:%s">&#9632;</span> fault window
— span %s</p>
`, html.EscapeString(title), html.EscapeString(title),
		catColors[spantrace.Compute], catColors[spantrace.Comm],
		catColors[spantrace.HostLoad], catColors[spantrace.Fault],
		(end - start).String()); err != nil {
		return err
	}
	for _, line := range summary {
		fmt.Fprintf(w, "<p class=\"critpath\">%s</p>\n", html.EscapeString(line))
	}

	// The per-GPU partition: compute, exposed comm, exposed host staging and
	// idle sum to the run's total time on every row.
	if rep != nil {
		fmt.Fprint(w, `<table class="breakdown">
<tr><th>gpu</th><th>compute (s)</th><th>exposed comm (s)</th><th>exposed host (s)</th><th>idle (s)</th><th>busy %</th></tr>
`)
		for _, g := range rep.GPUs {
			busyPct := 0.0
			if rep.TotalSec > 0 {
				busyPct = (rep.TotalSec - g.IdleSec) / rep.TotalSec * 100
			}
			fmt.Fprintf(w,
				"<tr><td>gpu%d</td><td>%.6g</td><td>%.6g</td><td>%.6g</td><td>%.6g</td><td>%.1f</td></tr>\n",
				g.GPU, g.ComputeSec, g.ExposedCommSec, g.ExposedHostSec,
				g.IdleSec, busyPct)
		}
		fmt.Fprint(w, "</table>\n")
	}

	fmt.Fprintf(w, "<svg width=\"%.0f\" height=\"%.0f\">\n", width, height)
	for i, lane := range lanes {
		y := topPad + float64(i)*(laneHeight+laneGap)
		fmt.Fprintf(w,
			`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="#f0f0f0"/>`+"\n",
			leftPad, y, width-leftPad-10, laneHeight)
		fmt.Fprintf(w,
			`<text class="lane-label" x="4" y="%.1f">%s</text>`+"\n",
			y+laneHeight*0.65, html.EscapeString(lane))
	}
	for i := 0; i <= 10; i++ {
		frac := float64(i) / 10
		x := leftPad + frac*(width-leftPad-10)
		t := start + sim.VTime(frac*float64(end-start))
		fmt.Fprintf(w, `<text class="axis" x="%.1f" y="%.1f">%s</text>`+"\n",
			x, topPad-8, t.String())
	}
	for _, i := range drawn {
		sp := &spans.Spans[i]
		x := leftPad + float64(sp.Start-start)/span*(width-leftPad-10)
		wpx := float64(sp.Duration()) / span * (width - leftPad - 10)
		if wpx < 0.5 {
			wpx = 0.5
		}
		lane := sort.SearchStrings(lanes, htmlLane(spans, sp))
		y := topPad + float64(lane)*(laneHeight+laneGap)
		opacity, stroke := "0.85", ""
		if critical != nil {
			if sp.TaskID >= 0 && critical[int(sp.TaskID)] {
				opacity, stroke = "1.0", ` stroke="#222" stroke-width="1.5"`
			} else {
				opacity = "0.35"
			}
		}
		fmt.Fprintf(w,
			`<rect x="%.2f" y="%.1f" width="%.2f" height="%.1f" fill="%s" opacity="%s"%s><title>%s [%s] %s–%s (%s)</title></rect>`+"\n",
			x, y+3, wpx, laneHeight-6, catColors[sp.Cat], opacity, stroke,
			html.EscapeString(spans.Name(sp.Name)), sp.Cat,
			sp.Start.String(), sp.End.String(), sp.Duration().String())
	}

	_, err := fmt.Fprint(w, "</svg></body></html>\n")
	return err
}

// criticalSummary renders the critical path's attribution and its three
// nearest-slack spans as the viewer's summary lines.
func criticalSummary(cp *spantrace.Report) []string {
	pct := func(v float64) float64 {
		if cp.LengthSec <= 0 {
			return 0
		}
		return 100 * v / cp.LengthSec
	}
	a := cp.Attribution
	out := []string{fmt.Sprintf(
		"critical path: %d steps over %.6gs — compute %.1f%%, comm %.1f%%, idle %.1f%%, fault-stretch %.1f%%, other %.1f%%",
		len(cp.Steps), cp.LengthSec, pct(a.ComputeSec), pct(a.CommSec),
		pct(a.IdleSec), pct(a.FaultStretchSec), pct(a.HostLoadSec+a.OtherSec))}
	for i, s := range cp.Slack {
		if i >= 3 {
			break
		}
		out = append(out, fmt.Sprintf("near-critical: %s on %s — slack %.6gs",
			s.Name, s.Track, s.SlackSec))
	}
	return out
}
