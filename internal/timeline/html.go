package timeline

import (
	"fmt"
	"html"
	"io"
	"sort"

	"triosim/internal/sim"
)

// phaseColors pins the well-known phases to fixed colors; every other phase
// gets a deterministic palette color via phaseColor, so a given phase name
// renders identically across runs and machines (no map-iteration or
// insertion-order dependence).
var phaseColors = map[string]string{
	"compute":  "#4878cf",
	"comm":     "#d65f5f",
	"hostload": "#6acc65",
	"fault":    "#ee854a",
	"barrier":  "#956cb4",
	"delay":    "#8c613c",
}

// phasePalette colors unknown phases; chosen to stay distinguishable from the
// pinned colors above.
var phasePalette = [...]string{
	"#797979", "#d5bb67", "#82c6e2", "#dc7ec0",
	"#4c72b0", "#55a868", "#c44e52", "#8172b3",
}

// phaseColor returns the stable color for a phase name: pinned phases first,
// otherwise an FNV-1a hash of the name indexes the fallback palette.
func phaseColor(phase string) string {
	if c, ok := phaseColors[phase]; ok {
		return c
	}
	h := uint32(2166136261)
	for i := 0; i < len(phase); i++ {
		h ^= uint32(phase[i])
		h *= 16777619
	}
	return phasePalette[h%uint32(len(phasePalette))]
}

// ExportHTML writes a self-contained Daisen-style timeline viewer: one SVG
// lane per resource, intervals as colored bars (compute / comm / hostload),
// hover titles with labels and durations. No external assets — open the
// file in any browser.
func (tl *Timeline) ExportHTML(w io.Writer, title string) error {
	return tl.ExportHTMLHighlight(w, title, nil, nil)
}

// ExportHTMLHighlight is ExportHTML with an optional critical-path overlay:
// intervals for which critical returns true are drawn at full opacity with a
// dark outline (everything else is dimmed), and the summary lines — e.g. the
// critical path's per-category attribution — render under the legend.
// Both critical and summary may be nil.
func (tl *Timeline) ExportHTMLHighlight(w io.Writer, title string,
	critical func(*Interval) bool, summary []string) error {

	start, end := tl.Span()
	span := float64(end - start)
	if span <= 0 {
		span = 1
	}
	resources := tl.Resources()
	laneOf := map[string]int{}
	for i, r := range resources {
		laneOf[r] = i
	}

	const (
		width      = 1200.0
		laneHeight = 28.0
		laneGap    = 6.0
		leftPad    = 90.0
		topPad     = 40.0
	)
	height := topPad + float64(len(resources))*(laneHeight+laneGap) + 20

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
		phaseColor("compute"), phaseColor("comm"), phaseColor("hostload"),
		phaseColor("fault"), (end - start).String()); err != nil {
		return err
	}
	for _, line := range summary {
		if _, err := fmt.Fprintf(w, "<p class=\"critpath\">%s</p>\n",
			html.EscapeString(line)); err != nil {
			return err
		}
	}

	// Per-resource breakdown summary above the lanes. Breakdown emits one row
	// per resource — including resources whose only activity is instantaneous
	// — so the table rows align one-to-one with the SVG lanes below.
	fmt.Fprint(w, `<table class="breakdown">
<tr><th>resource</th><th>compute (s)</th><th>comm (s)</th><th>exposed comm (s)</th><th>host load (s)</th><th>idle (s)</th><th>busy %</th></tr>
`)
	for _, b := range tl.Breakdown() {
		busyPct := 0.0
		if span > 0 {
			busyPct = b.BusySec / span * 100
		}
		fmt.Fprintf(w,
			"<tr><td>%s</td><td>%.6g</td><td>%.6g</td><td>%.6g</td><td>%.6g</td><td>%.6g</td><td>%.1f</td></tr>\n",
			html.EscapeString(b.Resource), b.ComputeSec, b.CommSec,
			b.ExposedCommSec, b.HostLoadSec, b.IdleSec, busyPct)
	}
	fmt.Fprint(w, "</table>\n")

	if _, err := fmt.Fprintf(w, `<svg width="%.0f" height="%.0f">
`, width, height); err != nil {
		return err
	}

	// Lane labels and backgrounds.
	for i, r := range resources {
		y := topPad + float64(i)*(laneHeight+laneGap)
		fmt.Fprintf(w,
			`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="#f0f0f0"/>`+"\n",
			leftPad, y, width-leftPad-10, laneHeight)
		fmt.Fprintf(w,
			`<text class="lane-label" x="4" y="%.1f">%s</text>`+"\n",
			y+laneHeight*0.65, html.EscapeString(r))
	}
	// Time axis ticks.
	for i := 0; i <= 10; i++ {
		frac := float64(i) / 10
		x := leftPad + frac*(width-leftPad-10)
		t := start + sim.VTime(frac*float64(end-start))
		fmt.Fprintf(w,
			`<text class="axis" x="%.1f" y="%.1f">%s</text>`+"\n",
			x, topPad-8, t.String())
	}

	// Intervals, drawn in start order so later bars overlay earlier ones.
	ivs := make([]Interval, len(tl.Intervals))
	copy(ivs, tl.Intervals)
	sort.SliceStable(ivs, func(i, j int) bool {
		return ivs[i].Start.Before(ivs[j].Start)
	})
	for i := range ivs {
		iv := &ivs[i]
		lane, ok := laneOf[iv.Resource]
		if !ok {
			continue
		}
		x := leftPad + float64(iv.Start-start)/span*(width-leftPad-10)
		wpx := float64(iv.Duration()) / span * (width - leftPad - 10)
		if wpx < 0.5 {
			wpx = 0.5
		}
		y := topPad + float64(lane)*(laneHeight+laneGap)
		color := phaseColor(iv.Phase)
		opacity, stroke := "0.85", ""
		if critical != nil {
			if critical(iv) {
				opacity, stroke = "1.0", ` stroke="#222" stroke-width="1.5"`
			} else {
				opacity = "0.35"
			}
		}
		fmt.Fprintf(w,
			`<rect x="%.2f" y="%.1f" width="%.2f" height="%.1f" fill="%s" opacity="%s"%s><title>%s [%s] %s–%s (%s)</title></rect>`+"\n",
			x, y+3, wpx, laneHeight-6, color, opacity, stroke,
			html.EscapeString(iv.Label), iv.Phase,
			iv.Start.String(), iv.End.String(), iv.Duration().String())
	}

	_, err := fmt.Fprint(w, "</svg></body></html>\n")
	return err
}
