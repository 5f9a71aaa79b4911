// Package timeline records execution intervals produced by the simulator:
// which resource (GPU compute stream, network) was doing what, from when to
// when. It backs TrioSim's outputs beyond the total time: the per-layer and
// per-stage communication/computation breakdown and the Daisen-style
// timeline export.
package timeline

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"triosim/internal/sim"
)

// Interval is one recorded activity.
type Interval struct {
	// Resource identifies the executing resource, e.g. "gpu0" or "net".
	Resource string
	// Label describes the activity, e.g. "conv2d" or "allreduce-step3".
	Label string
	// Phase groups activities for breakdowns: "compute", "comm", "hostload".
	Phase string
	Start sim.VTime
	End   sim.VTime
}

// Duration returns End-Start.
func (iv *Interval) Duration() sim.VTime { return iv.End - iv.Start }

// Timeline is an append-only interval log.
type Timeline struct {
	Intervals []Interval
}

// New returns an empty timeline.
func New() *Timeline { return &Timeline{} }

// Add records one interval.
func (tl *Timeline) Add(resource, label, phase string, start, end sim.VTime) {
	tl.Intervals = append(tl.Intervals, Interval{
		Resource: resource, Label: label, Phase: phase,
		Start: start, End: end,
	})
}

// Span returns the earliest start and latest end across all intervals.
func (tl *Timeline) Span() (start, end sim.VTime) {
	if len(tl.Intervals) == 0 {
		return 0, 0
	}
	start = sim.Infinity
	for i := range tl.Intervals {
		iv := &tl.Intervals[i]
		if iv.Start.Before(start) {
			start = iv.Start
		}
		if iv.End.After(end) {
			end = iv.End
		}
	}
	return start, end
}

// SumTime adds up interval durations matching the filter (overlaps counted
// multiply). Useful for per-resource serial streams.
func (tl *Timeline) SumTime(match func(*Interval) bool) sim.VTime {
	var total sim.VTime
	for i := range tl.Intervals {
		if match(&tl.Intervals[i]) {
			total += tl.Intervals[i].Duration()
		}
	}
	return total
}

// UnionTime computes the length of the union of intervals matching the
// filter: the time during which at least one matching activity was running.
// This is the paper's notion of "time at least one GPU is busy or at least
// one data movement task is taking place".
func (tl *Timeline) UnionTime(match func(*Interval) bool) sim.VTime {
	type edge struct {
		t     sim.VTime
		delta int
	}
	keep := func(iv *Interval) bool {
		return match(iv) && !iv.End.AtOrBefore(iv.Start)
	}
	// Count first so edges is allocated once, at its exact size.
	n := 0
	for i := range tl.Intervals {
		if keep(&tl.Intervals[i]) {
			n++
		}
	}
	edges := make([]edge, 0, 2*n)
	for i := range tl.Intervals {
		if iv := &tl.Intervals[i]; keep(iv) {
			edges = append(edges, edge{iv.Start, +1}, edge{iv.End, -1})
		}
	}
	// Opens sort ahead of closes at the same instant, so touching intervals
	// merge. Edges that compare equal are identical, so the unstable sort
	// yields one order and the float sum below is deterministic.
	slices.SortFunc(edges, func(a, b edge) int {
		switch {
		case a.t.Before(b.t):
			return -1
		case b.t.Before(a.t):
			return 1
		}
		return b.delta - a.delta
	})
	var total sim.VTime
	depth := 0
	var openAt sim.VTime
	for _, e := range edges {
		if depth == 0 && e.delta > 0 {
			openAt = e.t
		}
		depth += e.delta
		if depth == 0 && e.delta < 0 {
			total += e.t - openAt
		}
	}
	return total
}

// ByPhase returns the filter matching one phase.
func ByPhase(phase string) func(*Interval) bool {
	return func(iv *Interval) bool { return iv.Phase == phase }
}

// ByResource returns the filter matching one resource.
func ByResource(resource string) func(*Interval) bool {
	return func(iv *Interval) bool { return iv.Resource == resource }
}

// And composes filters.
func And(fs ...func(*Interval) bool) func(*Interval) bool {
	return func(iv *Interval) bool {
		for _, f := range fs {
			if !f(iv) {
				return false
			}
		}
		return true
	}
}

// Resources returns the distinct resource names, sorted.
func (tl *Timeline) Resources() []string {
	seen := map[string]bool{}
	for i := range tl.Intervals {
		seen[tl.Intervals[i].Resource] = true
	}
	out := make([]string, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// chromeEvent is the Chrome trace-viewer "complete" event format, which
// Daisen-style visualizers (chrome://tracing, Perfetto) load directly.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
}

// ExportChromeTrace writes the timeline as a Chrome trace-viewer JSON array.
func (tl *Timeline) ExportChromeTrace(w io.Writer) error {
	resources := tl.Resources()
	tidOf := map[string]int{}
	for i, r := range resources {
		tidOf[r] = i
	}
	events := make([]chromeEvent, 0, len(tl.Intervals))
	for i := range tl.Intervals {
		iv := &tl.Intervals[i]
		events = append(events, chromeEvent{
			Name: iv.Label,
			Cat:  iv.Phase,
			Ph:   "X",
			Ts:   iv.Start.Microseconds(),
			Dur:  iv.Duration().Microseconds(),
			PID:  0,
			TID:  tidOf[iv.Resource],
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// Summary formats per-resource busy times for quick inspection.
func (tl *Timeline) Summary() string {
	out := ""
	for _, r := range tl.Resources() {
		busy := tl.UnionTime(ByResource(r))
		out += fmt.Sprintf("%-8s busy %v\n", r, busy)
	}
	return out
}
