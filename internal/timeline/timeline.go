// Package timeline is an optional interval log for task.Executor: which
// resource (GPU compute stream, network) was doing what, from when to when.
// Its sorted-sweep UnionTime is the reference implementation of the busy
// times the executor sums as it runs (task.Executor.BusyTime); tests use
// the log to check schedules interval by interval.
package timeline

import (
	"slices"

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
