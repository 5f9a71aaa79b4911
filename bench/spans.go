package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed interval of a traced run. Spans of one operation share
// Op; a root span has Parent -1. A folded span stands for many short
// intervals (one per engine event) summed into one: its duration is exact,
// its position inside the parent is nominal.
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Folded bool          `json:"folded,omitempty"`
	// Label names the operation on root spans (scenario, step, request).
	Label string `json:"label,omitempty"`
	// Lane is the Chrome-trace thread the span is drawn on: serial
	// operations share one lane, overlapping requests get one each.
	Lane int `json:"lane"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	spans  []span
	ops    int
}

func newSpanLog() *spanLog {
	return &spanLog{origin: time.Now(), spans: make([]span, 0, 1<<14)}
}

func (l *spanLog) now() time.Duration { return time.Since(l.origin) }

// nextOp returns a fresh operation id.
func (l *spanLog) nextOp() int {
	l.ops++
	return l.ops - 1
}

// add records a finished span.
func (l *spanLog) add(s span) int {
	s.ID = len(l.spans)
	l.spans = append(l.spans, s)
	return s.ID
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (children may overlap one another).
func selfTimes(spans []span) []time.Duration {
	children := map[int][]int{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]time.Duration, len(spans))
	for i := range spans {
		p := &spans[i]
		self[i] = p.dur() - covered(p.Start, p.End, spans, children[p.ID])
	}
	return self
}

// covered is the length of the union of the child intervals, clipped to
// [lo, hi].
func covered(lo, hi time.Duration, spans []span, kids []int) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			if v.b > cur.b {
				cur.b = v.b
			}
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// layerSelf sums self time by span name over every non-root span.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for i, s := range spans {
		if s.Parent >= 0 {
			out[s.Name] += self[i]
		}
	}
	return out
}

// opCoverage returns, for each root span named root, the share of its
// duration that the self times of its descendants account for.
func opCoverage(spans []span, root string) map[int]float64 {
	self := selfTimes(spans)
	inner := map[int]time.Duration{}
	for i, s := range spans {
		if s.Parent >= 0 {
			inner[s.Op] += self[i]
		}
	}
	out := map[int]float64{}
	for _, s := range spans {
		if s.Parent < 0 && s.Name == root && s.dur() > 0 {
			out[s.Op] = float64(inner[s.Op]) / float64(s.dur())
		}
	}
	return out
}

// write stores the spans as JSON at path and as Chrome trace-event JSON
// (for Perfetto or chrome://tracing) beside it, with ".chrome.json" in
// place of the ".json" suffix.
func (l *spanLog) write(path string) error {
	if err := writeJSONFile(path, struct {
		Spans []span `json:"spans"`
	}{l.spans}); err != nil {
		return err
	}
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		args := map[string]any{"op": s.Op}
		if s.Label != "" {
			args["label"] = s.Label
		}
		if s.Folded {
			args["folded"] = true
		}
		events = append(events, event{Name: s.Name, Cat: "bench", Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			PID: 1, TID: s.Lane, Args: args})
	}
	chrome := strings.TrimSuffix(path, ".json") + ".chrome.json"
	return writeJSONFile(chrome, struct {
		TraceEvents []event `json:"traceEvents"`
	}{events})
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
