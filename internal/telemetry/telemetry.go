// Package telemetry is TrioSim's unified metrics layer: a deterministic,
// virtual-time-aware registry of counters, gauges, and fixed-bucket
// histograms, plus the Collector, the run's one observer. From one set of
// task, flow, re-solve and dispatch callbacks it feeds the span log (a
// spantrace.Recorder) and the RunReport (per-GPU compute/comm/idle
// accounting, per-link utilization, collective bandwidths, and engine
// self-profiling), either of which may be off. WriteTimelineHTML renders a
// run's span log and RunReport as a self-contained HTML timeline.
//
// The package obeys the serial-engine determinism contract (triosimvet):
// no locks, no goroutines, no wall-clock reads. All mutation happens on the
// engine goroutine via hooks and observers; every export path iterates in
// sorted key order so two identical runs render byte-identical output.
//
// Registry.WriteProm is TrioSim's only Prometheus text writer: every /metrics
// body is a registry rendering. The live surfaces own the locking: the
// monitor (internal/monitor) renders the run's registry on the engine
// goroutine and serves the cached bytes under its own lock, and the daemon
// (internal/server) keeps its counters in a registry guarded by its mutex.
package telemetry

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// MetricKind classifies a metric family.
type MetricKind string

// Metric kinds.
const (
	KindCounter   MetricKind = "counter"
	KindGauge     MetricKind = "gauge"
	KindHistogram MetricKind = "histogram"
)

// Counter is a monotonically increasing value (bytes moved, events seen).
type Counter struct {
	value float64
}

// Add increases the counter. Negative deltas are ignored: counters only go
// up, and a negative add is always an instrumentation bug.
func (c *Counter) Add(v float64) {
	if v > 0 {
		c.value += v
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.value++ }

// Value returns the accumulated total.
func (c *Counter) Value() float64 { return c.value }

// Gauge is a point-in-time value (utilization ratio, queue depth).
type Gauge struct {
	value float64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.value = v }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.value }

// Histogram is a fixed-bucket cumulative histogram. Bounds are upper bucket
// edges in ascending order; an implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1, last is +Inf
	sum    float64
	count  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// Sum returns the total of all observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Bounds returns the configured upper bucket edges.
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Counts returns per-bucket observation counts (last entry is +Inf).
func (h *Histogram) Counts() []uint64 { return h.counts }

// DurationBuckets are the default histogram edges for virtual-time
// durations, log-spaced from 1 µs to 10 s.
var DurationBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10,
}

// metricKey identifies one series within a family.
type metricKey struct {
	name  string
	label string
}

// family holds a metric family's shared metadata.
type family struct {
	name     string
	labelKey string // "" for unlabeled metrics
	kind     MetricKind
	help     string
	// bounds are a histogram family's bucket edges, fixed at its first
	// registration.
	bounds []float64
}

// Registry holds every metric of one simulation run. It is not safe for
// concurrent use: all writes happen on the engine goroutine, and readers
// outside it must go through a boundary snapshot (see internal/monitor).
type Registry struct {
	families map[string]*family
	order    []string // family registration order (re-sorted at export)
	counters map[metricKey]*Counter
	gauges   map[metricKey]*Gauge
	hists    map[metricKey]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families: map[string]*family{},
		counters: map[metricKey]*Counter{},
		gauges:   map[metricKey]*Gauge{},
		hists:    map[metricKey]*Histogram{},
	}
}

// familyOf returns name's family, registering it on first use. A name
// registered again with another kind or label key panics: the registry keys
// series by family name, so one of the two would silently vanish from
// Export and WriteProm.
func (r *Registry) familyOf(name, labelKey, help string, kind MetricKind) *family {
	f := r.families[name]
	if f == nil {
		f = &family{name: name, labelKey: labelKey, kind: kind, help: help}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.kind != kind || f.labelKey != labelKey {
		panic(fmt.Sprintf("telemetry: family %s registered as %s{%s}, "+
			"then as %s{%s}", name, f.kind, f.labelKey, kind, labelKey))
	}
	return f
}

// Counter returns (creating on first use) the counter series name{labelKey=
// labelValue}. Pass empty label strings for an unlabeled metric.
func (r *Registry) Counter(name, labelKey, labelValue, help string) *Counter {
	r.familyOf(name, labelKey, help, KindCounter)
	k := metricKey{name, labelValue}
	c := r.counters[k]
	if c == nil {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns (creating on first use) the gauge series.
func (r *Registry) Gauge(name, labelKey, labelValue, help string) *Gauge {
	r.familyOf(name, labelKey, help, KindGauge)
	k := metricKey{name, labelValue}
	g := r.gauges[k]
	if g == nil {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns (creating on first use) the histogram series with the
// given upper bucket bounds. Bounds are fixed at first registration of the
// family; later calls reuse them.
func (r *Registry) Histogram(name, labelKey, labelValue, help string,
	bounds []float64) *Histogram {
	f := r.familyOf(name, labelKey, help, KindHistogram)
	if f.bounds == nil {
		f.bounds = slices.Clone(bounds)
	}
	k := metricKey{name, labelValue}
	h := r.hists[k]
	if h == nil {
		h = &Histogram{bounds: f.bounds, counts: make([]uint64, len(f.bounds)+1)}
		r.hists[k] = h
	}
	return h
}

// BucketCount is one histogram bucket of a MetricPoint.
type BucketCount struct {
	UpperBound float64 `json:"le"` // +Inf encoded as 0-length omission; see Export
	Count      uint64  `json:"count"`
}

// MetricPoint is one exported metric series, the registry's generic dump
// format (embedded in RunReport and rendered to Prometheus text).
type MetricPoint struct {
	Name       string        `json:"name"`
	Kind       MetricKind    `json:"kind"`
	LabelKey   string        `json:"label_key,omitempty"`
	LabelValue string        `json:"label_value,omitempty"`
	Value      float64       `json:"value"`
	Sum        float64       `json:"sum,omitempty"`
	Count      uint64        `json:"count,omitempty"`
	Buckets    []BucketCount `json:"buckets,omitempty"`
}

// labelValues collects the sorted label values of one family's series.
func labelValues[V any](m map[metricKey]V, name string) []string {
	var out []string
	for k := range m {
		if k.name == name {
			out = append(out, k.label)
		}
	}
	sort.Strings(out)
	return out
}

// Export dumps every series sorted by (family name, label value) — a
// deterministic total order regardless of registration or map order.
func (r *Registry) Export() []MetricPoint {
	names := make([]string, len(r.order))
	copy(names, r.order)
	sort.Strings(names)

	var out []MetricPoint
	for _, name := range names {
		f := r.families[name]
		var labels []string
		switch f.kind {
		case KindCounter:
			labels = labelValues(r.counters, name)
		case KindGauge:
			labels = labelValues(r.gauges, name)
		case KindHistogram:
			labels = labelValues(r.hists, name)
		}
		for _, lv := range labels {
			k := metricKey{name, lv}
			p := MetricPoint{
				Name: name, Kind: f.kind,
				LabelKey: f.labelKey, LabelValue: lv,
			}
			switch f.kind {
			case KindCounter:
				p.Value = r.counters[k].value
			case KindGauge:
				p.Value = r.gauges[k].value
			case KindHistogram:
				h := r.hists[k]
				p.Sum, p.Count = h.sum, h.count
				cum := uint64(0)
				for i, b := range h.bounds {
					cum += h.counts[i]
					p.Buckets = append(p.Buckets,
						BucketCount{UpperBound: b, Count: cum})
				}
			}
			out = append(out, p)
		}
	}
	return out
}

// WriteProm renders the registry in the Prometheus text exposition format
// (version 0.0.4): # HELP / # TYPE headers followed by one sample per
// series, histograms expanded into _bucket/_sum/_count. It is the only
// Prometheus writer in TrioSim; families appear sorted by name.
func (r *Registry) WriteProm(w io.Writer) error {
	var b strings.Builder
	prev := ""
	for _, p := range r.Export() {
		if p.Name != prev {
			prev = p.Name
			if help := r.families[p.Name].help; help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", p.Name, help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", p.Name, p.Kind)
		}
		labels := promLabels(p.LabelKey, p.LabelValue)
		if p.Kind != KindHistogram {
			fmt.Fprintf(&b, "%s%s %s\n", p.Name, labels, promFloat(p.Value))
			continue
		}
		for _, bc := range p.Buckets {
			fmt.Fprintf(&b, "%s_bucket%s %d\n", p.Name,
				promLabelsLE(p.LabelKey, p.LabelValue, promFloat(bc.UpperBound)),
				bc.Count)
		}
		fmt.Fprintf(&b, "%s_bucket%s %d\n", p.Name,
			promLabelsLE(p.LabelKey, p.LabelValue, "+Inf"), p.Count)
		fmt.Fprintf(&b, "%s_sum%s %s\n", p.Name, labels, promFloat(p.Sum))
		fmt.Fprintf(&b, "%s_count%s %d\n", p.Name, labels, p.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func promLabels(key, value string) string {
	if key == "" || value == "" {
		return ""
	}
	return fmt.Sprintf(`{%s=%q}`, key, value)
}

func promLabelsLE(key, value, le string) string {
	if key == "" || value == "" {
		return fmt.Sprintf(`{le=%q}`, le)
	}
	return fmt.Sprintf(`{%s=%q,le=%q}`, key, value, le)
}

// promFloat renders a float the way Prometheus clients do: integral values
// without a decimal point, everything else in minimal form.
func promFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
