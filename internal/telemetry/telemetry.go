// Package telemetry is TrioSim's unified metrics layer: a deterministic,
// virtual-time-aware registry of counters, gauges, and fixed-bucket
// histograms, plus the collector that threads instrumentation through the
// simulator (per-GPU compute/comm/idle accounting, per-link utilization,
// collective bandwidths, and engine self-profiling). WriteTimelineHTML
// renders a run's span log and RunReport as a self-contained HTML timeline.
//
// The package obeys the serial-engine determinism contract (triosimvet):
// no locks, no goroutines, no wall-clock reads. All mutation happens on the
// engine goroutine via hooks and observers; every export path iterates in
// sorted key order so two identical runs render byte-identical output. The
// thread-safe live surface (HTTP /metrics) lives in internal/monitor, which
// snapshots a rendered registry under its own lock at the boundary.
package telemetry

import (
	"fmt"
	"io"
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

// SetMax stores v only when it exceeds the current value (high-water marks).
func (g *Gauge) SetMax(v float64) {
	if v > g.value {
		g.value = v
	}
}

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
}

// Registry holds every metric of one simulation run. It is not safe for
// concurrent use: all writes happen on the engine goroutine, and readers
// outside it must go through a boundary snapshot (see internal/monitor).
type Registry struct {
	families  map[string]*family
	order     []string // family registration order (re-sorted at export)
	counters  map[metricKey]*Counter
	gauges    map[metricKey]*Gauge
	hists     map[metricKey]*Histogram
	histainfo map[string][]float64 // family -> bounds
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families:  map[string]*family{},
		counters:  map[metricKey]*Counter{},
		gauges:    map[metricKey]*Gauge{},
		hists:     map[metricKey]*Histogram{},
		histainfo: map[string][]float64{},
	}
}

func (r *Registry) familyOf(name, labelKey, help string, kind MetricKind) *family {
	f := r.families[name]
	if f == nil {
		f = &family{name: name, labelKey: labelKey, kind: kind, help: help}
		r.families[name] = f
		r.order = append(r.order, name)
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
	r.familyOf(name, labelKey, help, KindHistogram)
	if _, ok := r.histainfo[name]; !ok {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		r.histainfo[name] = b
	}
	k := metricKey{name, labelValue}
	h := r.hists[k]
	if h == nil {
		b := r.histainfo[name]
		h = &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
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

// Export dumps every series sorted by (family name, label value) — a
// deterministic total order regardless of registration or map order.
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
// series, histograms expanded into _bucket/_sum/_count.
func (r *Registry) WriteProm(w io.Writer) error {
	names := make([]string, len(r.order))
	copy(names, r.order)
	sort.Strings(names)

	points := r.Export()
	var b strings.Builder
	for _, name := range names {
		f := r.families[name]
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, f.kind)
		for _, p := range points {
			if p.Name != name {
				continue
			}
			switch f.kind {
			case KindCounter, KindGauge:
				fmt.Fprintf(&b, "%s%s %s\n", name,
					promLabels(f.labelKey, p.LabelValue), promFloat(p.Value))
			case KindHistogram:
				cum := uint64(0)
				h := r.hists[metricKey{name, p.LabelValue}]
				for i, bound := range h.bounds {
					cum += h.counts[i]
					fmt.Fprintf(&b, "%s_bucket%s %d\n", name,
						promLabelsLE(f.labelKey, p.LabelValue, promFloat(bound)),
						cum)
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", name,
					promLabelsLE(f.labelKey, p.LabelValue, "+Inf"), h.count)
				fmt.Fprintf(&b, "%s_sum%s %s\n", name,
					promLabels(f.labelKey, p.LabelValue), promFloat(h.sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", name,
					promLabels(f.labelKey, p.LabelValue), h.count)
			}
		}
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
