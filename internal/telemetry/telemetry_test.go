package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	var c Counter
	c.Add(3)
	c.Add(-5) // ignored: counters only go up
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("counter = %v", c.Value())
	}

	var g Gauge
	g.Set(2)
	g.SetMax(1) // ignored
	g.SetMax(7)
	if g.Value() != 7 {
		t.Fatalf("gauge = %v", g.Value())
	}

	r := NewRegistry()
	h := r.Histogram("d", "", "", "", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 106.5 {
		t.Fatalf("hist count=%d sum=%v", h.Count(), h.Sum())
	}
	// Prometheus le semantics: a value equal to a bound falls in that bound's
	// bucket.
	if got := h.Counts(); got[0] != 2 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("buckets = %v", got)
	}
}

func TestRegistryReusesSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("triosim_x_total", "gpu", "gpu0", "help")
	b := r.Counter("triosim_x_total", "gpu", "gpu0", "help")
	if a != b {
		t.Fatal("same (name, label) must return the same counter")
	}
	a.Add(2)
	if b.Value() != 2 {
		t.Fatal("series not shared")
	}
}

func TestExportSortedAndStable(t *testing.T) {
	build := func(order []string) []MetricPoint {
		r := NewRegistry()
		for _, l := range order {
			r.Counter("triosim_bytes_total", "link", l, "h").Add(1)
		}
		r.Gauge("triosim_util", "link", "a", "h").Set(0.5)
		return r.Export()
	}
	x := build([]string{"b", "a", "c"})
	y := build([]string{"c", "b", "a"})
	if len(x) != 4 || len(x) != len(y) {
		t.Fatalf("export sizes %d vs %d", len(x), len(y))
	}
	for i := range x {
		if x[i].Name != y[i].Name || x[i].LabelValue != y[i].LabelValue ||
			x[i].Value != y[i].Value {
			t.Fatalf("export order differs at %d: %+v vs %+v", i, x[i], y[i])
		}
	}
	if x[0].Name != "triosim_bytes_total" || x[0].LabelValue != "a" {
		t.Fatalf("unexpected first point %+v", x[0])
	}
}

func TestWritePromFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("triosim_events_total", "kind", "funcEvent", "Events.").Add(42)
	r.Gauge("triosim_link_utilization_ratio", "link", "gpu0->sw", "Util.").
		Set(0.25)
	h := r.Histogram("triosim_flow_duration_seconds", "", "", "Durations.",
		[]float64{0.001, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# HELP triosim_events_total Events.",
		"# TYPE triosim_events_total counter",
		`triosim_events_total{kind="funcEvent"} 42`,
		`triosim_link_utilization_ratio{link="gpu0->sw"} 0.25`,
		"# TYPE triosim_flow_duration_seconds histogram",
		`triosim_flow_duration_seconds_bucket{le="0.001"} 1`,
		`triosim_flow_duration_seconds_bucket{le="0.1"} 2`,
		`triosim_flow_duration_seconds_bucket{le="+Inf"} 2`,
		"triosim_flow_duration_seconds_sum 0.0505",
		"triosim_flow_duration_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

func TestOpCategory(t *testing.T) {
	cases := map[string]string{
		"conv2d":      "conv",
		"conv2d_bwd":  "conv",
		"linear":      "gemm",
		"matmul":      "gemm",
		"batchnorm":   "norm",
		"layernorm":   "norm",
		"maxpool_bwd": "pool",
		"relu":        "activation",
		"gelu":        "activation",
		"add_residual": func() string {
			return "elementwise"
		}(),
		"sgd_step":     "optimizer",
		"adam_step":    "optimizer",
		"crossentropy": "loss",
		"mystery_op":   "other",
	}
	for name, want := range cases {
		if got := OpCategory(name); got != want {
			t.Errorf("OpCategory(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestCollectiveLogNilSafe(t *testing.T) {
	var log *CollectiveLog
	log.Record("x", "ring-allreduce", 4, 100, 1.5) // must not panic
	if log.Get("x") != nil {
		t.Fatal("nil log returned an entry")
	}
	log = NewCollectiveLog()
	log.Record("x", "ring-allreduce", 4, 100, 1.5)
	e := log.Get("x")
	if e == nil || e.Algo != "ring-allreduce" || e.Ranks != 4 ||
		e.PayloadBytes != 100 || e.BusFactor != 1.5 {
		t.Fatalf("entry = %+v", e)
	}
}

func TestReportValidate(t *testing.T) {
	rep := &RunReport{
		Schema:   ReportSchema,
		TotalSec: 2,
		GPUs: []GPUStat{{
			GPU: 0, ComputeSec: 1, ExposedCommSec: 0.5,
			ExposedHostSec: 0.25, IdleSec: 0.25,
		}},
		Links: []LinkStat{{Link: "a->b", Bytes: 10, Utilization: 0.5}},
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}

	bad := *rep
	bad.GPUs = []GPUStat{{GPU: 0, ComputeSec: 1, IdleSec: 0.2}}
	if bad.Validate() == nil {
		t.Fatal("mis-summing GPU accepted")
	}

	bad = *rep
	bad.Schema = "nope"
	if bad.Validate() == nil {
		t.Fatal("wrong schema accepted")
	}

	bad = *rep
	bad.Links = []LinkStat{{Link: "a->b", Bytes: 1, Utilization: 1.5}}
	if bad.Validate() == nil {
		t.Fatal("utilization > 1 accepted")
	}
}

func TestParseReportRoundTrip(t *testing.T) {
	rep := &RunReport{
		Schema: ReportSchema, Model: "m", Platform: "P1",
		Parallelism: "ddp", NumGPUs: 2, Iterations: 1, TotalSec: 1,
		GPUs: []GPUStat{
			{GPU: 0, ComputeSec: 0.6, ExposedCommSec: 0.4},
			{GPU: 1, ComputeSec: 1},
		},
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Model != "m" || len(got.GPUs) != 2 || got.GPUs[1].ComputeSec != 1 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if _, err := ParseReport([]byte(`{"schema":"other/v9"}`)); err == nil {
		t.Fatal("foreign schema accepted")
	}
}
