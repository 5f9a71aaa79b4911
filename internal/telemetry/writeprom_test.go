package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateProm = flag.Bool("update-prom", false,
	"rewrite testdata/writeprom.golden from the current tree")

// promFixture holds every kind of series WriteProm renders: labeled and
// unlabeled counters, gauges and histograms, a family without help text, a
// labeled family with an empty label value, and histogram observations
// below the first bound, on a bound and above the last.
func promFixture() *Registry {
	r := NewRegistry()
	r.Counter("fx_events_total", "", "", "Events dispatched.").Add(7)
	r.Counter("fx_bytes_total", "link", "nvlink0", "Bytes moved.").Add(1.5e9)
	r.Counter("fx_bytes_total", "link", "pcie1", "Bytes moved.").Add(3)
	r.Counter("fx_bytes_total", "link", "", "Bytes moved.").Add(0.5)
	r.Gauge("fx_utilization_ratio", "", "", "Mean utilization.").Set(0.25)
	r.Gauge("fx_queue_depth", "queue", "b", "Queued items.").Set(4)
	r.Gauge("fx_queue_depth", "queue", "a", "Queued items.").Set(-2)
	r.Gauge("fx_bare", "", "", "").Set(1e20)
	lat := r.Histogram("fx_latency_seconds", "", "", "Request latency.",
		[]float64{0.001, 0.25, 60})
	for _, v := range []float64{0.0001, 0.001, 0.1, 0.25, 61, 1e3} {
		lat.Observe(v)
	}
	for i, op := range []string{"fwd", "bwd"} {
		h := r.Histogram("fx_op_seconds", "op", op, "Operator time.",
			DurationBuckets)
		for _, v := range []float64{1e-7, 3e-4, 20} {
			h.Observe(v * float64(i+1))
		}
	}
	return r
}

// TestWritePromGolden pins WriteProm's bytes for promFixture.
func TestWritePromGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := promFixture().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "writeprom.golden")
	if *updateProm {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-prom to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteProm output differs from %s:\n got:\n%s\nwant:\n%s",
			path, buf.Bytes(), want)
	}
}

// TestWritePromWellFormed checks the exposition's structure: HELP and TYPE
// once per family and before its samples, every sample named for the family
// above it, and histogram buckets cumulative with +Inf equal to _count.
func TestWritePromWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := promFixture().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	checkExposition(t, buf.String())
}

// checkExposition fails t on any structural fault in a Prometheus text
// exposition.
func checkExposition(t *testing.T, text string) {
	t.Helper()
	seen, helped := map[string]bool{}, map[string]bool{}
	var family, kind string
	var lastBucket uint64
	inf := map[string]uint64{} // series (labels minus le) -> +Inf count
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			if seen[name] || helped[name] {
				t.Errorf("HELP for %s after its TYPE or repeated", name)
			}
			helped[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family, kind, _ = strings.Cut(rest, " ")
			if seen[family] {
				t.Errorf("TYPE %s repeated", family)
			}
			seen[family] = true
			lastBucket = 0
			continue
		}
		if family == "" {
			t.Fatalf("sample before any TYPE: %q", line)
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed sample %q", line)
		}
		metric, labels, _ := strings.Cut(name, "{")
		switch {
		case kind != "histogram" && metric == family:
		case kind == "histogram" && metric == family+"_bucket":
			n, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				t.Fatalf("bucket count %q: %v", value, err)
			}
			if n < lastBucket {
				t.Errorf("%s: bucket count %d below previous %d", line, n,
					lastBucket)
			}
			lastBucket = n
			if i := strings.Index(labels, `le="+Inf"`); i >= 0 {
				inf[family+"{"+labels[:i]] = n
				lastBucket = 0
			}
		case kind == "histogram" && metric == family+"_sum":
		case kind == "histogram" && metric == family+"_count":
			key := family + "{" + strings.TrimSuffix(labels, "}")
			if labels != "" {
				key += ","
			}
			n, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				t.Fatalf("count %q: %v", value, err)
			}
			if got, ok := inf[key]; !ok || got != n {
				t.Errorf("%s: +Inf bucket %d (present %v), want _count %d",
					family, got, ok, n)
			}
		default:
			t.Errorf("sample %q does not belong to family %s (%s)", line,
				family, kind)
		}
	}
}

// TestFamilyMismatchPanics checks the registration invariant: a family name
// registered again with another kind or label key is a programming error,
// since one of the two series would otherwise vanish from every export.
func TestFamilyMismatchPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		add  func(r *Registry)
	}{
		{"kind", func(r *Registry) { r.Gauge("m_total", "", "", "") }},
		{"label key", func(r *Registry) {
			r.Counter("m_total", "link", "a", "")
		}},
		{"histogram kind", func(r *Registry) {
			r.Histogram("m_total", "", "", "", DurationBuckets)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			r.Counter("m_total", "", "", "Help.").Inc()
			defer func() {
				if recover() == nil {
					t.Fatal("mismatched registration did not panic")
				}
			}()
			tc.add(r)
		})
	}
}
