package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// goldenFigure is the serialized form pinned in testdata: rows in order,
// values formatted to 12 significant digits (stable across rebuilds, below
// the noise floor of any real regression).
type goldenFigure struct {
	ID      string      `json:"id"`
	Title   string      `json:"title"`
	Columns []string    `json:"columns"`
	Rows    []goldenRow `json:"rows"`
	Notes   []string    `json:"notes"`
}

type goldenRow struct {
	Model  string            `json:"model"`
	Config string            `json:"config"`
	Values map[string]string `json:"values"`
}

func goldenBytes(t *testing.T, f *Figure) []byte {
	t.Helper()
	g := goldenFigure{ID: f.ID, Title: f.Title, Columns: f.Columns,
		Notes: f.Notes}
	for _, r := range f.Rows {
		vals := map[string]string{}
		for k, v := range r.Values {
			vals[k] = fmt.Sprintf("%.12g", v)
		}
		g.Rows = append(g.Rows, goldenRow{Model: r.Model, Config: r.Config,
			Values: vals})
	}
	out, err := json.MarshalIndent(&g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// checkGolden regenerates the figure serially and in parallel, requires the
// two to be byte-identical, and pins the serial bytes against testdata.
// UPDATE_GOLDEN=1 rewrites the files.
func checkGolden(t *testing.T, id string,
	gen func(Options) (*Figure, error)) {
	t.Helper()

	serial, err := gen(Serial)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := gen(Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	sb := goldenBytes(t, serial)
	pb := goldenBytes(t, parallel)
	if !bytes.Equal(sb, pb) {
		t.Fatalf("%s: parallel sweep output differs from serial", id)
	}

	path := filepath.Join("testdata", id+".golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, sb, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if !bytes.Equal(sb, want) {
		t.Fatalf("%s: output differs from %s (rerun with UPDATE_GOLDEN=1 "+
			"after verifying the change is intended)", id, path)
	}
}

func TestGoldenTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy figure regeneration; run without -short")
	}
	checkGolden(t, "table1", func(o Options) (*Figure, error) {
		return Table1Opts(true, o)
	})
}

func TestGoldenFig6(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy figure regeneration; run without -short")
	}
	checkGolden(t, "fig6", func(o Options) (*Figure, error) {
		return Fig6Opts(true, o)
	})
}

func TestGoldenFig7(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy figure regeneration; run without -short")
	}
	checkGolden(t, "fig7", func(o Options) (*Figure, error) {
		return Fig7Opts(true, o)
	})
}

func TestGoldenResilience(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy figure regeneration; run without -short")
	}
	checkGolden(t, "resilience", func(o Options) (*Figure, error) {
		return ResilienceOpts(true, o, nil, 0)
	})
}

func TestGoldenServing(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy figure regeneration; run without -short")
	}
	checkGolden(t, "serving", func(o Options) (*Figure, error) {
		return ServingOpts(true, o)
	})
}

// The acceptance criterion for the sweep engine: a quick-mode figure run is
// at least 2× faster in parallel than serially on a machine with ≥4 cores.
// The comparison uses Fig7 (a pure per-model grid with no shared stages).
func TestParallelSweepSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement; run without -short")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >=4 cores for the speedup bound, have %d",
			runtime.NumCPU())
	}
	measure := func(o Options) time.Duration {
		start := time.Now()
		if _, err := Fig7Opts(true, o); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	measure(Serial) // warm any lazy initialization before timing
	serial := measure(Serial)
	parallel := measure(Options{})
	t.Logf("serial %v, parallel %v (%.2fx)", serial, parallel,
		float64(serial)/float64(parallel))
	if float64(serial)/float64(parallel) < 2 {
		t.Fatalf("parallel sweep %.2fx speedup below 2x (serial %v, parallel %v)",
			float64(serial)/float64(parallel), serial, parallel)
	}
}

func TestGoldenFig15(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy figure regeneration; run without -short")
	}
	checkGolden(t, "fig15", func(o Options) (*Figure, error) {
		return Fig15Opts(true, o)
	})
}
