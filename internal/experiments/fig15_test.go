package experiments

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"triosim/internal/spantrace"
)

// TestFig15TraceDir checks that Fig 15's cells export one valid Chrome trace
// each: the electrical and photonic variants of a model name different
// platforms, so their files do not collide. Span tracing leaves the
// figure's numbers unchanged.
func TestFig15TraceDir(t *testing.T) {
	if testing.Short() {
		t.Skip("writes four 84-GPU span traces; run without -short")
	}
	dir := t.TempDir()
	traced, err := Fig15Opts(true, Options{Workers: 1, TraceDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 4 {
		t.Fatalf("%d trace files, want 4 (2 models × 2 variants): %v",
			len(files), files)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := spantrace.ValidateChromeTrace(data); err != nil {
			t.Fatalf("%s: %v", filepath.Base(f), err)
		}
	}
	plain, err := Fig15(true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(goldenBytes(t, traced), goldenBytes(t, plain)) {
		t.Fatal("span tracing moved Fig 15's numbers")
	}
}

// TestFig15CellHonorsContext checks that a Fig 15 cell runs under its
// sweep context: with a per-cell timeout that has already expired, the
// simulation itself stops the cell with the context's error.
func TestFig15CellHonorsContext(t *testing.T) {
	_, err := Fig15Opts(true, Options{Workers: 1, Timeout: time.Nanosecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the cell's deadline", err)
	}
	if !strings.Contains(err.Error(), "simulation canceled") {
		t.Fatalf("err = %v, want the simulation to stop the cell", err)
	}
}
