package main

import (
	"errors"
	"testing"

	"triosim/internal/core"
)

// TestReplayRunsExitCodes: identical runs pass with the first run, a
// diverging digest is exit 1, and a failed run is exit 2.
func TestReplayRunsExitCodes(t *testing.T) {
	runs := func(results ...*core.Result) func() (*core.Result, error) {
		i := 0
		return func() (*core.Result, error) {
			r := results[i]
			i++
			if r == nil {
				return nil, errors.New("run failed")
			}
			return r, nil
		}
	}
	a := &core.Result{EventDigest: 0xa, Events: 3, TotalTime: 1}
	same := *a
	moved := *a
	moved.EventDigest = 0xb

	first, code := replayRuns("-replay", 3, runs(a, &same, &same))
	if code != 0 || first != a {
		t.Errorf("identical runs: code %d, first %p, want 0 and %p",
			code, first, a)
	}
	if _, code := replayRuns("-replay", 3, runs(a, &same, &moved)); code != 1 {
		t.Errorf("diverging digest: code %d, want 1", code)
	}
	if _, code := replayRuns("-replay", 2, runs(a, nil)); code != 2 {
		t.Errorf("failed run: code %d, want 2", code)
	}
}

// TestRunServingReplay runs the serving gate end to end: seeded replay,
// reseeding, observer transparency and the faulted leg all pass.
func TestRunServingReplay(t *testing.T) {
	if code := runServingReplay(2, 7); code != 0 {
		t.Fatalf("runServingReplay exit %d, want 0", code)
	}
}
