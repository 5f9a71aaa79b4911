package sim

import (
	"math"
	"testing"
)

// TestOutcomeDigestOrderFree pins the outcome digest's contract: the same
// records in any order give the same digest, and moving any one bit of an
// ID or a time moves it.
func TestOutcomeDigestOrderFree(t *testing.T) {
	type rec struct {
		id         uint64
		start, end VTime
	}
	recs := []rec{{0, 0, 1e-3}, {1, 1e-3, 2.5e-3}, {2, 2.5e-3, 2.5e-3},
		{7, 0.5e-3, 3e-3}, {OutcomeMakespanID, 3e-3, 3e-3}}
	sum := func(order []int) OutcomeDigest {
		var d OutcomeDigest
		for _, i := range order {
			d.Add(recs[i].id, recs[i].start, recs[i].end)
		}
		return d
	}
	want := sum([]int{0, 1, 2, 3, 4})
	if got := sum([]int{4, 2, 0, 3, 1}); got != want {
		t.Fatalf("reordered records: %#x, want %#x", got, want)
	}
	ulp := func(v VTime) VTime {
		return VTime(math.Float64frombits(math.Float64bits(float64(v)) + 1))
	}
	moved := []rec{{1, 1e-3, ulp(2.5e-3)}, {1, ulp(1e-3), 2.5e-3},
		{3, 1e-3, 2.5e-3}, {1, 2.5e-3, 1e-3}}
	for _, m := range moved {
		var d OutcomeDigest
		for i, r := range recs {
			if i == 1 {
				r = m
			}
			d.Add(r.id, r.start, r.end)
		}
		if d == want {
			t.Errorf("record %+v left the digest at %#x", m, want)
		}
	}
}

// BenchmarkOutcomeDigestAdd is the per-task cost the outcome digest adds to
// a run.
func BenchmarkOutcomeDigestAdd(b *testing.B) {
	var d OutcomeDigest
	for i := 0; i < b.N; i++ {
		d.Add(uint64(i), VTime(i), VTime(i+1))
	}
	if d == 0 {
		b.Fatal("empty digest")
	}
}
