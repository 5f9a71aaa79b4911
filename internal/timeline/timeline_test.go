package timeline

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sort"
	"testing"

	"triosim/internal/sim"
)

func TestSumAndUnion(t *testing.T) {
	tl := New()
	tl.Add("gpu0", "a", "compute", 0, 2)
	tl.Add("gpu0", "b", "compute", 1, 3) // overlaps a
	tl.Add("gpu1", "c", "comm", 5, 6)

	if got := tl.SumTime(ByPhase("compute")); got != 4 {
		t.Fatalf("SumTime = %v, want 4", got)
	}
	if got := tl.UnionTime(ByPhase("compute")); got != 3 {
		t.Fatalf("UnionTime = %v, want 3", got)
	}
	if got := tl.UnionTime(ByPhase("comm")); got != 1 {
		t.Fatalf("comm UnionTime = %v, want 1", got)
	}
	if got := tl.UnionTime(func(*Interval) bool { return true }); got != 4 {
		t.Fatalf("all UnionTime = %v, want 4 (gap between 3 and 5)", got)
	}
}

func TestSpan(t *testing.T) {
	tl := New()
	if s, e := tl.Span(); s != 0 || e != 0 {
		t.Fatal("empty span not zero")
	}
	tl.Add("x", "a", "p", 2, 4)
	tl.Add("x", "b", "p", 1, 3)
	s, e := tl.Span()
	if s != 1 || e != 4 {
		t.Fatalf("span = [%v, %v]", s, e)
	}
}

func TestFilters(t *testing.T) {
	tl := New()
	tl.Add("gpu0", "a", "compute", 0, 1)
	tl.Add("gpu1", "b", "compute", 0, 2)
	got := tl.SumTime(And(ByResource("gpu1"), ByPhase("compute")))
	if got != 2 {
		t.Fatalf("And filter = %v", got)
	}
	rs := tl.Resources()
	if len(rs) != 2 || rs[0] != "gpu0" || rs[1] != "gpu1" {
		t.Fatalf("Resources = %v", rs)
	}
}

func TestUnionAdjacentIntervals(t *testing.T) {
	tl := New()
	tl.Add("g", "a", "p", 0, 1)
	tl.Add("g", "b", "p", 1, 2) // touching, not overlapping
	if got := tl.UnionTime(ByPhase("p")); got != 2 {
		t.Fatalf("adjacent union = %v, want 2", got)
	}
}

func TestUnionIgnoresEmptyIntervals(t *testing.T) {
	tl := New()
	tl.Add("g", "zero", "p", 5, 5)
	if got := tl.UnionTime(ByPhase("p")); got != 0 {
		t.Fatalf("empty-interval union = %v", got)
	}
}

// Property: union <= sum, and union >= max single duration.
func TestUnionBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		tl := New()
		var maxDur sim.VTime
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			s := sim.VTime(rng.Intn(100))
			d := sim.VTime(1 + rng.Intn(20))
			tl.Add("g", "x", "p", s, s+d)
			if d > maxDur {
				maxDur = d
			}
		}
		sum := tl.SumTime(ByPhase("p"))
		union := tl.UnionTime(ByPhase("p"))
		if union > sum || union < maxDur {
			t.Fatalf("trial %d: union %v, sum %v, max %v",
				trial, union, sum, maxDur)
		}
	}
}

// Property: union equals a brute-force sweep over integer points.
func TestUnionMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		tl := New()
		n := 1 + rng.Intn(10)
		type span struct{ s, e int }
		var spans []span
		for i := 0; i < n; i++ {
			s := rng.Intn(50)
			e := s + 1 + rng.Intn(10)
			spans = append(spans, span{s, e})
			tl.Add("g", "x", "p", sim.VTime(s), sim.VTime(e))
		}
		covered := map[int]bool{}
		for _, sp := range spans {
			for x := sp.s; x < sp.e; x++ {
				covered[x] = true
			}
		}
		got := tl.UnionTime(ByPhase("p"))
		if got != sim.VTime(len(covered)) {
			keys := make([]int, 0)
			for k := range covered {
				keys = append(keys, k)
			}
			sort.Ints(keys)
			t.Fatalf("trial %d: union %v, brute force %d", trial, got,
				len(covered))
		}
	}
}

func TestChromeTraceExport(t *testing.T) {
	tl := New()
	tl.Add("gpu0", "conv2d", "compute", 0, 1e-3)
	tl.Add("net", "allreduce", "comm", 1e-3, 2e-3)
	var buf bytes.Buffer
	if err := tl.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid chrome trace JSON: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}
	if events[0]["name"] != "conv2d" || events[0]["ph"] != "X" {
		t.Fatalf("bad event: %v", events[0])
	}
	if events[0]["dur"].(float64) != 1000 {
		t.Fatalf("duration should be in microseconds: %v", events[0]["dur"])
	}
}

func TestSummary(t *testing.T) {
	tl := New()
	tl.Add("gpu0", "a", "compute", 0, 1)
	if s := tl.Summary(); s == "" {
		t.Fatal("empty summary")
	}
}

// TestUnionTimeAllocs gates UnionTime at one allocation: the edge slice,
// sized exactly from a counting pass and sorted in place.
func TestUnionTimeAllocs(t *testing.T) {
	tl := New()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		s := sim.VTime(rng.Intn(1000))
		phase := "compute"
		if i%3 == 0 {
			phase = "comm"
		}
		tl.Add("gpu0", "op", phase, s, s+sim.VTime(rng.Intn(20)))
	}
	match := ByPhase("compute")
	var got sim.VTime
	allocs := testing.AllocsPerRun(20, func() { got = tl.UnionTime(match) })
	if allocs != 1 {
		t.Fatalf("UnionTime allocates %v times, want 1", allocs)
	}
	if got <= 0 {
		t.Fatalf("UnionTime = %v over 500 intervals", got)
	}
}
