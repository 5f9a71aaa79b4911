package timeline

import (
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

func TestFilters(t *testing.T) {
	tl := New()
	tl.Add("gpu0", "a", "compute", 0, 1)
	tl.Add("gpu1", "b", "compute", 0, 2)
	got := tl.SumTime(And(ByResource("gpu1"), ByPhase("compute")))
	if got != 2 {
		t.Fatalf("And filter = %v", got)
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

// TestBreakdownEmpty: an empty timeline breaks down to zero time in every
// phase, whether overlaps are summed or merged.
func TestBreakdownEmpty(t *testing.T) {
	tl := New()
	for _, phase := range []string{"compute", "comm", "hostload"} {
		if s, u := tl.SumTime(ByPhase(phase)), tl.UnionTime(ByPhase(phase)); s != 0 || u != 0 {
			t.Fatalf("empty timeline %s: sum %v union %v", phase, s, u)
		}
	}
	if u := tl.UnionTime(func(*Interval) bool { return true }); u != 0 {
		t.Fatalf("empty timeline busy time = %v", u)
	}
}
