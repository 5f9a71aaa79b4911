package task

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"triosim/internal/network"
	"triosim/internal/sim"
	"triosim/internal/timeline"
)

func TestGraphBuildAndValidate(t *testing.T) {
	g := NewGraph()
	a := g.AddCompute(0, 1, "a")
	b := g.AddCompute(0, 2, "b")
	c := g.AddComm(0, 1, 1e9, "c")
	g.AddDep(a, b)
	g.AddDep(b, c)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 3 {
		t.Fatalf("Len = %d", g.Len())
	}
	if deps := g.Deps(b.ID); len(deps) != 1 || int(deps[0]) != a.ID {
		t.Fatalf("deps of b: %v", deps)
	}
	if dnts := g.Dependents(a.ID); len(dnts) != 1 || int(dnts[0]) != b.ID {
		t.Fatalf("dependents of a: %v", dnts)
	}
}

func TestDuplicateAndSelfDepsIgnored(t *testing.T) {
	g := NewGraph()
	a := g.AddCompute(0, 1, "a")
	b := g.AddCompute(0, 1, "b")
	g.AddDep(a, b)
	g.AddDep(a, b)
	g.AddDep(a, a)
	g.AddDep(nil, b)
	g.AddDep(a, nil)
	if len(g.Deps(b.ID)) != 1 {
		t.Fatalf("duplicate dep recorded: %v", g.Deps(b.ID))
	}
	if len(g.Deps(a.ID)) != 0 {
		t.Fatalf("self dep recorded: %v", g.Deps(a.ID))
	}
}

func TestCycleDetected(t *testing.T) {
	g := NewGraph()
	a := g.AddCompute(0, 1, "a")
	b := g.AddCompute(0, 1, "b")
	g.AddDep(a, b)
	g.AddDep(b, a)
	if err := g.Validate(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestValidateRejectsBadFields(t *testing.T) {
	g := NewGraph()
	c := g.AddCompute(0, 1, "x")
	c.Duration = -1
	if g.Validate() == nil {
		t.Fatal("negative duration accepted")
	}
	g = NewGraph()
	c = g.AddCompute(0, 1, "x")
	c.GPU = -1
	if g.Validate() == nil {
		t.Fatal("negative GPU accepted")
	}
	g = NewGraph()
	cm := g.AddComm(0, 1, 1, "x")
	cm.Bytes = -5
	if g.Validate() == nil {
		t.Fatal("negative bytes accepted")
	}
}

func TestCriticalPath(t *testing.T) {
	g := NewGraph()
	a := g.AddCompute(0, 3, "a")
	b := g.AddCompute(1, 5, "b")
	c := g.AddCompute(0, 4, "c")
	g.AddDep(a, c) // chain a→c = 7; b alone = 5
	if got := g.CriticalPathLength(); got != 7 {
		t.Fatalf("critical path = %v, want 7", got)
	}
	g.AddDep(b, c) // chain b→c = 9
	if got := g.CriticalPathLength(); got != 9 {
		t.Fatalf("critical path = %v, want 9", got)
	}
}

func TestSummarize(t *testing.T) {
	g := NewGraph()
	g.AddCompute(0, 2, "a")
	g.AddComm(0, 1, 100, "b")
	g.AddHostLoad(9, 0, 50, "c")
	g.AddBarrier("d")
	s := g.Summarize()
	if s.Compute != 1 || s.Comm != 1 || s.HostLoad != 1 || s.Barrier != 1 {
		t.Fatalf("summary %+v", s)
	}
	if s.ComputeTime != 2 || s.CommBytes != 150 {
		t.Fatalf("summary %+v", s)
	}
}

func TestKindString(t *testing.T) {
	if Compute.String() != "compute" || Barrier.String() != "barrier" {
		t.Fatal("kind names wrong")
	}
}

// runGraph executes g on a serial engine with an ideal network.
func runGraph(t *testing.T, g *Graph, bw float64,
	lat sim.VTime) (sim.VTime, *timeline.Timeline) {
	t.Helper()
	eng := sim.NewSerialEngine()
	net := network.NewIdealNetwork(eng, bw, lat)
	tl := timeline.New()
	x := NewExecutor(eng, net, g, tl)
	makespan, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	return makespan, tl
}

func TestExecutorSerializesPerGPU(t *testing.T) {
	g := NewGraph()
	g.AddCompute(0, 2, "a")
	g.AddCompute(0, 3, "b")
	g.AddCompute(1, 4, "c")
	makespan, tl := runGraph(t, g, 1e9, 0)
	// GPU0 runs a then b (5); GPU1 runs c (4) concurrently.
	if makespan != 5 {
		t.Fatalf("makespan = %v, want 5", makespan)
	}
	if busy := tl.UnionTime(timeline.ByResource("gpu0")); busy != 5 {
		t.Fatalf("gpu0 busy = %v", busy)
	}
	if busy := tl.UnionTime(timeline.ByResource("gpu1")); busy != 4 {
		t.Fatalf("gpu1 busy = %v", busy)
	}
}

func TestExecutorHonorsDeps(t *testing.T) {
	g := NewGraph()
	a := g.AddCompute(0, 2, "a")
	b := g.AddCompute(1, 3, "b")
	g.AddDep(a, b) // b waits for a even though on another GPU
	makespan, _ := runGraph(t, g, 1e9, 0)
	if makespan != 5 {
		t.Fatalf("makespan = %v, want 5", makespan)
	}
}

func TestExecutorCommPath(t *testing.T) {
	g := NewGraph()
	a := g.AddCompute(0, 1, "a")
	c := g.AddComm(0, 1, 2e9, "xfer") // 2 s at 1 GB/s
	b := g.AddCompute(1, 1, "b")
	g.AddDep(a, c)
	g.AddDep(c, b)
	makespan, tl := runGraph(t, g, 1e9, 0)
	if makespan != 4 {
		t.Fatalf("makespan = %v, want 4", makespan)
	}
	if commTime := tl.UnionTime(timeline.ByPhase("comm")); commTime != 2 {
		t.Fatalf("comm time = %v, want 2", commTime)
	}
}

func TestExecutorBarrierInstant(t *testing.T) {
	g := NewGraph()
	a := g.AddCompute(0, 1, "a")
	bar := g.AddBarrier("sync")
	b := g.AddCompute(1, 1, "b")
	g.AddDep(a, bar)
	g.AddDep(bar, b)
	makespan, _ := runGraph(t, g, 1e9, 0)
	if makespan != 2 {
		t.Fatalf("makespan = %v, want 2", makespan)
	}
}

func TestExecutorHostLoadPhase(t *testing.T) {
	g := NewGraph()
	h := g.AddHostLoad(9, 0, 1e9, "stage-input")
	c := g.AddCompute(0, 1, "fwd")
	g.AddDep(h, c)
	makespan, tl := runGraph(t, g, 1e9, 0)
	if makespan != 2 {
		t.Fatalf("makespan = %v, want 2", makespan)
	}
	if hl := tl.UnionTime(timeline.ByPhase("hostload")); hl != 1 {
		t.Fatalf("hostload time = %v", hl)
	}
}

func TestExecutorRejectsCyclicGraph(t *testing.T) {
	g := NewGraph()
	a := g.AddCompute(0, 1, "a")
	b := g.AddCompute(0, 1, "b")
	g.AddDep(a, b)
	g.AddDep(b, a)
	eng := sim.NewSerialEngine()
	x := NewExecutor(eng, network.NewIdealNetwork(eng, 1, 0), g,
		timeline.New())
	if _, err := x.Run(); err == nil {
		t.Fatal("cyclic graph executed")
	}
}

func TestExecutorEmptyGraph(t *testing.T) {
	g := NewGraph()
	makespan, _ := runGraph(t, g, 1e9, 0)
	if makespan != 0 {
		t.Fatalf("empty graph makespan = %v", makespan)
	}
}

// Property: for random DAGs, (1) every task runs exactly once, (2) the
// makespan is at least the critical-path length and at most the serial sum.
func TestExecutorRandomDAGsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		g := NewGraph()
		n := 2 + rng.Intn(30)
		nGPU := 1 + rng.Intn(4)
		var serial sim.VTime
		for i := 0; i < n; i++ {
			dur := sim.VTime(rng.Intn(10))
			tk := g.AddCompute(rng.Intn(nGPU), dur, "t")
			serial += dur
			// Edges only to earlier tasks: guaranteed acyclic.
			for j := 0; j < i; j++ {
				if rng.Intn(5) == 0 {
					g.AddDep(g.Task(j), tk)
				}
			}
		}
		makespan, tl := runGraph(t, g, 1e9, 0)
		cp := g.CriticalPathLength()
		if makespan < cp || makespan > serial {
			t.Fatalf("trial %d: makespan %v outside [%v, %v]",
				trial, makespan, cp, serial)
		}
		var runs int
		for i := range tl.Intervals {
			if tl.Intervals[i].Phase == "compute" {
				runs++
			}
		}
		if runs != n {
			t.Fatalf("trial %d: %d compute intervals for %d tasks",
				trial, runs, n)
		}
	}
}

// Property: per-GPU compute intervals never overlap (streams are serial).
func TestExecutorNoComputeOverlapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		g := NewGraph()
		n := 5 + rng.Intn(20)
		for i := 0; i < n; i++ {
			g.AddCompute(rng.Intn(2), sim.VTime(1+rng.Intn(5)), "t")
		}
		_, tl := runGraph(t, g, 1e9, 0)
		for _, res := range []string{"gpu0", "gpu1"} {
			sum := tl.SumTime(timeline.ByResource(res))
			union := tl.UnionTime(timeline.ByResource(res))
			if sum != union {
				t.Fatalf("trial %d: %s has overlapping compute: sum %v, union %v",
					trial, res, sum, union)
			}
		}
	}
}

func TestExecutorWithFlowNetwork(t *testing.T) {
	// End-to-end with the real flow network: two transfers share a link.
	eng := sim.NewSerialEngine()
	topo := network.NewTopology()
	a := topo.AddNode("a", network.GPUNode)
	b := topo.AddNode("b", network.GPUNode)
	topo.AddLink(a, b, 1e9, 0)
	net := network.NewFlowNetwork(eng, topo)

	g := NewGraph()
	g.AddComm(a, b, 1e9, "x1")
	g.AddComm(a, b, 1e9, "x2")
	tl := timeline.New()
	x := NewExecutor(eng, net, g, tl)
	makespan, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if makespan != 2 {
		t.Fatalf("shared-link makespan = %v, want 2", makespan)
	}
}

// randomBusyGraph builds a seeded random DAG over three GPUs mixing every
// task kind: zero-duration computes, transfers that overlap (and local ones
// that take no time), host loads, delays and barriers. Serial compute streams
// and cross-GPU dependencies produce same-instant hand-offs, where one
// interval ends at t and the next starts at t.
func randomBusyGraph(rng *rand.Rand) *Graph {
	g := NewGraph()
	n := 5 + rng.Intn(40)
	for i := 0; i < n; i++ {
		var tk *Task
		switch r := rng.Intn(10); {
		case r < 5:
			dur := sim.VTime(rng.Float64() * 1e-3)
			if rng.Intn(5) == 0 {
				dur = 0
			}
			tk = g.AddCompute(rng.Intn(3), dur, "c")
		case r < 7:
			tk = g.AddComm(network.NodeID(rng.Intn(3)),
				network.NodeID(rng.Intn(3)), rng.Float64()*1e6, "x")
		case r < 8:
			tk = g.AddHostLoad(9, network.NodeID(rng.Intn(3)),
				rng.Float64()*1e6, "h")
		case r < 9:
			tk = g.AddDelay(sim.VTime(rng.Float64()*1e-4), "d")
		default:
			tk = g.AddBarrier("b")
		}
		for j := 0; j < i; j++ {
			if rng.Intn(6) == 0 {
				g.AddDep(g.Task(j), tk)
			}
		}
	}
	return g
}

// TestBusyTimeMatchesUnionTime is the differential test for the executor's
// busy counters: on seeded random graphs, with and without a straggler
// Stretch hook, BusyTime of every resource kind equals the sorted-sweep
// UnionTime over the same run's interval log, bit for bit.
func TestBusyTimeMatchesUnionTime(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		g := randomBusyGraph(rng)
		eng := sim.NewSerialEngine()
		var lat sim.VTime
		if trial%2 == 0 {
			lat = 1e-6
		}
		tl := timeline.New()
		x := NewExecutor(eng, network.NewIdealNetwork(eng, 1e9, lat), g, tl)
		if trial%3 == 0 {
			x.Stretch = func(gpu int, at sim.VTime) float64 {
				if gpu == 1 && at.AtOrAfter(2e-4) {
					return 1.7
				}
				return 1
			}
		}
		if _, err := x.Run(); err != nil {
			t.Fatal(err)
		}
		for _, k := range []Kind{Compute, Comm, HostLoad} {
			got := x.BusyTime(k)
			want := tl.UnionTime(timeline.ByPhase(k.String()))
			if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
				t.Fatalf("trial %d: BusyTime(%s) = %v (%#x), UnionTime %v (%#x)",
					trial, k, got, math.Float64bits(float64(got)), want,
					math.Float64bits(float64(want)))
			}
		}
	}
}

// TestBusyTimeWithoutLog: a nil interval log records nothing but the busy
// counters still run.
func TestBusyTimeWithoutLog(t *testing.T) {
	g := NewGraph()
	a := g.AddCompute(0, 2, "a")
	c := g.AddComm(0, 1, 2e9, "xfer")
	g.AddDep(a, c)
	g.AddCompute(0, 3, "b")
	eng := sim.NewSerialEngine()
	x := NewExecutor(eng, network.NewIdealNetwork(eng, 1e9, 0), g, nil)
	if _, err := x.Run(); err != nil {
		t.Fatal(err)
	}
	if got := x.BusyTime(Compute); got != 5 {
		t.Fatalf("compute busy = %v, want 5", got)
	}
	if got := x.BusyTime(Comm); got != 2 {
		t.Fatalf("comm busy = %v, want 2", got)
	}
	if got := x.BusyTime(HostLoad); got != 0 {
		t.Fatalf("hostload busy = %v, want 0", got)
	}
}

// TestLabelFormMatchesSprintf: a formatted label renders what fmt.Sprintf
// renders for the same format and operands, including operands outside
// int32, which are rendered at once into a static label.
func TestLabelFormMatchesSprintf(t *testing.T) {
	cases := []struct {
		format string
		ints   []int
		args   []any // the Sprintf operands, in verb order
	}{
		{"%s-step%d-rank%d", []int{3, 7}, []any{"ring", 3, 7}},
		{"act-s%d-mb%d-r%d%s", []int{0, -3, math.MaxInt32},
			[]any{0, -3, math.MaxInt32, "ring"}},
		{"opt-s%d-r%d%s-d%d", []int{math.MinInt32, 1, 2},
			[]any{math.MinInt32, 1, "ring", 2}},
		{"%d", []int{math.MaxInt32 + 1}, []any{math.MaxInt32 + 1}},
		{"%s-rank%d", []int{math.MinInt64}, []any{"ring", math.MinInt64}},
		{"x%s", nil, []any{"ring"}},
	}
	g := NewGraph()
	for _, c := range cases {
		want := fmt.Sprintf(c.format, c.args...)
		tk := g.AddBarrier("")
		tk.SetLabelf(NewLabelForm(c.format), "ring", c.ints...)
		if got := tk.Label(); got != want {
			t.Errorf("%q: Label() = %q, want %q", c.format, got, want)
		}
		if got := string(tk.AppendLabel([]byte("p:"))); got != "p:"+want {
			t.Errorf("%q: AppendLabel = %q, want %q", c.format, got,
				"p:"+want)
		}
	}
}
