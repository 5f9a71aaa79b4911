package network

import (
	"math"
	"math/rand"
	"testing"

	"triosim/internal/sim"
)

// solveChecker is a RatesRecomputed oracle run after every solve. It
// recomputes by brute force the link-sharing components of the flows in
// flight and checks that the solve re-solved exactly the flows of the
// components that contain a link some flow joined or left since the
// previous solve — every flow, when a capacity changed. With rates set, it
// also checks every flow's rate against the from-scratch referenceRates.
type solveChecker struct {
	t      *testing.T
	net    *FlowNetwork
	rates  bool
	prev   map[int][]DirLink // flows in flight at the previous solve
	capGen int
	solves int
}

func newSolveChecker(t *testing.T, net *FlowNetwork,
	rates bool) *solveChecker {
	return &solveChecker{t: t, net: net, rates: rates,
		prev: map[int][]DirLink{}, capGen: net.topo.CapacityGen()}
}

// FlowFinished implements FlowObserver.
func (c *solveChecker) FlowFinished([]DirLink, float64, sim.VTime,
	sim.VTime) {
}

// RatesRecomputed implements FlowObserver.
func (c *solveChecker) RatesRecomputed(int, sim.VTime) {
	net := c.net
	c.solves++

	// Brute-force components: a union-find over directed links, joining
	// the links of every in-flight flow's route.
	parent := map[DirLink]DirLink{}
	var find func(DirLink) DirLink
	find = func(x DirLink) DirLink {
		p, ok := parent[x]
		if !ok || p == x {
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	cur := map[int][]DirLink{}
	for _, f := range net.ordered {
		cur[f.id] = f.route
		for _, dl := range f.route[1:] {
			if a, b := find(f.route[0]), find(dl); a != b {
				parent[a] = b
			}
		}
	}
	// Seeds: every link of an arrived or a departed flow's route.
	dirty := map[DirLink]bool{}
	for id, route := range cur {
		if _, ok := c.prev[id]; !ok {
			for _, dl := range route {
				dirty[find(dl)] = true
			}
		}
	}
	for id, route := range c.prev {
		if _, ok := cur[id]; !ok {
			for _, dl := range route {
				dirty[find(dl)] = true
			}
		}
	}
	full := net.topo.CapacityGen() != c.capGen
	want := map[int]bool{}
	for _, f := range net.ordered {
		if full || dirty[find(f.route[0])] {
			want[f.id] = true
		}
	}
	got := map[int]bool{}
	for _, f := range net.scratchFlows {
		if got[f.id] {
			c.t.Fatalf("solve %d re-solved flow %d twice", c.solves, f.id)
		}
		got[f.id] = true
	}
	if len(got) != len(want) {
		c.t.Fatalf("solve %d re-solved %d flows, the changed components "+
			"hold %d (full=%v)", c.solves, len(got), len(want), full)
	}
	for id := range want {
		if !got[id] {
			c.t.Fatalf("solve %d skipped flow %d of a changed component",
				c.solves, id)
		}
	}
	c.prev, c.capGen = cur, net.topo.CapacityGen()

	if !c.rates {
		return
	}
	ref := referenceRates(net)
	for _, f := range net.ordered {
		if f.rate != ref[f.id] {
			c.t.Fatalf("solve %d: flow %d rate %g != reference %g",
				c.solves, f.id, f.rate, ref[f.id])
		}
	}
}

// The partitioned dirty-set solve must stay bit-identical to the
// from-scratch reference on a tiered topology, where flows split into many
// independent link-sharing components (intra-machine NVLink islands vs.
// inter-machine rail traffic) and mid-run bandwidth changes force the
// all-dirty fallback. The rates are checked after every solve, and every
// solve must re-solve exactly the components its changes touched.
func TestPartitionedSolveMatchesReferenceOnTieredTopo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	solves := 0
	for trial := 0; trial < 40; trial++ {
		eng := sim.NewSerialEngine()
		topo := RailFatTree(clusterCfg(4, 2), 2, 2)
		gpus := topo.GPUs()
		net := NewFlowNetwork(eng, topo)
		checker := newSolveChecker(t, net, true)
		net.Observer = checker

		n := 8 + rng.Intn(24)
		for i := 0; i < n; i++ {
			at := sim.VTime(rng.Float64()) * sim.Sec
			bytes := float64(1+rng.Intn(50)) * 1e9
			src := gpus[rng.Intn(len(gpus))]
			var dst NodeID
			if rng.Intn(2) == 0 {
				// Bias half the traffic intra-machine so NVLink islands
				// form partitions disjoint from the rail fabric.
				m := int(src) / 2 * 2
				dst = gpus[m+(int(src)+1)%2]
			} else {
				dst = gpus[rng.Intn(len(gpus))]
			}
			if dst == src {
				continue
			}
			eng.Schedule(sim.NewFuncEvent(at, func(sim.VTime) error {
				net.Send(src, dst, bytes, func(sim.VTime) {})
				return nil
			}))
		}
		// A mid-run capacity change invalidates every cached closure via
		// the capacity generation and must fall back to a full solve.
		if trial%3 == 0 {
			lk := rng.Intn(len(topo.Links))
			at := sim.VTime(rng.Float64()) * sim.Sec
			eng.Schedule(sim.NewFuncEvent(at, func(sim.VTime) error {
				topo.SetLinkBandwidth(lk, topo.Links[lk].Bandwidth/2)
				net.RefreshRates()
				return nil
			}))
		}
		stopAt := sim.VTime(rng.Float64()) * sim.Sec
		eng.Schedule(sim.NewFuncEvent(stopAt, func(sim.VTime) error {
			eng.Terminate()
			return nil
		}))
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		solves += checker.solves

		want := referenceRates(net)
		net.computeRates()
		if len(want) != net.InFlight() {
			t.Fatalf("trial %d: reference solved %d flows, have %d",
				trial, len(want), net.InFlight())
		}
		for _, f := range net.ordered {
			if f.rate != want[f.id] {
				t.Fatalf("trial %d: flow %d rate %g != reference %g",
					trial, f.id, f.rate, want[f.id])
			}
		}
	}
	if solves < 40 {
		t.Fatalf("%d solves over 40 trials checked, want at least 40", solves)
	}
}

// A flow arriving inside one machine's NVLink island must not re-solve
// flows confined to another machine: the dirty-set gathers only the
// touched partition.
func TestDirtySetPartitionIsolation(t *testing.T) {
	eng := sim.NewSerialEngine()
	topo := RailFatTree(clusterCfg(2, 2), 2, 1)
	gpus := topo.GPUs() // machine 0: gpus[0..1], machine 1: gpus[2..3]
	net := NewFlowNetwork(eng, topo)

	// Long-running intra-machine flows on both machines.
	net.Send(gpus[0], gpus[1], 500e9, func(sim.VTime) {})
	net.Send(gpus[2], gpus[3], 500e9, func(sim.VTime) {})

	var before, after int
	eng.Schedule(sim.NewFuncEvent(100*sim.MSec, func(sim.VTime) error {
		before = net.SolvedFlows
		net.Send(gpus[0], gpus[1], 1e9, func(sim.VTime) {})
		return nil
	}))
	eng.Schedule(sim.NewFuncEvent(101*sim.MSec, func(sim.VTime) error {
		after = net.SolvedFlows
		eng.Terminate()
		return nil
	}))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// The arrival's solve touches machine 0's partition only: the two
	// machine-0 flows, never machine 1's.
	if got := after - before; got != 2 {
		t.Fatalf("arrival re-solved %d flows, want 2 (machine-0 partition)",
			got)
	}
}

// A component splits when the flow that joined it leaves. Two switch
// islands, X and Y, each carry a long-running flow; a short bridge flow
// crosses both and joins them into one component until it completes. A
// flow then arriving inside X must re-solve X's flows only: Y's flow is in
// a component of its own again.
func TestDirtySetComponentSplits(t *testing.T) {
	eng := sim.NewSerialEngine()
	topo := NewTopology()
	x0 := topo.AddNode("x0", GPUNode)
	x1 := topo.AddNode("x1", GPUNode)
	y0 := topo.AddNode("y0", GPUNode)
	y1 := topo.AddNode("y1", GPUNode)
	sx := topo.AddNode("sx", SwitchNode)
	sy := topo.AddNode("sy", SwitchNode)
	for _, l := range [][2]NodeID{{x0, sx}, {x1, sx}, {y0, sy}, {y1, sy},
		{sx, sy}} {
		topo.AddLink(l[0], l[1], 100e9, sim.USec)
	}
	net := NewFlowNetwork(eng, topo)

	net.Send(x0, x1, 500e9, func(sim.VTime) {}) // X: x0→sx→x1
	net.Send(y0, y1, 500e9, func(sim.VTime) {}) // Y: y0→sy→y1
	// The bridge shares x0→sx with X and sy→y1 with Y, and finishes
	// after 20 ms at half of x0→sx.
	bridged := false
	net.Send(x0, y1, 1e9, func(sim.VTime) { bridged = true })

	var before, after int
	eng.Schedule(sim.NewFuncEvent(100*sim.MSec, func(sim.VTime) error {
		if !bridged {
			t.Fatal("bridge flow still in flight at 100 ms")
		}
		before = net.SolvedFlows
		net.Send(x0, x1, 1e9, func(sim.VTime) {})
		return nil
	}))
	eng.Schedule(sim.NewFuncEvent(101*sim.MSec, func(sim.VTime) error {
		after = net.SolvedFlows
		eng.Terminate()
		return nil
	}))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := after - before; got != 2 {
		t.Fatalf("arrival re-solved %d flows, want 2 (island X only)", got)
	}
}

func TestApproxModeOffByDefault(t *testing.T) {
	eng := sim.NewSerialEngine()
	topo, _ := lineTopo()
	if net := NewFlowNetwork(eng, topo); net.ApproxTol != 0 {
		t.Fatalf("ApproxTol defaults to %g, want 0 (exact)", net.ApproxTol)
	}
}

// tieredRun is the outcome of runTieredWorkload.
type tieredRun struct {
	makespan    sim.VTime
	delivered   int
	finish      []sim.VTime // delivery time per send, 0 for local sends
	solvedFlows int
}

// runTieredWorkload replays a deterministic random workload on a rail
// fat-tree. observe, when non-nil, supplies the network's Observer.
func runTieredWorkload(t *testing.T, seed int64, tol float64,
	observe func(*FlowNetwork) FlowObserver) tieredRun {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	eng := sim.NewSerialEngine()
	topo := RailFatTree(clusterCfg(8, 2), 4, 2)
	gpus := topo.GPUs()
	net := NewFlowNetwork(eng, topo)
	net.ApproxTol = tol
	if observe != nil {
		net.Observer = observe(net)
	}

	const n = 60
	r := tieredRun{finish: make([]sim.VTime, n)}
	for i := 0; i < n; i++ {
		at := sim.VTime(rng.Float64()) * sim.Sec
		bytes := float64(1+rng.Intn(80)) * 1e9
		src := gpus[rng.Intn(len(gpus))]
		dst := gpus[rng.Intn(len(gpus))]
		if dst == src {
			r.delivered++ // keep counts comparable across modes
			continue
		}
		eng.Schedule(sim.NewFuncEvent(at, func(sim.VTime) error {
			net.Send(src, dst, bytes, func(now sim.VTime) {
				r.delivered++
				r.finish[i] = now
				if now > r.makespan {
					r.makespan = now
				}
			})
			return nil
		}))
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	r.solvedFlows = net.SolvedFlows
	return r
}

// fullSolves makes every solve after the first a full re-solve, through
// the same allDirty flag a capacity change sets.
type fullSolves struct{ net *FlowNetwork }

// FlowFinished implements FlowObserver.
func (fullSolves) FlowFinished([]DirLink, float64, sim.VTime, sim.VTime) {}

// RatesRecomputed implements FlowObserver.
func (o fullSolves) RatesRecomputed(int, sim.VTime) { o.net.allDirty = true }

// In approximate mode a flow keeps its delivery event unless its rate moves
// beyond the tolerance, so re-solving a component no change touched must
// keep every one of its events: the run with partial solves and the run
// that re-solves everything on every solve deliver every flow at the same
// instant. The partial run's every solve must re-solve exactly the
// components its changes touched.
func TestApproxPartialSolvesMatchFullSolves(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		var c *solveChecker
		part := runTieredWorkload(t, seed, 0.01,
			func(net *FlowNetwork) FlowObserver {
				c = newSolveChecker(t, net, false)
				return c
			})
		if c.solves == 0 {
			t.Fatalf("seed %d: no solves checked", seed)
		}
		full := runTieredWorkload(t, seed, 0.01,
			func(net *FlowNetwork) FlowObserver { return fullSolves{net} })
		if full.solvedFlows <= part.solvedFlows {
			t.Fatalf("seed %d: full solves re-solved %d flows, partial %d",
				seed, full.solvedFlows, part.solvedFlows)
		}
		if part.makespan != full.makespan || part.delivered != full.delivered {
			t.Fatalf("seed %d: partial (%v, %d) != full (%v, %d)", seed,
				part.makespan, part.delivered, full.makespan, full.delivered)
		}
		for i := range part.finish {
			if part.finish[i] != full.finish[i] {
				t.Fatalf("seed %d: send %d delivered at %v, full solves %v",
					seed, i, part.finish[i], full.finish[i])
			}
		}
	}
}

// Approximate-equilibrium mode (the large-network fast path) must deliver
// every flow and keep the makespan within the advertised tolerance of the
// exact solve: ApproxTol=0.01 → ≤1% relative deviation.
func TestApproxBoundedMakespanError(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		ex := runTieredWorkload(t, seed, 0, nil)
		ap := runTieredWorkload(t, seed, 0.01, nil)
		exact, nExact := ex.makespan, ex.delivered
		appr, nAppr := ap.makespan, ap.delivered
		if nExact != nAppr {
			t.Fatalf("seed %d: exact delivered %d, approx %d",
				seed, nExact, nAppr)
		}
		rel := math.Abs(float64(appr-exact)) / float64(exact)
		if rel > 0.01 {
			t.Fatalf("seed %d: approx makespan %v vs exact %v (%.3f%% > 1%%)",
				seed, appr, exact, rel*100)
		}
	}
}

// RatesInto fills a caller-owned map (clearing stale entries) and must
// agree with the allocating Rates().
func TestRatesInto(t *testing.T) {
	eng := sim.NewSerialEngine()
	topo, n := lineTopo()
	net := NewFlowNetwork(eng, topo)
	net.Send(n[0], n[2], 100e9, func(sim.VTime) {})
	net.Send(n[0], n[1], 100e9, func(sim.VTime) {})
	eng.Schedule(sim.NewFuncEvent(10*sim.MSec, func(sim.VTime) error {
		eng.Terminate()
		return nil
	}))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	want := net.Rates()
	if len(want) != 2 {
		t.Fatalf("expected 2 in-flight flows, got %d", len(want))
	}
	got := map[int]float64{999: 1} // stale entry must be cleared
	net.RatesInto(got)
	if len(got) != len(want) {
		t.Fatalf("RatesInto kept %d entries, want %d", len(got), len(want))
	}
	for id, r := range want {
		if got[id] != r {
			t.Fatalf("flow %d: RatesInto %g != Rates %g", id, got[id], r)
		}
	}
}
