package network

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"triosim/internal/sim"
)

// lineTopo builds A—B—C with 100 GB/s links and 1 µs latency.
func lineTopo() (*Topology, []NodeID) {
	topo := NewTopology()
	a := topo.AddNode("a", GPUNode)
	b := topo.AddNode("b", GPUNode)
	c := topo.AddNode("c", GPUNode)
	topo.AddLink(a, b, 100e9, 1*sim.USec)
	topo.AddLink(b, c, 100e9, 1*sim.USec)
	return topo, []NodeID{a, b, c}
}

func approx(t *testing.T, got, want sim.VTime, tol float64, msg string) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Fatalf("%s: got %v, want 0", msg, got)
		}
		return
	}
	rel := math.Abs(float64(got-want)) / math.Abs(float64(want))
	if rel > tol {
		t.Fatalf("%s: got %v, want %v (±%.1f%%)", msg, got, want, tol*100)
	}
}

func TestSingleFlowTime(t *testing.T) {
	eng := sim.NewSerialEngine()
	topo, n := lineTopo()
	net := NewFlowNetwork(eng, topo)
	var done sim.VTime
	net.Send(n[0], n[2], 100e9, func(now sim.VTime) { done = now })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// 100 GB over 100 GB/s plus 2 µs route latency.
	approx(t, done, 1*sim.Sec+2*sim.USec, 1e-9, "single flow")
	if net.TotalTransfers != 1 || net.TotalBytes != 100e9 {
		t.Fatalf("stats: %d transfers, %g bytes",
			net.TotalTransfers, net.TotalBytes)
	}
}

func TestLocalSendImmediate(t *testing.T) {
	eng := sim.NewSerialEngine()
	topo, n := lineTopo()
	net := NewFlowNetwork(eng, topo)
	fired := false
	net.Send(n[0], n[0], 1e9, func(now sim.VTime) {
		fired = true
		if now != 0 {
			t.Fatalf("local send at %v", now)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("local send never delivered")
	}
}

func TestTwoFlowsShareLink(t *testing.T) {
	// Two flows over the same link each get half the bandwidth.
	eng := sim.NewSerialEngine()
	topo, n := lineTopo()
	net := NewFlowNetwork(eng, topo)
	var d1, d2 sim.VTime
	net.Send(n[0], n[1], 100e9, func(now sim.VTime) { d1 = now })
	net.Send(n[0], n[1], 100e9, func(now sim.VTime) { d2 = now })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, d1, 2*sim.Sec+1*sim.USec, 1e-9, "flow 1")
	approx(t, d2, 2*sim.Sec+1*sim.USec, 1e-9, "flow 2")
}

func TestOppositeDirectionsDoNotShare(t *testing.T) {
	// Full-duplex: a→b and b→a flows each get full bandwidth.
	eng := sim.NewSerialEngine()
	topo, n := lineTopo()
	net := NewFlowNetwork(eng, topo)
	var d1, d2 sim.VTime
	net.Send(n[0], n[1], 100e9, func(now sim.VTime) { d1 = now })
	net.Send(n[1], n[0], 100e9, func(now sim.VTime) { d2 = now })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, d1, 1*sim.Sec+1*sim.USec, 1e-9, "forward flow")
	approx(t, d2, 1*sim.Sec+1*sim.USec, 1e-9, "reverse flow")
}

func TestRescheduleOnCompletion(t *testing.T) {
	// Figure 5 case B: a short flow shares the link, then the long flow
	// speeds back up after the short one delivers.
	eng := sim.NewSerialEngine()
	topo, n := lineTopo()
	net := NewFlowNetwork(eng, topo)
	var dLong, dShort sim.VTime
	// Long: 200 GB. Short: 50 GB, both start at t=0 over the same link.
	net.Send(n[0], n[1], 200e9, func(now sim.VTime) { dLong = now })
	net.Send(n[0], n[1], 50e9, func(now sim.VTime) { dShort = now })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Shared 50 GB/s each: short finishes its 50 GB at t=1. Long has
	// 150 GB left and reclaims 100 GB/s: +1.5 s → t=2.5.
	approx(t, dShort, 1*sim.Sec+1*sim.USec, 1e-6, "short flow")
	approx(t, dLong, 2.5*sim.Sec+1*sim.USec, 1e-6, "long flow")
}

func TestLateArrivalSlowsExisting(t *testing.T) {
	// Figure 5 case B, arrival variant: a flow arriving mid-transfer forces
	// a reallocation of the in-flight flow.
	eng := sim.NewSerialEngine()
	topo, n := lineTopo()
	net := NewFlowNetwork(eng, topo)
	var d1, d2 sim.VTime
	net.Send(n[0], n[1], 100e9, func(now sim.VTime) { d1 = now })
	eng.Schedule(sim.NewFuncEvent(0.5*sim.Sec, func(sim.VTime) error {
		net.Send(n[0], n[1], 100e9, func(now sim.VTime) { d2 = now })
		return nil
	}))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Flow 1: 50 GB at full rate (0.5 s), then 50 GB at half rate (1 s):
	// done at 1.5 s. Flow 2 then has 50 GB left at full rate: 0.5+1+0.5=2 s.
	approx(t, d1, 1.5*sim.Sec+1*sim.USec, 1e-6, "first flow")
	approx(t, d2, 2*sim.Sec+1*sim.USec, 1e-6, "second flow")
}

func TestBottleneckFairness(t *testing.T) {
	// One flow crosses both links, one flow only the second link. Max-min:
	// both get 50 GB/s on the shared link; the first link has spare 50.
	eng := sim.NewSerialEngine()
	topo, n := lineTopo()
	net := NewFlowNetwork(eng, topo)
	var dAC, dBC sim.VTime
	net.Send(n[0], n[2], 50e9, func(now sim.VTime) { dAC = now })
	net.Send(n[1], n[2], 50e9, func(now sim.VTime) { dBC = now })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, dAC, 1*sim.Sec+2*sim.USec, 1e-6, "a→c")
	approx(t, dBC, 1*sim.Sec+1*sim.USec, 1e-6, "b→c")
}

func TestMaxMinUnevenSplit(t *testing.T) {
	// Three flows: two on link1 only, one crossing link1+link2 where link2
	// is the bottleneck at 30 GB/s. Max-min: crossing flow pinned to 30,
	// remaining 70 split 35/35.
	eng := sim.NewSerialEngine()
	topo := NewTopology()
	a := topo.AddNode("a", GPUNode)
	b := topo.AddNode("b", GPUNode)
	c := topo.AddNode("c", GPUNode)
	topo.AddLink(a, b, 100e9, 0)
	topo.AddLink(b, c, 30e9, 0)
	net := NewFlowNetwork(eng, topo)

	var dCross, dL1a, dL1b sim.VTime
	net.Send(a, c, 30e9, func(now sim.VTime) { dCross = now })
	net.Send(a, b, 35e9, func(now sim.VTime) { dL1a = now })
	net.Send(a, b, 35e9, func(now sim.VTime) { dL1b = now })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, dCross, 1*sim.Sec, 1e-6, "crossing flow")
	approx(t, dL1a, 1*sim.Sec, 1e-6, "link1 flow a")
	approx(t, dL1b, 1*sim.Sec, 1e-6, "link1 flow b")
}

func TestRingDisjointFlows(t *testing.T) {
	// Ring AllReduce's step pattern: every GPU sends to its right neighbor
	// simultaneously; the flows use disjoint directed links and all run at
	// full bandwidth.
	eng := sim.NewSerialEngine()
	topo := Ring(Config{
		NumGPUs: 4, LinkBandwidth: 100e9, LinkLatency: 0,
		HostBandwidth: 10e9,
	})
	gpus := topo.GPUs()
	net := NewFlowNetwork(eng, topo)
	var times []sim.VTime
	for i := range gpus {
		net.Send(gpus[i], gpus[(i+1)%4], 100e9, func(now sim.VTime) {
			times = append(times, now)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 4 {
		t.Fatalf("delivered %d flows", len(times))
	}
	for _, tm := range times {
		approx(t, tm, 1*sim.Sec, 1e-6, "ring step flow")
	}
}

// Property-based check of the max-min allocator invariants:
// (1) no directed link's capacity is exceeded;
// (2) every flow with demand gets a positive rate;
// (3) allocation is max-min: every flow is bottlenecked on some saturated
// link where it receives at least as much as every other flow on that link.
func TestMaxMinInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		eng := sim.NewSerialEngine()
		topo := Mesh(3, 3, Config{
			LinkBandwidth: float64(10+rng.Intn(90)) * 1e9,
			HostBandwidth: 10e9,
		})
		gpus := topo.GPUs()
		net := NewFlowNetwork(eng, topo)
		nFlows := 2 + rng.Intn(8)
		for i := 0; i < nFlows; i++ {
			src := gpus[rng.Intn(len(gpus))]
			dst := gpus[rng.Intn(len(gpus))]
			for dst == src {
				dst = gpus[rng.Intn(len(gpus))]
			}
			net.Send(src, dst, 1e15, func(sim.VTime) {})
		}

		// Rates are computed by a coalesced secondary event at t=0; run the
		// engine up to just after it, then inspect.
		eng.Schedule(sim.NewFuncEvent(1e-12, func(sim.VTime) error {
			eng.Terminate()
			return nil
		}))
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		usage := map[DirLink]float64{}
		flowsOn := map[DirLink][]*flow{}
		for _, f := range net.ordered {
			if f.rate <= 0 {
				t.Fatalf("trial %d: flow starved", trial)
			}
			for _, dl := range f.route {
				usage[dl] += f.rate
				flowsOn[dl] = append(flowsOn[dl], f)
			}
		}
		for dl, u := range usage {
			cap := topo.Links[dl.Link].Bandwidth
			if u > cap*(1+1e-9) {
				t.Fatalf("trial %d: link %v overcommitted: %g > %g",
					trial, dl, u, cap)
			}
		}
		for _, f := range net.ordered {
			bottlenecked := false
			for _, dl := range f.route {
				cap := topo.Links[dl.Link].Bandwidth
				saturated := usage[dl] >= cap*(1-1e-9)
				if !saturated {
					continue
				}
				maxOther := 0.0
				for _, g := range flowsOn[dl] {
					if g.rate > maxOther {
						maxOther = g.rate
					}
				}
				if f.rate >= maxOther*(1-1e-9) {
					bottlenecked = true
					break
				}
			}
			if !bottlenecked {
				t.Fatalf("trial %d: flow rate %g not max-min bottlenecked",
					trial, f.rate)
			}
		}
	}
}

// Conservation: total delivered bytes equal total sent bytes regardless of
// interleaving.
func TestByteConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		eng := sim.NewSerialEngine()
		topo := Ring(Config{
			NumGPUs: 6, LinkBandwidth: 50e9, HostBandwidth: 10e9,
		})
		gpus := topo.GPUs()
		net := NewFlowNetwork(eng, topo)
		var sent float64
		delivered := 0
		n := 5 + rng.Intn(10)
		for i := 0; i < n; i++ {
			bytes := float64(1+rng.Intn(1000)) * 1e6
			sent += bytes
			at := sim.VTime(rng.Float64()) * sim.Sec
			src := gpus[rng.Intn(len(gpus))]
			dst := gpus[rng.Intn(len(gpus))]
			eng.Schedule(sim.NewFuncEvent(at, func(sim.VTime) error {
				net.Send(src, dst, bytes, func(sim.VTime) { delivered++ })
				return nil
			}))
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if delivered != n {
			t.Fatalf("trial %d: delivered %d of %d", trial, delivered, n)
		}
		if net.TotalBytes != sent {
			t.Fatalf("trial %d: TotalBytes %g, sent %g",
				trial, net.TotalBytes, sent)
		}
		if net.InFlight() != 0 {
			t.Fatalf("trial %d: %d flows leaked", trial, net.InFlight())
		}
	}
}

func TestIdealNetwork(t *testing.T) {
	eng := sim.NewSerialEngine()
	net := NewIdealNetwork(eng, 100e9, 1*sim.USec)
	var d1, d2 sim.VTime
	net.Send(0, 1, 100e9, func(now sim.VTime) { d1 = now })
	net.Send(0, 1, 100e9, func(now sim.VTime) { d2 = now })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// No sharing: both complete in 1 s.
	approx(t, d1, 1*sim.Sec+1*sim.USec, 1e-9, "ideal flow 1")
	approx(t, d2, 1*sim.Sec+1*sim.USec, 1e-9, "ideal flow 2")
	var local sim.VTime = 5
	net.Send(3, 3, 1e9, func(now sim.VTime) { local = now })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if local != d1 && local != 1*sim.Sec+1*sim.USec {
		// local send completes at current time (when Run resumed).
		t.Logf("local done at %v", local)
	}
}

// referenceRates is a from-scratch max-min solve (the pre-incremental
// algorithm): rebuild every per-link flow list from the current flow set,
// then run progressive filling. The incremental allocator must match it
// bit-for-bit — same capacity resets, same freeze order, same charge order —
// so the comparison below uses ==, not a tolerance.
func referenceRates(net *FlowNetwork) map[int]float64 {
	type ls struct {
		cap    float64
		active int
		flows  []*flow
	}
	links := map[DirLink]*ls{}
	for _, f := range net.ordered { // ascending flow id
		for _, dl := range f.route {
			st := links[dl]
			if st == nil {
				st = &ls{}
				links[dl] = st
			}
			st.flows = append(st.flows, f)
		}
	}
	var keys []DirLink
	for k := range links {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Link != keys[j].Link {
			return keys[i].Link < keys[j].Link
		}
		return keys[i].Forward && !keys[j].Forward
	})
	for _, k := range keys {
		st := links[k]
		st.cap = net.topo.Links[k.Link].Bandwidth
		st.active = len(st.flows)
	}
	rates := map[int]float64{}
	for len(rates) < len(net.ordered) {
		var bn *ls
		best := math.Inf(1)
		for _, k := range keys {
			st := links[k]
			if st.active == 0 {
				continue
			}
			fair := st.cap / float64(st.active)
			if fair < best {
				best = fair
				bn = st
			}
		}
		if bn == nil {
			break
		}
		for _, f := range bn.flows {
			if _, done := rates[f.id]; done {
				continue
			}
			rates[f.id] = best
			for _, dl := range f.route {
				st := links[dl]
				st.cap -= best
				if st.cap < 0 {
					st.cap = 0
				}
				st.active--
			}
		}
	}
	return rates
}

// After an arbitrary add/complete history — which exercises attach/detach,
// the persistent link sets, the order-preserving removals, and flow-object
// recycling — the incremental solve must equal the from-scratch solve
// exactly.
func TestMaxMinMatchesReferenceSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 80; trial++ {
		eng := sim.NewSerialEngine()
		topo := Mesh(3, 3, Config{
			LinkBandwidth: float64(10+rng.Intn(90)) * 1e9,
			HostBandwidth: 10e9,
		})
		gpus := topo.GPUs()
		net := NewFlowNetwork(eng, topo)

		// Random traffic over random times: sends keep arriving while
		// earlier flows complete, so the persistent link state sees plenty
		// of attach/detach churn (and the free list sees reuse).
		n := 5 + rng.Intn(20)
		for i := 0; i < n; i++ {
			at := sim.VTime(rng.Float64()) * sim.Sec
			bytes := float64(1+rng.Intn(100)) * 1e9
			src := gpus[rng.Intn(len(gpus))]
			dst := gpus[rng.Intn(len(gpus))]
			for dst == src {
				dst = gpus[rng.Intn(len(gpus))]
			}
			eng.Schedule(sim.NewFuncEvent(at, func(sim.VTime) error {
				net.Send(src, dst, bytes, func(sim.VTime) {})
				return nil
			}))
		}
		// Stop at a random mid-run instant and compare solves over whatever
		// is in flight.
		stopAt := sim.VTime(rng.Float64()) * sim.Sec
		eng.Schedule(sim.NewFuncEvent(stopAt, func(sim.VTime) error {
			eng.Terminate()
			return nil
		}))
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}

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
}

// Flow objects are recycled through the free list; a recycled object's
// pending stale delivery events must never complete its next life early.
func TestFlowPoolingReusesObjects(t *testing.T) {
	eng := sim.NewSerialEngine()
	topo, n := lineTopo()
	net := NewFlowNetwork(eng, topo)
	delivered := 0
	// Chain: each completed transfer launches the next, so every flow after
	// the first draws the same object from the free list.
	var next func(k int) func(sim.VTime)
	next = func(k int) func(sim.VTime) {
		return func(sim.VTime) {
			delivered++
			if k > 0 {
				net.Send(n[0], n[2], 10e9, next(k-1))
			}
		}
	}
	net.Send(n[0], n[2], 10e9, next(9))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 10 {
		t.Fatalf("delivered %d of 10 chained transfers", delivered)
	}
	if net.InFlight() != 0 {
		t.Fatalf("%d flows leaked", net.InFlight())
	}
	if len(net.freeFlows) != 1 {
		t.Fatalf("free list has %d objects, want 1 (reuse broken)",
			len(net.freeFlows))
	}
}

// A solve that leaves a flow's rate where it was leaves its delivery event
// alone: a flow arriving in another link-sharing component re-solves only
// that component, so the first flow keeps its event. The two-flow run
// dispatches exactly the events of the two one-flow runs, and the first
// flow delivers at the same time, bit for bit, as when it runs alone.
func TestUnchangedRateKeepsDelivery(t *testing.T) {
	run := func(first, second bool) (sim.VTime, uint64) {
		eng := sim.NewSerialEngine()
		topo, n := lineTopo()
		net := NewFlowNetwork(eng, topo)
		var done sim.VTime
		if first { // a→b
			eng.Schedule(sim.NewFuncEvent(0, func(sim.VTime) error {
				net.Send(n[0], n[1], 3e9, func(now sim.VTime) { done = now })
				return nil
			}))
		}
		if second { // b→c: no link in common with a→b
			eng.Schedule(sim.NewFuncEvent(7*sim.MSec, func(sim.VTime) error {
				net.Send(n[1], n[2], 1e9, func(sim.VTime) {})
				return nil
			}))
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return done, eng.EventCount()
	}
	alone, aloneEvents := run(true, false)
	_, secondEvents := run(false, true)
	both, bothEvents := run(true, true)
	if math.Float64bits(float64(both)) != math.Float64bits(float64(alone)) {
		t.Errorf("a→b delivered at %v beside b→c, %v alone", both, alone)
	}
	if want := aloneEvents + secondEvents; bothEvents != want {
		t.Errorf("two-flow run dispatched %d events, want %d (%d + %d): "+
			"the disjoint arrival rescheduled a→b", bothEvents, want,
			aloneEvents, secondEvents)
	}
}

// TestExactResolveSteadyStateAllocs gates the per-event path at tolerance
// 0: once the engine, flow and delivery free lists are warm, admitting N
// contending flows and draining them — N completions, each re-solving the
// component it leaves and rescheduling the flows whose rate moved —
// allocates nothing. That holds for routes copied from the BFS cache (the
// ring) and for routes a structural router appends (the rail fat tree)
// alike: each pooled flow keeps its route buffer.
func TestExactResolveSteadyStateAllocs(t *testing.T) {
	topos := map[string]func() *Topology{
		"ring8": func() *Topology {
			return Ring(Config{NumGPUs: 8, LinkBandwidth: 100e9,
				LinkLatency: sim.USec})
		},
		"railfattree": func() *Topology {
			return RailFatTree(clusterCfg(4, 2), 2, 2)
		},
	}
	for name, build := range topos {
		t.Run(name, func(t *testing.T) {
			exactResolveSteadyStateAllocs(t, build())
		})
	}
}

func exactResolveSteadyStateAllocs(t *testing.T, topo *Topology) {
	const flows = 48
	eng := sim.NewSerialEngine()
	gpus := topo.GPUs()
	net := NewFlowNetwork(eng, topo)
	delivered := 0
	onDone := func(sim.VTime) { delivered++ }
	round := func() {
		for i := 0; i < flows; i++ {
			src := gpus[i%len(gpus)]
			dst := gpus[(i*3+1)%len(gpus)]
			if dst == src {
				dst = gpus[(i*3+2)%len(gpus)]
			}
			net.Send(src, dst, float64(1+i%7)*1e6, onDone)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: the free lists and the flow map settle at their high-water
	// sizes over the first few rounds.
	const warm, runs = 4, 10
	for i := 0; i < warm; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(runs, round); allocs != 0 {
		t.Fatalf("exact re-solve round allocates %v times, want 0", allocs)
	}
	// AllocsPerRun adds one warm-up call of its own.
	if want := flows * (warm + 1 + runs); delivered != want {
		t.Fatalf("delivered %d transfers, want %d", delivered, want)
	}
	if net.Solves < flows {
		t.Fatalf("%d solves, want at least one per flow completion", net.Solves)
	}
}
