package faults

import (
	"math"
	"testing"

	"triosim/internal/network"
	"triosim/internal/sim"
)

// pair builds a two-GPU topology with one direct link.
func pair(bw float64) (*network.Topology, network.NodeID, network.NodeID) {
	topo := network.NewTopology()
	a := topo.AddNode("a", network.GPUNode)
	b := topo.AddNode("b", network.GPUNode)
	topo.AddLink(a, b, bw, 0)
	return topo, a, b
}

func approx(t *testing.T, got, want sim.VTime, tol float64, what string) {
	t.Helper()
	if math.Abs(float64(got-want)) > tol*float64(want) {
		t.Fatalf("%s = %v, want ~%v", what, got, want)
	}
}

func TestLinkDegradeWindowSlowsFlowAndRestores(t *testing.T) {
	// 1 GB over 100 GB/s is 10 ms clean. Degrading ÷4 from 2 ms onward:
	// 0.2 GB done at full rate, the remaining 0.8 GB at 25 GB/s takes
	// 32 ms — 34 ms total, finishing inside the window.
	eng := sim.NewSerialEngine()
	topo, a, b := pair(100e9)
	net := network.NewFlowNetwork(eng, topo)
	sched := &Schedule{Events: []Event{{
		Kind: LinkDegrade, Link: 0, Factor: 4,
		Start: 2 * sim.MSec, Duration: 40 * sim.MSec,
	}}}
	inj, err := NewInjector(eng, net, sched)
	if err != nil {
		t.Fatal(err)
	}
	inj.Arm()
	var done sim.VTime
	net.Send(a, b, 1e9, func(now sim.VTime) { done = now })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, done, 34*sim.MSec, 1e-9, "degraded flow completion")
	if topo.Links[0].Bandwidth != 100e9 {
		t.Fatalf("bandwidth not restored: %g", topo.Links[0].Bandwidth)
	}
}

func TestLinkDownWindowStallsThenResumes(t *testing.T) {
	// Down for [1 ms, 5 ms): 0.1 GB moves before the outage, the flow
	// starves (rate 0) for 4 ms, then the remaining 0.9 GB takes 9 ms.
	eng := sim.NewSerialEngine()
	topo, a, b := pair(100e9)
	net := network.NewFlowNetwork(eng, topo)
	sched := &Schedule{Events: []Event{{
		Kind: LinkDown, Link: 0,
		Start: 1 * sim.MSec, Duration: 4 * sim.MSec,
	}}}
	inj, err := NewInjector(eng, net, sched)
	if err != nil {
		t.Fatal(err)
	}
	inj.Arm()
	var done sim.VTime
	net.Send(a, b, 1e9, func(now sim.VTime) { done = now })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, done, 14*sim.MSec, 1e-9, "outage flow completion")
}

// An empty schedule must arm zero events: the dispatched schedule (and its
// digest) is bit-identical to running without an injector at all.
func TestEmptyScheduleIsDigestIdentical(t *testing.T) {
	run := func(withInjector bool) (uint64, uint64) {
		eng := sim.NewSerialEngine()
		digest := sim.NewDigestHook()
		eng.RegisterHook(digest)
		topo, a, b := pair(100e9)
		net := network.NewFlowNetwork(eng, topo)
		if withInjector {
			inj, err := NewInjector(eng, net, &Schedule{
				Events: []Event{
					// All no-ops: factor-1 windows drop out entirely.
					{Kind: LinkDegrade, Link: 0, Factor: 1,
						Start: sim.MSec, Duration: sim.MSec},
					{Kind: GPUSlowdown, GPU: 1, Factor: 1,
						Start: sim.MSec, Duration: sim.MSec},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			inj.Arm()
		}
		net.Send(a, b, 1e9, func(sim.VTime) {})
		net.Send(b, a, 2e9, func(sim.VTime) {})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return digest.Sum64(), eng.EventCount()
	}
	baseDigest, baseEvents := run(false)
	injDigest, injEvents := run(true)
	if baseDigest != injDigest || baseEvents != injEvents {
		t.Fatalf("no-op injector perturbed the schedule: %#x/%d vs %#x/%d",
			injDigest, injEvents, baseDigest, baseEvents)
	}
}

func TestInjectorValidatesAgainstTopology(t *testing.T) {
	eng := sim.NewSerialEngine()
	topo, _, _ := pair(100e9)
	net := network.NewFlowNetwork(eng, topo)
	_, err := NewInjector(eng, net, &Schedule{Events: []Event{{
		Kind: LinkDown, Link: 5, Duration: sim.Sec,
	}}})
	mustErr(t, err, "out of range")
	_, err = NewInjector(eng, net, &Schedule{Events: []Event{{
		Kind: GPUFail, GPU: 9,
	}}})
	mustErr(t, err, "out of range")
}

func TestFactorWindowIsHalfOpen(t *testing.T) {
	eng := sim.NewSerialEngine()
	topo, _, _ := pair(100e9)
	net := network.NewFlowNetwork(eng, topo)
	inj, err := NewInjector(eng, net, &Schedule{Events: []Event{{
		Kind: GPUSlowdown, GPU: 1, Factor: 2,
		Start: sim.Sec, Duration: sim.Sec,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		at   sim.VTime
		want float64
	}{
		{0, 1},
		{sim.Sec, 2},         // inclusive start
		{1500 * sim.MSec, 2}, // inside
		{2 * sim.Sec, 1},     // exclusive end
		{3 * sim.Sec, 1},     // after
	}
	for _, tc := range cases {
		if got := inj.Factor(1, tc.at); got != tc.want {
			t.Fatalf("Factor(1, %v) = %g, want %g", tc.at, got, tc.want)
		}
	}
	if got := inj.Factor(0, 1500*sim.MSec); got != 1 {
		t.Fatalf("Factor(0) = %g, want 1 (other GPU untouched)", got)
	}
}
