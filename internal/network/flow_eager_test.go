package network

import (
	"math"
	"math/rand"
	"testing"

	"triosim/internal/sim"
)

// eagerNet is the eager rescheduling rule FlowNetwork used to run at
// tolerance 0, kept as a reference: on every solve it steps every in-flight
// flow's remaining bytes by its rate over the time since the last step, and
// reschedules every flow's delivery. It borrows the network's link sets and
// its max-min solve, so the two differ only in how they integrate bytes and
// reschedule deliveries.
type eagerNet struct {
	n          *FlowNetwork
	lastUpdate sim.VTime
	pending    bool
}

func newEagerNet(eng sim.Engine, topo *Topology) *eagerNet {
	return &eagerNet{n: NewFlowNetwork(eng, topo)}
}

func (e *eagerNet) Send(src, dst NodeID, bytes float64,
	onDone func(now sim.VTime)) {

	n := e.n
	now := n.eng.CurrentTime()
	if src == dst || bytes <= 0 {
		sim.ScheduleFunc(n.eng, now, func(t sim.VTime) error {
			onDone(t)
			return nil
		})
		return
	}
	route, err := n.topo.AppendRoute(nil, src, dst)
	if err != nil {
		panic(err)
	}
	n.nextID++
	f := &flow{id: n.nextID, route: route, remaining: bytes, bytes: bytes,
		eff: 1, latency: n.topo.RouteLatency(route), start: now,
		onDone: onDone}
	if n.RampBytes > 0 {
		f.eff = bytes / (bytes + n.RampBytes)
	}
	e.advance(now)
	n.ordered = append(n.ordered, f)
	n.attachLinks(f)
	e.scheduleReallocate(now)
}

func (e *eagerNet) RefreshRates() { e.scheduleReallocate(e.n.eng.CurrentTime()) }

func (e *eagerNet) scheduleReallocate(now sim.VTime) {
	if e.pending {
		return
	}
	e.pending = true
	sim.ScheduleSecondaryFunc(e.n.eng, now, func(t sim.VTime) error {
		e.pending = false
		e.reallocate(t)
		return nil
	})
}

// advance is the deleted sweep: every in-flight flow drains at its current
// rate since the last step.
func (e *eagerNet) advance(now sim.VTime) {
	if dt := float64(now - e.lastUpdate); dt > 0 {
		for _, f := range e.n.ordered {
			f.remaining -= f.rate * dt
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
	}
	e.lastUpdate = now
}

// reallocate re-solves and reschedules every in-flight flow.
func (e *eagerNet) reallocate(now sim.VTime) {
	n := e.n
	e.advance(now)
	n.Solves++
	n.computeRates()
	for _, f := range n.scratchFlows {
		f.rate *= f.eff
	}
	for _, f := range n.ordered {
		f.gen++
		if f.rate <= 0 {
			continue
		}
		f, gen := f, f.gen
		sim.ScheduleFunc(n.eng, now+sim.VTime(f.remaining/f.rate),
			func(t sim.VTime) error {
				e.complete(f, gen, t)
				return nil
			})
	}
}

func (e *eagerNet) complete(f *flow, gen int, now sim.VTime) {
	if f.gen != gen {
		return
	}
	e.advance(now)
	e.n.detachLinks(f)
	e.scheduleReallocate(now)
	onDone := f.onDone
	sim.ScheduleFunc(e.n.eng, now+f.latency, func(t sim.VTime) error {
		onDone(t)
		return nil
	})
}

// churnNet is what runChurn drives: FlowNetwork or the eager reference.
type churnNet interface {
	Send(src, dst NodeID, bytes float64, onDone func(now sim.VTime))
	RefreshRates()
}

// churnRun is runChurn's outcome: every delivery's time by transfer key,
// and the events dispatched.
type churnRun struct {
	finish map[int64]sim.VTime
	events uint64
}

// runChurn replays a seeded workload on a rail fat tree: 60 transfers
// arrive at random times, a third of the deliveries start a follow-up
// transfer at the same instant (up to three deep), small messages ramp
// (RampBytes), and one link drops to a quarter of its bandwidth mid-run,
// picked up by RefreshRates. Each transfer draws its endpoints and size
// from its own key, so the workload does not depend on the order in which
// same-time deliveries fire.
func runChurn(t *testing.T, seed int64,
	build func(sim.Engine, *Topology) (churnNet, *FlowNetwork)) churnRun {

	t.Helper()
	eng := sim.NewSerialEngine()
	topo := RailFatTree(clusterCfg(8, 2), 4, 2)
	gpus := topo.GPUs()
	net, fn := build(eng, topo)
	fn.RampBytes = 64e6

	r := churnRun{finish: map[int64]sim.VTime{}}
	var send func(key int64, depth int)
	send = func(key int64, depth int) {
		rng := rand.New(rand.NewSource(seed<<16 ^ key))
		src := gpus[rng.Intn(len(gpus))]
		dst := gpus[rng.Intn(len(gpus))]
		bytes := float64(1+rng.Intn(400)) * 1e7
		chain := depth < 3 && rng.Intn(3) == 0
		net.Send(src, dst, bytes, func(at sim.VTime) {
			r.finish[key] = at
			if chain {
				send(key+100, depth+1)
			}
		})
	}
	rng := rand.New(rand.NewSource(seed))
	for i := int64(0); i < 60; i++ {
		at := sim.VTime(rng.Float64()) * 200 * sim.MSec
		eng.Schedule(sim.NewFuncEvent(at, func(sim.VTime) error {
			send(i, 0)
			return nil
		}))
	}
	link := rng.Intn(len(topo.Links))
	eng.Schedule(sim.NewFuncEvent(100*sim.MSec, func(sim.VTime) error {
		topo.SetLinkBandwidth(link, topo.Links[link].Bandwidth/4)
		net.RefreshRates()
		return nil
	}))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	r.events = eng.EventCount()
	return r
}

// The one reschedule rule at tolerance 0 integrates each flow's bytes
// lazily, from the last time its rate moved, and reschedules only the flows
// whose rate a solve moved. Against the eager reference, which steps every
// flow at every solve and reschedules them all, every delivery must land at
// the same time up to float rounding.
func TestLazyMatchesEagerReference(t *testing.T) {
	const rel = 1e-12
	for seed := int64(1); seed <= 12; seed++ {
		lazy := runChurn(t, seed,
			func(eng sim.Engine, topo *Topology) (churnNet, *FlowNetwork) {
				n := NewFlowNetwork(eng, topo)
				return n, n
			})
		eager := runChurn(t, seed,
			func(eng sim.Engine, topo *Topology) (churnNet, *FlowNetwork) {
				e := newEagerNet(eng, topo)
				return e, e.n
			})
		if len(lazy.finish) != len(eager.finish) {
			t.Fatalf("seed %d: %d deliveries, reference %d", seed,
				len(lazy.finish), len(eager.finish))
		}
		for key, want := range eager.finish {
			got, ok := lazy.finish[key]
			if !ok || math.Abs(float64(got-want)) > rel*float64(want) {
				t.Fatalf("seed %d: transfer %d delivered at %v, reference %v",
					seed, key, got, want)
			}
		}
		if lazy.events >= eager.events {
			t.Fatalf("seed %d: %d events, reference %d: nothing kept",
				seed, lazy.events, eager.events)
		}
	}
}
