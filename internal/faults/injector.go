package faults

import (
	"fmt"

	"triosim/internal/network"
	"triosim/internal/sim"
)

// Injector applies a Schedule to a running simulation. Link windows become
// a pair of engine events (degrade at Start, restore at End) that rewrite
// the topology's bandwidth and re-solve the flow network's max-min fair
// shares; GPU slowdown windows schedule nothing — the executor's Stretch
// hook consults Factor at each compute-task start. GPUFail events also
// schedule nothing; they feed the checkpoint/restart overlay (Evaluate).
//
// A schedule with no effective windows arms zero events, keeping the run
// bit-identical to a fault-free one (the digest-identity property test in
// internal/core pins this).
type Injector struct {
	eng  sim.Engine
	net  *network.FlowNetwork
	topo *network.Topology

	windows  []Window // all effective windows, sorted
	gpuSlows []Window // GPUSlowdown subset, for Factor lookups
	fails    []Failure
	armed    bool
}

// NewInjector validates the schedule against the network's topology and
// prepares an injector. Call Arm before the engine runs.
func NewInjector(eng sim.Engine, net *network.FlowNetwork,
	s *Schedule) (*Injector, error) {

	topo := net.Topology()
	if err := s.Validate(len(topo.GPUs()), len(topo.Links)); err != nil {
		return nil, err
	}
	in := &Injector{
		eng:     eng,
		net:     net,
		topo:    topo,
		windows: s.Windows(),
		fails:   s.Failures(),
	}
	for _, w := range in.windows {
		if w.Kind == GPUSlowdown {
			in.gpuSlows = append(in.gpuSlows, w)
		}
	}
	return in, nil
}

// Windows returns the effective fault windows (sorted by start).
func (in *Injector) Windows() []Window { return in.windows }

// Failures returns the schedule's GPUFail instants (sorted by time).
func (in *Injector) Failures() []Failure { return in.fails }

// Arm schedules the link-window events. Baseline bandwidths are captured
// now, so back-to-back windows on one link restore correctly: all four
// events of two adjacent windows are scheduled here in sorted order, and
// the engine's FIFO tie-break runs window 1's restore before window 2's
// degrade when they share a timestamp.
func (in *Injector) Arm() {
	if in.armed {
		panic("faults: Injector.Arm called twice")
	}
	in.armed = true
	for _, w := range in.windows {
		if w.Kind != LinkDegrade && w.Kind != LinkDown {
			continue
		}
		link := w.Resource
		orig := in.topo.Links[link].Bandwidth
		degraded := 0.0
		if w.Kind == LinkDegrade {
			degraded = orig / w.Factor
		}
		sim.ScheduleFunc(in.eng, w.Start, func(now sim.VTime) error {
			in.topo.SetLinkBandwidth(link, degraded)
			in.net.RefreshRates()
			return nil
		})
		sim.ScheduleFunc(in.eng, w.End, func(now sim.VTime) error {
			in.topo.SetLinkBandwidth(link, orig)
			in.net.RefreshRates()
			return nil
		})
	}
}

// Factor returns the compute-duration multiplier for a task starting on gpu
// at time at: the enclosing GPUSlowdown window's factor, or 1. Windows are
// half-open, and overlap validation guarantees at most one match.
func (in *Injector) Factor(gpu int, at sim.VTime) float64 {
	for _, w := range in.gpuSlows {
		if w.Resource == gpu && w.Start.AtOrBefore(at) && at.Before(w.End) {
			return w.Factor
		}
	}
	return 1
}

// FailLabel renders a GPUFail marker label.
func FailLabel(f Failure) string {
	return fmt.Sprintf("gpu%d fail", f.GPU)
}
