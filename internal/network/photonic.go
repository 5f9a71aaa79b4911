package network

import (
	"triosim/internal/sim"
)

// PhotonicNetwork models a circuit-switching photonic interconnect in the
// style of Lightmatter's Passage (paper §7.1). Sending is a 3-step process:
//
//  1. establish the logical link (costs SetupLatency if no circuit between
//     the endpoints exists yet; if either endpoint's photonic ports are all
//     occupied, the idle circuit unused for the longest time is destroyed
//     to free a port, or the sender waits until one goes idle);
//  2. reserve buffer space at the destination (modeled by serializing
//     transfers on the circuit);
//  3. move the data at the circuit bandwidth.
//
// Once a circuit exists, delivery latency is nearly distance-independent.
type PhotonicNetwork struct {
	eng sim.Engine

	// BandwidthPerLink is the bytes/s each established circuit provides.
	BandwidthPerLink float64
	// SetupLatency is the time to establish a new circuit.
	SetupLatency sim.VTime
	// PortsPerNode bounds how many circuits a node can terminate at once.
	PortsPerNode int
	// DeliverLatency is the propagation latency once a circuit exists.
	DeliverLatency sim.VTime

	circuits map[[2]NodeID]*circuit
	portUse  map[NodeID]int

	// Stats.
	Establishments int
	Evictions      int
	TotalBytes     float64
	TotalTransfers int
}

type circuit struct {
	key       [2]NodeID
	busyUntil sim.VTime
	lastUsed  sim.VTime
}

// NewPhotonicNetwork returns a photonic network driven by eng.
func NewPhotonicNetwork(eng sim.Engine, bandwidthPerLink float64,
	setupLatency sim.VTime, portsPerNode int) *PhotonicNetwork {
	return &PhotonicNetwork{
		eng:              eng,
		BandwidthPerLink: bandwidthPerLink,
		SetupLatency:     setupLatency,
		PortsPerNode:     portsPerNode,
		DeliverLatency:   200 * sim.NSec,
		circuits:         map[[2]NodeID]*circuit{},
		portUse:          map[NodeID]int{},
	}
}

var _ Network = (*PhotonicNetwork)(nil)

func pairOf(a, b NodeID) [2]NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]NodeID{a, b}
}

// Send starts a transfer; onDone fires at delivery.
func (n *PhotonicNetwork) Send(src, dst NodeID, bytes float64,
	onDone func(now sim.VTime)) {

	now := n.eng.CurrentTime()
	n.TotalTransfers++
	n.TotalBytes += bytes
	if src == dst || bytes <= 0 {
		n.eng.Schedule(sim.NewFuncEvent(now, func(t sim.VTime) error {
			onDone(t)
			return nil
		}))
		return
	}
	n.trySend(now, src, dst, bytes, onDone)
}

func (n *PhotonicNetwork) trySend(now sim.VTime, src, dst NodeID,
	bytes float64, onDone func(now sim.VTime)) {

	key := pairOf(src, dst)
	c := n.circuits[key]
	if c == nil {
		if !n.freePorts(now, src, dst) {
			// All ports busy: retry when the earliest circuit involving a
			// saturated endpoint goes idle.
			retry := n.earliestIdleTime(src, dst)
			if retry.AtOrBefore(now) {
				retry = now + n.DeliverLatency
			}
			n.eng.Schedule(sim.NewFuncEvent(retry, func(t sim.VTime) error {
				n.trySend(t, src, dst, bytes, onDone)
				return nil
			}))
			return
		}
		c = &circuit{key: key, busyUntil: now + n.SetupLatency}
		n.circuits[key] = c
		n.portUse[src]++
		n.portUse[dst]++
		n.Establishments++
	}

	start := now.Max(c.busyUntil)
	done := start + sim.VTime(bytes/n.BandwidthPerLink)
	c.busyUntil = done
	c.lastUsed = done
	n.eng.Schedule(sim.NewFuncEvent(done+n.DeliverLatency,
		func(t sim.VTime) error {
			onDone(t)
			return nil
		}))
}

// freePorts ensures src and dst each have a free port, evicting the
// longest-idle circuits if needed. Returns false if a needed port cannot be
// freed right now.
func (n *PhotonicNetwork) freePorts(now sim.VTime, src, dst NodeID) bool {
	for _, node := range []NodeID{src, dst} {
		for n.portUse[node] >= n.PortsPerNode {
			victim := n.longestIdleCircuit(now, node)
			if victim == nil {
				return false
			}
			n.destroy(victim)
		}
	}
	return true
}

// longestIdleCircuit returns the idle (not mid-transfer) circuit touching
// node with the oldest lastUsed, or nil.
func (n *PhotonicNetwork) longestIdleCircuit(now sim.VTime,
	node NodeID) *circuit {
	var victim *circuit
	for _, c := range n.circuits {
		if c.key[0] != node && c.key[1] != node {
			continue
		}
		if c.busyUntil.After(now) {
			continue
		}
		if victim == nil || c.lastUsed.Before(victim.lastUsed) ||
			(c.lastUsed == victim.lastUsed && less(c.key, victim.key)) {
			victim = c
		}
	}
	return victim
}

func less(a, b [2]NodeID) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// earliestIdleTime finds when the soonest circuit touching src or dst goes
// idle.
func (n *PhotonicNetwork) earliestIdleTime(src, dst NodeID) sim.VTime {
	earliest := sim.Infinity
	for _, c := range n.circuits {
		touches := c.key[0] == src || c.key[1] == src ||
			c.key[0] == dst || c.key[1] == dst
		if touches && c.busyUntil.Before(earliest) {
			earliest = c.busyUntil
		}
	}
	return earliest
}

func (n *PhotonicNetwork) destroy(c *circuit) {
	delete(n.circuits, c.key)
	n.portUse[c.key[0]]--
	n.portUse[c.key[1]]--
	n.Evictions++
}

// Circuits returns the number of currently established circuits (test hook).
func (n *PhotonicNetwork) Circuits() int { return len(n.circuits) }

// Circuits parameterizes a circuit-switching photonic fabric laid over a
// topology (Topology.Circuits): each GPU terminates PortsPerNode circuits,
// each circuit moves BandwidthPerLink bytes/s and takes SetupLatency to
// establish.
type Circuits struct {
	BandwidthPerLink float64
	SetupLatency     sim.VTime
	PortsPerNode     int
}

// Passage is Lightmatter's Passage as the wafer-scale case study (§7.1)
// configures it: 484 GB/s across 8 photonic ports per GPU (60.5 GB/s per
// circuit) with a 20 ms circuit-establishment latency.
var Passage = Circuits{
	BandwidthPerLink: 484e9 / 8,
	SetupLatency:     20 * sim.MSec,
	PortsPerNode:     8,
}

// Over returns the network a run on topo sends through: GPU↔GPU transfers
// ride photonic circuits driven by eng, and transfers touching a host (input
// staging) go over links, the network of topo's links — the case study's
// swap of the GPU interconnect that keeps the devices and the host path.
func (c *Circuits) Over(eng sim.Engine, topo *Topology, links Network) Network {
	return &circuitNetwork{NewPhotonicNetwork(eng, c.BandwidthPerLink,
		c.SetupLatency, c.PortsPerNode), links, topo}
}

// circuitNetwork splits traffic between photonic circuits and the links.
type circuitNetwork struct {
	circuits *PhotonicNetwork
	links    Network
	topo     *Topology
}

func (n *circuitNetwork) Send(src, dst NodeID, bytes float64,
	onDone func(now sim.VTime)) {
	if n.topo.Nodes[src].Kind == HostNode || n.topo.Nodes[dst].Kind == HostNode {
		n.links.Send(src, dst, bytes, onDone)
		return
	}
	n.circuits.Send(src, dst, bytes, onDone)
}
