// Package network implements TrioSim's lightweight network models.
//
// The default model is flow-based packet switching (paper §4.5): a message
// is routed over the shortest path, bandwidth on every traversed link is
// shared max-min fairly among in-flight messages, and a delivery event is
// scheduled assuming the allocation stays constant; whenever a message
// starts or finishes, allocations are recomputed and the delivery events of
// all in-transit messages are rescheduled (Figure 5 semantics).
//
// The model is swappable: PhotonicNetwork implements the same Network
// interface with circuit-switching semantics (case study §7.1), and
// IdealNetwork provides an uncontended reference for tests and ablations.
package network

import (
	"fmt"

	"triosim/internal/sim"
)

// NodeID identifies a node (GPU, switch, or host) in a topology.
type NodeID int

// NodeKind classifies topology nodes.
type NodeKind int

// Node kinds.
const (
	GPUNode NodeKind = iota
	SwitchNode
	HostNode
)

// Node is a vertex in the interconnect graph.
type Node struct {
	ID   NodeID
	Name string
	Kind NodeKind
	// Machine is the physical machine (node enclosure) this vertex belongs
	// to, or -1 for fabric elements that belong to no machine (spine/leaf
	// switches, the host). Hierarchical collectives use it to split ranks
	// into intra-machine groups.
	Machine int
}

// Link tiers. A tier classifies a link by its position in the datacenter
// hierarchy; hierarchical collectives and per-tier telemetry key off it.
// Single-node topologies leave Tier empty ("untiered").
const (
	TierNVLink = "nvlink" // intra-machine GPU interconnect
	TierNIC    = "nic"    // GPU/machine to first-hop fabric switch
	TierFabric = "fabric" // switch-to-switch fabric
	TierHost   = "host"   // host staging links
)

// Link is a full-duplex edge: each direction has independent Bandwidth.
type Link struct {
	ID        int
	A, B      NodeID
	Bandwidth float64 // bytes/s per direction
	Latency   sim.VTime
	// Tier labels the link's hierarchy level (TierNVLink, TierNIC,
	// TierFabric, TierHost); empty on untiered (single-node) topologies.
	Tier string
}

// DirLink is one direction of a link, the unit of bandwidth accounting.
type DirLink struct {
	Link int
	// Forward is true for the A→B direction.
	Forward bool
}

// Topology is the interconnect graph.
type Topology struct {
	Nodes []Node
	Links []Link

	// adj[n] lists the IDs of the links incident to node n in ascending
	// order: AddLink appends increasing IDs, so no list ever needs sorting.
	adj        [][]int
	routeCache map[[2]NodeID][]DirLink

	// router, when set by a hierarchical generator, computes shortest
	// paths structurally (rail lookup, dimension-ordered routing) instead
	// of BFS — O(path) instead of O(V+E) per new pair, which matters at
	// 10k nodes. Results are cached like BFS routes.
	router func(src, dst NodeID) []DirLink

	tiered   bool // any link carries a non-empty Tier
	machines int  // max assigned Machine + 1
	// capGen increments on every SetLinkBandwidth so the flow solver can
	// detect capacity changes that arrive without an explicit dirty mark
	// and fall back to a full re-solve (preserving the historical
	// "capacities are re-read every solve" semantics).
	capGen int

	// LinkID's table, extended on first use after links are added: the
	// name id of link l's forward direction at 2l and reverse at 2l+1,
	// each id's name, and each name's id.
	linkIDs    []int32
	linkNames  []string
	linkByName map[string]int32
}

// NewTopology returns an empty topology.
func NewTopology() *Topology {
	return &Topology{routeCache: map[[2]NodeID][]DirLink{}}
}

// AddNode appends a node and returns its ID. The node starts unassigned to
// any machine (Machine == -1); see SetMachine.
func (t *Topology) AddNode(name string, kind NodeKind) NodeID {
	id := NodeID(len(t.Nodes))
	t.Nodes = append(t.Nodes, Node{ID: id, Name: name, Kind: kind,
		Machine: -1})
	t.adj = append(t.adj, nil)
	return id
}

// SetMachine assigns node n to machine m (0-based). Machine indices are
// expected to be dense; Machines() reports max+1.
func (t *Topology) SetMachine(n NodeID, m int) {
	t.Nodes[n].Machine = m
	if m+1 > t.machines {
		t.machines = m + 1
	}
}

// MachineOf returns the machine index of n, or -1 for fabric elements.
func (t *Topology) MachineOf(n NodeID) int { return t.Nodes[n].Machine }

// Machines returns the number of machines declared via SetMachine (0 for
// single-node topologies that never assign machines).
func (t *Topology) Machines() int { return t.machines }

// Tiered reports whether any link carries a tier label — the signal that
// this topology has an intra/inter-machine hierarchy worth exploiting.
func (t *Topology) Tiered() bool { return t.tiered }

// AddLink connects a and b full-duplex and returns the link ID.
func (t *Topology) AddLink(a, b NodeID, bandwidth float64,
	latency sim.VTime) int {
	id := len(t.Links)
	t.Links = append(t.Links, Link{
		ID: id, A: a, B: b, Bandwidth: bandwidth, Latency: latency,
	})
	t.adj[a] = append(t.adj[a], id)
	t.adj[b] = append(t.adj[b], id)
	if len(t.routeCache) > 0 {
		clear(t.routeCache) // a new link can shorten any cached route
	}
	return id
}

// AddLinkTiered is AddLink plus a hierarchy tier label on the new link.
func (t *Topology) AddLinkTiered(a, b NodeID, bandwidth float64,
	latency sim.VTime, tier string) int {
	id := t.AddLink(a, b, bandwidth, latency)
	t.Links[id].Tier = tier
	if tier != "" {
		t.tiered = true
	}
	return id
}

// SetRouter installs a structural routing function consulted by Route
// before falling back to BFS. The function must return a valid directed
// src→dst path (contiguous, correct endpoints) or nil to decline the pair;
// hierarchical generators install per-topology closed-form routers so a
// 10k-node cluster never pays O(V+E) BFS per pair.
func (t *Topology) SetRouter(r func(src, dst NodeID) []DirLink) {
	t.router = r
	t.routeCache = map[[2]NodeID][]DirLink{}
}

// SetLinkBandwidth changes a link's per-direction bandwidth (used by the Hop
// case study to inject heterogeneous slowdowns).
func (t *Topology) SetLinkBandwidth(linkID int, bandwidth float64) {
	t.Links[linkID].Bandwidth = bandwidth
	t.capGen++
}

// CapacityGen returns the bandwidth-change generation counter (see capGen).
func (t *Topology) CapacityGen() int { return t.capGen }

// LinksOf returns the IDs of links incident to n.
func (t *Topology) LinksOf(n NodeID) []int { return t.adj[n] }

// Neighbor returns the node on the other end of link l from n.
func (t *Topology) Neighbor(l int, n NodeID) NodeID {
	lk := t.Links[l]
	if lk.A == n {
		return lk.B
	}
	return lk.A
}

// Route returns the directed links of a shortest path (minimum hop count,
// deterministic tie-break by link ID) from src to dst, or an error if the
// nodes are disconnected. Resolution order: the route cache, the structural
// router, a direct link between the endpoints, then BFS. Routes are cached.
func (t *Topology) Route(src, dst NodeID) ([]DirLink, error) {
	if src == dst {
		return nil, nil
	}
	key := [2]NodeID{src, dst}
	if r, ok := t.routeCache[key]; ok {
		return r, nil
	}
	if t.router != nil {
		if r := t.router(src, dst); r != nil {
			t.routeCache[key] = r
			return r, nil
		}
	}
	if src < 0 || dst < 0 || int(src) >= len(t.Nodes) ||
		int(dst) >= len(t.Nodes) {
		return nil, fmt.Errorf("network: no route %d→%d", src, dst)
	}
	route := t.directRoute(src, dst)
	if route == nil {
		var err error
		if route, err = t.bfsRoute(src, dst); err != nil {
			return nil, err
		}
	}
	t.routeCache[key] = route
	return route, nil
}

// directRoute returns the one-hop route over the lowest-ID link joining src
// and dst, or nil if no link joins them. It is exactly what bfsRoute
// returns for such a pair: BFS pops src first and walks its links in
// ascending ID order, so the first link to reach dst is the lowest-ID one
// (the host-is-never-transit rule exempts src). Scanning the endpoint with
// fewer links makes a host↔GPU route O(1) instead of O(GPUs).
func (t *Topology) directRoute(src, dst NodeID) []DirLink {
	links := t.adj[src]
	if len(t.adj[dst]) < len(links) {
		links = t.adj[dst]
	}
	for _, l := range links {
		lk := t.Links[l]
		if (lk.A == src && lk.B == dst) || (lk.A == dst && lk.B == src) {
			return []DirLink{{Link: l, Forward: lk.A == src}}
		}
	}
	return nil
}

// bfsRoute is the general shortest-path fallback: BFS over link IDs in
// ascending order, so ties break toward the lowest link ID. Hosts are
// endpoints, never transit: GPU↔GPU traffic must not shortcut through the
// host's staging links.
func (t *Topology) bfsRoute(src, dst NodeID) ([]DirLink, error) {
	prev := make([]DirLink, len(t.Nodes))
	visited := make([]bool, len(t.Nodes))
	visited[src] = true
	queue := make([]NodeID, 1, len(t.Nodes))
	queue[0] = src
	for head := 0; head < len(queue) && !visited[dst]; head++ {
		n := queue[head]
		if t.Nodes[n].Kind == HostNode && n != src {
			continue
		}
		for _, l := range t.adj[n] {
			m := t.Neighbor(l, n)
			if visited[m] {
				continue
			}
			visited[m] = true
			prev[m] = DirLink{Link: l, Forward: t.Links[l].A == n}
			queue = append(queue, m)
		}
	}
	if !visited[dst] {
		return nil, fmt.Errorf("network: no route %d→%d", src, dst)
	}

	// Walk back from dst once to count hops, then again to fill the route
	// front to back.
	from := func(dl DirLink) NodeID {
		if dl.Forward {
			return t.Links[dl.Link].A
		}
		return t.Links[dl.Link].B
	}
	hops := 0
	for n := dst; n != src; n = from(prev[n]) {
		hops++
	}
	route := make([]DirLink, hops)
	for n := dst; n != src; n = from(prev[n]) {
		hops--
		route[hops] = prev[n]
	}
	return route, nil
}

// RouteLatency sums the latencies of the route's links.
func (t *Topology) RouteLatency(route []DirLink) sim.VTime {
	var total sim.VTime
	for _, dl := range route {
		total += t.Links[dl.Link].Latency
	}
	return total
}

// GPUs returns the IDs of GPU nodes in insertion order.
func (t *Topology) GPUs() []NodeID {
	var out []NodeID
	for _, n := range t.Nodes {
		if n.Kind == GPUNode {
			out = append(out, n.ID)
		}
	}
	return out
}

// Host returns the first host node's ID, or -1 if none.
func (t *Topology) Host() NodeID {
	for _, n := range t.Nodes {
		if n.Kind == HostNode {
			return n.ID
		}
	}
	return -1
}

// PairName renders the direction from a to b as "a->b" in node names: the
// name of a directed link, and of a transfer's route between its endpoints.
func (t *Topology) PairName(a, b NodeID) string {
	return t.Nodes[a].Name + "->" + t.Nodes[b].Name
}

// LinkID returns the dense id of dl's direction name: PairName of its ends
// in the direction of travel. Parallel links between one node pair share
// ids, so statistics kept per id add up per name. Ids count from 0 in link
// order; LinkName renders one.
func (t *Topology) LinkID(dl DirLink) int {
	for l := len(t.linkIDs) / 2; l < len(t.Links); l++ {
		lk := &t.Links[l]
		for _, name := range [2]string{t.PairName(lk.A, lk.B),
			t.PairName(lk.B, lk.A)} {
			id, ok := t.linkByName[name]
			if !ok {
				if t.linkByName == nil {
					t.linkByName = map[string]int32{}
				}
				id = int32(len(t.linkNames))
				t.linkNames = append(t.linkNames, name)
				t.linkByName[name] = id
			}
			t.linkIDs = append(t.linkIDs, id)
		}
	}
	i := 2 * dl.Link
	if !dl.Forward {
		i++
	}
	return int(t.linkIDs[i])
}

// LinkName returns the direction name of a LinkID id.
func (t *Topology) LinkName(id int) string { return t.linkNames[id] }

// ---- Builders ----

// Config parameterizes the standard topology builders.
type Config struct {
	NumGPUs       int
	LinkBandwidth float64
	LinkLatency   sim.VTime
	HostBandwidth float64
	HostLatency   sim.VTime
}

func addGPUs(t *Topology, n int) []NodeID {
	ids := make([]NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = t.AddNode(fmt.Sprintf("gpu%d", i), GPUNode)
	}
	return ids
}

// addHostAll connects a host node directly to every GPU (staging path for
// input batches).
func addHostAll(t *Topology, gpus []NodeID, bw float64, lat sim.VTime) NodeID {
	host := t.AddNode("host", HostNode)
	for _, g := range gpus {
		t.AddLink(host, g, bw, lat)
	}
	return host
}

// Ring builds a ring of GPUs plus a host.
func Ring(cfg Config) *Topology {
	t := NewTopology()
	gpus := addGPUs(t, cfg.NumGPUs)
	for i := 0; i < cfg.NumGPUs; i++ {
		j := (i + 1) % cfg.NumGPUs
		if j == i || (cfg.NumGPUs == 2 && i == 1) {
			continue // no self-loop; a 2-ring is a single link
		}
		t.AddLink(gpus[i], gpus[j], cfg.LinkBandwidth, cfg.LinkLatency)
	}
	addHostAll(t, gpus, cfg.HostBandwidth, cfg.HostLatency)
	return t
}

// Switch builds an any-to-any switch (NVSwitch) with one link per GPU.
func Switch(cfg Config) *Topology {
	t := NewTopology()
	gpus := addGPUs(t, cfg.NumGPUs)
	sw := t.AddNode("nvswitch", SwitchNode)
	for _, g := range gpus {
		t.AddLink(g, sw, cfg.LinkBandwidth, cfg.LinkLatency)
	}
	addHostAll(t, gpus, cfg.HostBandwidth, cfg.HostLatency)
	return t
}

// PCIeTree builds GPUs under a PCIe switch with the host at the root; GPU↔GPU
// traffic traverses the switch (P1's arrangement).
func PCIeTree(cfg Config) *Topology {
	t := NewTopology()
	gpus := addGPUs(t, cfg.NumGPUs)
	sw := t.AddNode("pcie-switch", SwitchNode)
	for _, g := range gpus {
		t.AddLink(g, sw, cfg.LinkBandwidth, cfg.LinkLatency)
	}
	host := t.AddNode("host", HostNode)
	t.AddLink(host, sw, cfg.HostBandwidth, cfg.HostLatency)
	return t
}

// Mesh builds a rows×cols 2-D mesh of GPUs (wafer-scale case study) plus a
// host attached to every GPU.
func Mesh(rows, cols int, cfg Config) *Topology {
	t := NewTopology()
	gpus := addGPUs(t, rows*cols)
	at := func(r, c int) NodeID { return gpus[r*cols+c] }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				t.AddLink(at(r, c), at(r, c+1),
					cfg.LinkBandwidth, cfg.LinkLatency)
			}
			if r+1 < rows {
				t.AddLink(at(r, c), at(r+1, c),
					cfg.LinkBandwidth, cfg.LinkLatency)
			}
		}
	}
	addHostAll(t, gpus, cfg.HostBandwidth, cfg.HostLatency)
	return t
}

// RingWithChords builds the Hop case study's ring-based graph: a
// bidirectional ring plus a chord from each node to its most distant node.
func RingWithChords(cfg Config) *Topology {
	t := Ring(cfg)
	gpus := t.GPUs()
	n := len(gpus)
	for i := 0; i < n/2; i++ {
		t.AddLink(gpus[i], gpus[(i+n/2)%n],
			cfg.LinkBandwidth, cfg.LinkLatency)
	}
	return t
}

// DoubleRing builds the Hop case study's double-ring graph: two rings of
// n/2 GPUs each, interconnected node-to-node.
func DoubleRing(cfg Config) *Topology {
	t := NewTopology()
	gpus := addGPUs(t, cfg.NumGPUs)
	half := cfg.NumGPUs / 2
	ring := func(ids []NodeID) {
		for i := 0; i < len(ids); i++ {
			j := (i + 1) % len(ids)
			if j == i || (len(ids) == 2 && i == 1) {
				continue
			}
			t.AddLink(ids[i], ids[j], cfg.LinkBandwidth, cfg.LinkLatency)
		}
	}
	ring(gpus[:half])
	ring(gpus[half:])
	for i := 0; i < half; i++ {
		t.AddLink(gpus[i], gpus[half+i], cfg.LinkBandwidth, cfg.LinkLatency)
	}
	addHostAll(t, gpus, cfg.HostBandwidth, cfg.HostLatency)
	return t
}
