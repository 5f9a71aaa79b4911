package network

import (
	"fmt"

	"triosim/internal/sim"
)

// Hierarchical (multi-machine) datacenter topologies. Each generator lays
// out machines of GPUsPerMachine GPUs in machine-major rank order (global
// rank = machine×GPUsPerMachine + local rank), gives every machine an
// NVSwitch for intra-machine traffic (TierNVLink), and differs in the
// inter-machine fabric: rail-optimized fat-tree, dragonfly, or 3D torus.
// Every link carries a tier label and every GPU/switch inside a machine
// carries the machine index, which is what the hierarchy-aware collectives
// and the per-tier telemetry key off.
//
// All three install a structural router: routes are appended from the
// topology's closed form (rail lookup, minimal group paths,
// dimension-ordered torus hops) in O(path length) instead of O(V+E) BFS,
// which is the difference between milliseconds and minutes of setup at
// 10,000 GPUs, and is cheap enough that no route is cached. The routers
// decline host staging pairs; those are single hops, which
// Topology.AppendRoute resolves with a direct-link scan, not BFS.

// ClusterConfig parameterizes the hierarchical topology generators.
type ClusterConfig struct {
	Machines       int
	GPUsPerMachine int

	// Intra-machine GPU↔NVSwitch links.
	NVLinkBandwidth float64
	NVLinkLatency   sim.VTime
	// GPU/machine↔first-hop-fabric links (one NIC per GPU).
	NICBandwidth float64
	NICLatency   sim.VTime
	// Switch↔switch fabric links.
	FabricBandwidth float64
	FabricLatency   sim.VTime
	// Host staging links (input batches).
	HostBandwidth float64
	HostLatency   sim.VTime
}

// normalized clamps degenerate parameters so fuzzing and careless callers
// get a valid (if tiny) cluster instead of a panic.
func (c ClusterConfig) normalized() ClusterConfig {
	if c.Machines < 1 {
		c.Machines = 1
	}
	if c.GPUsPerMachine < 1 {
		c.GPUsPerMachine = 1
	}
	if c.NVLinkBandwidth <= 0 {
		c.NVLinkBandwidth = 300e9
	}
	if c.NICBandwidth <= 0 {
		c.NICBandwidth = 50e9
	}
	if c.FabricBandwidth <= 0 {
		c.FabricBandwidth = c.NICBandwidth
	}
	if c.HostBandwidth <= 0 {
		c.HostBandwidth = 10e9
	}
	return c
}

// machineScaffold is what addMachineScaffold built: the GPU IDs
// (machine-major, so GPU i is node i), each machine's NVSwitch, and each
// GPU's NVLink to it.
type machineScaffold struct {
	gpus, nvsw []NodeID
	nvLink     []int
}

// addMachineScaffold creates the machine-major GPUs, one NVSwitch per
// machine with TierNVLink links, and the host with TierHost staging links.
func addMachineScaffold(t *Topology, c ClusterConfig) machineScaffold {
	sc := machineScaffold{
		gpus:   make([]NodeID, c.Machines*c.GPUsPerMachine),
		nvsw:   make([]NodeID, c.Machines),
		nvLink: make([]int, c.Machines*c.GPUsPerMachine),
	}
	for i := range sc.gpus {
		sc.gpus[i] = t.AddNode(fmt.Sprintf("gpu%d", i), GPUNode)
		t.SetMachine(sc.gpus[i], i/c.GPUsPerMachine)
	}
	for m := range sc.nvsw {
		sc.nvsw[m] = t.AddNode(fmt.Sprintf("nvswitch%d", m), SwitchNode)
		t.SetMachine(sc.nvsw[m], m)
		for g := m * c.GPUsPerMachine; g < (m+1)*c.GPUsPerMachine; g++ {
			sc.nvLink[g] = t.AddLinkTiered(sc.gpus[g], sc.nvsw[m],
				c.NVLinkBandwidth, c.NVLinkLatency, TierNVLink)
		}
	}
	host := t.AddNode("host", HostNode)
	for _, g := range sc.gpus {
		t.AddLinkTiered(host, g, c.HostBandwidth, c.HostLatency, TierHost)
	}
	return sc
}

// appendIntra appends the intra-machine route from GPU src up to machine
// m's NVSwitch and down to GPU dst.
func (sc *machineScaffold) appendIntra(buf []DirLink, t *Topology, m int,
	src, dst NodeID) []DirLink {
	//triosim:nolint hotpath-alloc -- the caller reuses the route buffer
	return append(buf, dirFrom(t, sc.nvLink[src], src),
		dirFrom(t, sc.nvLink[dst], sc.nvsw[m]))
}

// dirFrom returns the directed traversal of link l starting at node from.
func dirFrom(t *Topology, l int, from NodeID) DirLink {
	return DirLink{Link: l, Forward: t.Links[l].A == from}
}

// gpuCoords resolves a GPU NodeID to (machine, local rank), or ok=false
// for non-GPU nodes (generators add GPUs first, so IDs 0..n-1 are GPUs).
func gpuCoords(n NodeID, gpusPerMachine, total int) (
	machine, rank int, ok bool) {
	if n < 0 || int(n) >= total {
		return 0, 0, false
	}
	return int(n) / gpusPerMachine, int(n) % gpusPerMachine, true
}

// RailFatTree builds a rail-optimized two-level fat tree: local rank r of
// every machine attaches through its own NIC to rail r's leaf switches
// (machines grouped leafWidth per leaf), and every leaf of every rail
// connects to every spine. Same-rank traffic stays on its rail (the
// rail-optimized property that makes inter-machine ring/tree collectives
// contention-free); cross-rank traffic crosses a spine.
func RailFatTree(c ClusterConfig, leafWidth, spines int) *Topology {
	c = c.normalized()
	if leafWidth < 1 {
		leafWidth = 1
	}
	if spines < 1 {
		spines = 1
	}
	t := NewTopology()
	sc := addMachineScaffold(t, c)
	gpus := sc.gpus
	G := c.GPUsPerMachine
	nLeaves := (c.Machines + leafWidth - 1) / leafWidth

	// leaf[r][l] serves local rank r of machines [l·leafWidth, …).
	leaves := make([][]NodeID, G)
	nicLink := make([]int, c.Machines*G) // GPU (machine-major) → its leaf
	for r := 0; r < G; r++ {
		leaves[r] = make([]NodeID, nLeaves)
		for l := 0; l < nLeaves; l++ {
			leaves[r][l] = t.AddNode(
				fmt.Sprintf("rail%d-leaf%d", r, l), SwitchNode)
		}
	}
	for m := 0; m < c.Machines; m++ {
		for r := 0; r < G; r++ {
			g := gpus[m*G+r]
			nicLink[m*G+r] = t.AddLinkTiered(g, leaves[r][m/leafWidth],
				c.NICBandwidth, c.NICLatency, TierNIC)
		}
	}
	// spineLink[r][l][s]: rail r leaf l ↔ spine s.
	spineIDs := make([]NodeID, spines)
	for s := range spineIDs {
		spineIDs[s] = t.AddNode(fmt.Sprintf("spine%d", s), SwitchNode)
	}
	spineLink := make([][][]int, G)
	for r := 0; r < G; r++ {
		spineLink[r] = make([][]int, nLeaves)
		for l := 0; l < nLeaves; l++ {
			spineLink[r][l] = make([]int, spines)
			for s := 0; s < spines; s++ {
				spineLink[r][l][s] = t.AddLinkTiered(leaves[r][l],
					spineIDs[s], c.FabricBandwidth, c.FabricLatency,
					TierFabric)
			}
		}
	}

	total := c.Machines * G
	t.SetRouter(func(buf []DirLink, src, dst NodeID) []DirLink {
		m1, r1, ok := gpuCoords(src, G, total)
		if !ok {
			return buf
		}
		m2, r2, ok := gpuCoords(dst, G, total)
		if !ok {
			return buf
		}
		if m1 == m2 {
			// Intra-machine: up to the NVSwitch and back down.
			return sc.appendIntra(buf, t, m1, src, dst)
		}
		l1, l2 := m1/leafWidth, m2/leafWidth
		up := dirFrom(t, nicLink[m1*G+r1], src)
		down := dirFrom(t, nicLink[m2*G+r2], leaves[r2][l2])
		if r1 == r2 && l1 == l2 {
			// Same rail, same leaf: two NIC hops.
			return append(buf, up, down) //triosim:nolint hotpath-alloc -- the caller reuses the route buffer
		}
		// Across the spine layer (also the cross-rail path): pick a spine
		// deterministically, spread by endpoint coordinates.
		s := (l1 + l2 + r1 + r2) % spines
		//triosim:nolint hotpath-alloc -- the caller reuses the route buffer
		return append(buf, up,
			dirFrom(t, spineLink[r1][l1][s], leaves[r1][l1]),
			dirFrom(t, spineLink[r2][l2][s], spineIDs[s]),
			down)
	})
	return t
}

// Dragonfly builds a dragonfly of machines: each machine's router connects
// its GPUs' NICs; routers within a group are fully connected; every group
// pair is joined by one global link. Minimal routing (local, global, local)
// with at most three fabric hops.
func Dragonfly(c ClusterConfig, groupSize int) *Topology {
	c = c.normalized()
	if groupSize < 1 {
		groupSize = 1
	}
	if groupSize > c.Machines {
		groupSize = c.Machines
	}
	t := NewTopology()
	sc := addMachineScaffold(t, c)
	gpus := sc.gpus
	G := c.GPUsPerMachine
	groups := (c.Machines + groupSize - 1) / groupSize

	routers := make([]NodeID, c.Machines)
	nicLink := make([]int, c.Machines*G)
	for m := 0; m < c.Machines; m++ {
		routers[m] = t.AddNode(fmt.Sprintf("dfr%d", m), SwitchNode)
		t.SetMachine(routers[m], m)
		for r := 0; r < G; r++ {
			nicLink[m*G+r] = t.AddLinkTiered(gpus[m*G+r], routers[m],
				c.NICBandwidth, c.NICLatency, TierNIC)
		}
	}
	groupOf := func(m int) int { return m / groupSize }
	// localLink[a][b%groupSize] is the link between machines a and b of
	// one group.
	localLink := make([][]int, c.Machines)
	for g := 0; g < groups; g++ {
		lo := g * groupSize
		hi := lo + groupSize
		if hi > c.Machines {
			hi = c.Machines
		}
		for a := lo; a < hi; a++ {
			localLink[a] = make([]int, hi-lo)
		}
		for a := lo; a < hi; a++ {
			for b := a + 1; b < hi; b++ {
				l := t.AddLinkTiered(routers[a], routers[b],
					c.FabricBandwidth, c.FabricLatency, TierFabric)
				localLink[a][b-lo], localLink[b][a-lo] = l, l
			}
		}
	}
	// globalLink[i][j] (i < j): one link per group pair, attached to a
	// deterministically chosen router in each group.
	sizeOf := func(g int) int {
		lo := g * groupSize
		hi := lo + groupSize
		if hi > c.Machines {
			hi = c.Machines
		}
		return hi - lo
	}
	holder := func(g, peer int) int { // machine in g holding the link to peer
		return g*groupSize + peer%sizeOf(g)
	}
	// globalLink[i*groups+j] (i < j) is the link between groups i and j.
	globalLink := make([]int, groups*groups)
	for i := 0; i < groups; i++ {
		for j := i + 1; j < groups; j++ {
			globalLink[i*groups+j] = t.AddLinkTiered(
				routers[holder(i, j)], routers[holder(j, i)],
				c.FabricBandwidth, c.FabricLatency, TierFabric)
		}
	}
	localHop := func(a, b int) (DirLink, bool) {
		if a == b {
			return DirLink{}, false
		}
		return dirFrom(t, localLink[a][b%groupSize], routers[a]), true
	}

	total := c.Machines * G
	t.SetRouter(func(buf []DirLink, src, dst NodeID) []DirLink {
		m1, _, ok := gpuCoords(src, G, total)
		if !ok {
			return buf
		}
		m2, _, ok := gpuCoords(dst, G, total)
		if !ok {
			return buf
		}
		if m1 == m2 {
			return sc.appendIntra(buf, t, m1, src, dst)
		}
		buf = append(buf, dirFrom(t, nicLink[src], src)) //triosim:nolint hotpath-alloc -- the caller reuses the route buffer
		g1, g2 := groupOf(m1), groupOf(m2)
		if g1 == g2 {
			if hop, ok := localHop(m1, m2); ok {
				buf = append(buf, hop) //triosim:nolint hotpath-alloc -- the caller reuses the route buffer
			}
		} else {
			h1 := holder(g1, g2) // exit router in src group
			h2 := holder(g2, g1) // entry router in dst group
			if hop, ok := localHop(m1, h1); ok {
				buf = append(buf, hop) //triosim:nolint hotpath-alloc -- the caller reuses the route buffer
			}
			lo, hi := g1, g2
			if lo > hi {
				lo, hi = hi, lo
			}
			//triosim:nolint hotpath-alloc -- the caller reuses the route buffer
			buf = append(buf,
				dirFrom(t, globalLink[lo*groups+hi], routers[h1]))
			if hop, ok := localHop(h2, m2); ok {
				buf = append(buf, hop) //triosim:nolint hotpath-alloc -- the caller reuses the route buffer
			}
		}
		return append(buf, dirFrom(t, nicLink[dst], routers[m2])) //triosim:nolint hotpath-alloc -- the caller reuses the route buffer
	})
	return t
}

// Torus3D builds an X×Y×Z torus of machines: each machine's router has
// bidirectional fabric links to its six neighbors (with wraparound), GPUs
// reach the router through per-GPU NICs, and routing is dimension-ordered
// (x, then y, then z; shorter wrap direction, positive on ties).
func Torus3D(c ClusterConfig, x, y, z int) *Topology {
	c = c.normalized()
	if x < 1 {
		x = 1
	}
	if y < 1 {
		y = 1
	}
	if z < 1 {
		z = 1
	}
	c.Machines = x * y * z
	t := NewTopology()
	sc := addMachineScaffold(t, c)
	gpus := sc.gpus
	G := c.GPUsPerMachine

	routers := make([]NodeID, c.Machines)
	nicLink := make([]int, c.Machines*G)
	at := func(i, j, k int) int { return (i*y+j)*z + k }
	for m := 0; m < c.Machines; m++ {
		routers[m] = t.AddNode(fmt.Sprintf("torus-r%d", m), SwitchNode)
		t.SetMachine(routers[m], m)
		for r := 0; r < G; r++ {
			nicLink[m*G+r] = t.AddLinkTiered(gpus[m*G+r], routers[m],
				c.NICBandwidth, c.NICLatency, TierNIC)
		}
	}
	// nbrs[m] lists machine m's fabric links (at most six) with the machine
	// at the far end; dimensions with fewer than three positions get a
	// single link, not a doubled pair.
	type torusNbr struct{ machine, link int }
	nbrs := make([][]torusNbr, c.Machines)
	linkTo := func(a, b int) (int, bool) {
		for _, n := range nbrs[a] {
			if n.machine == b {
				return n.link, true
			}
		}
		return 0, false
	}
	addTorus := func(a, b int) {
		if a == b {
			return
		}
		if _, dup := linkTo(a, b); dup {
			return
		}
		l := t.AddLinkTiered(routers[a], routers[b],
			c.FabricBandwidth, c.FabricLatency, TierFabric)
		nbrs[a] = append(nbrs[a], torusNbr{b, l})
		nbrs[b] = append(nbrs[b], torusNbr{a, l})
	}
	for i := 0; i < x; i++ {
		for j := 0; j < y; j++ {
			for k := 0; k < z; k++ {
				addTorus(at(i, j, k), at((i+1)%x, j, k))
				addTorus(at(i, j, k), at(i, (j+1)%y, k))
				addTorus(at(i, j, k), at(i, j, (k+1)%z))
			}
		}
	}
	hop := func(a, b int) DirLink {
		l, _ := linkTo(a, b)
		return dirFrom(t, l, routers[a])
	}
	// step advances one position along a dimension of size n toward dst,
	// taking the shorter wrap direction (positive on ties).
	step := func(cur, dst, n int) int {
		if cur == dst {
			return cur
		}
		fwd := (dst - cur + n) % n
		bwd := (cur - dst + n) % n
		if fwd <= bwd {
			return (cur + 1) % n
		}
		return (cur - 1 + n) % n
	}

	total := c.Machines * G
	t.SetRouter(func(buf []DirLink, src, dst NodeID) []DirLink {
		m1, _, ok := gpuCoords(src, G, total)
		if !ok {
			return buf
		}
		m2, _, ok := gpuCoords(dst, G, total)
		if !ok {
			return buf
		}
		if m1 == m2 {
			return sc.appendIntra(buf, t, m1, src, dst)
		}
		buf = append(buf, dirFrom(t, nicLink[src], src)) //triosim:nolint hotpath-alloc -- the caller reuses the route buffer
		i1, j1, k1 := m1/(y*z), (m1/z)%y, m1%z
		i2, j2, k2 := m2/(y*z), (m2/z)%y, m2%z
		for i1 != i2 {
			ni := step(i1, i2, x)
			buf = append(buf, hop(at(i1, j1, k1), at(ni, j1, k1))) //triosim:nolint hotpath-alloc -- the caller reuses the route buffer
			i1 = ni
		}
		for j1 != j2 {
			nj := step(j1, j2, y)
			buf = append(buf, hop(at(i1, j1, k1), at(i1, nj, k1))) //triosim:nolint hotpath-alloc -- the caller reuses the route buffer
			j1 = nj
		}
		for k1 != k2 {
			nk := step(k1, k2, z)
			buf = append(buf, hop(at(i1, j1, k1), at(i1, j1, nk))) //triosim:nolint hotpath-alloc -- the caller reuses the route buffer
			k1 = nk
		}
		return append(buf, dirFrom(t, nicLink[dst], routers[m2])) //triosim:nolint hotpath-alloc -- the caller reuses the route buffer
	})
	return t
}
