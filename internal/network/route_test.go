package network

import (
	"fmt"
	"reflect"
	"testing"
)

// requireRouteMatchesBFS asserts Route(src, dst) deep-equals the BFS
// reference, link IDs and directions included.
func requireRouteMatchesBFS(t *testing.T, topo *Topology, src, dst NodeID) {
	t.Helper()
	got, err := topo.Route(src, dst)
	if err != nil {
		t.Fatalf("route %d→%d: %v", src, dst, err)
	}
	want, err := topo.bfsRoute(src, dst)
	if err != nil {
		t.Fatalf("bfs route %d→%d: %v", src, dst, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("route %d→%d = %v, BFS reference %v", src, dst, got, want)
	}
}

// Every ordered pair, host endpoints included, on every small builder:
// the one-hop shortcut must return exactly the route BFS would.
func TestRouteMatchesBFSReference(t *testing.T) {
	builds := map[string]func() *Topology{
		"ring2":      func() *Topology { return Ring(cfg(2)) },
		"ring5":      func() *Topology { return Ring(cfg(5)) },
		"switch8":    func() *Topology { return Switch(cfg(8)) },
		"pcie4":      func() *Topology { return PCIeTree(cfg(4)) },
		"mesh3x4":    func() *Topology { return Mesh(3, 4, cfg(0)) },
		"chords8":    func() *Topology { return RingWithChords(cfg(8)) },
		"chords7":    func() *Topology { return RingWithChords(cfg(7)) },
		"doublering": func() *Topology { return DoubleRing(cfg(8)) },
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			topo := build()
			for _, src := range topo.Nodes {
				for _, dst := range topo.Nodes {
					if src.ID != dst.ID {
						requireRouteMatchesBFS(t, topo, src.ID, dst.ID)
					}
				}
			}
		})
	}
}

// Parallel links between the same two nodes, added in both orientations:
// the route takes the lowest-ID one and sets Forward from the source, and
// the answer does not depend on which endpoint has the shorter adjacency.
func TestRouteParallelLinksTieBreak(t *testing.T) {
	topo := NewTopology()
	a := topo.AddNode("a", GPUNode)
	b := topo.AddNode("b", HostNode)
	c := topo.AddNode("c", GPUNode)
	topo.AddLink(a, c, 1, 0)        // 0: unrelated
	low := topo.AddLink(b, a, 1, 0) // 1: b→a orientation, lowest a↔b
	topo.AddLink(a, b, 1, 0)        // 2
	topo.AddLink(b, a, 1, 0)        // 3
	for i := 0; i < 4; i++ {        // make a's adjacency the longer one
		topo.AddLink(a, topo.AddNode(fmt.Sprintf("x%d", i), SwitchNode), 1, 0)
	}
	cases := []struct {
		src, dst NodeID
		want     []DirLink
	}{
		{a, b, []DirLink{{Link: low, Forward: false}}},
		{b, a, []DirLink{{Link: low, Forward: true}}},
	}
	for _, c := range cases {
		got, err := topo.Route(c.src, c.dst)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("route %d→%d = %v, want %v", c.src, c.dst, got, c.want)
		}
		requireRouteMatchesBFS(t, topo, c.src, c.dst)
	}
	// Two-hop routes over the parallel links fall through to BFS.
	requireRouteMatchesBFS(t, topo, b, c)
	requireRouteMatchesBFS(t, topo, c, b)
}

// A link added after a BFS route was cached must be able to shorten it,
// also when it does not join the route's endpoints (the direct-link scan,
// which runs before the cache is read, would find one that does).
func TestAddLinkInvalidatesRouteCache(t *testing.T) {
	topo := Ring(cfg(8))
	gpus := topo.GPUs()
	if r, _ := topo.Route(gpus[0], gpus[4]); len(r) != 4 {
		t.Fatalf("ring route %v, want 4 hops", r)
	}
	if n := len(topo.routeCache); n != 1 {
		t.Fatalf("%d cached routes after one BFS route, want 1", n)
	}
	l := topo.AddLink(gpus[1], gpus[4], 1, 0)
	r, err := topo.Route(gpus[0], gpus[4])
	if err != nil {
		t.Fatal(err)
	}
	want := []DirLink{{Link: 0, Forward: true}, {Link: l, Forward: true}}
	if !reflect.DeepEqual(r, want) {
		t.Fatalf("route after AddLink = %v, want %v", r, want)
	}
	requireRouteMatchesBFS(t, topo, gpus[0], gpus[4])
}

// Host staging routes on a 1,024-GPU cluster are single hops that the
// direct-link scan finds: appended into a buffer with room they allocate
// nothing, and they leave the BFS route cache empty (a BFS from the host
// costs O(GPUs), tens of KB per route, and would be cached).
func TestHostRouteAllocsBounded(t *testing.T) {
	topo := RailFatTree(clusterCfg(128, 8), 8, 4)
	host, gpus := topo.Host(), topo.GPUs()
	buf := make([]DirLink, 0, 4)
	allocs := testing.AllocsPerRun(1, func() {
		for _, g := range gpus {
			for _, p := range [2][2]NodeID{{host, g}, {g, host}} {
				var err error
				buf, err = topo.AppendRoute(buf[:0], p[0], p[1])
				if err != nil || len(buf) != 1 {
					t.Fatalf("host route %d→%d = %v, %v; want one hop",
						p[0], p[1], buf, err)
				}
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations for %d host routes, want 0", allocs,
			2*len(gpus))
	}
	if n := len(topo.routeCache); n != 0 {
		t.Fatalf("%d host routes fell back to BFS, want 0", n)
	}
}

// Appending a structural or host route into a buffer with room allocates
// nothing on all three hierarchical generators, intra- and inter-machine,
// and caches nothing.
func TestAppendRouteAllocs(t *testing.T) {
	builds := map[string]func() *Topology{
		"railfattree": func() *Topology {
			return RailFatTree(clusterCfg(6, 4), 2, 2)
		},
		"dragonfly": func() *Topology { return Dragonfly(clusterCfg(8, 2), 4) },
		"torus3d": func() *Topology {
			return Torus3D(clusterCfg(0, 2), 2, 3, 2)
		},
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			topo := build()
			host, gpus := topo.Host(), topo.GPUs()
			last := gpus[len(gpus)-1]
			pairs := [][2]NodeID{
				{gpus[0], gpus[1]}, // same machine
				{gpus[0], last},    // across the fabric
				{last, gpus[0]},
				{host, gpus[1]},
				{last, host},
			}
			buf := make([]DirLink, 0, 16)
			for _, p := range pairs {
				allocs := testing.AllocsPerRun(100, func() {
					buf, _ = topo.AppendRoute(buf[:0], p[0], p[1])
				})
				if allocs != 0 {
					t.Errorf("route %d→%d: %v allocations, want 0", p[0],
						p[1], allocs)
				}
				checkRoutePath(t, topo, p[0], p[1], buf)
			}
			if n := len(topo.routeCache); n != 0 {
				t.Fatalf("%d routes cached, want 0", n)
			}
		})
	}
}
