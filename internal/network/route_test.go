package network

import (
	"fmt"
	"reflect"
	"runtime"
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

// A link added after a route was cached must be able to shorten it.
func TestAddLinkInvalidatesRouteCache(t *testing.T) {
	topo := Ring(cfg(6))
	gpus := topo.GPUs()
	if r, _ := topo.Route(gpus[0], gpus[3]); len(r) != 3 {
		t.Fatalf("ring route %v, want 3 hops", r)
	}
	l := topo.AddLink(gpus[3], gpus[0], 1, 0)
	r, err := topo.Route(gpus[0], gpus[3])
	if err != nil {
		t.Fatal(err)
	}
	if want := []DirLink{{Link: l, Forward: false}}; !reflect.DeepEqual(r, want) {
		t.Fatalf("route after AddLink = %v, want %v", r, want)
	}
}

// Host staging routes on a 1,024-GPU cluster must cost O(1) bytes each,
// not the O(GPUs) of a BFS from the host (tens of KB per route).
func TestHostRouteAllocsBounded(t *testing.T) {
	topo := RailFatTree(clusterCfg(128, 8), 8, 4)
	host, gpus := topo.Host(), topo.GPUs()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, g := range gpus {
		if _, err := topo.Route(host, g); err != nil {
			t.Fatal(err)
		}
		if _, err := topo.Route(g, host); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRoute := (after.TotalAlloc - before.TotalAlloc) / uint64(2*len(gpus))
	t.Logf("%d bytes per new host route", perRoute)
	// One 16-byte route slice plus amortized route-cache growth.
	if perRoute > 512 {
		t.Fatalf("%d bytes allocated per new host route, want ≤ 512 "+
			"(a BFS fallback costs O(GPUs))", perRoute)
	}
}
