package network

import (
	"math/rand"
	"testing"
	"testing/quick"

	"triosim/internal/sim"
)

func cfg(n int) Config {
	return Config{
		NumGPUs:       n,
		LinkBandwidth: 100e9,
		LinkLatency:   1 * sim.USec,
		HostBandwidth: 10e9,
		HostLatency:   5 * sim.USec,
	}
}

func TestRingTopology(t *testing.T) {
	topo := Ring(cfg(4))
	if got := len(topo.GPUs()); got != 4 {
		t.Fatalf("GPUs = %d", got)
	}
	if topo.Host() < 0 {
		t.Fatal("no host")
	}
	gpus := topo.GPUs()
	// Neighbors are 1 hop, opposite corner is 2 hops.
	r, err := topo.Route(gpus[0], gpus[1])
	if err != nil || len(r) != 1 {
		t.Fatalf("0→1 route %v, %v", r, err)
	}
	r, err = topo.Route(gpus[0], gpus[2])
	if err != nil || len(r) != 2 {
		t.Fatalf("0→2 route %v, %v", r, err)
	}
}

func TestRingOfTwoHasSingleLink(t *testing.T) {
	topo := Ring(cfg(2))
	gpuLinks := 0
	for _, l := range topo.Links {
		if topo.Nodes[l.A].Kind == GPUNode && topo.Nodes[l.B].Kind == GPUNode {
			gpuLinks++
		}
	}
	if gpuLinks != 1 {
		t.Fatalf("2-GPU ring has %d GPU-GPU links, want 1", gpuLinks)
	}
}

func TestSwitchTopology(t *testing.T) {
	topo := Switch(cfg(8))
	gpus := topo.GPUs()
	for i := 1; i < 8; i++ {
		r, err := topo.Route(gpus[0], gpus[i])
		if err != nil || len(r) != 2 {
			t.Fatalf("switch route 0→%d = %v, %v", i, r, err)
		}
	}
}

func TestPCIeTreeTopology(t *testing.T) {
	topo := PCIeTree(cfg(2))
	gpus := topo.GPUs()
	r, err := topo.Route(gpus[0], gpus[1])
	if err != nil || len(r) != 2 {
		t.Fatalf("pcie route = %v, %v", r, err)
	}
	// Host reaches GPUs through the switch.
	r, err = topo.Route(topo.Host(), gpus[0])
	if err != nil || len(r) != 2 {
		t.Fatalf("host route = %v, %v", r, err)
	}
}

func TestMeshTopology(t *testing.T) {
	topo := Mesh(3, 4, cfg(0))
	gpus := topo.GPUs()
	if len(gpus) != 12 {
		t.Fatalf("mesh GPUs = %d", len(gpus))
	}
	// Manhattan distance routing: corner to corner is (3-1)+(4-1)=5 hops.
	r, err := topo.Route(gpus[0], gpus[11])
	if err != nil || len(r) != 5 {
		t.Fatalf("mesh corner route = %d hops, %v", len(r), err)
	}
}

// TestMeshSnakeRingOrder checks that a mesh's ring order is its snake
// traversal: a permutation of the GPU indices whose consecutive entries are
// mesh neighbors, one link apart. On two rows the snake closes into a
// cycle, so the wrap-around step is one link as well.
func TestMeshSnakeRingOrder(t *testing.T) {
	for _, shape := range [][2]int{{4, 3}, {12, 7}, {2, 3}, {1, 5}, {3, 1}} {
		rows, cols := shape[0], shape[1]
		topo := Mesh(rows, cols, cfg(0))
		gpus := topo.GPUs()
		order := topo.RingOrder()
		if len(order) != len(gpus) {
			t.Fatalf("%dx%d: ring order has %d entries for %d GPUs",
				rows, cols, len(order), len(gpus))
		}
		seen := make([]bool, len(gpus))
		for i, idx := range order {
			if idx < 0 || idx >= len(gpus) || seen[idx] {
				t.Fatalf("%dx%d: ring order %v is not a permutation",
					rows, cols, order)
			}
			seen[idx] = true
			if i == 0 {
				continue
			}
			r, err := topo.Route(gpus[order[i-1]], gpus[idx])
			if err != nil || len(r) != 1 {
				t.Fatalf("%dx%d: order[%d]=%d and order[%d]=%d are %d links apart (%v)",
					rows, cols, i-1, order[i-1], i, idx, len(r), err)
			}
		}
		if rows == 2 {
			r, err := topo.Route(gpus[order[len(order)-1]], gpus[order[0]])
			if err != nil || len(r) != 1 {
				t.Fatalf("2x%d: wrap-around step is %d links (%v)",
					cols, len(r), err)
			}
		}
	}
	if order := Ring(cfg(4)).RingOrder(); order != nil {
		t.Fatalf("ring topology has ring order %v, want index order", order)
	}
}

func TestRingWithChords(t *testing.T) {
	topo := RingWithChords(cfg(8))
	gpus := topo.GPUs()
	// Most distant node is now 1 hop via the chord.
	r, err := topo.Route(gpus[0], gpus[4])
	if err != nil || len(r) != 1 {
		t.Fatalf("chord route = %v, %v", r, err)
	}
}

func TestDoubleRing(t *testing.T) {
	topo := DoubleRing(cfg(8))
	gpus := topo.GPUs()
	if len(gpus) != 8 {
		t.Fatalf("GPUs = %d", len(gpus))
	}
	// Cross-ring peers are directly connected.
	r, err := topo.Route(gpus[0], gpus[4])
	if err != nil || len(r) != 1 {
		t.Fatalf("cross-ring route = %v, %v", r, err)
	}
	// Within each ring of 4, the opposite node is 2 hops.
	r, err = topo.Route(gpus[0], gpus[2])
	if err != nil || len(r) != 2 {
		t.Fatalf("in-ring route = %v, %v", r, err)
	}
}

func TestRouteCacheAndSymmetryProperty(t *testing.T) {
	topo := Mesh(4, 4, cfg(0))
	gpus := topo.GPUs()
	f := func(a, b uint8) bool {
		src := gpus[int(a)%len(gpus)]
		dst := gpus[int(b)%len(gpus)]
		r1, err1 := topo.Route(src, dst)
		r2, err2 := topo.Route(dst, src)
		if err1 != nil || err2 != nil {
			return false
		}
		if src == dst {
			return len(r1) == 0 && len(r2) == 0
		}
		// Shortest paths in both directions have equal hop count.
		return len(r1) == len(r2) && len(r1) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteFollowsEdges(t *testing.T) {
	// Property: each route is a connected path from src to dst.
	topo := Mesh(3, 5, cfg(0))
	gpus := topo.GPUs()
	for _, src := range gpus {
		for _, dst := range gpus {
			route, err := topo.Route(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			at := src
			for _, dl := range route {
				lk := topo.Links[dl.Link]
				if dl.Forward {
					if lk.A != at {
						t.Fatalf("route %d→%d broken at %v", src, dst, dl)
					}
					at = lk.B
				} else {
					if lk.B != at {
						t.Fatalf("route %d→%d broken at %v", src, dst, dl)
					}
					at = lk.A
				}
			}
			if at != dst {
				t.Fatalf("route %d→%d ends at %d", src, dst, at)
			}
		}
	}
}

func TestDisconnectedRoute(t *testing.T) {
	topo := NewTopology()
	a := topo.AddNode("a", GPUNode)
	b := topo.AddNode("b", GPUNode)
	if _, err := topo.Route(a, b); err == nil {
		t.Fatal("disconnected route must error")
	}
}

func TestRouteLatency(t *testing.T) {
	topo := Ring(cfg(4))
	gpus := topo.GPUs()
	r, _ := topo.Route(gpus[0], gpus[2])
	if got := topo.RouteLatency(r); got != 2*sim.USec {
		t.Fatalf("RouteLatency = %v, want 2us", got)
	}
}

func TestSetLinkBandwidth(t *testing.T) {
	topo := Ring(cfg(4))
	topo.SetLinkBandwidth(0, 42)
	if topo.Links[0].Bandwidth != 42 {
		t.Fatal("SetLinkBandwidth did not apply")
	}
}

// TestLinkIDSharesNames: each link direction gets the id of its "a->b"
// name; a parallel link between the same nodes shares its directions' ids
// (reversed when its endpoints are), and ids handed out before a link is
// added stay valid after.
func TestLinkIDSharesNames(t *testing.T) {
	topo := Ring(cfg(4))
	gpus := topo.GPUs()
	fwd := topo.LinkID(DirLink{Link: 0, Forward: true})
	rev := topo.LinkID(DirLink{Link: 0, Forward: false})
	if got := topo.LinkName(fwd); got != "gpu0->gpu1" {
		t.Fatalf("forward name %q", got)
	}
	if got := topo.LinkName(rev); got != "gpu1->gpu0" {
		t.Fatalf("reverse name %q", got)
	}
	if got := topo.PairName(gpus[3], topo.Host()); got != "gpu3->host" {
		t.Fatalf("pair name %q", got)
	}
	dup := topo.AddLink(gpus[1], gpus[0], 1e9, 0)
	if got := topo.LinkID(DirLink{Link: dup, Forward: true}); got != rev {
		t.Fatalf("duplicate forward id %d, want %d", got, rev)
	}
	if got := topo.LinkID(DirLink{Link: dup, Forward: false}); got != fwd {
		t.Fatalf("duplicate reverse id %d, want %d", got, fwd)
	}
	seen := map[string]int{}
	for l := range topo.Links {
		for _, f := range []bool{true, false} {
			id := topo.LinkID(DirLink{Link: l, Forward: f})
			name := topo.LinkName(id)
			if prev, ok := seen[name]; ok && prev != id {
				t.Fatalf("name %q has ids %d and %d", name, prev, id)
			}
			seen[name] = id
		}
	}
	if len(seen) != 2*(len(topo.Links)-1) {
		t.Fatalf("%d names for %d links with one duplicate", len(seen),
			len(topo.Links))
	}
}
