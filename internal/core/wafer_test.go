package core

import (
	"testing"

	"triosim/internal/gpu"
	"triosim/internal/network"
	"triosim/internal/sim"
	"triosim/internal/task"
)

// waferConfig is Fig 15's resnet50 cell with telemetry on: DDP on 84
// A100-class chiplets, a 12×7 mesh of 30 GB/s links, with Passage circuits
// over the GPUs when photonic.
func waferConfig(photonic bool) Config {
	p := gpu.Platform{Name: "wafer-electrical", GPU: gpu.A100, NumGPUs: 84,
		Topology: gpu.TopoMesh, LinkBandwidth: 30e9, LinkLatency: sim.USec,
		HostBandwidth: 30e9, HostLatency: 5 * sim.USec}
	topo := network.Mesh(12, 7, network.Config{
		LinkBandwidth: p.LinkBandwidth, LinkLatency: p.LinkLatency,
		HostBandwidth: p.HostBandwidth, HostLatency: p.HostLatency,
	})
	if photonic {
		passage := network.Passage
		p.Name, topo.Circuits = "wafer-photonic", &passage
	}
	return Config{Model: "resnet50", Platform: &p, Topology: topo,
		Parallelism: DDP, TraceBatch: 128, GlobalBatch: 128, Iterations: 3,
		BucketBytes: 256 << 20, Telemetry: true}
}

// TestMeshRingStepsCrossOneLink checks that a data-parallel ring over a
// whole mesh runs in the mesh's snake order: on two rows the snake is a
// cycle, so every ring step, the wrap-around included, crosses one link.
func TestMeshRingStepsCrossOneLink(t *testing.T) {
	topo := network.Mesh(2, 3, network.Config{LinkBandwidth: 100e9,
		LinkLatency: sim.USec, HostBandwidth: 20e9, HostLatency: 5 * sim.USec})
	p, err := plan(Config{Model: "resnet18", Platform: p2(), Topology: topo,
		NumGPUs: 6, Parallelism: DDP, TraceBatch: 32}, prediction, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := p.graph.Graph
	steps := 0
	for id := 0; id < g.Len(); id++ {
		tk := g.Task(id)
		if tk.Kind != task.Comm {
			continue
		}
		steps++
		route, err := topo.Route(tk.Src, tk.Dst)
		if err != nil || len(route) != 1 {
			t.Fatalf("ring step %s: %s → %s crosses %d links (%v)",
				tk.Label(), topo.Nodes[tk.Src].Name, topo.Nodes[tk.Dst].Name,
				len(route), err)
		}
	}
	if steps == 0 {
		t.Fatal("no ring steps in the DDP graph")
	}
}

// TestCircuitsCarryGPUTraffic checks the photonic wafer's traffic split:
// GPU↔GPU transfers ride the circuits, so the flow network — what the
// RunReport's network section counts — carries the host staging alone,
// while the electrical wafer's links carry the gradient ring as well.
func TestCircuitsCarryGPUTraffic(t *testing.T) {
	elec, err := Simulate(waferConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	phot, err := Simulate(waferConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan(waferConfig(true), prediction, nil)
	if err != nil {
		t.Fatal(err)
	}
	var staged float64
	g := p.graph.Graph
	for id := 0; id < g.Len(); id++ {
		if tk := g.Task(id); tk.Kind == task.HostLoad {
			staged += tk.Bytes
		}
	}
	if got := phot.Report.Network.TotalBytes; got != staged {
		t.Fatalf("photonic flow network moved %g bytes, host staging is %g",
			got, staged)
	}
	if got := elec.Report.Network.TotalBytes; got <= staged {
		t.Fatalf("electrical links moved %g bytes, no more than staging %g",
			got, staged)
	}
}
