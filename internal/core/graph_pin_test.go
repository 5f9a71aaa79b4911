package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"triosim/internal/gpu"
	"triosim/internal/network"
	"triosim/internal/sim"
	"triosim/internal/task"
)

const graphPinsFile = "graph_pins.txt"

// graphFingerprint hashes everything the executor and the observers read of
// a task graph: per task, in ID order, its kind, rendered label, GPU,
// duration bits, Src/Dst, byte bits, Layer, MicroBatch and Collective, then
// its ordered deps and dependents. Two graphs with one fingerprint dispatch
// the same events in the same order.
func graphFingerprint(g *task.Graph) (sum string, edges int) {
	h := sha256.New()
	var buf []byte
	num := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	str := func(s string) {
		num(uint64(len(s)))
		buf = append(buf, s...)
	}
	for id := 0; id < g.Len(); id++ {
		t := g.Task(id)
		buf = buf[:0]
		num(uint64(t.ID))
		num(uint64(t.Kind))
		str(t.Label())
		num(uint64(t.GPU))
		num(math.Float64bits(float64(t.Duration)))
		num(uint64(t.Src))
		num(uint64(t.Dst))
		num(math.Float64bits(t.Bytes))
		num(uint64(t.Layer))
		num(uint64(t.MicroBatch))
		str(t.Collective())
		deps, dependents := g.Deps(id), g.Dependents(id)
		num(uint64(len(deps)))
		for _, d := range deps {
			num(uint64(d))
		}
		num(uint64(len(dependents)))
		for _, d := range dependents {
			num(uint64(d))
		}
		edges += len(deps)
		h.Write(buf)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), edges
}

// clusterTopo is a rail fat tree of machines×8 GPUs, the cluster-scale
// shape whose tiers select the hierarchical AllReduce.
func clusterTopo(machines int) *network.Topology {
	return network.RailFatTree(network.ClusterConfig{
		Machines: machines, GPUsPerMachine: 8,
		NVLinkBandwidth: 300e9, NVLinkLatency: sim.USec,
		NICBandwidth: 50e9, NICLatency: 2 * sim.USec,
		FabricBandwidth: 100e9, FabricLatency: 2 * sim.USec,
		HostBandwidth: 20e9, HostLatency: 5 * sim.USec,
	}, 8, 2)
}

// graphPins builds the task graph of every strategy, fused and unfused,
// through both the Simulate and the ground-truth (hwsim, StepDelay > 0)
// paths, plus cluster-scale DP×TP×PP graphs whose hierarchical AllReduce
// runs rings and trees over the rails, and returns one row per graph: key,
// task count, edge count, fingerprint.
func graphPins(t *testing.T) []string {
	t.Helper()
	type shape struct {
		name string
		set  func(*Config)
	}
	p3 := func(c *Config) {
		pl := gpu.P3
		c.Platform = &pl
	}
	shapes := []shape{}
	for _, par := range []Parallelism{DP, DDP, ZeRO1, PP, TP, DPPP, DPTP,
		DPTPPP} {
		for _, model := range []string{"resnet18", "gpt2"} {
			par, model := par, model
			shapes = append(shapes, shape{
				strings.Join([]string{string(par), model, "P3"}, "/"),
				func(c *Config) {
					p3(c)
					c.Model, c.Parallelism = model, par
					c.MicroBatches = 2
					if par == DPTPPP {
						c.TPRanks, c.PPStages = 2, 2
					}
				}})
		}
	}
	shapes = append(shapes,
		shape{"ddp/resnet18/P3/tree", func(c *Config) {
			p3(c)
			c.Model, c.Parallelism, c.Collective = "resnet18", DDP, "tree"
		}},
		shape{"ddp/resnet18/rail-16", func(c *Config) {
			p3(c)
			c.Model, c.Parallelism, c.NumGPUs = "resnet18", DDP, 16
			c.Topology = clusterTopo(2)
		}},
		shape{"dp+tp+pp/gpt2/rail-64", func(c *Config) {
			p3(c)
			c.Model, c.Parallelism, c.NumGPUs = "gpt2", DPTPPP, 64
			c.TPRanks, c.PPStages, c.MicroBatches = 8, 2, 2
			c.GlobalBatch = 64
			c.Topology = clusterTopo(8)
		}},
		shape{"dp+tp+pp/resnet18/rail-136", func(c *Config) {
			p3(c)
			c.Model, c.Parallelism, c.NumGPUs = "resnet18", DPTPPP, 136
			c.TPRanks, c.PPStages, c.MicroBatches = 4, 2, 2
			c.GlobalBatch = 136
			c.Topology = clusterTopo(17)
		}},
	)
	paths := []struct {
		name string
		src  source
	}{
		{"sim", prediction}, {"gt", groundTruth},
	}
	var rows []string
	for _, s := range shapes {
		for _, fused := range []bool{false, true} {
			for _, path := range paths {
				var cfg Config
				s.set(&cfg)
				cfg.FuseCompute = fused
				key := s.name + "/unfused/" + path.name
				if fused {
					key = s.name + "/fused/" + path.name
				}
				p, err := plan(cfg, path.src)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				sum, edges := graphFingerprint(p.graph.Graph)
				rows = append(rows, fmt.Sprintf("%s %d %d %s", key,
					p.graph.Graph.Len(), edges, sum))
			}
		}
	}
	return rows
}

// TestGraphPins pins the fingerprint of every strategy's task graph in
// testdata/graph_pins.txt. Task IDs, insertion order, labels and dependency
// order are what the event digest and every report depend on, so a change
// to how graphs are stored or built must leave every row unmoved.
// Regenerate deliberately with
//
//	go test ./internal/core -run TestGraphPins -update-pins
func TestGraphPins(t *testing.T) {
	got := graphPins(t)
	path := filepath.Join("testdata", graphPinsFile)
	if *updatePins {
		data := "# key tasks edges sha256(graph)\n" + strings.Join(got, "\n") +
			"\n"
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, pinned %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("graph moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
