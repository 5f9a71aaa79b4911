package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"triosim/internal/faults"
	"triosim/internal/gpu"
	"triosim/internal/network"
	"triosim/internal/sim"
	"triosim/internal/spantrace"
)

var updateReportPins = flag.Bool("update-report-pins", false,
	"rewrite testdata/report_pins.txt from the current tree")

const reportPinsFile = "report_pins.txt"

// chromeRow renders the SHA-256 of a span log's Chrome trace JSON.
func chromeRow(key string, l *spantrace.Log) (string, error) {
	var buf bytes.Buffer
	if err := l.WriteChromeTrace(&buf); err != nil {
		return "", err
	}
	return fmt.Sprintf("%s.chrome %x", key, sha256.Sum256(buf.Bytes())), nil
}

// faultedDDPConfig is a DDP run on P2 with a 4× degrade of link 0 (gpu0's
// switch link) over the first 20 ms and a 1.5× straggler on GPU 1.
func faultedDDPConfig() Config {
	return Config{Model: "resnet18", Platform: p2(), Parallelism: DDP,
		TraceBatch: 32, Telemetry: true, SpanTrace: true,
		Faults: &faults.Schedule{Events: []faults.Event{
			{Kind: faults.LinkDegrade, Link: 0, Factor: 4,
				Duration: 20 * sim.MSec},
			{Kind: faults.GPUSlowdown, GPU: 1, Factor: 1.5,
				Start: 2 * sim.MSec, Duration: 30 * sim.MSec},
		}}}
}

// clusterPinConfig is a 64-GPU DP×TP×PP step (dp 4, tp 4, pp 4) on an
// 8-machine rail fat tree.
func clusterPinConfig() Config {
	p3 := gpu.P3
	return Config{Model: "gpt2", Platform: &p3, Parallelism: DPTPPP,
		NumGPUs: 64, TPRanks: 4, PPStages: 4, TraceBatch: 16,
		GlobalBatch: 4 * 4 * 16, MicroBatches: 4, FuseCompute: true,
		Telemetry: true,
		Topology: network.RailFatTree(network.ClusterConfig{
			Machines: 8, GPUsPerMachine: 8,
			NVLinkBandwidth: 300e9, NVLinkLatency: sim.USec,
			NICBandwidth: 50e9, NICLatency: 2 * sim.USec,
			FabricBandwidth: 100e9, FabricLatency: 2 * sim.USec,
			HostBandwidth: 20e9, HostLatency: 5 * sim.USec,
		}, 8, 2)}
}

// duplicateLinkTopology is what a config topology {"kind": "ring",
// "num_gpus": 4, "extra_links": [{"a": 1, "b": 0}]} builds: a 4-GPU ring
// whose extra link joins the same two GPUs as ring link 0, reversed, so
// the two links carry the same direction names.
func duplicateLinkTopology() *network.Topology {
	topo := network.Ring(network.Config{NumGPUs: 4,
		LinkBandwidth: 100e9, LinkLatency: sim.USec,
		HostBandwidth: 20e9, HostLatency: 5 * sim.USec})
	gpus := topo.GPUs()
	topo.AddLink(gpus[1], gpus[0], 50e9, 0)
	return topo
}

// reportPins runs the paths strategy_pins.txt does not reach — the
// single-GPU and data-parallel strategies, a 64-GPU DP×TP×PP cluster step,
// a faulted DDP run, a serving run and a topology with two same-named
// links — and returns one pinRow per run, plus the Chrome trace hash of
// the faulted and the serving run, in a fixed order.
func reportPins(t *testing.T) []string {
	t.Helper()
	var rows []string
	add := func(key string, res *Result, err error) {
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		row, err := pinRow(key, res)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		rows = append(rows, row)
		if res.Spans != nil {
			row, err := chromeRow(key, res.Spans)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			rows = append(rows, row)
		}
	}
	paths := []struct {
		name string
		run  func(Config) (*Result, error)
	}{
		{"sim", Simulate}, {"gt", GroundTruth},
	}
	for _, par := range []Parallelism{Single, DP, DDP, ZeRO1} {
		for _, model := range []string{"resnet18", "gpt2"} {
			for _, path := range paths {
				key := strings.Join([]string{string(par), model, "P2",
					path.name}, "/")
				res, err := path.run(Config{Model: model, Platform: p2(),
					Parallelism: par, TraceBatch: 32, Telemetry: true})
				add(key, res, err)
			}
		}
	}
	res, err := Simulate(clusterPinConfig())
	add("dp+tp+pp/gpt2/rail-fat-tree-64/sim", res, err)
	res, err = Simulate(faultedDDPConfig())
	add("ddp/resnet18/P2/faults/sim", res, err)
	res, err = Simulate(Config{Model: "resnet18", Platform: p1(),
		Parallelism: DDP, NumGPUs: 4, TraceBatch: 32, Telemetry: true,
		Topology: duplicateLinkTopology()})
	add("ddp/resnet18/ring-4-duplicate-link/sim", res, err)

	sres, err := Serve(serveConfig())
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	var buf bytes.Buffer
	if err := sres.Report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	rows = append(rows, fmt.Sprintf("serve/gpt2/P1/fifo %d %#016x %x",
		sres.Events, sres.EventDigest, sha256.Sum256(buf.Bytes())))
	row, err := chromeRow("serve/gpt2/P1/fifo", sres.Spans)
	if err != nil {
		t.Fatal(err)
	}
	return append(rows, row)
}

// TestReportPins pins the RunReport bytes (and, for two runs, the Chrome
// trace bytes) of the runs reportPins makes in testdata/report_pins.txt.
// Observation code — the telemetry collector, the span recorder, link
// naming — must leave every row unmoved. Regenerate deliberately with
//
//	go test ./internal/core -run TestReportPins -update-report-pins
func TestReportPins(t *testing.T) {
	got := reportPins(t)
	path := filepath.Join("testdata", reportPinsFile)
	if *updateReportPins {
		data := "# key makespan-bits events event-digest runreport-sha256" +
			" (serve: key events event-digest runreport-sha256;" +
			" .chrome: key chrome-trace-sha256)\n" +
			strings.Join(got, "\n") + "\n"
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
			t.Errorf("row moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
