package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"triosim"
	"triosim/internal/config"
	"triosim/internal/server"
	"triosim/internal/serving"
	"triosim/internal/telemetry"
)

// The defaults every flag-built spec starts from.
var (
	defaultRun = config.RunSpec{Platform: "P2", Parallelism: "ddp",
		TraceBatch: 128, Chunks: 1, Iterations: 1}
	defaultServe = config.ServeSpec{Platform: "P2",
		Serving: serving.Config{Scheduler: "fifo"}}
)

func TestFlagsFillSpecs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		run   config.RunSpec
		serve config.ServeSpec
	}{
		{name: "defaults", run: defaultRun, serve: defaultServe},
		{
			name: "every run flag",
			args: []string{"-model", "gpt2", "-trace", "t.json",
				"-platform", "P3", "-parallelism", "dp+tp+pp",
				"-trace-batch", "16", "-trace-gpu", "H100",
				"-global-batch", "256", "-gpus", "8", "-chunks", "4",
				"-collective", "ring", "-tp", "2", "-pp", "2",
				"-fuse-compute", "-net-approx-tol", "0.01",
				"-iterations", "3"},
			run: config.RunSpec{Model: "gpt2", TraceFile: "t.json",
				Platform: "P3", Parallelism: "dp+tp+pp", TraceBatch: 16,
				TraceGPU: "H100", GlobalBatch: 256, NumGPUs: 8, Chunks: 4,
				Collective: "ring", TPRanks: 2, PPStages: 2,
				FuseCompute: true, NetApproxTol: 0.01, Iterations: 3},
			serve: config.ServeSpec{Platform: "P3",
				Serving: serving.Config{Model: "gpt2", Scheduler: "fifo"}},
		},
		{
			name: "every serve flag",
			args: []string{"-serve-sim", "-model", "gpt2", "-platform", "P1",
				"-serve-sched", "sjf", "-serve-requests", "8",
				"-serve-rate", "200", "-serve-seed", "3",
				"-serve-batch", "4", "-serve-replicas", "2",
				"-serve-workload", "w.json"},
			run: config.RunSpec{Model: "gpt2", Platform: "P1",
				Parallelism: "ddp", TraceBatch: 128, Chunks: 1, Iterations: 1},
			serve: config.ServeSpec{Platform: "P1", Serving: serving.Config{
				Model: "gpt2", Scheduler: "sjf", MaxBatch: 4, Replicas: 2,
				Arrivals: serving.ArrivalConfig{Requests: 8, Rate: 200,
					Seed: 3}}},
		},
	} {
		o, err := parseArgs(tc.args)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(o.run, tc.run) {
			t.Errorf("%s: RunSpec\n got %+v\nwant %+v", tc.name, o.run, tc.run)
		}
		if !reflect.DeepEqual(o.serve, tc.serve) {
			t.Errorf("%s: ServeSpec\n got %+v\nwant %+v", tc.name, o.serve,
				tc.serve)
		}
	}
}

// Every flag a path would drop is named in an error instead.
func TestDroppedFlagsRejected(t *testing.T) {
	runFlags := []string{"model", "trace", "platform", "parallelism",
		"trace-batch", "trace-gpu", "global-batch", "gpus", "chunks",
		"collective", "tp", "pp", "fuse-compute", "net-approx-tol",
		"iterations"}
	servingFlags := []string{"serve-sched", "serve-requests", "serve-rate",
		"serve-seed", "serve-batch", "serve-replicas", "serve-workload"}
	// -model and -platform fill the ServeSpec too; the rest of runFlags
	// are training-only.
	trainingOnly := append([]string{"config", "fault-seed", "validate",
		"memory", "timeline-html", "monitor", "trace"}, runFlags[3:]...)

	check := func(base []string, name, want string) {
		t.Helper()
		// "=1" parses as a bool, an int, a float, and a string alike.
		args := append(append([]string{}, base...), "-"+name+"=1")
		_, err := parseArgs(args)
		if err == nil || !strings.Contains(err.Error(), "-"+name+" "+want) {
			t.Errorf("%v: got %v, want an error naming -%s", args, err, name)
		}
	}
	for _, f := range append(runFlags, servingFlags...) {
		check([]string{"-config", "run.json"}, f, "cannot be combined with -config")
	}
	for _, f := range trainingOnly {
		check([]string{"-serve-sim"}, f, "does not apply to -serve-sim")
	}
	for _, f := range servingFlags {
		check(nil, f, "needs -serve-sim")
	}

	// The options shared by every path stay allowed.
	for _, args := range [][]string{
		{"-config", "run.json", "-deterministic", "-metrics-out", "r.json",
			"-trace-out", "s.json", "-faults", "f.json", "-fault-seed", "7",
			"-validate", "-memory", "-timeline-html", "t.html"},
		{"-serve-sim", "-model", "gpt2", "-platform", "P1", "-deterministic",
			"-metrics-out", "r.json", "-trace-out", "s.json", "-faults", "f.json"},
	} {
		if _, err := parseArgs(args); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}

// runReport runs the CLI with -deterministic -metrics-out and returns the
// RunReport bytes.
func runReport(t *testing.T, args ...string) []byte {
	t.Helper()
	out := filepath.Join(t.TempDir(), "report.json")
	args = append(args, "-deterministic", "-metrics-out", out)
	if err := run(args, io.Discard); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// writeSpec writes the RunSpec the flags build as a -config file.
func writeSpec(t *testing.T, args []string) string {
	t.Helper()
	o, err := parseArgs(args)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(o.run)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestConfigFileMatchesFlags(t *testing.T) {
	tr, err := triosim.CollectTrace("resnet18", 32, "A40")
	if err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteFile(tracePath); err != nil {
		t.Fatal(err)
	}
	for name, args := range map[string][]string{
		"model": {"-model", "resnet18", "-platform", "P1", "-trace-batch", "32",
			"-global-batch", "64", "-iterations", "2"},
		// The spec has a trace_file and no model: the model comes from
		// the trace on both paths.
		"trace": {"-trace", tracePath, "-platform", "P1", "-trace-batch", "32"},
	} {
		flags := runReport(t, args...)
		file := runReport(t, "-config", writeSpec(t, args))
		if !bytes.Equal(flags, file) {
			t.Errorf("%s: -config report (%d bytes) differs from the flags' (%d bytes)",
				name, len(file), len(flags))
		}
	}
}

// The CLI's deterministic serving report is the report triosimd serves for
// the same ServeSpec.
func TestServeSimMatchesDaemon(t *testing.T) {
	args := []string{"-serve-sim", "-model", "gpt2", "-platform", "P1",
		"-serve-requests", "8", "-serve-seed", "3"}
	cli := runReport(t, args...)
	if bytes.Contains(cli, []byte("wall_seconds")) {
		t.Fatal("-deterministic serving report carries wall-clock fields")
	}

	o, err := parseArgs(args)
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Options{Workers: 1})
	defer s.Close()
	ack, err := s.Submit(&server.Request{Serve: &o.serve})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if res := s.Wait(ctx, ack.ID); res == nil || res.State != server.StateDone {
		t.Fatalf("daemon run: %+v", res)
	}
	if served := s.Report(ack.ID); !bytes.Equal(cli, served) {
		t.Fatalf("CLI report (%d bytes) differs from the served report (%d bytes)",
			len(cli), len(served))
	}
}

// A -fault-seed schedule is drawn over the topology the run simulates: the
// 8-GPU, 16-link ring a -config spec gives, not P1's default 2 GPUs and 3
// links.
func TestFaultSeedDrawsFromConfigTopology(t *testing.T) {
	spec := config.RunSpec{Model: "resnet18", Platform: "P1",
		Parallelism: "ddp", TraceBatch: 32, NumGPUs: 8,
		Topology: &config.TopologySpec{Kind: "ring", NumGPUs: 8,
			LinkBandwidthGBps: 50, LinkLatencyUS: 1,
			HostBandwidthGBps: 16, HostLatencyUS: 5}}
	cfg, err := spec.ToCore()
	if err != nil {
		t.Fatal(err)
	}
	gpus, links := len(cfg.Topology.GPUs()), len(cfg.Topology.Links)
	if gpus != 8 || links != 16 {
		t.Fatalf("ring spec builds %d GPUs and %d links, want 8 and 16",
			gpus, links)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ring8.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := triosim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		sched, err := triosim.GenerateFaults(seed, triosim.FaultGenConfig{
			NumGPUs: gpus, NumLinks: links, Horizon: base.TotalTime,
			LinkDegrades: 1, GPUSlowdowns: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		var want []telemetry.FaultWindow
		for _, w := range sched.Windows() {
			want = append(want, telemetry.FaultWindow{Kind: string(w.Kind),
				Resource: w.ResourceName(), Factor: w.Factor,
				StartSec: w.Start.Seconds(), EndSec: w.End.Seconds()})
		}
		var rep telemetry.RunReport
		if err := json.Unmarshal(runReport(t, "-config", path,
			"-fault-seed", strconv.FormatInt(seed, 10)), &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Faults == nil || !reflect.DeepEqual(rep.Faults.Windows, want) {
			t.Errorf("seed %d: report windows %+v, want the schedule drawn "+
				"over %d GPUs and %d links: %+v", seed, rep.Faults, gpus,
				links, want)
		}
	}
}
