package core

import (
	"bytes"
	"math"
	"testing"

	"triosim/internal/gpu"
)

func p3() *gpu.Platform { p := gpu.P3; return &p }

// TestTelemetryDoesNotPerturbSchedule is the determinism contract: the same
// configuration dispatches a byte-identical event schedule with the telemetry
// collector attached and without it.
func TestTelemetryDoesNotPerturbSchedule(t *testing.T) {
	cfg := Config{
		Model: "resnet18", Platform: p1(), Parallelism: DDP,
		TraceBatch: 32,
	}
	plain, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Report != nil {
		t.Fatal("telemetry off should leave Report nil")
	}
	cfg.Telemetry = true
	instr, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if instr.Report == nil {
		t.Fatal("telemetry on should produce a Report")
	}
	if instr.EventDigest != plain.EventDigest {
		t.Fatalf("telemetry perturbed the event schedule: %#x vs %#x",
			instr.EventDigest, plain.EventDigest)
	}
	if instr.Events != plain.Events || instr.TotalTime != plain.TotalTime ||
		instr.OutcomeDigest != plain.OutcomeDigest {
		t.Fatalf("telemetry changed the outcome: %d events %v vs %d events %v",
			instr.Events, instr.TotalTime, plain.Events, plain.TotalTime)
	}
}

// TestRunReportDeterministic serializes the RunReport of two identical runs
// and requires byte-identical JSON (nil Clock leaves wall-rate fields zero).
func TestRunReportDeterministic(t *testing.T) {
	cfg := Config{
		Model: "resnet18", Platform: p2(), Parallelism: DDP,
		TraceBatch: 32, Telemetry: true,
	}
	var out [2]bytes.Buffer
	for i := range out {
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Report.WriteJSON(&out[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Fatalf("RunReport JSON differs across identical runs:\n%s\n--- vs ---\n%s",
			out[0].String(), out[1].String())
	}
}

// TestReportTimeAccounting checks the tentpole invariant on every platform ×
// strategy pair: each GPU's compute + exposed comm + exposed host + idle
// seconds sum to the simulated total, and the report passes its own
// validation (utilization bounds, collective sanity).
func TestReportTimeAccounting(t *testing.T) {
	cases := []struct {
		plat *gpu.Platform
		par  Parallelism
	}{
		{p1(), DDP}, {p1(), TP}, {p1(), PP},
		{p2(), DDP}, {p2(), TP}, {p2(), PP},
		{p3(), DDP}, {p3(), TP}, {p3(), PP},
	}
	for _, tc := range cases {
		res, err := Simulate(Config{
			Model: "resnet18", Platform: tc.plat, Parallelism: tc.par,
			TraceBatch: 32, Telemetry: true,
		})
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.plat.Name, tc.par, err)
		}
		rep := res.Report
		if rep == nil {
			t.Fatalf("%s/%s: nil report", tc.plat.Name, tc.par)
		}
		if err := rep.Validate(); err != nil {
			t.Errorf("%s/%s: %v", tc.plat.Name, tc.par, err)
		}
		if len(rep.GPUs) != rep.NumGPUs || rep.NumGPUs < 2 {
			t.Errorf("%s/%s: %d GPU stats for %d GPUs",
				tc.plat.Name, tc.par, len(rep.GPUs), rep.NumGPUs)
		}
		for _, g := range rep.GPUs {
			sum := g.ComputeSec + g.ExposedCommSec + g.ExposedHostSec +
				g.IdleSec
			if math.Abs(sum-rep.TotalSec) > 1e-6*math.Max(1, rep.TotalSec) {
				t.Errorf("%s/%s gpu%d: components sum to %.9g, total %.9g",
					tc.plat.Name, tc.par, g.GPU, sum, rep.TotalSec)
			}
		}
		if rep.Network.TotalBytes <= 0 || len(rep.Links) == 0 {
			t.Errorf("%s/%s: no network accounting", tc.plat.Name, tc.par)
		}
		if tc.par != PP && len(rep.Collectives) == 0 {
			t.Errorf("%s/%s: no collectives recorded", tc.plat.Name, tc.par)
		}
		if rep.Engine.Events != res.Events || rep.Engine.Events == 0 {
			t.Errorf("%s/%s: engine events %d, result %d",
				tc.plat.Name, tc.par, rep.Engine.Events, res.Events)
		}
	}
}

// TestReportCollectiveEfficiency sanity-checks the NCCL-style bandwidth
// accounting: ring AllReduce bus bandwidth must not exceed the ideal link
// bandwidth, and efficiency must land in (0, 1].
func TestReportCollectiveEfficiency(t *testing.T) {
	res, err := Simulate(Config{
		Model: "resnet18", Platform: p2(), Parallelism: DDP,
		TraceBatch: 32, Telemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Collectives) == 0 {
		t.Fatal("no collectives")
	}
	for _, c := range res.Report.Collectives {
		if c.Algo != "ring-allreduce" {
			t.Errorf("%s: algo %q", c.Label, c.Algo)
		}
		if c.Efficiency <= 0 || c.Efficiency > 1+1e-9 {
			t.Errorf("%s: efficiency %v out of range", c.Label, c.Efficiency)
		}
		if c.BusBwBytesPerSec > c.IdealBwBytesPerSec*(1+1e-9) {
			t.Errorf("%s: bus bw %v exceeds ideal %v",
				c.Label, c.BusBwBytesPerSec, c.IdealBwBytesPerSec)
		}
		if c.EndSec <= c.StartSec {
			t.Errorf("%s: empty span [%v, %v]", c.Label, c.StartSec, c.EndSec)
		}
	}
}

// TestGroundTruthTelemetry covers the emulator path: effects enabled,
// RampBytes nonzero, same accounting invariant.
func TestGroundTruthTelemetry(t *testing.T) {
	res, err := GroundTruth(Config{
		Model: "resnet18", Platform: p1(), Parallelism: DDP,
		TraceBatch: 32, Telemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil {
		t.Fatal("nil report")
	}
	if err := res.Report.Validate(); err != nil {
		t.Fatal(err)
	}
}
