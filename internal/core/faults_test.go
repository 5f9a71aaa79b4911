package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"triosim/internal/faults"
	"triosim/internal/sim"
)

// mixedFaultConfigs is the mixed-workload scenario the digest-identity
// property is pinned on: a CNN under DDP, a CNN under pipeline parallelism,
// and a transformer under tensor parallelism.
func mixedFaultConfigs() []Config {
	return []Config{
		{Model: "resnet18", Platform: p1(), Parallelism: DDP, TraceBatch: 32},
		{Model: "vgg11", Platform: p1(), Parallelism: PP, TraceBatch: 32,
			MicroBatches: 2},
		{Model: "gpt2", Platform: p1(), Parallelism: TP, TraceBatch: 32},
	}
}

// Satellite property: an empty or all-no-op (factor-1) fault schedule must
// produce a bit-identical event schedule — same EventDigest, event count,
// and makespan — as a run with no faults configured at all. The injector
// may not add a single event for schedules that perturb nothing.
func TestZeroFaultScheduleDigestIdenticalToBaseline(t *testing.T) {
	noops := []*faults.Schedule{
		{}, // empty
		{Events: []faults.Event{ // zero-effect factors
			{Kind: faults.LinkDegrade, Link: 0, Factor: 1,
				Start: sim.MSec, Duration: sim.MSec},
			{Kind: faults.GPUSlowdown, GPU: 1, Factor: 1,
				Start: 2 * sim.MSec, Duration: sim.MSec},
		}},
	}
	for _, cfg := range mixedFaultConfigs() {
		base, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, sched := range noops {
			fcfg := cfg
			fcfg.Faults = sched
			res, err := Simulate(fcfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.EventDigest != base.EventDigest ||
				res.Events != base.Events ||
				res.TotalTime != base.TotalTime {
				t.Fatalf("%s/%s: no-op schedule %d perturbed the run: "+
					"digest %#x/%d events/%v vs %#x/%d/%v",
					cfg.Model, cfg.Parallelism, i,
					res.EventDigest, res.Events, res.TotalTime,
					base.EventDigest, base.Events, base.TotalTime)
			}
			if res.Goodput != 1 || res.Resilience == nil {
				t.Fatalf("no-op schedule should report goodput 1, got %g (%+v)",
					res.Goodput, res.Resilience)
			}
		}
	}
}

// Property flavor of the same guarantee: randomized (seeded) no-op window
// placement — any factor-1 windows anywhere must leave the digest alone.
func TestRandomNoOpSchedulesDigestIdentityProperty(t *testing.T) {
	cfg := Config{Model: "resnet18", Platform: p1(), Parallelism: DDP,
		TraceBatch: 32}
	base, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	topo := BuildTopology(cfg.Platform)
	numGPUs, numLinks := len(topo.GPUs()), len(topo.Links)
	rng := rand.New(rand.NewSource(5))
	horizon := float64(base.TotalTime)
	for trial := 0; trial < 4; trial++ {
		var sched faults.Schedule
		for l := 0; l < numLinks; l++ {
			if rng.Intn(2) == 0 {
				continue
			}
			sched.Events = append(sched.Events, faults.Event{
				Kind: faults.LinkDegrade, Link: l, Factor: 1,
				Start:    sim.VTime(rng.Float64() * horizon),
				Duration: sim.VTime(rng.Float64() * horizon),
			})
		}
		for g := 0; g < numGPUs; g++ {
			if rng.Intn(2) == 0 {
				continue
			}
			sched.Events = append(sched.Events, faults.Event{
				Kind: faults.GPUSlowdown, GPU: g, Factor: 1,
				Start:    sim.VTime(rng.Float64() * horizon),
				Duration: sim.VTime(rng.Float64() * horizon),
			})
		}
		fcfg := cfg
		fcfg.Faults = &sched
		res, err := Simulate(fcfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.EventDigest != base.EventDigest || res.Events != base.Events {
			t.Fatalf("trial %d: no-op schedule (%d events) changed digest "+
				"%#x/%d vs %#x/%d", trial, len(sched.Events),
				res.EventDigest, res.Events, base.EventDigest, base.Events)
		}
	}
}

// Acceptance: a seeded GPUSlowdown straggler strictly lengthens the
// makespan, and the run's goodput lands in the RunReport JSON.
func TestStragglerSlowsMakespanAndReportsGoodput(t *testing.T) {
	cfg := Config{Model: "resnet18", Platform: p1(), Parallelism: DDP,
		TraceBatch: 32, Telemetry: true}
	base, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := cfg
	fcfg.Faults = &faults.Schedule{Events: []faults.Event{{
		Kind: faults.GPUSlowdown, GPU: 1, Factor: 2,
		Start: 0, Duration: base.TotalTime * 2,
	}}}
	res, err := Simulate(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TotalTime.After(base.TotalTime) {
		t.Fatalf("straggler makespan %v not longer than baseline %v",
			res.TotalTime, base.TotalTime)
	}
	if res.Report == nil || res.Report.Faults == nil {
		t.Fatal("fault section missing from RunReport")
	}
	fr := res.Report.Faults
	if fr.DegradedSec <= 0 {
		t.Fatalf("degraded time = %g, want > 0", fr.DegradedSec)
	}
	if err := res.Report.Validate(); err != nil {
		t.Fatalf("fault-run report failed validation: %v", err)
	}
	var buf bytes.Buffer
	if err := res.Report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"goodput"`) {
		t.Fatal("goodput missing from RunReport JSON")
	}
}

// A GPUFail with a checkpoint policy drives the resilience overlay: the
// extended timeline grows, goodput drops below 1, and the checkpoint cost
// is derived from the tensor footprint when not given explicitly.
func TestGPUFailCheckpointResilience(t *testing.T) {
	cfg := Config{Model: "resnet18", Platform: p1(), Parallelism: DDP,
		TraceBatch: 32, Telemetry: true}
	base, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := cfg
	fcfg.Faults = &faults.Schedule{
		Events: []faults.Event{{
			Kind: faults.GPUFail, GPU: 0, Start: base.TotalTime / 2,
		}},
		Checkpoint: &faults.Checkpoint{
			Interval: base.TotalTime / 4,
			Restart:  base.TotalTime / 10,
		},
	}
	res, err := Simulate(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	// The fault-free schedule itself is untouched (failure recovery is the
	// overlay's business)...
	if res.TotalTime != base.TotalTime {
		t.Fatalf("GPUFail perturbed the simulated schedule: %v vs %v",
			res.TotalTime, base.TotalTime)
	}
	// ...but the resilience accounting extends it.
	rr := res.Resilience
	if rr == nil || rr.Failures != 1 {
		t.Fatalf("resilience overlay = %+v", rr)
	}
	if !rr.TotalTime.After(res.TotalTime) {
		t.Fatalf("extended time %v not longer than makespan %v",
			rr.TotalTime, res.TotalTime)
	}
	if rr.CheckpointTime.AtOrBefore(0) {
		t.Fatal("derived checkpoint cost should be > 0")
	}
	if res.Goodput <= 0 || res.Goodput >= 1 {
		t.Fatalf("goodput = %g, want in (0,1)", res.Goodput)
	}
	if res.Report.Faults.Goodput != res.Goodput {
		t.Fatalf("report goodput %g != result goodput %g",
			res.Report.Faults.Goodput, res.Goodput)
	}
	if err := res.Report.Validate(); err != nil {
		t.Fatalf("report validation: %v", err)
	}
}

// goldenFaultDigest pins the event digest of the seeded fault run below: a
// schedule from faults.Generate(7, ...) over the resnet18/P1/DDP baseline.
// If this value changes, fault arming order or the flow network's
// degradation path changed — update only when the change is intentional.
const goldenFaultDigest = uint64(0x67984f77be12aa9c)

func seededFaultConfig(t *testing.T) (Config, *Result) {
	t.Helper()
	cfg := Config{Model: "resnet18", Platform: p1(), Parallelism: DDP,
		TraceBatch: 32}
	base, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	topo := BuildTopology(cfg.Platform)
	sched, err := faults.Generate(7, faults.GenConfig{
		NumGPUs:      len(topo.GPUs()),
		NumLinks:     len(topo.Links),
		Horizon:      base.TotalTime,
		LinkDegrades: 1,
		GPUSlowdowns: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = sched
	return cfg, base
}

func TestSeededFaultReplayDigestPinned(t *testing.T) {
	cfg, base := seededFaultConfig(t)
	first, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.EventDigest != again.EventDigest || first.Events != again.Events {
		t.Fatalf("seeded fault run not replayable: %#x/%d vs %#x/%d",
			first.EventDigest, first.Events, again.EventDigest, again.Events)
	}
	if first.EventDigest == base.EventDigest {
		t.Fatal("effective fault schedule left the digest unchanged")
	}
	if first.EventDigest != goldenFaultDigest {
		t.Fatalf("seeded fault digest = %#x, want pinned %#x "+
			"(fault arming order changed?)", first.EventDigest,
			goldenFaultDigest)
	}
}
