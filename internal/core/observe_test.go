package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"triosim/internal/faults"
	"triosim/internal/serving"
	"triosim/internal/sim"
	"triosim/internal/spantrace"
	"triosim/internal/telemetry"
)

// series returns the named counter series of a span log, or nil.
func series(l *spantrace.Log, name string) *spantrace.CounterSeries {
	for _, cs := range l.Counters {
		if cs.Name == name {
			return cs
		}
	}
	return nil
}

// lastSample returns the final point of a series (zero when empty).
func lastSample(cs *spantrace.CounterSeries) spantrace.CounterSample {
	if cs == nil || len(cs.Samples) == 0 {
		return spantrace.CounterSample{}
	}
	return cs.Samples[len(cs.Samples)-1]
}

// metricValue reads one unlabelled series off a RunReport.
func metricValue(t *testing.T, rep *telemetry.RunReport, name string) float64 {
	t.Helper()
	for _, p := range rep.Metrics {
		if p.Name == name && p.LabelValue == "" {
			return p.Value
		}
	}
	t.Fatalf("report has no %s", name)
	return 0
}

// TestSpanAndReportSinksAgree runs with the span recorder and the collector
// both on and checks that the two sinks tell the same story: the recorder's
// re-solve count ends at the collector's counter and the report's
// rate_recomputes (which finish reads from FlowNetwork.Solves); every
// link.<name>.bytes series ends at that link's report bytes; and the highest
// queue-depth sample equals triosim_event_queue_depth_peak, itself at most
// the engine's Schedule-time high water.
func TestSpanAndReportSinksAgree(t *testing.T) {
	ddp := Config{Model: "resnet18", Platform: p2(), Parallelism: DDP,
		TraceBatch: 32, Telemetry: true, SpanTrace: true}
	runs := map[string]func() (*Result, error){
		"ddp": func() (*Result, error) { return Simulate(ddp) },
		"ddp-faults": func() (*Result, error) {
			return Simulate(faultedDDPConfig())
		},
		"serve-faults": func() (*Result, error) {
			res, err := Serve(serveFaultsConfig(t))
			if err != nil {
				return nil, err
			}
			return &res.Result, nil
		},
	}
	for name, run := range runs {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep, spans := res.Report, res.Spans

		solves := rep.Network.RateRecomputes
		if solves == 0 {
			t.Fatalf("%s: no re-solves", name)
		}
		if got := lastSample(series(spans,
			spantrace.CounterRateResolves)).V; got != float64(solves) {
			t.Errorf("%s: %s ends at %v, report rate_recomputes %d",
				name, spantrace.CounterRateResolves, got, solves)
		}
		if got := metricValue(t, rep,
			"triosim_net_rate_recomputes_total"); got != float64(solves) {
			t.Errorf("%s: triosim_net_rate_recomputes_total %v, report %d",
				name, got, solves)
		}

		var linkSeries int
		for _, cs := range spans.Counters {
			if strings.HasPrefix(cs.Name, "link.") {
				linkSeries++
			}
		}
		if linkSeries != len(rep.Links) {
			t.Errorf("%s: %d link series, %d report links", name,
				linkSeries, len(rep.Links))
		}
		for _, l := range rep.Links {
			got := lastSample(series(spans, "link."+l.Link+".bytes")).V
			if got != l.Bytes {
				t.Errorf("%s: link %s series ends at %v, report %v bytes",
					name, l.Link, got, l.Bytes)
			}
		}

		var deepest float64
		for _, s := range series(spans, spantrace.CounterQueueDepth).Samples {
			deepest = math.Max(deepest, s.V)
		}
		peak := metricValue(t, rep, "triosim_event_queue_depth_peak")
		if deepest != peak || peak == 0 {
			t.Errorf("%s: deepest %s sample %v, triosim_event_queue_depth_peak %v",
				name, spantrace.CounterQueueDepth, deepest, peak)
		}
		if hw := rep.Engine.QueueHighWater; peak > float64(hw) {
			t.Errorf("%s: dispatch peak %v above engine high water %d",
				name, peak, hw)
		}
	}
}

// TestFaultWindowPastRunEnd reproduces a fault window that outlasts the
// workload. Serving gpt2 on P1 (8 requests, seed 3) under a 1.5× degrade of
// link 0 from 1 ms lasting 5 s ends at its last delivered response, 0.165 s
// as without the fault (it read 5.001 s when the total was taken from the
// engine's last event, the window's end), while the virtual-time gauge
// still reads that last event. The end-of-run span samples of serving and
// of a ddp run under the same window are stamped at the run's total.
func TestFaultWindowPastRunEnd(t *testing.T) {
	window := &faults.Schedule{Events: []faults.Event{{
		Kind: faults.LinkDegrade, Link: 0, Factor: 1.5,
		Start: sim.MSec, Duration: 5,
	}}}
	cfg := ServeConfig{Platform: p1(), Telemetry: true, SpanTrace: true,
		Serving: serving.Config{Model: "gpt2", Scheduler: "fifo",
			Arrivals: serving.ArrivalConfig{Seed: 3, Requests: 8}}}
	plain, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = window
	res, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var last sim.VTime
	for _, pr := range res.Metrics.PerRequest {
		last = last.Max(sim.VTime(pr.DoneSec))
	}
	total := res.TotalTime
	if total != last || total != plain.TotalTime {
		t.Fatalf("serving total %v, want the last response %v (fault-free %v)",
			total, last, plain.TotalTime)
	}
	if math.Abs(total.Seconds()-0.165) > 5e-4 {
		t.Fatalf("serving total %v, want 0.165 s", total)
	}
	rep := res.Report
	if rep.TotalSec != total.Seconds() ||
		rep.Faults.ExtendedSec != total.Seconds() {
		t.Fatalf("report total_sec %v, extended_sec %v, want %v",
			rep.TotalSec, rep.Faults.ExtendedSec, total.Seconds())
	}
	if v := metricValue(t, rep, "triosim_virtual_time_seconds"); v != 5.001 {
		t.Fatalf("triosim_virtual_time_seconds %v, want the window end 5.001", v)
	}

	ddp, err := Simulate(Config{Model: "resnet18", Platform: p1(),
		Parallelism: DDP, TraceBatch: 32, SpanTrace: true, Faults: window})
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Result{"serve": &res.Result, "ddp": ddp} {
		at := lastSample(series(r.Spans, spantrace.CounterQueueHighWatr)).T
		if at != r.TotalTime || !sim.VTime(5).After(at) {
			t.Errorf("%s: %s stamped at %v, want the run's total %v",
				name, spantrace.CounterQueueHighWatr, at, r.TotalTime)
		}
	}
}

// TestOutputsIndependent runs the report-pin configurations with spans and
// telemetry both on, telemetry alone and spans alone. The telemetry-only
// RunReport JSON equals the both-on one without its critical_path, and the
// spans-only Chrome trace equals the both-on one byte for byte: the span
// log and the RunReport share one observer, and neither output depends on
// the other being on.
func TestOutputsIndependent(t *testing.T) {
	withOutputs := func(cfg Config) func(spans, tele bool) (*Result, error) {
		return func(spans, tele bool) (*Result, error) {
			cfg.SpanTrace, cfg.Telemetry = spans, tele
			return Simulate(cfg)
		}
	}
	serve := serveFaultsConfig(t)
	runs := map[string]func(spans, tele bool) (*Result, error){
		"ddp": withOutputs(Config{Model: "resnet18", Platform: p2(),
			Parallelism: DDP, TraceBatch: 32}),
		"ddp-faults":   withOutputs(faultedDDPConfig()),
		"gpufail-ckpt": withOutputs(gpuFailCheckpointConfig()),
		"dp+tp+pp-64":  withOutputs(clusterPinConfig()),
		"serve-faults": func(spans, tele bool) (*Result, error) {
			cfg := serve
			cfg.SpanTrace, cfg.Telemetry = spans, tele
			res, err := Serve(cfg)
			if err != nil {
				return nil, err
			}
			return &res.Result, nil
		},
	}
	for name, run := range runs {
		both, err := run(true, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tele, err := run(false, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		spans, err := run(true, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tele.Spans != nil || spans.Report != nil {
			t.Fatalf("%s: an output that is off was produced", name)
		}

		var want, got bytes.Buffer
		both.Report.CriticalPath = nil
		if err := both.Report.WriteJSON(&want); err != nil {
			t.Fatal(err)
		}
		if err := tele.Report.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: telemetry-only RunReport differs from the both-on one",
				name)
		}

		want.Reset()
		got.Reset()
		if err := both.Spans.WriteChromeTrace(&want); err != nil {
			t.Fatal(err)
		}
		if err := spans.Spans.WriteChromeTrace(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: spans-only Chrome trace differs from the both-on one",
				name)
		}
	}
}
