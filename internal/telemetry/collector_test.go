package telemetry

import (
	"testing"

	"triosim/internal/network"
	"triosim/internal/sim"
	"triosim/internal/spantrace"
	"triosim/internal/task"
)

// markEvent is a non-funcEvent kind for the dispatch-count tests.
type markEvent struct{ sim.EventBase }

// TestDispatchedKindCache feeds Dispatched primary and secondary events of
// two types, interleaved, and checks every per-kind count — in the report's
// engine section and in triosim_events_total — against uncached eventKind
// labels, and the dispatch peak against the deepest depth fed.
// Dispatched must not allocate once each kind has been seen.
func TestDispatchedKindCache(t *testing.T) {
	noop := func(sim.VTime) error { return nil }
	events := []sim.Event{
		sim.NewFuncEvent(1, noop),
		sim.NewSecondaryFuncEvent(1, noop),
		&markEvent{},
		sim.NewFuncEvent(2, noop),
		&markEvent{sim.EventBase{Secondary: true}},
		&markEvent{},
	}
	reg := NewRegistry()
	c := NewCollector(reg, nil, network.NewTopology(), nil)
	dispatch := func() {
		for i, e := range events {
			c.Dispatched(e, 0, i)
		}
	}
	const passes = 3
	for i := 0; i < passes; i++ {
		dispatch()
	}
	want := map[string]uint64{}
	for _, e := range events {
		want[eventKind(e)] += passes
	}
	rep := c.Finalize(RunInfo{QueueHighWater: len(events)})
	byKind := rep.Engine.ByKind
	if len(want) != 4 || len(byKind) != len(want) {
		t.Fatalf("kinds %v, want %v", byKind, want)
	}
	for i, kc := range byKind {
		if i > 0 && byKind[i-1].Kind >= kc.Kind {
			t.Errorf("kinds not sorted: %v", byKind)
		}
		if want[kc.Kind] != kc.Count {
			t.Errorf("kind %q counted %d, want %d", kc.Kind, kc.Count,
				want[kc.Kind])
		}
	}
	for kind, n := range want {
		got := reg.Counter("triosim_events_total", "kind", kind, "").Value()
		if got != float64(n) {
			t.Errorf("triosim_events_total{kind=%q} = %v, want %d", kind, got, n)
		}
	}
	peak := reg.Gauge("triosim_event_queue_depth_peak", "", "", "").Value()
	if peak != float64(len(events)-1) {
		t.Errorf("triosim_event_queue_depth_peak = %v, want %d", peak,
			len(events)-1)
	}
	if rep.Engine.QueueHighWater != len(events) {
		t.Errorf("engine queue_high_water = %d, want RunInfo's %d",
			rep.Engine.QueueHighWater, len(events))
	}
	if allocs := testing.AllocsPerRun(20, dispatch); allocs != 0 {
		t.Fatalf("Dispatched allocates %v times per pass, want 0", allocs)
	}
}

// TestCollectorGPUPartitionOverlapAware pins the per-GPU partition on a hand
// built overlap: gpu0 computes [0,4), has a transfer in flight [2,6) (2s
// hidden under compute, 2s exposed) and stages input [5,7) (1s under the
// transfer, 1s exposed); the run lasts 10s. gpu1 computes throughout. The
// tasks start and finish in dispatch order on a task.GPUTime, which the
// collector reads through RunInfo.
func TestCollectorGPUPartitionOverlapAware(t *testing.T) {
	topo := network.Switch(network.Config{
		NumGPUs: 3, LinkBandwidth: 1e9, HostBandwidth: 1e9,
	})
	gpus := topo.GPUs()
	g := task.NewGraph()
	op0 := g.AddCompute(0, 4, "op")
	op1 := g.AddCompute(1, 10, "op")
	xfer := g.AddComm(gpus[0], gpus[2], 1e9, "xfer")
	stage := g.AddHostLoad(topo.Host(), gpus[0], 1e9, "stage")
	gt := task.NewGPUTime(topo)
	c := NewCollector(NewRegistry(), nil, topo, nil)
	for _, ev := range []struct {
		t      *task.Task
		at     sim.VTime
		finish bool
	}{
		{op0, 0, false}, {op1, 0, false}, {xfer, 2, false},
		{op0, 4, true}, {stage, 5, false}, {xfer, 6, true},
		{stage, 7, true}, {op1, 10, true},
	} {
		if ev.finish {
			gt.Finish(ev.t, ev.at)
		} else {
			gt.Start(ev.t, ev.at)
		}
	}
	c.TaskDone(op0, 0, 4)
	c.TaskDone(xfer, 2, 6)
	c.TaskDone(stage, 5, 7)
	c.TaskDone(op1, 0, 10)

	rep := c.Finalize(RunInfo{NumGPUs: 3, TotalSec: 10, GPUTime: gt})
	if len(rep.GPUs) != 3 {
		t.Fatalf("%d GPU rows, want 3", len(rep.GPUs))
	}
	want := []GPUStat{
		{GPU: 0, ComputeSec: 4, ExposedCommSec: 2, ExposedHostSec: 1,
			IdleSec: 3, ComputeTasks: 1},
		{GPU: 1, ComputeSec: 10, ComputeTasks: 1},
		// gpu2 receives the transfer: none of it is hidden under compute.
		{GPU: 2, ExposedCommSec: 4, IdleSec: 6},
	}
	for i, w := range want {
		if rep.GPUs[i] != w {
			t.Fatalf("gpu%d = %+v, want %+v", i, rep.GPUs[i], w)
		}
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestQueueDepthPerTimestampMax: the queue tracker keeps the deepest depth
// fed at each timestamp and closes it as one span sample when virtual time
// advances; SpanLog closes the last timestamp, and the report's
// triosim_event_queue_depth_peak is the deepest sample.
func TestQueueDepthPerTimestampMax(t *testing.T) {
	reg := NewRegistry()
	c := NewCollector(reg, spantrace.NewRecorder(nil, nil),
		network.NewTopology(), nil)
	for _, d := range []struct {
		at    sim.VTime
		depth int
	}{{1, 4}, {1, 7}, {1, 2}, {2, 3}, {3, 1}, {3, 5}} {
		c.Dispatched(&markEvent{}, d.at, d.depth)
	}
	cs := c.SpanLog().Counters[0]
	want := []spantrace.CounterSample{{T: 1, V: 7}, {T: 2, V: 3}, {T: 3, V: 5}}
	if cs.Name != spantrace.CounterQueueDepth || len(cs.Samples) != len(want) {
		t.Fatalf("got %s %+v, want %s %+v", cs.Name, cs.Samples,
			spantrace.CounterQueueDepth, want)
	}
	for i, s := range cs.Samples {
		if s != want[i] {
			t.Fatalf("sample %d = %+v, want %+v", i, s, want[i])
		}
	}
	c.Finalize(RunInfo{})
	peak := reg.Gauge("triosim_event_queue_depth_peak", "", "", "").Value()
	if peak != 7 {
		t.Fatalf("triosim_event_queue_depth_peak = %v, want 7", peak)
	}
}

// Label forms for TestObserverSteadyStateAllocs: a formatted compute label
// and a collective step label.
var (
	testOpForm   = task.NewLabelForm("L%d/%s/mb%d")
	testStepForm = task.NewCollectiveLabelForm("%s/step%d")
)

// TestObserverSteadyStateAllocs checks that once every GPU, label, link and
// event kind has been seen, the observer's per-task, per-flow, per-solve
// and per-dispatch calls allocate nothing, with telemetry alone and with
// the span log on too.
func TestObserverSteadyStateAllocs(t *testing.T) {
	topo := network.Switch(network.Config{
		NumGPUs: 4, LinkBandwidth: 1e9, HostBandwidth: 1e9,
	})
	gpus := topo.GPUs()
	g := task.NewGraph()
	var tasks []*task.Task
	for i := range gpus {
		op := g.AddCompute(i, sim.MSec, "")
		op.SetLabelf(testOpForm, "encoder.layer.11.attention.output.Conv2d", i, 0)
		tasks = append(tasks, op)
	}
	step := g.AddComm(gpus[0], gpus[1], 1e6, "")
	step.SetLabelf(testStepForm, "allreduce0", 0)
	tasks = append(tasks, g.AddCompute(0, sim.MSec, "LayerNorm"), step,
		g.AddHostLoad(topo.Host(), gpus[0], 1e6, "stage"),
		g.AddBarrier("sync"))
	route, err := topo.Route(gpus[0], gpus[1])
	if err != nil {
		t.Fatal(err)
	}
	noop := func(sim.VTime) error { return nil }
	events := []sim.Event{sim.NewFuncEvent(1, noop), &markEvent{}}

	for _, spans := range []bool{false, true} {
		var rec *spantrace.Recorder
		if spans {
			rec = spantrace.NewRecorder(g, topo)
		}
		log := NewCollectiveLog()
		log.Record("allreduce0", "ring-allreduce", 2, 1e6, 1)
		c := NewCollector(NewRegistry(), rec, topo, log)
		now := sim.VTime(0)
		for _, call := range []struct {
			name string
			fn   func()
		}{
			{"TaskDone", func() {
				for _, tk := range tasks {
					c.TaskDone(tk, 0, sim.MSec)
				}
			}},
			{"FlowFinished", func() { c.FlowFinished(route, 1e6, 0, sim.MSec) }},
			{"RatesRecomputed", func() { c.RatesRecomputed(3, sim.MSec) }},
			{"Dispatched", func() {
				now += sim.USec
				for i, e := range events {
					c.Dispatched(e, now, i)
				}
			}},
		} {
			call.fn() // first sight of every GPU, label, link and kind
			if allocs := testing.AllocsPerRun(100, call.fn); allocs != 0 {
				t.Errorf("spans %v: %s allocates %v times per call, want 0",
					spans, call.name, allocs)
			}
		}
	}
}
