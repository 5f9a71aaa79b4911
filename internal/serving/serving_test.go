package serving

import (
	"bytes"
	"encoding/json"
	"testing"

	"triosim/internal/gpu"
	"triosim/internal/network"
	"triosim/internal/sim"
	"triosim/internal/spantrace"
	"triosim/internal/task"
	"triosim/internal/telemetry"
)

// testTopo builds a small switch topology for direct cluster runs.
func testTopo(gpus int) *network.Topology {
	return network.Switch(network.Config{
		NumGPUs:       gpus,
		LinkBandwidth: 100e9,
		LinkLatency:   2 * sim.USec,
		HostBandwidth: 20e9,
		HostLatency:   5 * sim.USec,
	})
}

// runCluster executes one serving config on a fresh engine and returns the
// metrics and the replay digest. Extra observers are registered before
// Start.
func runCluster(tb testing.TB, gpus int, cfg Config,
	obs ...task.Observer) (*Metrics, uint64) {
	tb.Helper()
	eng := sim.NewSerialEngine()
	digest := sim.NewDigestHook()
	eng.RegisterHook(digest)
	topo := testTopo(gpus)
	net := network.NewFlowNetwork(eng, topo)
	spec := gpu.A40
	cl, err := New(eng, net, topo, &spec, cfg)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	for _, o := range obs {
		cl.Observe(o)
	}
	cl.Start()
	if err := eng.Run(); err != nil {
		tb.Fatalf("run: %v", err)
	}
	m, err := cl.Metrics()
	if err != nil {
		tb.Fatalf("metrics: %v", err)
	}
	return m, digest.Sum64()
}

func smallConfig(seed int64, sched string) Config {
	return Config{
		Model:     "gpt2",
		Scheduler: sched,
		MaxBatch:  4,
		Arrivals: ArrivalConfig{
			Seed: seed, Rate: 300, Requests: 40,
			PromptMin: 8, PromptMax: 64, OutputMin: 4, OutputMax: 24,
			PriorityLevels: 3,
		},
	}
}

func TestServingSameSeedIdentical(t *testing.T) {
	m1, d1 := runCluster(t, 2, smallConfig(7, "fifo"))
	m2, d2 := runCluster(t, 2, smallConfig(7, "fifo"))
	if d1 != d2 {
		t.Fatalf("same seed, digests differ: %#x vs %#x", d1, d2)
	}
	j1, _ := json.Marshal(m1)
	j2, _ := json.Marshal(m2)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("same seed, metrics differ:\n%s\n%s", j1, j2)
	}
}

func TestServingDifferentSeedDiverges(t *testing.T) {
	_, d1 := runCluster(t, 2, smallConfig(7, "fifo"))
	_, d2 := runCluster(t, 2, smallConfig(8, "fifo"))
	if d1 == d2 {
		t.Fatalf("different seeds share digest %#x", d1)
	}
}

// countObs counts observed step tasks without touching the schedule.
type countObs struct{ steps int }

func (c *countObs) TaskDone(t *task.Task, start, end sim.VTime) { c.steps++ }

func TestServingObserversDoNotChangeDigest(t *testing.T) {
	_, bare := runCluster(t, 2, smallConfig(7, "sjf"))
	topo := testTopo(2)
	spans := telemetry.NewCollector(nil, spantrace.NewRecorder(nil, topo),
		topo, nil)
	cnt := &countObs{}
	m, observed := runCluster(t, 2, smallConfig(7, "sjf"), spans, cnt)
	if bare != observed {
		t.Fatalf("observers changed the digest: %#x vs %#x", bare, observed)
	}
	if cnt.steps != m.Steps {
		t.Fatalf("observer saw %d steps, metrics report %d",
			cnt.steps, m.Steps)
	}
}

func TestServingAllSchedulersComplete(t *testing.T) {
	for _, sched := range Policies() {
		m, _ := runCluster(t, 2, smallConfig(11, sched))
		if m.Scheduler != sched {
			t.Fatalf("scheduler label %q, want %q", m.Scheduler, sched)
		}
		if m.Completed != m.Requests {
			t.Fatalf("%s: %d of %d completed",
				sched, m.Completed, m.Requests)
		}
	}
}

func TestServingMetricsSanity(t *testing.T) {
	m, _ := runCluster(t, 2, smallConfig(3, "priority"))
	for _, ls := range []LatencyStats{m.Latency, m.TTFT} {
		if !(ls.P50Sec <= ls.P90Sec && ls.P90Sec <= ls.P99Sec &&
			ls.P99Sec <= ls.P999Sec && ls.P999Sec <= ls.MaxSec) {
			t.Fatalf("quantiles not monotone: %+v", ls)
		}
		if ls.P50Sec <= 0 {
			t.Fatalf("non-positive p50: %+v", ls)
		}
	}
	if m.BatchingEfficiency <= 0 || m.BatchingEfficiency > 1 {
		t.Fatalf("batching efficiency %v outside (0, 1]",
			m.BatchingEfficiency)
	}
	if m.ThroughputRPS <= 0 || m.TokensPerSec <= 0 {
		t.Fatalf("non-positive throughput: %+v", m)
	}
	for _, rm := range m.PerRequest {
		if rm.FirstTokenSec < rm.ArrivalSec || rm.DoneSec < rm.FirstTokenSec {
			t.Fatalf("request %d lifecycle out of order: %+v", rm.ID, rm)
		}
	}
	var served int
	for _, rs := range m.PerReplica {
		if rs.Utilization < 0 || rs.Utilization > 1 {
			t.Fatalf("replica %d utilization %v", rs.Replica, rs.Utilization)
		}
		served += rs.Served
	}
	if served != m.Requests {
		t.Fatalf("replicas served %d, want %d", served, m.Requests)
	}
}

func TestServingRequestSpansRecorded(t *testing.T) {
	eng := sim.NewSerialEngine()
	topo := testTopo(2)
	net := network.NewFlowNetwork(eng, topo)
	spec := gpu.A40
	cl, err := New(eng, net, topo, &spec, smallConfig(5, "fifo"))
	if err != nil {
		t.Fatal(err)
	}
	rec := spantrace.NewRecorder(nil, topo)
	cl.Observe(telemetry.NewCollector(nil, rec, topo, nil))
	cl.Spans = rec
	cl.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	m, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	log := rec.Finalize()
	var reqSpans int
	for i := range log.Spans {
		if log.Spans[i].Cat == spantrace.Request {
			reqSpans++
		}
	}
	if reqSpans != m.Requests {
		t.Fatalf("%d request spans, want %d", reqSpans, m.Requests)
	}
}

func TestServingRejectsOversizedRequest(t *testing.T) {
	eng := sim.NewSerialEngine()
	topo := testTopo(1)
	net := network.NewFlowNetwork(eng, topo)
	spec := gpu.A40
	_, err := New(eng, net, topo, &spec, Config{
		Model: "gpt2",
		Workload: []Request{{
			PromptTokens: 1 << 30, OutputTokens: 1,
		}},
	})
	if err == nil {
		t.Fatal("oversized request accepted")
	}
}

func TestServingRejectsUnknownModelAndScheduler(t *testing.T) {
	eng := sim.NewSerialEngine()
	topo := testTopo(1)
	net := network.NewFlowNetwork(eng, topo)
	spec := gpu.A40
	if _, err := New(eng, net, topo, &spec,
		Config{Model: "nope"}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := New(eng, net, topo, &spec,
		Config{Model: "gpt2", Scheduler: "lifo"}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}
