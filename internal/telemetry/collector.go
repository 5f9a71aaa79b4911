package telemetry

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"

	"triosim/internal/network"
	"triosim/internal/sim"
	"triosim/internal/task"
)

// CollectiveEntry is the generation-time metadata of one collective instance
// (recorded by internal/collective while the task graph is built).
type CollectiveEntry struct {
	Label string
	// Algo is the algorithm family, e.g. "ring-allreduce" or "tree-allreduce".
	Algo  string
	Ranks int
	// PayloadBytes is the logical buffer size the collective synchronizes.
	PayloadBytes float64
	// BusFactor converts algorithm bandwidth to bus bandwidth (NCCL's
	// convention): 2(N−1)/N for allreduce, (N−1)/N for RS/AG, 1 for
	// root-rooted patterns.
	BusFactor float64
}

// CollectiveLog accumulates CollectiveEntry records. A nil log is a valid
// no-op sink, so graph generators can record unconditionally.
type CollectiveLog struct {
	entries map[string]*CollectiveEntry
}

// NewCollectiveLog returns an empty log.
func NewCollectiveLog() *CollectiveLog {
	return &CollectiveLog{entries: map[string]*CollectiveEntry{}}
}

// Record stores one collective's metadata keyed by its task-label prefix.
func (l *CollectiveLog) Record(label, algo string, ranks int,
	payloadBytes, busFactor float64) {
	if l == nil {
		return
	}
	l.entries[label] = &CollectiveEntry{
		Label: label, Algo: algo, Ranks: ranks,
		PayloadBytes: payloadBytes, BusFactor: busFactor,
	}
}

// Get returns the entry for label, or nil.
func (l *CollectiveLog) Get(label string) *CollectiveEntry {
	if l == nil {
		return nil
	}
	return l.entries[label]
}

// collAgg accumulates the runtime side of one collective instance.
type collAgg struct {
	moved      float64
	start, end float64
	started    bool
	minLinkBw  float64
}

// Collector is the run-wide telemetry sink: it observes completed tasks
// (task.Observer), finished flows and rate recomputations
// (network.FlowObserver), and engine dispatches (EngineHook), feeding a
// Registry and accumulating the state Finalize turns into a RunReport. It
// keeps no per-task state: per-link statistics are indexed by the
// topology's direction-name ids, and the per-GPU time partition comes from
// a task.GPUTime the executor or the serving cluster feeds.
//
// All methods are invoked on the engine goroutine; the Collector never
// schedules events, so the dispatched event schedule — and therefore the
// replay digest — is identical with or without it.
type Collector struct {
	reg  *Registry
	topo *network.Topology
	log  *CollectiveLog

	// links holds per-direction statistics, indexed by the topology's
	// direction-name id (network.Topology.LinkID).
	links []linkAgg

	tierBytes map[string]float64
	tierFlows map[string]int

	coll map[string]*collAgg

	// kindCache maps an event's (dynamic type, secondary flag) to its kind
	// label and triosim_events_total series, so the per-event hook neither
	// formats a type name nor looks the counter up in the registry;
	// lastKind/lastEntry memoize the most recent key.
	kindCache  map[kindKey]kindEntry
	lastKind   kindKey
	lastEntry  kindEntry
	queuePeak  int
	recomputes int
	lastVTime  float64
}

// NewCollector builds a collector over topo feeding reg. log may be nil when
// the workload has no collectives (or they were generated without a log).
func NewCollector(reg *Registry, topo *network.Topology,
	log *CollectiveLog) *Collector {
	return &Collector{
		reg:       reg,
		topo:      topo,
		log:       log,
		tierBytes: map[string]float64{},
		tierFlows: map[string]int{},
		coll:      map[string]*collAgg{},
		kindCache: map[kindKey]kindEntry{},
	}
}

var _ task.Observer = (*Collector)(nil)
var _ network.FlowObserver = (*Collector)(nil)

// TaskDone implements task.Observer.
func (c *Collector) TaskDone(t *task.Task, start, end sim.VTime) {
	s, e := start.Seconds(), end.Seconds()
	switch t.Kind {
	case task.Compute:
		c.reg.Counter("triosim_gpu_compute_seconds_total", "gpu",
			fmt.Sprintf("gpu%d", t.GPU),
			"Serial compute-stream occupancy per GPU.").Add(e - s)
		c.reg.Histogram("triosim_op_duration_seconds", "category",
			OpCategory(t.Label()),
			"Per-operator compute durations by category.",
			DurationBuckets).Observe(e - s)
	case task.Comm:
		if t.Collective != "" {
			c.observeCollective(t, s, e)
		}
	}
}

// observeCollective folds one collective step's transfer into its instance
// aggregate and the per-algorithm byte counter.
func (c *Collector) observeCollective(t *task.Task, s, e float64) {
	a := c.coll[t.Collective]
	if a == nil {
		a = &collAgg{minLinkBw: math.Inf(1)}
		c.coll[t.Collective] = a
	}
	a.moved += t.Bytes
	if !a.started || s < a.start {
		a.start = s
	}
	if e > a.end {
		a.end = e
	}
	a.started = true
	if route, err := c.topo.Route(t.Src, t.Dst); err == nil {
		for _, dl := range route {
			if bw := c.topo.Links[dl.Link].Bandwidth; bw < a.minLinkBw {
				a.minLinkBw = bw
			}
		}
	}
	algo := "unknown"
	if entry := c.log.Get(t.Collective); entry != nil {
		algo = entry.Algo
	}
	c.reg.Counter("triosim_collective_bytes_total", "algo", algo,
		"Bytes moved by collective communication, per algorithm.").Add(t.Bytes)
}

const linkUtilHelp = "Fraction of link capacity used over the run so far."

// linkAgg accumulates one link direction's traffic: bytes and flows, the
// bandwidth its last flow saw, and its cached metric series.
type linkAgg struct {
	bytes float64
	flows int
	bw    float64
	total *Counter
	util  *Gauge
}

// FlowFinished implements network.FlowObserver.
func (c *Collector) FlowFinished(route []network.DirLink, bytes float64,
	start, end sim.VTime) {
	s, e := start.Seconds(), end.Seconds()
	for _, dl := range route {
		id := c.topo.LinkID(dl)
		for id >= len(c.links) {
			c.links = append(c.links, linkAgg{})
		}
		la := &c.links[id]
		la.bytes += bytes
		la.flows++
		lk := &c.topo.Links[dl.Link]
		bw := lk.Bandwidth
		la.bw = bw
		if lk.Tier != "" {
			c.tierBytes[lk.Tier] += bytes
			c.tierFlows[lk.Tier]++
		}
		if la.total == nil {
			la.total = c.reg.Counter("triosim_link_bytes_total", "link",
				c.topo.LinkName(id), "Bytes carried per directed link.")
		}
		la.total.Add(bytes)
		if bw > 0 && e > 0 {
			if la.util == nil {
				la.util = c.reg.Gauge("triosim_link_utilization_ratio", "link",
					c.topo.LinkName(id), linkUtilHelp)
			}
			la.util.Set(la.bytes / (bw * e))
		}
	}
	c.reg.Histogram("triosim_flow_duration_seconds", "", "",
		"Network flow durations (start of transfer to last byte).",
		DurationBuckets).Observe(e - s)
}

// RatesRecomputed implements network.FlowObserver.
func (c *Collector) RatesRecomputed(flows int, now sim.VTime) {
	c.recomputes++
	c.reg.Counter("triosim_net_rate_recomputes_total", "", "",
		"Max-min fair-share recomputations performed by the flow network.").Inc()
}

// eventKind renders a dispatched event's kind label: the concrete type name
// with a "/secondary" suffix for coalescing events.
func eventKind(e sim.Event) string {
	name := fmt.Sprintf("%T", e)
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	if e.IsSecondary() {
		name += "/secondary"
	}
	return name
}

// kindKey identifies one event kind: what eventKind reads from an event.
type kindKey struct {
	typ       reflect.Type
	secondary bool
}

// kindEntry is one cached event kind: its label and its event counter.
type kindEntry struct {
	name   string
	events *Counter
}

// kindOf returns e's cached kind entry, registering its counter series on
// the kind's first event — the same first-use order as an uncached lookup.
func (c *Collector) kindOf(e sim.Event) kindEntry {
	k := kindKey{reflect.TypeOf(e), e.IsSecondary()}
	if k == c.lastKind { // never the zero key: e is non-nil
		return c.lastEntry
	}
	ent, ok := c.kindCache[k]
	if !ok {
		ent.name = eventKind(e)
		ent.events = c.reg.Counter("triosim_events_total", "kind", ent.name,
			"Engine events dispatched, by event kind.")
		c.kindCache[k] = ent
	}
	c.lastKind, c.lastEntry = k, ent
	return ent
}

// EngineHook returns the self-profiler hook: per-event-kind dispatch counts,
// the queue-depth high-water mark (via the injected pending-depth probe), and
// the virtual-time frontier. Register it on the engine before Run.
func (c *Collector) EngineHook(pending func() int) sim.Hook {
	return sim.HookFunc(func(ctx sim.HookCtx) {
		if ctx.Pos != sim.HookPosAfterEvent {
			return
		}
		e, ok := ctx.Item.(sim.Event)
		if !ok {
			return
		}
		c.kindOf(e).events.Inc()
		if pending != nil {
			if d := pending(); d > c.queuePeak {
				c.queuePeak = d
			}
		}
		c.lastVTime = ctx.Now.Seconds()
	})
}

// RunInfo carries the run-level facts Finalize cannot observe itself.
type RunInfo struct {
	Model       string
	Platform    string
	Parallelism string
	NumGPUs     int
	Iterations  int
	// TotalSec is the makespan; PerIterationSec = TotalSec / Iterations.
	TotalSec        float64
	PerIterationSec float64
	Events          uint64
	// QueueHighWater is the engine's own peak pending-event count
	// (SerialEngine.QueueHighWater). It is tracked at Schedule time, so it
	// sees depths the collector's after-event probe misses (the pre-Run
	// backlog and intra-dispatch peaks); Finalize keeps whichever of the two
	// observations is larger.
	QueueHighWater int
	// NetTotalBytes / NetTransfers come from the flow network's own stats.
	NetTotalBytes float64
	NetTransfers  int
	// NetSolveSeconds is the host time the flow network spent inside max-min
	// solves (zero unless the caller injected a clock — see
	// network.FlowNetwork.SolveClock).
	NetSolveSeconds float64
	Parallel        ParallelStat
	// GPUTime is the run's per-GPU time partition, fed by the executor or
	// the serving cluster; nil reads every GPU as idle.
	GPUTime *task.GPUTime
}

// Finalize reads the per-GPU time partition off info.GPUTime, computes final
// link utilizations and collective bandwidths, and assembles the RunReport.
// Call it once, after the engine has drained.
func (c *Collector) Finalize(info RunInfo) *RunReport {
	rep := &RunReport{
		Schema:          ReportSchema,
		Model:           info.Model,
		Platform:        info.Platform,
		Parallelism:     info.Parallelism,
		NumGPUs:         info.NumGPUs,
		Iterations:      info.Iterations,
		TotalSec:        info.TotalSec,
		PerIterationSec: info.PerIterationSec,
		Parallel:        info.Parallel,
	}
	total := info.TotalSec

	// Per-GPU partition: compute is the serial stream's union; comm counts
	// only where it is not hidden under compute; host staging only where
	// neither compute nor comm runs; idle is the exact remainder.
	for g := 0; g < info.NumGPUs; g++ {
		sh := info.GPUTime.Share(g)
		busy := sh.Compute.Seconds()
		exposedComm := sh.ExposedComm.Seconds()
		exposedHost := sh.ExposedHost.Seconds()
		idle := total - busy - exposedComm - exposedHost
		rep.GPUs = append(rep.GPUs, GPUStat{
			GPU:            g,
			ComputeSec:     busy,
			ExposedCommSec: exposedComm,
			ExposedHostSec: exposedHost,
			IdleSec:        idle,
			ComputeTasks:   sh.ComputeTasks,
		})
		label := fmt.Sprintf("gpu%d", g)
		c.reg.Gauge("triosim_gpu_exposed_comm_seconds", "gpu", label,
			"Communication time not hidden under the GPU's compute.").
			Set(exposedComm)
		c.reg.Gauge("triosim_gpu_idle_seconds", "gpu", label,
			"Time the GPU neither computed nor waited on exposed transfers.").
			Set(idle)
	}

	// Links that carried a flow, sorted by direction name.
	var ids []int
	for id := range c.links {
		if c.links[id].flows > 0 {
			ids = append(ids, id)
		}
	}
	slices.SortFunc(ids, func(a, b int) int {
		return strings.Compare(c.topo.LinkName(a), c.topo.LinkName(b))
	})
	for _, id := range ids {
		la := &c.links[id]
		util := 0.0
		if la.bw > 0 && total > 0 {
			util = la.bytes / (la.bw * total)
		}
		rep.Links = append(rep.Links, LinkStat{
			Link:        c.topo.LinkName(id),
			Bytes:       la.bytes,
			Utilization: util,
			Flows:       la.flows,
		})
		c.reg.Gauge("triosim_link_utilization_ratio", "link",
			c.topo.LinkName(id), linkUtilHelp).Set(util)
		if util > rep.Network.MaxLinkUtilization {
			rep.Network.MaxLinkUtilization = util
		}
	}
	// Per-tier aggregation (tiered cluster topologies only): utilization is
	// tier bytes over the tier's aggregate directed capacity × makespan, so a
	// saturated NIC tier reads near 1.0 even when individual rails idle.
	if len(c.tierBytes) > 0 {
		tierBw := map[string]float64{}
		tierLinks := map[string]int{}
		for i := range c.topo.Links {
			lk := &c.topo.Links[i]
			if lk.Tier == "" {
				continue
			}
			tierBw[lk.Tier] += 2 * lk.Bandwidth // both directions
			tierLinks[lk.Tier] += 2
		}
		tiers := make([]string, 0, len(c.tierBytes))
		for tier := range c.tierBytes {
			tiers = append(tiers, tier)
		}
		sort.Strings(tiers)
		for _, tier := range tiers {
			util := 0.0
			if bw := tierBw[tier]; bw > 0 && total > 0 {
				util = c.tierBytes[tier] / (bw * total)
			}
			rep.Tiers = append(rep.Tiers, TierStat{
				Tier:        tier,
				Bytes:       c.tierBytes[tier],
				Utilization: util,
				Flows:       c.tierFlows[tier],
				Links:       tierLinks[tier],
			})
			c.reg.Gauge("triosim_tier_utilization_ratio", "tier", tier,
				"Fraction of the tier's aggregate capacity the run moved.").
				Set(util)
		}
	}
	rep.Network.TotalBytes = info.NetTotalBytes
	rep.Network.Transfers = info.NetTransfers
	rep.Network.RateRecomputes = c.recomputes
	rep.Network.SolveSeconds = info.NetSolveSeconds
	if info.NetSolveSeconds > 0 {
		c.reg.Gauge("triosim_net_solve_wall_seconds", "", "",
			"Host time spent inside max-min fair-share solves.").
			Set(info.NetSolveSeconds)
	}

	// Collectives, sorted by label.
	labels := make([]string, 0, len(c.coll))
	for label := range c.coll {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		a := c.coll[label]
		st := CollectiveStat{
			Label:      label,
			Algo:       "unknown",
			MovedBytes: a.moved,
			StartSec:   a.start,
			EndSec:     a.end,
		}
		if entry := c.log.Get(label); entry != nil {
			st.Algo = entry.Algo
			st.Ranks = entry.Ranks
			st.PayloadBytes = entry.PayloadBytes
			if dur := a.end - a.start; dur > 0 {
				st.AlgBwBytesPerSec = entry.PayloadBytes / dur
				st.BusBwBytesPerSec = st.AlgBwBytesPerSec * entry.BusFactor
			}
		}
		if !math.IsInf(a.minLinkBw, 1) {
			st.IdealBwBytesPerSec = a.minLinkBw
			if st.IdealBwBytesPerSec > 0 {
				st.Efficiency = st.BusBwBytesPerSec / st.IdealBwBytesPerSec
			}
		}
		rep.Collectives = append(rep.Collectives, st)
	}

	// Engine self-profile.
	rep.Engine.Events = info.Events
	rep.Engine.QueueHighWater = c.queuePeak
	if info.QueueHighWater > rep.Engine.QueueHighWater {
		rep.Engine.QueueHighWater = info.QueueHighWater
	}
	// Per-kind counts, read off the cached triosim_events_total series
	// (types whose names render alike share one series and one row).
	for _, ent := range c.kindCache {
		rep.Engine.ByKind = append(rep.Engine.ByKind,
			KindCount{Kind: ent.name, Count: uint64(ent.events.Value())})
	}
	slices.SortFunc(rep.Engine.ByKind, func(a, b KindCount) int {
		return strings.Compare(a.Kind, b.Kind)
	})
	rep.Engine.ByKind = slices.Compact(rep.Engine.ByKind)
	c.reg.Gauge("triosim_event_queue_depth_peak", "", "",
		"High-water mark of the engine's pending-event queue.").
		Set(float64(c.queuePeak))
	// The merged high-water (engine's Schedule-time tracking vs the hook's
	// after-event probe) — the EngineStat value the JSON report carries.
	c.reg.Gauge("triosim_engine_queue_high_water", "", "",
		"Peak pending-event count (engine Schedule-time high-water merged "+
			"with the dispatch-probe peak).").
		Set(float64(rep.Engine.QueueHighWater))
	c.reg.Gauge("triosim_virtual_time_seconds", "", "",
		"Virtual-time frontier of the simulation.").Set(c.lastVTime)

	rep.Metrics = c.reg.Export()
	return rep
}
