package telemetry

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"

	"triosim/internal/network"
	"triosim/internal/sim"
	"triosim/internal/spantrace"
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
	minLinkBw  float64
	// bytes is the triosim_collective_bytes_total series of the instance's
	// algorithm.
	bytes *Counter
}

// Collector is the run's one observer: it sees completed tasks
// (task.Observer), finished flows and rate re-solves (network.FlowObserver)
// and engine dispatches (Dispatched), and feeds two optional outputs from
// that one stream. spans, when set, receives the span log; reg, when set,
// receives the metric series and the state Finalize turns into a RunReport.
// The state both outputs read exists once: one per-direction link table
// indexed by the topology's direction-name ids (network.Topology.LinkID),
// one re-solve count, one per-timestamp queue-depth tracker, and one label
// render per task. It keeps no per-task state; the per-GPU time partition
// comes from a task.GPUTime the executor or the serving cluster feeds.
//
// All methods are invoked on the engine goroutine; the Collector never
// schedules events, so the dispatched event schedule — and therefore the
// replay digest — is identical with or without it.
type Collector struct {
	topo  *network.Topology
	spans *spantrace.Recorder // nil when spans are off
	reg   *Registry           // nil when telemetry is off
	log   *CollectiveLog

	// links holds per-direction statistics, indexed by the topology's
	// direction-name id.
	links []linkAgg
	// solves counts max-min re-solves: the registry's
	// triosim_net_rate_recomputes_total series when telemetry is on, else
	// ownSolves.
	solves    *Counter
	ownSolves Counter
	// The queue-depth tracker: queueCur is the deepest pending-event depth
	// seen after a dispatch at queueAt, closed into one span sample when
	// virtual time advances; queuePeak is the running max of those depths.
	queueAt             sim.VTime
	queueCur, queuePeak int
	queueArmed          bool
	// label is the scratch buffer each task's label is rendered into once.
	label []byte

	tierBytes map[string]float64
	tierFlows map[string]int

	coll map[string]*collAgg
	// route is scratch for observeCollective's route lookups.
	route []network.DirLink

	// Cached series: compute seconds by GPU index, op durations by
	// category, and flow durations.
	gpuCompute []*Counter
	opHist     map[string]*Histogram
	flowHist   *Histogram

	// kindCache maps an event's (dynamic type, secondary flag) to its kind
	// label and triosim_events_total series, so the per-event path neither
	// formats a type name nor looks the counter up in the registry;
	// lastKind/lastEntry memoize the most recent key.
	kindCache map[kindKey]kindEntry
	lastKind  kindKey
	lastEntry kindEntry
}

// NewCollector builds the run observer over topo. reg receives the metric
// series and the RunReport state, spans the span log; either may be nil to
// leave that output off. log may be nil when the workload has no
// collectives (or they were generated without a log).
func NewCollector(reg *Registry, spans *spantrace.Recorder,
	topo *network.Topology, log *CollectiveLog) *Collector {
	return &Collector{
		topo:      topo,
		spans:     spans,
		reg:       reg,
		log:       log,
		tierBytes: map[string]float64{},
		tierFlows: map[string]int{},
		coll:      map[string]*collAgg{},
		opHist:    map[string]*Histogram{},
		kindCache: map[kindKey]kindEntry{},
	}
}

var _ task.Observer = (*Collector)(nil)
var _ network.FlowObserver = (*Collector)(nil)

// TaskDone implements task.Observer. It renders the task's label once, for
// the span and for a compute task's op category.
//
//triosim:hotpath
func (c *Collector) TaskDone(t *task.Task, start, end sim.VTime) {
	compute := t.Kind == task.Compute
	if c.spans != nil || (compute && c.reg != nil) {
		c.label = t.AppendLabel(c.label[:0])
	}
	if c.spans != nil {
		c.spans.AddTask(t, c.label, start, end)
	}
	if c.reg == nil {
		return
	}
	s, e := start.Seconds(), end.Seconds()
	switch {
	case compute:
		c.gpuCounter(int(t.GPU)).Add(e - s)
		// The op category reads the rendered label, lower-cased in place.
		cat := opCategory(toLower(c.label))
		h := c.opHist[cat]
		if h == nil {
			h = c.reg.Histogram("triosim_op_duration_seconds", "category", cat,
				"Per-operator compute durations by category.", DurationBuckets)
			c.opHist[cat] = h
		}
		h.Observe(e - s)
	case t.Kind == task.Comm:
		if name := t.Collective(); name != "" {
			c.observeCollective(t, name, s, e)
		}
	}
}

// gpuCounter returns gpu's triosim_gpu_compute_seconds_total series,
// registering it on the GPU's first compute task.
func (c *Collector) gpuCounter(gpu int) *Counter {
	for gpu >= len(c.gpuCompute) {
		c.gpuCompute = append(c.gpuCompute, nil)
	}
	if c.gpuCompute[gpu] == nil {
		c.gpuCompute[gpu] = c.reg.Counter("triosim_gpu_compute_seconds_total",
			"gpu", "gpu"+strconv.Itoa(gpu),
			"Serial compute-stream occupancy per GPU.")
	}
	return c.gpuCompute[gpu]
}

// observeCollective folds one step of collective instance name into its
// aggregate and the per-algorithm byte counter.
func (c *Collector) observeCollective(t *task.Task, name string, s, e float64) {
	a := c.coll[name]
	if a == nil {
		algo := "unknown"
		if entry := c.log.Get(name); entry != nil {
			algo = entry.Algo
		}
		a = &collAgg{start: math.Inf(1), minLinkBw: math.Inf(1),
			bytes: c.reg.Counter("triosim_collective_bytes_total", "algo", algo,
				"Bytes moved by collective communication, per algorithm.")}
		c.coll[name] = a
	}
	a.moved += t.Bytes
	if s < a.start {
		a.start = s
	}
	if e > a.end {
		a.end = e
	}
	// A pair with no route appends nothing, so it leaves minLinkBw as is.
	c.route, _ = c.topo.AppendRoute(c.route[:0], t.Src, t.Dst)
	for _, dl := range c.route {
		if bw := c.topo.Links[dl.Link].Bandwidth; bw < a.minLinkBw {
			a.minLinkBw = bw
		}
	}
	a.bytes.Add(t.Bytes)
}

const linkUtilHelp = "Fraction of link capacity used over the run so far."

// linkAgg accumulates one link direction's traffic: bytes and flows, the
// bandwidth its last flow saw, its cached metric series and its span
// link.<name>.bytes series.
type linkAgg struct {
	bytes  float64
	flows  int
	bw     float64
	total  *Counter
	util   *Gauge
	series *spantrace.CounterSeries
}

// link returns direction id's entry, registering its series on the first
// flow that crosses it.
func (c *Collector) link(id int) *linkAgg {
	for id >= len(c.links) {
		c.links = append(c.links, linkAgg{})
	}
	la := &c.links[id]
	if la.flows == 0 {
		name := c.topo.LinkName(id)
		if c.spans != nil {
			la.series = c.spans.Series("link." + name + ".bytes")
		}
		if c.reg != nil {
			la.total = c.reg.Counter("triosim_link_bytes_total", "link", name,
				"Bytes carried per directed link.")
		}
	}
	return la
}

// FlowFinished implements network.FlowObserver.
//
//triosim:hotpath
func (c *Collector) FlowFinished(route []network.DirLink, bytes float64,
	start, end sim.VTime) {
	s, e := start.Seconds(), end.Seconds()
	for _, dl := range route {
		id := c.topo.LinkID(dl)
		la := c.link(id)
		la.bytes += bytes
		la.flows++
		lk := &c.topo.Links[dl.Link]
		la.bw = lk.Bandwidth
		if la.series != nil {
			la.series.Sample(end, la.bytes)
		}
		if c.reg == nil {
			continue
		}
		if lk.Tier != "" {
			c.tierBytes[lk.Tier] += bytes
			c.tierFlows[lk.Tier]++
		}
		la.total.Add(bytes)
		if la.bw > 0 && e > 0 {
			if la.util == nil {
				la.util = c.reg.Gauge("triosim_link_utilization_ratio", "link",
					c.topo.LinkName(id), linkUtilHelp)
			}
			la.util.Set(la.bytes / (la.bw * e))
		}
	}
	if c.reg == nil {
		return
	}
	if c.flowHist == nil {
		c.flowHist = c.reg.Histogram("triosim_flow_duration_seconds", "", "",
			"Network flow durations (start of transfer to last byte).",
			DurationBuckets)
	}
	c.flowHist.Observe(e - s)
}

// RatesRecomputed implements network.FlowObserver: one re-solve, and on the
// span log the in-flight flow count and the cumulative re-solve count.
//
//triosim:hotpath
func (c *Collector) RatesRecomputed(flows int, now sim.VTime) {
	if c.solves == nil {
		c.solves = &c.ownSolves
		if c.reg != nil {
			c.solves = c.reg.Counter("triosim_net_rate_recomputes_total", "", "",
				"Max-min fair-share recomputations performed by the flow network.")
		}
	}
	c.solves.Inc()
	if c.spans != nil {
		c.spans.Sample(spantrace.CounterFlowsInFlight, now, float64(flows))
		c.spans.Sample(spantrace.CounterRateResolves, now, c.solves.Value())
	}
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

// Dispatched counts one dispatched event by kind (telemetry on) and feeds
// the pending queue depth after it, at virtual time now, to the queue
// tracker. The run's after-dispatch hook calls it once per event.
//
//triosim:hotpath
func (c *Collector) Dispatched(e sim.Event, now sim.VTime, pending int) {
	if c.reg != nil {
		c.kindOf(e).events.Inc()
	}
	c.queuePeak = max(c.queuePeak, pending)
	if c.queueArmed && !now.After(c.queueAt) {
		c.queueCur = max(c.queueCur, pending)
		return
	}
	c.flushQueue()
	c.queueAt, c.queueCur, c.queueArmed = now, pending, true
}

// flushQueue closes the current timestamp: its deepest depth becomes one
// sim.event_queue_depth span sample.
func (c *Collector) flushQueue() {
	if c.queueArmed && c.spans != nil {
		c.spans.Sample(spantrace.CounterQueueDepth, c.queueAt,
			float64(c.queueCur))
	}
	c.queueArmed = false
}

// SpanLog closes the queue tracker and finalizes the span log. Call it
// once, after the engine has drained, on a collector built with spans.
func (c *Collector) SpanLog() *spantrace.Log {
	c.flushQueue()
	return c.spans.Finalize()
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
	// is never below a depth seen after a dispatch.
	QueueHighWater int
	// VirtualTimeSec is the engine's time at its last dispatch
	// (SerialEngine.CurrentTime); a fault window that outlasts the workload
	// puts it past TotalSec.
	VirtualTimeSec float64
	// Net is the run's flow network: the network section reads its own
	// totals, Solves (its max-min re-solves) and SolveWall (host time inside
	// solves, zero unless the caller injected a clock — see
	// network.FlowNetwork.SolveClock). Nil leaves the section's totals zero.
	Net      *network.FlowNetwork
	Parallel ParallelStat
	// GPUTime is the run's per-GPU time partition, fed by the executor or
	// the serving cluster; nil reads every GPU as idle.
	GPUTime *task.GPUTime
}

// Finalize reads the per-GPU time partition off info.GPUTime, computes final
// link utilizations and collective bandwidths, and assembles the RunReport.
// Call it once, after the engine has drained, on a collector built with a
// registry.
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
	if n := info.Net; n != nil {
		rep.Network.TotalBytes = n.TotalBytes
		rep.Network.Transfers = n.TotalTransfers
		rep.Network.RateRecomputes = n.Solves
		rep.Network.SolveSeconds = n.SolveWall.Seconds()
	}
	if rep.Network.SolveSeconds > 0 {
		c.reg.Gauge("triosim_net_solve_wall_seconds", "", "",
			"Host time spent inside max-min fair-share solves.").
			Set(rep.Network.SolveSeconds)
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
	rep.Engine.QueueHighWater = info.QueueHighWater
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
	// The engine's Schedule-time high water — the EngineStat value the JSON
	// report carries.
	c.reg.Gauge("triosim_engine_queue_high_water", "", "",
		"Peak pending-event count (engine Schedule-time high-water).").
		Set(float64(rep.Engine.QueueHighWater))
	c.reg.Gauge("triosim_virtual_time_seconds", "", "",
		"Virtual-time frontier of the simulation.").Set(info.VirtualTimeSec)

	rep.Metrics = c.reg.Export()
	return rep
}
