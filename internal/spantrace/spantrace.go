// Package spantrace records a deterministic, virtual-time span log of one
// simulation: one span per executed task (compute, communication, host
// staging, barrier, delay) and per fault window, plus counter series sampled
// from the engine and the flow network. The recorder hooks into the run the
// same way sim.DigestHook and the telemetry Collector do — as a task.Observer,
// a network.FlowObserver, and an engine hook — and is strictly observation-
// only: it never schedules events, so the dispatched event schedule (and the
// replay digest) is byte-identical with or without it. core's regression test
// pins that identity.
//
// The completed Log supports critical-path extraction (critpath.go) and
// Chrome trace-event export for Perfetto / chrome://tracing (chrome.go).
package spantrace

import (
	"triosim/internal/network"
	"triosim/internal/sim"
	"triosim/internal/task"
)

// Category classifies a span for attribution and coloring.
type Category uint8

// Span categories. The first five mirror task.Kind; Fault marks an injected
// fault window rather than an executed task, and Request marks a serving
// request's arrival-to-delivery lifetime.
const (
	Compute Category = iota
	Comm
	HostLoad
	Barrier
	Delay
	Fault
	Request
)

var categoryNames = [...]string{
	"compute", "comm", "hostload", "barrier", "delay", "fault", "request",
}

// String returns the category name.
func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return "unknown"
}

// Span is one recorded activity. Name, Track, and Coll are interned string
// ids resolved through the owning Log (Log.Name); the record itself is a
// small value type so the hot recording path moves no pointers and triggers
// no per-span allocation.
type Span struct {
	// TaskID is the task-graph id, or -1 for fault-window spans.
	TaskID int32
	// Name is the interned activity label.
	Name int32
	// Track is the interned lane name ("gpu0", "gpu0->gpu1", "sync", ...).
	Track int32
	// Coll is the interned collective label, or -1.
	Coll int32
	Cat  Category
	// Start and End are the observed virtual times.
	Start, End sim.VTime
	// Nominal is the pre-stretch predicted duration for Compute and Delay
	// spans (task.Task.Duration). An observed duration above Nominal is
	// fault-injected straggler stretch; the critical-path attribution
	// accounts it separately.
	Nominal sim.VTime
}

// Duration returns End-Start.
func (s *Span) Duration() sim.VTime { return s.End - s.Start }

// CounterSample is one point of a counter series.
type CounterSample struct {
	T sim.VTime
	V float64
}

// CounterSeries is a named virtual-time counter track (queue depth, in-flight
// flows, cumulative link bytes, solver re-solve count, ...).
type CounterSeries struct {
	Name    string
	Samples []CounterSample

	// cum accumulates for cumulative series (link bytes).
	cum float64
	// stride/skip implement deterministic decimation: when a series hits
	// maxCounterSamples the recorder halves it in place and doubles the
	// stride, so long runs keep a bounded, evenly thinned series instead of
	// silently truncating the tail.
	stride int
	skip   int
}

// maxCounterSamples bounds one series before decimation kicks in.
const maxCounterSamples = 1 << 14

// sample appends (t, v), overwriting the previous point when the timestamp
// has not advanced (same-timestamp bursts carry no extra information).
func (cs *CounterSeries) sample(t sim.VTime, v float64) {
	if n := len(cs.Samples); n > 0 && !t.After(cs.Samples[n-1].T) {
		cs.Samples[n-1].V = v
		return
	}
	if cs.stride > 1 {
		cs.skip++
		if cs.skip < cs.stride {
			return
		}
		cs.skip = 0
	}
	if len(cs.Samples) >= maxCounterSamples {
		// Halve in place: keep every other sample, double the stride.
		kept := cs.Samples[:0]
		for i := 0; i < len(cs.Samples); i += 2 {
			kept = append(kept, cs.Samples[i])
		}
		cs.Samples = kept
		if cs.stride == 0 {
			cs.stride = 1
		}
		cs.stride *= 2
		cs.skip = 0
	}
	cs.Samples = append(cs.Samples, CounterSample{T: t, V: v})
}

// spanChunk is the pooled span-storage chunk size. Chunks are allocated whole
// and never reallocated, so steady-state recording is one indexed store.
const spanChunk = 4096

// Recorder accumulates spans and counters during a run. All methods are
// invoked on the engine goroutine; the recorder never schedules events.
//
// Construct with NewRecorder, register via task.Executor.Observe /
// network observer / sim engine hook, and call Finalize after the engine
// drains.
type Recorder struct {
	graph *task.Graph
	topo  *network.Topology

	// Span storage: fixed-size chunks; cur aliases the last chunk and curLen
	// indexes into it, so the hot push is an indexed store (no append).
	chunks [][]Span
	cur    []Span
	curLen int
	total  int

	// byTask maps task id -> span index+1 (0 = not recorded).
	byTask []int32

	// String interning: every Span.Name/Track/Coll indexes names.
	strs  map[string]int32
	names []string

	// gpuTracks caches interned "gpu<N>" track ids (+1) by GPU index;
	// routeTracks caches interned "a->b" track ids (+1) by packed
	// (src, dst) node pair, so the hot path never builds track strings.
	gpuTracks   []int32
	routeTracks map[uint64]int32
	syncTrackID int32 // +1

	// Counter series, in first-touch order (export sorts).
	counters   []*CounterSeries
	counterIdx map[string]int

	// Queue-depth sampling state: the engine hook tracks the running max
	// within the current timestamp and flushes one sample when virtual time
	// advances, bounding the series by distinct dispatch times.
	queueAt    sim.VTime
	queueCur   int
	queueArmed bool

	recomputes int
}

// Counter track names used by the recorder itself.
const (
	CounterQueueDepth    = "sim.event_queue_depth"
	CounterQueueHighWatr = "sim.event_queue_high_water"
	CounterFlowsInFlight = "net.flows_in_flight"
	CounterRateResolves  = "net.rate_resolves_total"
	CounterSolveWallMs   = "net.solve_wall_ms"
	CounterCacheTrHits   = "tracecache.trace_hits"
	CounterCacheTrMiss   = "tracecache.trace_misses"
	CounterCacheTmHits   = "tracecache.timer_hits"
	CounterCacheTmMiss   = "tracecache.timer_misses"
	CounterCacheBytes    = "tracecache.bytes"
)

// syncTrackName is the lane barriers and delays are recorded on, and
// faultTrackName the lane for injected fault windows.
const (
	syncTrackName  = "sync"
	faultTrackName = "faults"
)

// NewRecorder builds a recorder for one run of g. topo supplies node names
// for communication track labels and may be nil (tracks fall back to raw
// node ids).
func NewRecorder(g *task.Graph, topo *network.Topology) *Recorder {
	r := &Recorder{
		graph:       g,
		topo:        topo,
		strs:        map[string]int32{},
		routeTracks: map[uint64]int32{},
		counterIdx:  map[string]int{},
	}
	if g != nil {
		r.byTask = make([]int32, g.Len())
	}
	r.grow()
	return r
}

var _ task.Observer = (*Recorder)(nil)
var _ network.FlowObserver = (*Recorder)(nil)

// TaskDone implements task.Observer: it records one span per completed task.
// This is the span-recording hot path — one call per task in the graph — so
// it is a struct store into pooled chunk storage plus interned-id lookups;
// the cold branches (chunk growth, first-sight labels) live in their own
// un-annotated methods.
//
//triosim:hotpath
func (r *Recorder) TaskDone(t *task.Task, start, end sim.VTime) {
	var sp Span
	sp.TaskID = int32(t.ID)
	sp.Start = start
	sp.End = end
	sp.Name = r.intern(t.Label)
	sp.Coll = -1
	switch t.Kind {
	case task.Compute:
		sp.Cat = Compute
		sp.Nominal = t.Duration
		sp.Track = r.gpuTrack(t.GPU)
	case task.Comm:
		sp.Cat = Comm
		sp.Track = r.routeTrack(t.Src, t.Dst)
		if t.Collective != "" {
			sp.Coll = r.intern(t.Collective)
		}
	case task.HostLoad:
		sp.Cat = HostLoad
		sp.Track = r.routeTrack(t.Src, t.Dst)
	case task.Barrier:
		sp.Cat = Barrier
		sp.Track = r.syncTrack()
	case task.Delay:
		sp.Cat = Delay
		sp.Nominal = t.Duration
		sp.Track = r.syncTrack()
	}
	idx := r.push(sp)
	if id := int(sp.TaskID); id >= 0 && id < len(r.byTask) {
		r.byTask[id] = int32(idx) + 1
	}
}

// push stores one span in the chunked arena and returns its index.
//
//triosim:hotpath
func (r *Recorder) push(sp Span) int {
	if r.curLen == len(r.cur) {
		r.grow()
	}
	r.cur[r.curLen] = sp
	r.curLen++
	idx := r.total
	r.total++
	return idx
}

// grow appends a fresh chunk (amortized: once per spanChunk spans).
func (r *Recorder) grow() {
	c := make([]Span, spanChunk)
	r.chunks = append(r.chunks, c)
	r.cur = c
	r.curLen = 0
}

// intern returns the id of s, assigning one on first sight. The lookup is a
// map read (no allocation); insertion is amortized by the number of distinct
// labels, not by span count.
//
//triosim:hotpath
func (r *Recorder) intern(s string) int32 {
	if id, ok := r.strs[s]; ok {
		return id
	}
	return r.internSlow(s)
}

// internSlow registers a first-sight string (cold path).
func (r *Recorder) internSlow(s string) int32 {
	id := int32(len(r.names))
	r.names = append(r.names, s)
	r.strs[s] = id
	return id
}

// gpuTrack returns the interned "gpu<N>" track id.
//
//triosim:hotpath
func (r *Recorder) gpuTrack(gpu int) int32 {
	if gpu >= 0 && gpu < len(r.gpuTracks) {
		if id := r.gpuTracks[gpu]; id != 0 {
			return id - 1
		}
	}
	return r.gpuTrackSlow(gpu)
}

func (r *Recorder) gpuTrackSlow(gpu int) int32 {
	if gpu < 0 {
		return r.intern(syncTrackName)
	}
	for gpu >= len(r.gpuTracks) {
		r.gpuTracks = append(r.gpuTracks, 0)
	}
	id := r.intern(gpuName(gpu))
	r.gpuTracks[gpu] = id + 1
	return id
}

func gpuName(gpu int) string {
	// Matches the executor's interval-log lane names.
	return "gpu" + itoa(gpu)
}

// itoa is a minimal non-negative integer formatter (avoids fmt on cold paths
// that still run once per GPU/link).
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// routeTrack returns the interned "src->dst" track id for a transfer,
// keyed by the packed node pair so the hot path builds no strings.
//
//triosim:hotpath
func (r *Recorder) routeTrack(src, dst network.NodeID) int32 {
	key := uint64(uint32(src))<<32 | uint64(uint32(dst))
	if id, ok := r.routeTracks[key]; ok {
		return id - 1
	}
	return r.routeTrackSlow(key, src, dst)
}

func (r *Recorder) routeTrackSlow(key uint64, src, dst network.NodeID) int32 {
	id := r.intern(r.nodeName(src) + "->" + r.nodeName(dst))
	r.routeTracks[key] = id + 1
	return id
}

// nodeName resolves a topology node's display name.
func (r *Recorder) nodeName(n network.NodeID) string {
	if r.topo != nil && int(n) >= 0 && int(n) < len(r.topo.Nodes) {
		if name := r.topo.Nodes[n].Name; name != "" {
			return name
		}
	}
	return "node" + itoa(int(n))
}

// syncTrack returns the interned barrier/delay lane id.
//
//triosim:hotpath
func (r *Recorder) syncTrack() int32 {
	if r.syncTrackID != 0 {
		return r.syncTrackID - 1
	}
	id := r.intern(syncTrackName)
	r.syncTrackID = id + 1
	return id
}

// AddFault records one injected fault window as a span on the "faults" track.
func (r *Recorder) AddFault(label string, start, end sim.VTime) {
	r.AddSpan(faultTrackName, label, Fault, start, end)
}

// AddSpan records one externally produced span (no task identity) on the
// named track. The serving layer uses it for request-lifetime spans.
func (r *Recorder) AddSpan(track, label string, cat Category,
	start, end sim.VTime) {
	r.push(Span{
		TaskID: -1,
		Name:   r.intern(label),
		Track:  r.intern(track),
		Coll:   -1,
		Cat:    cat,
		Start:  start,
		End:    end,
	})
}

// series returns (creating on first use) the named counter series.
func (r *Recorder) series(name string) *CounterSeries {
	if i, ok := r.counterIdx[name]; ok {
		return r.counters[i]
	}
	cs := &CounterSeries{Name: name}
	r.counterIdx[name] = len(r.counters)
	r.counters = append(r.counters, cs)
	return cs
}

// Sample records one externally observed counter point (core injects
// end-of-run totals like queue high-water and trace-cache hit counts here).
func (r *Recorder) Sample(name string, t sim.VTime, v float64) {
	r.series(name).sample(t, v)
}

// FlowFinished implements network.FlowObserver: cumulative per-link traffic
// counters, one series per directed link the flow crossed.
func (r *Recorder) FlowFinished(route []network.DirLink, bytes float64,
	start, end sim.VTime) {
	for _, dl := range route {
		cs := r.linkSeries(dl)
		cs.cum += bytes
		cs.sample(end, cs.cum)
	}
}

// linkSeries returns the cumulative-bytes series for one link direction.
func (r *Recorder) linkSeries(dl network.DirLink) *CounterSeries {
	return r.series("link." + r.linkName(dl) + ".bytes")
}

// linkName renders one link direction as "a->b" via topology node names.
func (r *Recorder) linkName(dl network.DirLink) string {
	if r.topo == nil || dl.Link < 0 || dl.Link >= len(r.topo.Links) {
		return "link" + itoa(dl.Link)
	}
	lk := r.topo.Links[dl.Link]
	if dl.Forward {
		return r.nodeName(lk.A) + "->" + r.nodeName(lk.B)
	}
	return r.nodeName(lk.B) + "->" + r.nodeName(lk.A)
}

// RatesRecomputed implements network.FlowObserver: in-flight flow count and
// the cumulative max-min re-solve count, sampled at each recomputation.
func (r *Recorder) RatesRecomputed(flows int, now sim.VTime) {
	r.recomputes++
	r.series(CounterFlowsInFlight).sample(now, float64(flows))
	r.series(CounterRateResolves).sample(now, float64(r.recomputes))
}

// EngineHook returns the queue-depth sampling hook. pending is the engine's
// pending-event probe (sim.SerialEngine.Pending); the hook records the
// per-timestamp maximum depth, flushed when virtual time advances.
func (r *Recorder) EngineHook(pending func() int) sim.Hook {
	return sim.HookFunc(func(ctx sim.HookCtx) {
		if ctx.Pos != sim.HookPosAfterEvent || pending == nil {
			return
		}
		d := pending()
		switch {
		case !r.queueArmed:
			r.queueArmed = true
			r.queueAt, r.queueCur = ctx.Now, d
		case ctx.Now.After(r.queueAt):
			r.series(CounterQueueDepth).sample(r.queueAt, float64(r.queueCur))
			r.queueAt, r.queueCur = ctx.Now, d
		default:
			if d > r.queueCur {
				r.queueCur = d
			}
		}
	})
}

// Log is the completed, immutable span log Finalize produces.
type Log struct {
	// Spans in record (completion) order.
	Spans []Span
	// Counters in first-touch order.
	Counters []*CounterSeries

	names  []string
	byTask []int32
	graph  *task.Graph
}

// Finalize flattens the recorder into a Log. Call once, after the engine has
// drained; the recorder must not be reused afterwards.
func (r *Recorder) Finalize() *Log {
	if r.queueArmed {
		r.series(CounterQueueDepth).sample(r.queueAt, float64(r.queueCur))
		r.queueArmed = false
	}
	spans := make([]Span, 0, r.total)
	for i, c := range r.chunks {
		if i == len(r.chunks)-1 {
			c = c[:r.curLen]
		}
		spans = append(spans, c...)
	}
	return &Log{
		Spans:    spans,
		Counters: r.counters,
		names:    r.names,
		byTask:   r.byTask,
		graph:    r.graph,
	}
}

// Name resolves an interned string id ("" for -1 / out of range).
func (l *Log) Name(id int32) string {
	if id < 0 || int(id) >= len(l.names) {
		return ""
	}
	return l.names[id]
}

// SpanOf returns the span index recorded for task id, or -1.
func (l *Log) SpanOf(taskID int) int {
	if taskID < 0 || taskID >= len(l.byTask) {
		return -1
	}
	return int(l.byTask[taskID]) - 1
}

// Deps calls fn for every dependency edge (from, to) between recorded spans,
// in deterministic (to, dep-order) order. Fault spans have no edges.
func (l *Log) Deps(fn func(from, to int)) {
	if l.graph == nil {
		return
	}
	for i := range l.Spans {
		sp := &l.Spans[i]
		if sp.TaskID < 0 {
			continue
		}
		t := l.graph.Tasks[sp.TaskID]
		for _, d := range t.Deps() {
			if j := l.SpanOf(d); j >= 0 {
				fn(j, i)
			}
		}
	}
}

// Sample appends one counter point to a finalized log (core attaches
// end-of-run totals — e.g. trace-cache counters — after Finalize).
func (l *Log) Sample(name string, t sim.VTime, v float64) {
	for _, cs := range l.Counters {
		if cs.Name == name {
			cs.sample(t, v)
			return
		}
	}
	cs := &CounterSeries{Name: name}
	cs.sample(t, v)
	l.Counters = append(l.Counters, cs)
}
