package server

import (
	"bytes"
	"container/heap"
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"triosim/internal/core"
	"triosim/internal/digest"
	"triosim/internal/sweep"
	"triosim/internal/telemetry"
	"triosim/internal/tracecache"
)

// Options configure a Server.
type Options struct {
	// MaxQueue bounds the number of queued (not yet running) runs; a
	// submission past the bound is rejected with 429. Default 256.
	MaxQueue int
	// Workers is the in-flight cap: at most this many simulations execute
	// concurrently. Default GOMAXPROCS.
	Workers int
	// DefaultDeadline bounds requests that set no deadline_ms, covering
	// queue wait plus execution. Default 2 minutes.
	DefaultDeadline time.Duration
	// MaxCompleted bounds how many terminal runs stay fetchable before the
	// oldest are evicted. Default 4096.
	MaxCompleted int
	// Cache optionally supplies the shared trace cache (tests); nil builds a
	// fresh store.
	Cache *tracecache.Store
	// Clock supplies wall-clock readings for latency metrics and event
	// timestamps. Default time.Now.
	Clock func() time.Time
}

func (o Options) withDefaults() Options {
	if o.MaxQueue <= 0 {
		o.MaxQueue = 256
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.DefaultDeadline <= 0 {
		o.DefaultDeadline = 2 * time.Minute
	}
	if o.MaxCompleted <= 0 {
		o.MaxCompleted = 4096
	}
	if o.Cache == nil {
		o.Cache = tracecache.New()
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// Run states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// Event is one lifecycle event on a run's NDJSON stream.
type Event struct {
	State string `json:"state"`
	Msg   string `json:"msg,omitempty"`
	// WallMS is the server's wall-clock timestamp in Unix milliseconds.
	WallMS int64 `json:"wall_ms"`
}

// Result is a run's compact outcome (GET /v1/jobs/{id}/result).
type Result struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	State  string `json:"state"`
	Digest string `json:"digest"`
	Error  string `json:"error,omitempty"`
	// TotalSec is the simulated makespan in seconds.
	TotalSec float64 `json:"total_sec,omitempty"`
	// Events and EventDigest are the engine's dispatch count and schedule
	// fingerprint — equal configurations must report equal digests.
	Events      uint64 `json:"events,omitempty"`
	EventDigest string `json:"event_digest,omitempty"`
	// Coalesced counts submissions that joined this run beyond the first.
	Coalesced int `json:"coalesced"`
}

// run is one unit of simulation work and its coalescing anchor: every
// submission with the same digest while the run is queued or running
// subscribes to it instead of creating another.
type run struct {
	id       string
	req      *compiled
	priority int
	seq      uint64
	index    int // heap slot, -1 once popped

	ctx      context.Context
	cancel   context.CancelFunc
	canceled bool // all subscribers withdrew

	state       string
	subscribers int
	coalesced   int
	enqueued    time.Time

	events  []Event
	updated chan struct{} // closed and replaced on every change
	done    chan struct{} // closed on terminal state

	result     *Result
	reportJSON []byte
}

// runHeap orders queued runs by priority (higher first), FIFO within a
// priority level.
type runHeap []*run

func (h runHeap) Len() int { return len(h) }
func (h runHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h runHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *runHeap) Push(x any) {
	r := x.(*run)
	r.index = len(*h)
	*h = append(*h, r)
}
func (h *runHeap) Pop() any {
	old := *h
	r := old[len(old)-1]
	old[len(old)-1] = nil
	r.index = -1
	*h = old[:len(old)-1]
	return r
}

// latencyBounds are the request-latency histogram's upper bucket edges in
// seconds (submission to terminal state, queue wait included).
var latencyBounds = []float64{
	0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// counters are the server's lifetime totals and latency histogram, kept as
// series of a server-owned registry that /metrics renders (guarded by
// Server.mu).
type counters struct {
	reg       *telemetry.Registry
	submitted *telemetry.Counter
	coalesced *telemetry.Counter
	completed *telemetry.Counter
	failed    *telemetry.Counter
	canceled  *telemetry.Counter
	rejected  *telemetry.Counter
	latency   *telemetry.Histogram
}

func newCounters() counters {
	reg := telemetry.NewRegistry()
	counter := func(name, help string) *telemetry.Counter {
		return reg.Counter(name, "", "", help)
	}
	return counters{
		reg: reg,
		submitted: counter("triosim_server_submitted_total",
			"Requests received, including rejected ones."),
		coalesced: counter("triosim_server_coalesce_hits_total",
			"Submissions that joined an equivalent queued or running run."),
		completed: counter("triosim_server_completed_total",
			"Runs finished successfully."),
		failed: counter("triosim_server_failed_total",
			"Runs that ended in an error (deadline expiry included)."),
		canceled: counter("triosim_server_canceled_total",
			"Runs canceled by their subscribers."),
		rejected: counter("triosim_server_rejected_total",
			"Submissions rejected at admission (invalid, queue full, draining)."),
		latency: reg.Histogram("triosim_server_request_seconds", "", "",
			"Submission-to-terminal latency, queue wait included.",
			latencyBounds),
	}
}

// Server owns the queue, the coalescing window, the worker pool, and the
// shared trace cache. Construct with New; stop with Drain or Close.
type Server struct {
	opts  Options
	cache *tracecache.Store

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	wake     chan struct{} // closed and replaced to broadcast queue changes
	queue    runHeap
	active   map[string]*run // digest → queued/running run (coalescing window)
	jobs     map[string]*run // id → run, incl. terminal until evicted
	doneIDs  []string        // terminal run ids, oldest first (eviction order)
	seq      uint64
	inFlight int
	draining bool
	stats    counters

	wg      sync.WaitGroup
	stopped chan struct{} // closed when every worker has exited
}

// New starts a server and its worker pool.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		cache:      opts.Cache,
		baseCtx:    ctx,
		baseCancel: cancel,
		active:     map[string]*run{},
		jobs:       map[string]*run{},
		wake:       make(chan struct{}),
		stopped:    make(chan struct{}),
		stats:      newCounters(),
	}
	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	go func() {
		s.wg.Wait()
		close(s.stopped)
	}()
	return s
}

// StatusError is an admission or lookup failure with its HTTP status.
type StatusError struct {
	Code       int
	Msg        string
	RetryAfter int // seconds; 0 omits the header
}

func (e *StatusError) Error() string { return e.Msg }

// Ack answers a submission (POST /v1/jobs).
type Ack struct {
	ID     string `json:"id"`
	Digest string `json:"digest"`
	State  string `json:"state"`
	// Coalesced is true when the submission joined an existing equivalent
	// run rather than enqueuing a new one.
	Coalesced bool `json:"coalesced"`
	// QueueDepth is the queue length after this submission (observability,
	// not a position guarantee under priorities).
	QueueDepth int `json:"queue_depth"`
}

// Submit validates, coalesces or enqueues, and acknowledges one request.
// Errors are *StatusError: 400 on invalid requests, 429 when the queue is
// full, 503 when draining.
func (s *Server) Submit(req *Request) (*Ack, error) {
	c, err := compile(req)
	if err != nil {
		s.mu.Lock()
		s.stats.rejected.Inc()
		s.mu.Unlock()
		return nil, &StatusError{Code: 400, Msg: err.Error()}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.submitted.Inc()

	if s.draining {
		s.stats.rejected.Inc()
		return nil, &StatusError{Code: 503, Msg: "server is draining",
			RetryAfter: 5}
	}

	// Coalesce: an equivalent run queued or running absorbs this submission.
	// Joining is admission-free — it adds no work — and can only raise the
	// queued run's priority, never lower it.
	if r, ok := s.active[c.digest]; ok {
		r.subscribers++
		r.coalesced++
		s.stats.coalesced.Inc()
		if req.Priority > r.priority && r.index >= 0 {
			r.priority = req.Priority
			heap.Fix(&s.queue, r.index)
		}
		s.eventLocked(r, r.state, "coalesced with an equivalent submission")
		return &Ack{ID: r.id, Digest: c.digest, State: r.state,
			Coalesced: true, QueueDepth: len(s.queue)}, nil
	}

	if len(s.queue) >= s.opts.MaxQueue {
		s.stats.rejected.Inc()
		return nil, &StatusError{Code: 429, Msg: "queue is full",
			RetryAfter: 1}
	}

	deadline := s.opts.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	s.seq++
	r := &run{
		id:          fmt.Sprintf("%s-%d", digest.Short(c.digest), s.seq),
		req:         c,
		priority:    req.Priority,
		seq:         s.seq,
		state:       StateQueued,
		subscribers: 1,
		enqueued:    s.opts.Clock(),
		updated:     make(chan struct{}),
		done:        make(chan struct{}),
	}
	// The deadline starts at enqueue so queue wait counts against it: a
	// request that waits out its whole budget in the queue fails fast
	// instead of running past it.
	r.ctx, r.cancel = context.WithTimeout(s.baseCtx, deadline)
	heap.Push(&s.queue, r)
	s.active[c.digest] = r
	s.jobs[r.id] = r
	s.eventLocked(r, StateQueued, "")
	s.wakeLocked()
	return &Ack{ID: r.id, Digest: c.digest, State: StateQueued,
		QueueDepth: len(s.queue)}, nil
}

// wakeLocked broadcasts a queue change to sleeping workers by closing the
// current wake channel and installing a fresh one. Caller holds mu. This
// replaces a sync.Cond: Wait-under-lock is banned by the repo's
// mutex-discipline analyzer, and the channel form lets workers block outside
// the lock with no lost-wakeup window (a worker that snapshotted the old
// channel sees it closed).
func (s *Server) wakeLocked() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// eventLocked appends a lifecycle event and wakes streamers. Caller holds mu.
func (s *Server) eventLocked(r *run, state, msg string) {
	r.events = append(r.events, Event{State: state, Msg: msg,
		WallMS: s.opts.Clock().UnixMilli()})
	close(r.updated)
	r.updated = make(chan struct{})
}

// worker executes queued runs until the server drains and the queue empties.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		r, wake, stop := s.next()
		if stop {
			return
		}
		if r == nil {
			select {
			case <-wake:
			}
			continue
		}
		res, report, err := s.execute(r)
		s.mu.Lock()
		s.inFlight--
		s.finalizeLocked(r, res, report, err)
		s.mu.Unlock()
	}
}

// next claims the highest-priority runnable job. It returns (nil, wake,
// false) when the queue is empty — the worker blocks on wake, which the next
// Submit or Drain closes — and stop once the server is draining and the
// queue has emptied.
func (s *Server) next() (r *run, wake chan struct{}, stop bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) > 0 {
		r := heap.Pop(&s.queue).(*run)
		if err := r.ctx.Err(); err != nil {
			// Deadline expired (or every subscriber canceled) while queued.
			s.finalizeLocked(r, nil, nil,
				fmt.Errorf("while queued: %w", err))
			continue
		}
		r.state = StateRunning
		s.inFlight++
		s.eventLocked(r, StateRunning, "")
		return r, nil, false
	}
	if s.draining {
		return nil, nil, true
	}
	return nil, s.wake, false
}

// execute runs one simulation through the sweep pool (Workers:1 — the
// server's own pool provides the parallelism; sweep provides ctx threading,
// panic isolation, and the cache installation point).
func (s *Server) execute(r *run) (*Result, []byte, error) {
	opts := sweep.Options{Workers: 1, Context: r.ctx}
	var res *core.Result
	var err error
	switch r.req.kind {
	case KindServe:
		results := sweep.Serve(opts, []sweep.ServeScenario{{Name: r.id,
			Build: func() core.ServeConfig {
				cfg, err := r.req.serveConfig()
				if err != nil {
					// compile() validated the same constructors; reaching
					// here is a programming error, isolated by the pool.
					panic(err)
				}
				cfg.Context = r.ctx
				return cfg
			}}})
		if err = results[0].Err; err == nil {
			res = &results[0].Value.Res.Result
		}
	default:
		results := sweep.Simulate(opts, []sweep.Scenario{{Name: r.id,
			Build: func() core.Config {
				cfg, err := r.req.coreConfig()
				if err != nil {
					panic(err)
				}
				cfg.Context = r.ctx
				cfg.Cache = s.cache
				return cfg
			}}})
		if err = results[0].Err; err == nil {
			res = results[0].Value.Res
		}
	}
	if err != nil {
		return nil, nil, err
	}
	report, err := renderReport(res.Report)
	return &Result{ID: r.id, Kind: r.req.kind, Digest: r.req.digest,
		TotalSec: res.TotalTime.Seconds(), Events: res.Events,
		EventDigest: fmt.Sprintf("%#x", res.EventDigest)}, report, err
}

// finalizeLocked moves a run to its terminal state: classify, close the
// coalescing window, record latency, notify. Caller holds mu.
func (s *Server) finalizeLocked(r *run, res *Result, report []byte, err error) {
	switch {
	case err == nil:
		r.state = StateDone
		s.stats.completed.Inc()
	case r.canceled:
		r.state = StateCanceled
		s.stats.canceled.Inc()
	default:
		r.state = StateFailed
		s.stats.failed.Inc()
	}
	if res == nil {
		res = &Result{ID: r.id, Kind: r.req.kind, Digest: r.req.digest}
	}
	res.State = r.state
	res.Coalesced = r.coalesced
	if err != nil {
		res.Error = err.Error()
	}
	r.result = res
	r.reportJSON = report
	// The coalescing window closes here: a later identical submission is a
	// fresh run (results are served from the job table, not re-coalesced,
	// so completed work is never implicitly reused with stale deadlines).
	delete(s.active, r.req.digest)
	r.cancel()
	s.stats.latency.Observe(s.opts.Clock().Sub(r.enqueued).Seconds())
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	s.eventLocked(r, r.state, msg)
	close(r.done)
	s.doneIDs = append(s.doneIDs, r.id)
	for len(s.doneIDs) > s.opts.MaxCompleted {
		delete(s.jobs, s.doneIDs[0])
		s.doneIDs = s.doneIDs[1:]
	}
}

// Cancel withdraws one subscriber from a run; the run itself is canceled
// when the last subscriber leaves. Terminal runs are left untouched (their
// results stay fetchable). Returns false for unknown jobs.
func (s *Server) Cancel(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.jobs[id]
	if !ok {
		return false
	}
	if terminal(r.state) {
		return true
	}
	r.subscribers--
	if r.subscribers > 0 {
		s.eventLocked(r, r.state, "subscriber withdrew")
		return true
	}
	r.canceled = true
	r.cancel()
	if r.index >= 0 {
		// Still queued: finalize immediately instead of waiting for a
		// worker to pop a corpse.
		heap.Remove(&s.queue, r.index)
		s.finalizeLocked(r, nil, nil, context.Canceled)
		return true
	}
	// Running: the engine observes ctx cancellation and terminates; the
	// worker finalizes.
	s.eventLocked(r, r.state, "canceling")
	return true
}

// JobStatus is a run's point-in-time view (GET /v1/jobs/{id}).
type JobStatus struct {
	ID          string `json:"id"`
	Kind        string `json:"kind"`
	State       string `json:"state"`
	Digest      string `json:"digest"`
	Priority    int    `json:"priority"`
	Subscribers int    `json:"subscribers"`
	Coalesced   int    `json:"coalesced"`
	Error       string `json:"error,omitempty"`
}

// Status returns a job's current state, or nil when unknown.
func (s *Server) Status(id string) *JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.jobs[id]
	if !ok {
		return nil
	}
	st := &JobStatus{
		ID:          r.id,
		Kind:        r.req.kind,
		State:       r.state,
		Digest:      r.req.digest,
		Priority:    r.priority,
		Subscribers: r.subscribers,
		Coalesced:   r.coalesced,
	}
	if r.result != nil {
		st.Error = r.result.Error
	}
	return st
}

// Result returns a terminal run's compact outcome; nil until terminal or
// when unknown.
func (s *Server) Result(id string) *Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.jobs[id]; ok && terminal(r.state) {
		return r.result
	}
	return nil
}

// Report returns the raw RunReport bytes of a completed run (nil otherwise).
// The bytes are the same for every subscriber of a coalesced run, and — for
// deterministic configurations — byte-identical to a triosim -deterministic
// -metrics-out run of the same spec.
func (s *Server) Report(id string) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.jobs[id]; ok && r.state == StateDone {
		return r.reportJSON
	}
	return nil
}

// Wait blocks until the run reaches a terminal state or ctx is done,
// returning the result (nil on ctx expiry or unknown id).
func (s *Server) Wait(ctx context.Context, id string) *Result {
	s.mu.Lock()
	r, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil
	}
	select {
	case <-r.done:
		return s.Result(id)
	case <-ctx.Done():
		return nil
	}
}

// Stats is the server's aggregate state (GET /v1/stats).
type Stats struct {
	QueueDepth int  `json:"queue_depth"`
	InFlight   int  `json:"in_flight"`
	Draining   bool `json:"draining"`

	Submitted uint64 `json:"submitted"`
	Coalesced uint64 `json:"coalesced"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`
	Rejected  uint64 `json:"rejected"`

	TraceCache tracecache.Stats `json:"trace_cache"`
}

// Stats returns a snapshot of the aggregate counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		QueueDepth: len(s.queue),
		InFlight:   s.inFlight,
		Draining:   s.draining,
		Submitted:  uint64(s.stats.submitted.Value()),
		Coalesced:  uint64(s.stats.coalesced.Value()),
		Completed:  uint64(s.stats.completed.Value()),
		Failed:     uint64(s.stats.failed.Value()),
		Canceled:   uint64(s.stats.canceled.Value()),
		Rejected:   uint64(s.stats.rejected.Value()),
		TraceCache: s.cache.Stats(),
	}
}

// Ready reports whether the server accepts submissions.
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining
}

// Drain stops admissions and lets queued and in-flight runs finish. When ctx
// expires first, every remaining run is hard-canceled (engines terminate at
// their next cancellation poll) and Drain returns ctx's error after the
// workers exit.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.wakeLocked()
	s.mu.Unlock()

	select {
	case <-s.stopped:
		return nil
	case <-ctx.Done():
	}
	s.baseCancel()
	select {
	case <-s.stopped:
	}
	return ctx.Err()
}

// Close hard-stops the server: admissions off, every run canceled, workers
// joined. For tests and fatal shutdown paths; prefer Drain.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.wakeLocked()
	s.mu.Unlock()
	s.baseCancel()
	<-s.stopped
}

// renderReport marshals a RunReport to the bytes every subscriber receives.
// The TraceCache section is stripped first: its counters are store-wide and
// history-dependent, which would break the byte-identity guarantee between
// coalesced subscribers' fetches and the one-shot CLI (which runs cacheless).
func renderReport(rep *telemetry.RunReport) ([]byte, error) {
	if rep == nil {
		return nil, nil
	}
	cp := *rep
	cp.TraceCache = nil
	var buf bytes.Buffer
	if err := cp.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
