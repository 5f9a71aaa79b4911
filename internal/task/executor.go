package task

import (
	"fmt"

	"triosim/internal/network"
	"triosim/internal/sim"
	"triosim/internal/timeline"
)

// Observer is notified when a task finishes: resource-occupying tasks
// (compute, comm, hostload) with their occupancy interval, and instantaneous
// or waiting tasks (barriers, delays) with their resolution window. It must
// be side-effect-free with respect to the event schedule: observers may
// record but never call Schedule, so the dispatched schedule (and the replay
// digest) is identical with or without them.
type Observer interface {
	TaskDone(t *Task, start, end sim.VTime)
}

// Observers fans TaskDone out to a list, in registration order. The
// executor notifies through one, and the serving layer uses one to report
// its synthesized per-step tasks to the telemetry collector and the span
// recorder.
type Observers []Observer

// TaskDone notifies every observer.
func (os Observers) TaskDone(t *Task, start, end sim.VTime) {
	for _, o := range os {
		o.TaskDone(t, start, end)
	}
}

// Executor runs a task graph on the event engine: compute tasks occupy their
// GPU's compute stream serially (in ready order), communication tasks go to
// the network model (which shares bandwidth among concurrent transfers), and
// barriers resolve instantly. It sums each resource kind's busy time as it
// runs (BusyTime) and, when given an interval log, records every compute,
// comm and host-load activity on it.
type Executor struct {
	eng   sim.Engine
	net   network.Network
	graph *Graph
	tl    *timeline.Timeline
	obs   Observers

	// busy holds the Compute, Comm and HostLoad occupancy counters, indexed
	// by Kind.
	busy [HostLoad + 1]busyCounter

	// GPUTime, when set, is told every task's start and finish, and so
	// keeps each GPU's time partition. Set before Run.
	GPUTime *GPUTime

	// Stretch optionally scales compute-task durations per GPU: a task
	// starting at time at on gpu runs for Duration×Stretch(gpu, at). The
	// factor is sampled once at task start and applies to the whole task
	// (fault injection's straggler model). A return of 1 leaves the task
	// untouched — bit-identical to Stretch being nil. Set before Run.
	Stretch func(gpu int, at sim.VTime) float64

	indeg     []int32
	remaining int
	// lanes holds per-GPU compute state, indexed by GPU and sized once by Run
	// from the largest compute GPU. A slice instead of a map: GPU indices are
	// small and dense, and the reusable deque keeps the steady-state
	// ready/complete cycle allocation-free.
	lanes []laneState
	// free recycles completion records (see doneRec). Single-goroutine by the
	// engine contract, so a plain slice suffices.
	free []*doneRec

	startTime sim.VTime
	lastEnd   sim.VTime
}

// laneState is one GPU's compute stream: a head-indexed FIFO whose backing
// array is reused once drained, plus the busy flag and the interval log's
// lane name (cached only when the executor records intervals).
type laneState struct {
	queue []*Task
	head  int
	busy  bool
	name  string
}

// doneRec is a pooled completion record: it replaces the per-task closures
// the executor used to allocate for every compute, delay, and communication
// completion. The method values onTimer/onComm are bound once when the
// record is first allocated and reused across recycles, so steady-state
// dispatch allocates nothing.
//
//triosim:pooled
type doneRec struct {
	x     *Executor
	t     *Task
	gpu   int
	start sim.VTime
	delay bool

	onTimer func(now sim.VTime) error
	onComm  func(end sim.VTime)
}

// NewExecutor prepares an executor; call Run to execute. tl is an optional
// interval log: nil records nothing.
func NewExecutor(eng sim.Engine, net network.Network, g *Graph,
	tl *timeline.Timeline) *Executor {
	return &Executor{
		eng:   eng,
		net:   net,
		graph: g,
		tl:    tl,
	}
}

// Observe registers an observer; call before Run.
func (x *Executor) Observe(o Observer) {
	x.obs = append(x.obs, o)
}

// notify reports a finished resource-occupying task to every observer.
func (x *Executor) notify(t *Task, start, end sim.VTime) {
	x.obs.TaskDone(t, start, end)
}

// BusyTime returns the union time during which at least one task of kind k
// (Compute, Comm or HostLoad) was running: the value
// timeline.UnionTime(timeline.ByPhase(k.String())) gives over the same run's
// interval log, bit for bit. Read it after Run.
func (x *Executor) BusyTime(k Kind) sim.VTime {
	return x.busy[k].sum()
}

// lane returns gpu's lane, naming it on first use when the executor records
// intervals.
func (x *Executor) lane(gpu int) *laneState {
	l := &x.lanes[gpu]
	if l.name == "" && x.tl != nil {
		l.name = fmt.Sprintf("gpu%d", gpu)
	}
	return l
}

// getRec pops a recycled completion record (or allocates the pool's next).
func (x *Executor) getRec() *doneRec {
	if n := len(x.free); n > 0 {
		r := x.free[n-1]
		x.free[n-1] = nil
		x.free = x.free[:n-1]
		return r
	}
	r := &doneRec{x: x}
	r.onTimer = r.timerDone
	r.onComm = r.commDone
	return r
}

// putRec returns a record whose completion has fired. Callers copy every
// field they need before releasing: the record may be reacquired by tasks
// started later in the same completion.
func (x *Executor) putRec(r *doneRec) {
	r.t = nil
	x.free = append(x.free, r)
}

// Run executes the whole graph and returns the makespan (the virtual time
// from start to the last task's completion).
func (x *Executor) Run() (sim.VTime, error) {
	g := x.graph
	indeg, err := g.validate()
	if err != nil {
		return 0, err
	}
	x.indeg = g.indegrees(indeg)
	x.remaining = g.Len()
	maxGPU := -1
	for _, chunk := range g.chunks {
		for i := range chunk {
			if t := &chunk[i]; t.Kind == Compute && t.GPU > maxGPU {
				maxGPU = t.GPU
			}
		}
	}
	x.lanes = make([]laneState, maxGPU+1)
	x.startTime = x.eng.CurrentTime()
	x.lastEnd = x.startTime

	sim.ScheduleFunc(x.eng, x.startTime, func(now sim.VTime) error {
		// The initial ready set is read off the frozen dependency lists, not
		// the live indegrees: instantaneous tasks (e.g. barriers) completing
		// inside ready() may zero further indegrees, and those tasks are
		// dispatched by complete(), not this loop.
		for id := 0; id < g.Len(); id++ {
			if len(g.deps.row(id)) == 0 {
				x.ready(g.Task(id), now)
			}
		}
		return nil
	})
	if err := x.eng.Run(); err != nil {
		return 0, err
	}
	if x.remaining != 0 {
		return 0, fmt.Errorf("task: executor stalled with %d tasks pending",
			x.remaining)
	}
	return x.lastEnd - x.startTime, nil
}

// ready dispatches a task whose dependencies have all resolved.
func (x *Executor) ready(t *Task, now sim.VTime) {
	switch t.Kind {
	case Compute:
		l := x.lane(t.GPU)
		l.queue = append(l.queue, t)
		if !l.busy {
			x.startNextCompute(t.GPU, now)
		}
	case Comm, HostLoad:
		x.busy[t.Kind].start(now)
		x.GPUTime.Start(t, now)
		r := x.getRec()
		r.t, r.start = t, now
		x.net.Send(t.Src, t.Dst, t.Bytes, r.onComm)
	case Barrier:
		x.notify(t, now, now)
		x.complete(t, now)
	case Delay:
		r := x.getRec()
		r.t, r.start, r.delay = t, now, true
		sim.ScheduleFunc(x.eng, now+t.Duration, r.onTimer)
	}
}

// startNextCompute pops the GPU's ready queue and occupies the stream.
func (x *Executor) startNextCompute(gpu int, now sim.VTime) {
	l := x.lane(gpu)
	if l.head >= len(l.queue) {
		return
	}
	t := l.queue[l.head]
	l.queue[l.head] = nil
	l.head++
	if l.head == len(l.queue) {
		l.queue = l.queue[:0]
		l.head = 0
	}
	l.busy = true
	x.busy[Compute].start(now)
	x.GPUTime.Start(t, now)
	dur := t.Duration
	if x.Stretch != nil {
		if f := x.Stretch(gpu, now); f != 1 {
			dur = sim.VTime(float64(dur) * f)
		}
	}
	r := x.getRec()
	r.t, r.gpu, r.start, r.delay = t, gpu, now, false
	sim.ScheduleFunc(x.eng, now+dur, r.onTimer)
}

// timerDone completes a compute or delay task when its scheduled end fires.
func (r *doneRec) timerDone(done sim.VTime) error {
	x, t, gpu, start, delay := r.x, r.t, r.gpu, r.start, r.delay
	x.putRec(r)
	if delay {
		x.notify(t, start, done)
		x.complete(t, done)
		return nil
	}
	x.busy[Compute].end(done)
	x.GPUTime.Finish(t, done)
	if x.tl != nil {
		x.tl.Add(x.lane(gpu).name, t.Label(), "compute", start, done)
	}
	x.notify(t, start, done)
	x.lane(gpu).busy = false
	x.complete(t, done)
	x.startNextCompute(gpu, done)
	return nil
}

// commDone completes a communication task when the network model reports the
// transfer finished.
func (r *doneRec) commDone(end sim.VTime) {
	x, t, start := r.x, r.t, r.start
	x.putRec(r)
	x.busy[t.Kind].end(end)
	x.GPUTime.Finish(t, end)
	if x.tl != nil {
		x.tl.Add("net", t.Label(), t.Kind.String(), start, end)
	}
	x.notify(t, start, end)
	x.complete(t, end)
}

// complete resolves a finished task and releases its dependents.
func (x *Executor) complete(t *Task, now sim.VTime) {
	x.remaining--
	if now.After(x.lastEnd) {
		x.lastEnd = now
	}
	for _, depID := range x.graph.dependents.row(t.ID) {
		x.indeg[depID]--
		if x.indeg[depID] == 0 {
			x.ready(x.graph.Task(int(depID)), now)
		}
	}
}
