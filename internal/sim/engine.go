package sim

import (
	"errors"
	"fmt"
)

// Engine schedules and dispatches events in virtual-time order.
type Engine interface {
	// Schedule enqueues an event. Scheduling an event earlier than the
	// current time is an error surfaced by Run.
	Schedule(e Event)

	// Run dispatches events until the queue drains, an error occurs, or the
	// engine is terminated. It may be called repeatedly: each call continues
	// from the current virtual time.
	Run() error

	// CurrentTime returns the virtual time of the most recently dispatched
	// event (0 before any event runs).
	CurrentTime() VTime

	// Terminate makes Run return after the in-flight event completes. The
	// remaining queue is preserved, so Run can resume.
	Terminate()

	// EventCount returns the total number of events dispatched so far.
	EventCount() uint64
}

// SerialEngine is a single-goroutine Engine. All simulated components run in
// the goroutine that calls Run, so they need no internal locking.
type SerialEngine struct {
	queue      eventQueue
	now        VTime
	dispatched uint64
	terminated bool
	hooks      []Hook
	started    bool
	highWater  int
	// free is the funcEvent recycling pool for ScheduleFunc. Single-goroutine
	// by the engine contract, so a plain slice suffices (and a shared
	// sync.Pool would violate no-goroutine-in-sim anyway).
	free []*funcEvent
}

// NewSerialEngine returns an empty engine at virtual time 0.
func NewSerialEngine() *SerialEngine {
	return &SerialEngine{}
}

var _ Engine = (*SerialEngine)(nil)

// ErrPastEvent is wrapped by Run's error when an event was scheduled in the
// virtual past.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// Schedule enqueues e.
//
//triosim:hotpath
func (eng *SerialEngine) Schedule(e Event) {
	eng.queue.push(e.Time(), e.IsSecondary(), e)
	if p := eng.queue.len(); p > eng.highWater {
		eng.highWater = p
	}
}

// schedulePooled enqueues body wrapped in a recycled (or new) funcEvent. The
// event returns to the free list after its dispatch completes.
func (eng *SerialEngine) schedulePooled(t VTime, body Caller, secondary bool) {
	var fe *funcEvent
	if n := len(eng.free); n > 0 {
		fe = eng.free[n-1]
		eng.free[n-1] = nil
		eng.free = eng.free[:n-1]
	} else {
		fe = &funcEvent{}
	}
	fe.EventBase = EventBase{EventTime: t, Secondary: secondary}
	fe.body = body
	fe.pooled = true
	eng.Schedule(fe)
}

// recycle returns a dispatched pooled event to the free list. Hooks have
// already run; by contract neither hooks nor handlers retain the event.
func (eng *SerialEngine) recycle(e Event) {
	fe, ok := e.(*funcEvent)
	if !ok || !fe.pooled {
		return
	}
	fe.pooled = false
	fe.body = nil
	eng.free = append(eng.free, fe)
}

// CurrentTime returns the time of the last dispatched event.
func (eng *SerialEngine) CurrentTime() VTime { return eng.now }

// EventCount returns the number of events dispatched so far.
func (eng *SerialEngine) EventCount() uint64 { return eng.dispatched }

// Terminate stops Run after the current event.
func (eng *SerialEngine) Terminate() { eng.terminated = true }

// Pending returns the number of events waiting to be dispatched.
func (eng *SerialEngine) Pending() int { return eng.queue.len() }

// QueueHighWater returns the largest Pending value observed so far — the
// peak number of events simultaneously waiting in the engine.
func (eng *SerialEngine) QueueHighWater() int { return eng.highWater }

// RegisterHook adds a hook invoked around every event dispatch.
func (eng *SerialEngine) RegisterHook(h Hook) {
	eng.hooks = append(eng.hooks, h)
}

// Run dispatches events until the queue is empty or Terminate is called.
// Each event leaves the queue as it is dispatched, so a handler error or
// Terminate leaves every undispatched event queued for a later Run.
//
//triosim:hotpath
func (eng *SerialEngine) Run() error {
	eng.terminated = false
	for eng.queue.len() > 0 && !eng.terminated {
		t, e := eng.queue.pop()
		if eng.started && t < eng.now {
			return fmt.Errorf("%w: event at %v, now %v", //triosim:nolint hotpath-alloc -- cold error path: a past-dated event aborts the run
				ErrPastEvent, t, eng.now)
		}
		eng.started = true
		eng.now = t
		eng.dispatched++

		for _, h := range eng.hooks {
			h.Func(HookCtx{Pos: HookPosBeforeEvent, Now: eng.now, Item: e})
		}
		if err := dispatch(e); err != nil {
			return err
		}
		for _, h := range eng.hooks {
			h.Func(HookCtx{Pos: HookPosAfterEvent, Now: eng.now, Item: e})
		}
		eng.recycle(e)
	}
	return nil
}

func dispatch(e Event) error {
	h := e.Handler()
	if h == nil {
		return fmt.Errorf("sim: event at %v has nil handler", e.Time())
	}
	return h.Handle(e)
}
