package sim

// Event is something that happens at a point in virtual time. The engine
// dispatches events to their handlers in non-decreasing time order.
type Event interface {
	// Time returns the virtual time at which the event fires.
	Time() VTime

	// Handler returns the handler that processes the event.
	Handler() Handler

	// IsSecondary reports whether the event should run after all primary
	// events scheduled for the same time. Secondary events are used for
	// bookkeeping (e.g., statistics flushes) that must observe the state
	// after all same-cycle primary activity.
	IsSecondary() bool
}

// Handler processes events.
type Handler interface {
	Handle(e Event) error
}

// EventBase provides a reusable implementation of the Event interface.
// Concrete event types embed it and add their payload fields.
type EventBase struct {
	EventTime VTime
	EventHdl  Handler
	Secondary bool
}

// NewEventBase builds an EventBase for a primary event at time t handled by h.
func NewEventBase(t VTime, h Handler) EventBase {
	return EventBase{EventTime: t, EventHdl: h}
}

// Time returns the event firing time.
func (e EventBase) Time() VTime { return e.EventTime }

// Handler returns the event handler.
func (e EventBase) Handler() Handler { return e.EventHdl }

// IsSecondary reports whether the event is secondary.
func (e EventBase) IsSecondary() bool { return e.Secondary }

// HandlerFunc adapts a plain function to the Handler interface.
type HandlerFunc func(e Event) error

// Handle calls f(e).
func (f HandlerFunc) Handle(e Event) error { return f(e) }

// Caller is an event body that carries its own state. A pooled record that
// implements it is scheduled with ScheduleCall without binding a method
// value, so allocating a fresh record costs one allocation, like a closure.
type Caller interface {
	Call(now VTime) error
}

// callFunc adapts a plain event function to Caller. A func value fits in the
// interface word, so the conversion does not allocate.
type callFunc func(now VTime) error

func (f callFunc) Call(now VTime) error { return f(now) }

// funcEvent is an Event that runs a Caller when it fires. pooled marks
// events drawn from a SerialEngine's free list (via ScheduleFunc or
// ScheduleCall); the engine recycles those after dispatch, so nothing may
// retain them past the event's own handler and hooks.
//
//triosim:pooled
type funcEvent struct {
	EventBase
	body   Caller
	pooled bool
}

// runFuncEvent is every funcEvent's handler. One package-level HandlerFunc
// that reads its event's body binds no per-event method value, so
// dispatch allocates nothing, and the handler's dynamic type stays
// sim.HandlerFunc, which the replay digest folds into its event names.
var runFuncEvent HandlerFunc = func(e Event) error {
	fe := e.(*funcEvent)
	return fe.body.Call(fe.EventTime)
}

func (e *funcEvent) Handler() Handler { return runFuncEvent }

// NewFuncEvent wraps fn in an event that fires at time t. It is the most
// convenient way for components to schedule one-off future work.
func NewFuncEvent(t VTime, fn func(now VTime) error) Event {
	return &funcEvent{EventBase: EventBase{EventTime: t}, body: callFunc(fn)}
}

// NewSecondaryFuncEvent is like NewFuncEvent but the event runs after all
// primary events at the same timestamp.
func NewSecondaryFuncEvent(t VTime, fn func(now VTime) error) Event {
	return &funcEvent{
		EventBase: EventBase{EventTime: t, Secondary: true},
		body:      callFunc(fn),
	}
}

// ScheduleFunc schedules fn as a primary event at t, drawing the event object
// from eng's free list when eng is a *SerialEngine (the engine recycles it
// after dispatch). The pooled and unpooled paths schedule events of identical
// dynamic type, so the event digest — and therefore the replay gate — is
// byte-identical either way. Hot paths (the flow network, the task executor)
// use this instead of NewFuncEvent to avoid one allocation per event.
func ScheduleFunc(eng Engine, t VTime, fn func(now VTime) error) {
	ScheduleCall(eng, t, callFunc(fn))
}

// ScheduleCall is ScheduleFunc for a Caller: the event runs c.Call(now). It
// schedules the same event and handler types as ScheduleFunc, so the replay
// digest cannot tell the two apart.
func ScheduleCall(eng Engine, t VTime, c Caller) {
	if se, ok := eng.(*SerialEngine); ok {
		se.schedulePooled(t, c, false)
		return
	}
	eng.Schedule(&funcEvent{EventBase: EventBase{EventTime: t}, body: c})
}

// ScheduleSecondaryFunc is ScheduleFunc for secondary events.
func ScheduleSecondaryFunc(eng Engine, t VTime, fn func(now VTime) error) {
	if se, ok := eng.(*SerialEngine); ok {
		se.schedulePooled(t, callFunc(fn), true)
		return
	}
	eng.Schedule(NewSecondaryFuncEvent(t, fn))
}
