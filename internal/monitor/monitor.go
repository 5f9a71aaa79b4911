// Package monitor provides an AkitaRTM-style real-time monitoring surface
// for running simulations: an engine hook collects progress (virtual-time
// frontier, events dispatched), and an HTTP handler exposes it as JSON so a
// dashboard — or plain curl — can watch a long simulation from outside, the
// way AkitaRTM watches Akita simulations.
//
// When a telemetry.Registry is attached, the same handler also serves a
// Prometheus text-format /metrics endpoint: the engine hook renders the
// registry into a cached byte snapshot every SampleEvery events (on the
// engine goroutine, so registry access needs no locking), and HTTP readers
// only ever touch the cache under the monitor's mutex. Wall-clock rates
// (events/second) are computed here, at the monitoring boundary, from the
// injectable Clock — the simulation packages themselves never read the host
// clock (triosimvet: no-wallclock).
package monitor

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"triosim/internal/sim"
	"triosim/internal/telemetry"
)

// Snapshot is one observation of a running simulation.
type Snapshot struct {
	VirtualTimeSec float64 `json:"virtual_time_sec"`
	Events         uint64  `json:"events"`
	// EventsPerSecond is the wall-clock dispatch rate over the last sampling
	// window (zero unless Clock is set).
	EventsPerSecond float64 `json:"events_per_second,omitempty"`
	Done            bool    `json:"done"`
}

// defaultSampleEvery balances /metrics freshness against render cost: one
// registry render per ~4k dispatched events.
const defaultSampleEvery = 4096

// RTM is a thread-safe simulation monitor. Register its Hook on the engine
// before Run; serve its Handler from any goroutine.
type RTM struct {
	mu        sync.Mutex
	snapshot  Snapshot
	promCache []byte
	// Wall-rate state (engine goroutine only).
	lastWall   time.Time
	lastEvents uint64

	// Registry optionally attaches a telemetry registry; when set, /metrics
	// serves its Prometheus rendering. Set before Run; the hook reads it on
	// the engine goroutine.
	Registry *telemetry.Registry
	// Clock supplies wall-clock readings for the events/second rate. Nil
	// leaves the rate zero (deterministic runs).
	Clock func() time.Time
	// SampleEvery is how many dispatched events pass between /metrics cache
	// refreshes (default 4096).
	SampleEvery uint64
}

// New returns an empty monitor.
func New() *RTM {
	return &RTM{}
}

// Hook returns the engine hook feeding this monitor.
func (m *RTM) Hook() sim.Hook {
	return sim.HookFunc(func(ctx sim.HookCtx) {
		if ctx.Pos != sim.HookPosAfterEvent {
			return
		}
		m.mu.Lock()
		m.snapshot.Events++
		m.snapshot.VirtualTimeSec = float64(ctx.Now)
		events := m.snapshot.Events
		m.mu.Unlock()

		every := m.SampleEvery
		if every == 0 {
			every = defaultSampleEvery
		}
		if events%every == 0 {
			m.refresh(events)
		}
	})
}

// refresh re-renders the /metrics cache and the wall-clock rate. Called on
// the engine goroutine only (registry access is unsynchronized by design).
func (m *RTM) refresh(events uint64) {
	var rate float64
	if m.Clock != nil {
		now := m.Clock()
		if !m.lastWall.IsZero() {
			if dt := now.Sub(m.lastWall).Seconds(); dt > 0 {
				rate = float64(events-m.lastEvents) / dt
			}
		}
		m.lastWall, m.lastEvents = now, events
	}
	var cache []byte
	if m.Registry != nil {
		var buf bytes.Buffer
		m.Registry.WriteProm(&buf)
		cache = buf.Bytes()
	}
	m.mu.Lock()
	if rate > 0 {
		m.snapshot.EventsPerSecond = rate
	}
	if cache != nil {
		m.promCache = cache
	}
	m.mu.Unlock()
}

// MarkDone flags the simulation as complete and renders the final /metrics
// snapshot. Call it from the goroutine that ran the engine.
func (m *RTM) MarkDone() {
	m.mu.Lock()
	events := m.snapshot.Events
	m.mu.Unlock()
	m.refresh(events)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.snapshot.Done = true
}

// Snapshot returns a copy of the current state.
func (m *RTM) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapshot
}

// writeMetrics renders the Prometheus text response: the cached registry
// rendering (when attached) followed by the monitor's own gauges. With no
// registry it falls back to a minimal rendering of the snapshot so /metrics
// stays useful on bare monitors; per-kind event counts come only from the
// registry's triosim_events_total{kind} series. All families register
// through a shared telemetry.PromText, so a registry that already exports
// one of the monitor's family names cannot duplicate it in the exposition.
func (m *RTM) writeMetrics(w http.ResponseWriter) {
	m.mu.Lock()
	cache := m.promCache
	snap := m.snapshot
	m.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	p := telemetry.NewPromText()
	if cache != nil {
		p.Raw(cache)
	} else if p.Header("triosim_events_total", "counter",
		"Events dispatched by the engine.") {
		p.Samplef("triosim_events_total %d", snap.Events)
	}
	p.Gauge("triosim_monitor_virtual_time_seconds",
		"Virtual-time frontier seen by the monitor.", snap.VirtualTimeSec)
	p.Gauge("triosim_monitor_events_per_second",
		"Wall-clock event dispatch rate (last window).", snap.EventsPerSecond)
	done := 0.0
	if snap.Done {
		done = 1
	}
	p.Gauge("triosim_monitor_done", "Whether the simulation finished.", done)
	_, _ = w.Write(p.Bytes())
}

// Handler serves the monitoring endpoints:
//
//	GET /status  — the JSON Snapshot
//	GET /metrics — Prometheus text format (registry + monitor gauges)
//	GET /healthz — 200 ok
func (m *RTM) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(m.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		m.writeMetrics(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok"))
	})
	return mux
}

// Serve blocks serving the monitor on addr (e.g. ":8080").
func (m *RTM) Serve(addr string) error {
	return http.ListenAndServe(addr, m.Handler())
}
