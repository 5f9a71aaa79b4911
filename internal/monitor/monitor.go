// Package monitor provides an AkitaRTM-style real-time monitoring surface
// for running simulations: an engine hook collects progress (virtual-time
// frontier, events dispatched), and an HTTP handler exposes it as JSON so a
// dashboard — or plain curl — can watch a long simulation from outside, the
// way AkitaRTM watches Akita simulations.
//
// Every monitor watches a run's telemetry.Registry and serves it as a
// Prometheus text-format /metrics endpoint: the engine hook renders the
// registry into a cached byte snapshot every sampleEvery events (on the
// engine goroutine, so registry access needs no locking), and HTTP readers
// only ever touch the cache under the monitor's mutex. The monitor's own
// gauges render through a per-request registry appended after the cache.
// Wall-clock rates (events/second) are computed here, at the monitoring
// boundary, from the injectable Clock — the simulation packages themselves
// never read the host clock (triosimvet: no-wallclock).
package monitor

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"triosim/internal/httpserve"
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

// sampleEvery balances /metrics freshness against render cost: one
// registry render per ~4k dispatched events.
const sampleEvery = 4096

// RTM is a thread-safe simulation monitor. Register its Hook on the engine
// before Run; serve its Handler from any goroutine.
type RTM struct {
	mu        sync.Mutex
	snapshot  Snapshot
	promCache []byte
	// Wall-rate state (engine goroutine only).
	lastWall   time.Time
	lastEvents uint64

	// reg is the run's registry, read only on the engine goroutine.
	reg *telemetry.Registry

	// Clock supplies wall-clock readings for the events/second rate. Nil
	// leaves the rate zero (deterministic runs).
	Clock func() time.Time
}

// New returns a monitor serving reg, the registry the watched run writes.
func New(reg *telemetry.Registry) *RTM {
	return &RTM{reg: reg}
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

		if events%sampleEvery == 0 {
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
	var buf bytes.Buffer
	m.reg.WriteProm(&buf)
	m.mu.Lock()
	if rate > 0 {
		m.snapshot.EventsPerSecond = rate
	}
	m.promCache = buf.Bytes()
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
// rendering (empty until the first refresh) followed by the monitor's own
// gauges, rendered through a per-request registry.
func (m *RTM) writeMetrics(w http.ResponseWriter) {
	m.mu.Lock()
	cache := m.promCache
	snap := m.snapshot
	m.mu.Unlock()

	own := telemetry.NewRegistry()
	gauge := func(name, help string, v float64) {
		own.Gauge(name, "", "", help).Set(v)
	}
	gauge("triosim_monitor_virtual_time_seconds",
		"Virtual-time frontier seen by the monitor.", snap.VirtualTimeSec)
	gauge("triosim_monitor_events_per_second",
		"Wall-clock event dispatch rate (last window).", snap.EventsPerSecond)
	done := 0.0
	if snap.Done {
		done = 1
	}
	gauge("triosim_monitor_done", "Whether the simulation finished.", done)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write(cache)
	_ = own.WriteProm(w)
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

// Serve blocks serving the monitor on addr (e.g. ":8080"), with the
// header-read and idle timeouts of every TrioSim listener.
func (m *RTM) Serve(addr string) error {
	return m.httpServer(addr).ListenAndServe()
}

func (m *RTM) httpServer(addr string) *http.Server {
	return httpserve.New(addr, m.Handler())
}
