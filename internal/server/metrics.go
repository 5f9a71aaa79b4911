package server

import (
	"bytes"
	"net/http"
)

// handleMetrics renders the server's registry in Prometheus text format.
// The lifetime counters and the latency histogram accumulate as requests
// pass; the point-in-time gauges and the shared trace cache's counters are
// brought up to date here, under the same lock, before the render.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	s.mu.Lock()
	reg := s.stats.reg
	gauge := func(name, help string, v float64) {
		reg.Gauge(name, "", "", help).Set(v)
	}
	// counter raises a counter to an absolute total kept elsewhere.
	counter := func(name, help string, total uint64) {
		c := reg.Counter(name, "", "", help)
		c.Add(float64(total) - c.Value())
	}
	draining := 0.0
	if s.draining {
		draining = 1
	}
	gauge("triosim_server_queue_depth",
		"Queued (not yet running) simulation requests.", float64(len(s.queue)))
	gauge("triosim_server_in_flight",
		"Simulations currently executing.", float64(s.inFlight))
	gauge("triosim_server_draining",
		"Whether the server is draining (1) or accepting (0).", draining)
	cache := s.cache.Stats()
	gauge("triosim_tracecache_traces",
		"Traces resident in the shared cache.", float64(cache.Traces))
	gauge("triosim_tracecache_timers",
		"Fitted operator timers resident in the shared cache.",
		float64(cache.Timers))
	gauge("triosim_tracecache_bytes",
		"Approximate retained bytes of cached traces.", float64(cache.Bytes))
	counter("triosim_tracecache_trace_hits_total",
		"Trace lookups served from the shared cache.", cache.TraceHits)
	counter("triosim_tracecache_trace_misses_total",
		"Trace builds executed.", cache.TraceMisses)
	counter("triosim_tracecache_timer_hits_total",
		"Timer lookups served from the shared cache.", cache.TimerHits)
	counter("triosim_tracecache_timer_misses_total",
		"Timer fits executed.", cache.TimerMisses)
	reg.WriteProm(&buf)
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write(buf.Bytes())
}
