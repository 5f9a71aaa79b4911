package monitor

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"triosim/internal/sim"
	"triosim/internal/telemetry"
)

func TestHookCollectsProgress(t *testing.T) {
	m := New(telemetry.NewRegistry())
	eng := sim.NewSerialEngine()
	eng.RegisterHook(m.Hook())
	for i := 1; i <= 5; i++ {
		eng.Schedule(sim.NewFuncEvent(sim.VTime(i), func(sim.VTime) error {
			return nil
		}))
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	m.MarkDone()
	snap := m.Snapshot()
	if snap.Events != 5 {
		t.Fatalf("events = %d", snap.Events)
	}
	if snap.VirtualTimeSec != 5 {
		t.Fatalf("virtual time = %v", snap.VirtualTimeSec)
	}
	if !snap.Done {
		t.Fatal("done flag missing")
	}
}

func TestHTTPStatus(t *testing.T) {
	m := New(telemetry.NewRegistry())
	eng := sim.NewSerialEngine()
	eng.RegisterHook(m.Hook())
	eng.Schedule(sim.NewFuncEvent(2, func(sim.VTime) error { return nil }))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Events != 1 || snap.VirtualTimeSec != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}

	h, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != 200 {
		t.Fatalf("healthz = %d", h.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("triosim_events_total", "kind", "FuncEvent",
		"Events dispatched.").Add(7)

	m := New(reg)
	m.Clock = time.Now
	eng := sim.NewSerialEngine()
	eng.RegisterHook(m.Hook())
	eng.Schedule(sim.NewFuncEvent(1, func(sim.VTime) error { return nil }))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	m.MarkDone()

	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE triosim_events_total counter",
		`triosim_events_total{kind="FuncEvent"} 7`,
		"triosim_monitor_virtual_time_seconds 1",
		"triosim_monitor_done 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	types := map[string]int{}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			types[name]++
		}
	}
	for _, name := range []string{"triosim_events_total",
		"triosim_monitor_virtual_time_seconds",
		"triosim_monitor_events_per_second", "triosim_monitor_done"} {
		if types[name] != 1 {
			t.Errorf("# TYPE %s appears %d times, want 1", name, types[name])
		}
	}
	if len(types) != 4 {
		t.Errorf("families = %v, want the registry's and the monitor's 3",
			types)
	}
}

// TestServeTimeouts checks the monitor's listener bounds header reads and
// idle connections the way the daemon's does.
func TestServeTimeouts(t *testing.T) {
	s := New(telemetry.NewRegistry()).httpServer("127.0.0.1:0")
	if s.Addr != "127.0.0.1:0" || s.Handler == nil {
		t.Fatalf("server addr %q, handler %v", s.Addr, s.Handler)
	}
	if s.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", s.ReadHeaderTimeout)
	}
	if s.IdleTimeout != 2*time.Minute {
		t.Errorf("IdleTimeout = %v, want 2m", s.IdleTimeout)
	}
	if s.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0", s.WriteTimeout)
	}
}

// TestHandlerDuringRunRace hammers the HTTP surface while the engine runs and
// mutates the shared registry, so `go test -race` proves readers only ever
// touch the monitor's cached snapshot.
func TestHandlerDuringRunRace(t *testing.T) {
	reg := telemetry.NewRegistry()
	events := reg.Counter("triosim_events_total", "", "",
		"Events dispatched.")

	m := New(reg)
	m.Clock = time.Now
	eng := sim.NewSerialEngine()
	eng.RegisterHook(m.Hook())
	eng.RegisterHook(sim.HookFunc(func(ctx sim.HookCtx) {
		if ctx.Pos == sim.HookPosAfterEvent {
			events.Inc()
		}
	}))
	// Enough events to cross the fixed refresh interval several times.
	const nEvents = 5*sampleEvery + 100
	var schedule func(i int)
	schedule = func(i int) {
		if i >= nEvents {
			return
		}
		eng.Schedule(sim.NewFuncEvent(sim.VTime(i), func(sim.VTime) error {
			schedule(i + 1)
			return nil
		}))
	}
	schedule(0)

	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/metrics", "/status"} {
					resp, err := srv.Client().Get(srv.URL + path)
					if err != nil {
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	m.MarkDone()
	close(stop)
	wg.Wait()

	if got := m.Snapshot().Events; got != nEvents {
		t.Fatalf("events = %d, want %d", got, nEvents)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	m := New(telemetry.NewRegistry())
	eng := sim.NewSerialEngine()
	eng.RegisterHook(m.Hook())
	eng.Schedule(sim.NewFuncEvent(1, func(sim.VTime) error { return nil }))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	snap.Events = 999
	if m.Snapshot().Events == 999 {
		t.Fatal("snapshot shares internal state")
	}
}
