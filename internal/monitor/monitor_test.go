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
	m := New()
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
	m := New()
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

	m := New()
	m.Registry = reg
	m.SampleEvery = 1
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
}

func TestMetricsFallbackWithoutRegistry(t *testing.T) {
	m := New()
	eng := sim.NewSerialEngine()
	eng.RegisterHook(m.Hook())
	eng.Schedule(sim.NewFuncEvent(1, func(sim.VTime) error { return nil }))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "\ntriosim_events_total 1\n") {
		t.Fatalf("fallback /metrics missing event count:\n%s", body)
	}
}

// TestHandlerDuringRunRace hammers the HTTP surface while the engine runs and
// mutates the shared registry, so `go test -race` proves readers only ever
// touch the monitor's cached snapshot.
func TestHandlerDuringRunRace(t *testing.T) {
	reg := telemetry.NewRegistry()
	events := reg.Counter("triosim_events_total", "", "",
		"Events dispatched.")

	m := New()
	m.Registry = reg
	m.SampleEvery = 8
	m.Clock = time.Now
	eng := sim.NewSerialEngine()
	eng.RegisterHook(m.Hook())
	eng.RegisterHook(sim.HookFunc(func(ctx sim.HookCtx) {
		if ctx.Pos == sim.HookPosAfterEvent {
			events.Inc()
		}
	}))
	const nEvents = 5000
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
	m := New()
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
