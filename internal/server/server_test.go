package server

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"triosim/internal/config"
	"triosim/internal/core"
	"triosim/internal/faults"
	"triosim/internal/serving"
)

// newIdle builds a server whose worker pool is NOT started, so tests can
// assert on queue and coalescing state with no scheduling races, then drive
// execution deterministically with step().
func newIdle(opts Options) *Server {
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
	close(s.stopped) // no workers to join; Close must not block
	return s
}

// step runs one queued job to completion on the calling goroutine (the
// worker loop's body, minus the blocking).
func (s *Server) step() bool {
	r, _, stop := s.next()
	if stop || r == nil {
		return false
	}
	res, report, err := s.execute(r)
	s.mu.Lock()
	s.inFlight--
	s.finalizeLocked(r, res, report, err)
	s.mu.Unlock()
	return true
}

func simRequest(globalBatch int) *Request {
	return &Request{Run: &config.RunSpec{
		Model:       "resnet18",
		Platform:    "P1",
		Parallelism: "ddp",
		TraceBatch:  32,
		GlobalBatch: globalBatch,
	}}
}

func TestCoalesceIdenticalRequests(t *testing.T) {
	s := newIdle(Options{})
	defer s.Close()

	a1, err := s.Submit(simRequest(64))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.Submit(simRequest(64))
	if err != nil {
		t.Fatal(err)
	}
	a3, err := s.Submit(simRequest(128))
	if err != nil {
		t.Fatal(err)
	}
	if a1.Coalesced {
		t.Fatal("first submission cannot coalesce")
	}
	if !a2.Coalesced || a2.ID != a1.ID || a2.Digest != a1.Digest {
		t.Fatalf("identical request did not coalesce: %+v vs %+v", a2, a1)
	}
	if a3.Coalesced || a3.ID == a1.ID {
		t.Fatalf("distinct request coalesced: %+v", a3)
	}
	st := s.Stats()
	if st.QueueDepth != 2 || st.Coalesced != 1 || st.Submitted != 3 {
		t.Fatalf("stats after coalesce: %+v", st)
	}

	for s.step() {
	}
	res := s.Result(a1.ID)
	if res == nil || res.State != StateDone {
		t.Fatalf("coalesced run did not complete: %+v", res)
	}
	if res.Coalesced != 1 {
		t.Fatalf("result reports %d coalesced joins, want 1", res.Coalesced)
	}
	// Both subscribers fetch through the same job id; the report must exist
	// and be stable across fetches.
	r1, r2 := s.Report(a1.ID), s.Report(a2.ID)
	if r1 == nil || !bytes.Equal(r1, r2) {
		t.Fatal("subscribers saw different report bytes")
	}
}

// A submission identical to a COMPLETED run must start a fresh run: the
// coalescing window is queued+running only.
func TestCoalesceWindowClosesAtCompletion(t *testing.T) {
	s := newIdle(Options{})
	defer s.Close()

	a1, err := s.Submit(simRequest(64))
	if err != nil {
		t.Fatal(err)
	}
	for s.step() {
	}
	a2, err := s.Submit(simRequest(64))
	if err != nil {
		t.Fatal(err)
	}
	if a2.Coalesced || a2.ID == a1.ID {
		t.Fatalf("submission coalesced with a completed run: %+v", a2)
	}
	for s.step() {
	}
	b1, b2 := s.Report(a1.ID), s.Report(a2.ID)
	if b1 == nil || b2 == nil {
		t.Fatal("missing reports")
	}
	// Same configuration ⇒ byte-identical reports even across separate runs
	// (determinism), including the embedded event digest.
	if !bytes.Equal(b1, b2) {
		t.Fatal("two runs of the same config produced different report bytes")
	}
}

func TestAdmissionQueueFullAndDraining(t *testing.T) {
	s := newIdle(Options{MaxQueue: 2})
	defer s.Close()

	if _, err := s.Submit(simRequest(32)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(simRequest(64)); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit(simRequest(128))
	se, ok := err.(*StatusError)
	if !ok || se.Code != 429 || se.RetryAfter <= 0 {
		t.Fatalf("full queue: got %v, want 429 with Retry-After", err)
	}
	// Joining a queued run bypasses admission: it adds no work.
	ack, err := s.Submit(simRequest(64))
	if err != nil || !ack.Coalesced {
		t.Fatalf("coalescing join rejected at full queue: %v %+v", err, ack)
	}

	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	_, err = s.Submit(simRequest(256))
	se, ok = err.(*StatusError)
	if !ok || se.Code != 503 || se.RetryAfter <= 0 {
		t.Fatalf("draining: got %v, want 503 with Retry-After", err)
	}
}

func TestInvalidRequests(t *testing.T) {
	s := newIdle(Options{})
	defer s.Close()
	for name, req := range map[string]*Request{
		"empty":         {},
		"both":          {Run: simRequest(0).Run, Serve: &ServeSpec{}},
		"no model":      {Run: &config.RunSpec{Platform: "P1", Parallelism: "ddp"}},
		"trace file":    {Run: &config.RunSpec{Model: "resnet18", Platform: "P1", Parallelism: "ddp", TraceFile: "/etc/passwd"}},
		"bad platform":  {Run: &config.RunSpec{Model: "resnet18", Platform: "P9", Parallelism: "ddp"}},
		"bad kind":      {Kind: "emulate", Run: simRequest(0).Run},
		"serve nomodel": {Serve: &ServeSpec{Platform: "P1"}},
		"bad faults": {Run: simRequest(0).Run,
			Faults: &faults.Spec{Events: []faults.EventSpec{{Kind: "nonsense"}}}},
	} {
		_, err := s.Submit(req)
		se, ok := err.(*StatusError)
		if !ok || se.Code != 400 {
			t.Errorf("%s: got %v, want 400", name, err)
		}
	}
	if st := s.Stats(); st.Rejected == 0 {
		t.Fatal("rejections not counted")
	}
}

func TestDeadlineWhileQueued(t *testing.T) {
	s := newIdle(Options{})
	defer s.Close()
	ack, err := s.Submit(&Request{Run: simRequest(64).Run, DeadlineMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Let the 1ms budget lapse entirely inside the queue.
	time.Sleep(10 * time.Millisecond)
	for s.step() {
	}
	res := s.Result(ack.ID)
	if res == nil || res.State != StateFailed {
		t.Fatalf("expired-in-queue run: %+v, want failed", res)
	}
	if !strings.Contains(res.Error, "deadline") {
		t.Fatalf("error %q does not name the deadline", res.Error)
	}
	if st := s.Stats(); st.Failed != 1 {
		t.Fatalf("stats: %+v, want one failure", st)
	}
}

func TestCancelSubscriberSemantics(t *testing.T) {
	s := newIdle(Options{})
	defer s.Close()
	a1, _ := s.Submit(simRequest(64))
	a2, _ := s.Submit(simRequest(64))
	if !a2.Coalesced {
		t.Fatal("setup: expected coalesce")
	}
	// First cancel only withdraws one subscriber; the run survives.
	if !s.Cancel(a1.ID) {
		t.Fatal("cancel of live job returned false")
	}
	if st := s.Status(a1.ID); st == nil || st.State != StateQueued ||
		st.Subscribers != 1 {
		t.Fatalf("after first cancel: %+v", st)
	}
	// Last subscriber out cancels the run; queued runs finalize immediately.
	if !s.Cancel(a2.ID) {
		t.Fatal("second cancel returned false")
	}
	st := s.Status(a1.ID)
	if st == nil || st.State != StateCanceled {
		t.Fatalf("after last cancel: %+v", st)
	}
	if s.Cancel("nope") {
		t.Fatal("cancel of unknown job returned true")
	}
	if stats := s.Stats(); stats.Canceled != 1 || stats.QueueDepth != 0 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestPriorityOrderAndCoalesceBump(t *testing.T) {
	s := newIdle(Options{})
	defer s.Close()
	low, _ := s.Submit(&Request{Run: simRequest(32).Run, Priority: 0})
	high, _ := s.Submit(&Request{Run: simRequest(64).Run, Priority: 5})
	mid, _ := s.Submit(&Request{Run: simRequest(128).Run, Priority: 3})
	// A coalescing join with higher priority promotes the queued run.
	bump, _ := s.Submit(&Request{Run: simRequest(128).Run, Priority: 9})
	if !bump.Coalesced || bump.ID != mid.ID {
		t.Fatalf("bump join: %+v", bump)
	}

	var order []string
	for {
		r, _, _ := s.next()
		if r == nil {
			break
		}
		s.mu.Lock()
		s.inFlight--
		s.finalizeLocked(r, nil, nil, nil)
		s.mu.Unlock()
		order = append(order, r.id)
	}
	want := []string{mid.ID, high.ID, low.ID}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order %v, want %v", order, want)
		}
	}
}

// The pinned regression: the daemon-served report must be byte-identical —
// EventDigest included — to the report core.Simulate produces directly for
// the same spec.
func TestReportByteIdenticalToDirectRun(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()

	req := simRequest(64)
	ack, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res := s.Wait(ctx, ack.ID)
	if res == nil || res.State != StateDone {
		t.Fatalf("daemon run: %+v", res)
	}
	served := s.Report(ack.ID)
	if served == nil {
		t.Fatal("no served report")
	}

	cfg, err := req.Run.ToCore()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Telemetry = true
	direct, err := core.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := renderReport(direct.Report)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want) {
		t.Fatalf("served report differs from direct core.Simulate report:\n"+
			"served %d bytes, direct %d bytes", len(served), len(want))
	}
	wantDigest := direct.Report.Engine.EventDigest
	if wantDigest == "" || res.EventDigest != wantDigest {
		t.Fatalf("event digest: served %q, direct %q",
			res.EventDigest, wantDigest)
	}
	if !bytes.Contains(served, []byte(wantDigest)) {
		t.Fatal("served report does not embed the event digest")
	}
}

func TestServeKind(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	ack, err := s.Submit(&Request{Serve: &ServeSpec{
		Platform: "P1",
		Serving: serving.Config{
			Model: "gpt2",
			Arrivals: serving.ArrivalConfig{
				Requests: 8, Rate: 200, Seed: 7,
			},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res := s.Wait(ctx, ack.ID)
	if res == nil || res.State != StateDone {
		t.Fatalf("serve run: %+v", res)
	}
	rep := s.Report(ack.ID)
	if rep == nil || !bytes.Contains(rep, []byte(`"serving"`)) {
		t.Fatal("serve report missing its serving section")
	}
	if res.EventDigest == "" {
		t.Fatal("serve result missing the event digest")
	}
}

func TestDrainFinishesQueuedWork(t *testing.T) {
	s := New(Options{Workers: 2})
	var acks []*Ack
	for i := 1; i <= 4; i++ {
		ack, err := s.Submit(simRequest(32 * i))
		if err != nil {
			t.Fatal(err)
		}
		acks = append(acks, ack)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if s.Ready() {
		t.Fatal("server still ready after drain")
	}
	for _, ack := range acks {
		res := s.Result(ack.ID)
		if res == nil || res.State != StateDone {
			t.Fatalf("queued run %s not drained to completion: %+v",
				ack.ID, res)
		}
	}
	if _, err := s.Submit(simRequest(999)); err == nil {
		t.Fatal("drained server accepted a submission")
	}
}

func TestDrainDeadlineHardCancels(t *testing.T) {
	s := New(Options{Workers: 1})
	// Enough queued work that an immediate drain deadline cannot finish it.
	for i := 1; i <= 8; i++ {
		if _, err := s.Submit(simRequest(32 * i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: drain must hard-cancel and still return
	if err := s.Drain(ctx); err == nil {
		t.Fatal("drain with expired ctx returned nil")
	}
	// Every run must still reach a terminal state.
	st := s.Stats()
	if got := st.Completed + st.Failed + st.Canceled; got != 8 {
		t.Fatalf("after hard drain: %d terminal of 8 (%+v)", got, st)
	}
}

// Concurrent load against a live pool, scraped while it runs: exercised
// under -race in check.sh.
func TestConcurrentSubmitters(t *testing.T) {
	s := New(Options{Workers: 4, MaxQueue: 64})
	defer s.Close()
	const (
		submitters = 16
		perWorker  = 4
	)
	stop, scraped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.handleMetrics(httptest.NewRecorder(), nil)
			s.Stats()
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, submitters*perWorker)
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ack, err := s.Submit(simRequest(32 + 32*(i%2)))
				if err != nil {
					errs <- err
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(),
					time.Minute)
				res := s.Wait(ctx, ack.ID)
				cancel()
				if res == nil || res.State != StateDone {
					errs <- &StatusError{Code: 500,
						Msg: "run did not complete"}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-scraped
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.handleMetrics(rec, nil)
	if want := "\ntriosim_server_submitted_total 64\n"; !strings.Contains(
		rec.Body.String(), want) {
		t.Fatalf("/metrics after load lacks %q:\n%s", want, rec.Body)
	}
	st := s.Stats()
	if st.Coalesced == 0 {
		t.Log("no coalesce hits this run (timing-dependent); counters:", st)
	}
	if st.TraceCache.TraceMisses == 0 ||
		st.TraceCache.TraceHits == 0 {
		t.Fatalf("shared cache unused across runs: %+v", st.TraceCache)
	}
}

// Request digests are the coalescing keys. These values were captured
// before ServeSpec moved to internal/config; a move of either must not
// change them.
func TestRequestDigestPins(t *testing.T) {
	for name, tc := range map[string]struct {
		req  *Request
		want string
	}{
		"run": {simRequest(64),
			"b86b9b5459eb797aa2749338060bb26c34b6889e44f05caf059939e4fb184f70"},
		"serve": {&Request{Serve: &ServeSpec{
			Platform: "P1",
			Serving: serving.Config{Model: "gpt2", MaxBatch: 4,
				Arrivals: serving.ArrivalConfig{Requests: 8, Rate: 200, Seed: 3}},
		}}, "66c8f8cb5dbff4a34bff45085ec2a55ce896f940e61073e4cc659d3e2ce98c45"},
	} {
		c, err := compile(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if c.digest != tc.want {
			t.Errorf("%s: digest %s, pinned %s", name, c.digest, tc.want)
		}
	}
}
