package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"triosim/internal/server"
)

// newHarness serves an in-process daemon over HTTP and points a harness at
// it.
func newHarness(t *testing.T) *harness {
	t.Helper()
	s := server.New(server.Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return &harness{client: ts.Client(), base: ts.URL}
}

func TestRunLoadCompletesEveryRequest(t *testing.T) {
	h := newHarness(t)
	if err := h.awaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	const total = 6
	pool := buildPool("resnet18", "P1", 2, 60_000)
	if !h.runLoad(pool, total, 3, 1, time.Minute) {
		t.Fatalf("%d of %d requests failed", h.failed.Load(), total)
	}
	if n := len(h.latencies); n != total {
		t.Fatalf("%d requests completed, want %d", n, total)
	}
}

func TestGateComparesReportBytes(t *testing.T) {
	h := newHarness(t)
	dir := t.TempDir()
	reqPath := filepath.Join(dir, "request.json")
	req := []byte(`{"run":{"model":"resnet18","platform":"P1",` +
		`"parallelism":"ddp","trace_batch":32,"global_batch":64}}`)
	if err := os.WriteFile(reqPath, req, 0o644); err != nil {
		t.Fatal(err)
	}

	// The daemon's own report for the request is the reference.
	deadline := time.Now().Add(time.Minute)
	a, err := h.submit(req, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := h.await(a.ID, deadline); err != nil || res.State != "done" {
		t.Fatalf("reference run: %+v, %v", res, err)
	}
	ref := h.fetch("/v1/jobs/" + a.ID + "/report")
	if len(ref) == 0 {
		t.Fatal("no reference report")
	}
	refPath := filepath.Join(dir, "ref.json")
	if err := os.WriteFile(refPath, ref, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := h.gate(reqPath, refPath, time.Minute); err != nil {
		t.Fatalf("gate on the daemon's own report: %v", err)
	}

	// One byte off: the gate must fail.
	ref[len(ref)/2] ^= 1
	if err := os.WriteFile(refPath, ref, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := h.gate(reqPath, refPath, time.Minute); err == nil {
		t.Fatal("gate passed on a reference one byte off")
	}
}
