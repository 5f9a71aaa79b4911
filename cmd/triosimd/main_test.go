package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts checks the daemon's server bounds header reads and
// idle keep-alive connections, and sets no write deadline that would cut
// off a long-running NDJSON stream.
func TestHTTPServerTimeouts(t *testing.T) {
	s := newHTTPServer(http.NotFoundHandler())
	if s.Handler == nil {
		t.Fatal("server has no handler")
	}
	if s.ReadHeaderTimeout != readHeaderTimeout || s.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v (> 0)", s.ReadHeaderTimeout, readHeaderTimeout)
	}
	if s.IdleTimeout != idleTimeout || s.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v (> 0)", s.IdleTimeout, idleTimeout)
	}
	if s.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0: NDJSON streams must stay open", s.WriteTimeout)
	}
}
