package main

import (
	"net/http"
	"testing"
	"time"

	"triosim/internal/httpserve"
)

// TestHTTPServerTimeouts checks the daemon's server bounds header reads and
// idle keep-alive connections, and sets no write deadline that would cut
// off a long-running NDJSON stream.
func TestHTTPServerTimeouts(t *testing.T) {
	s := httpserve.New("", http.NotFoundHandler())
	if s.Handler == nil {
		t.Fatal("server has no handler")
	}
	if s.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", s.ReadHeaderTimeout)
	}
	if s.IdleTimeout != 2*time.Minute {
		t.Errorf("IdleTimeout = %v, want 2m", s.IdleTimeout)
	}
	if s.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0: NDJSON streams must stay open", s.WriteTimeout)
	}
}
