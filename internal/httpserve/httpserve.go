// Package httpserve builds the http.Server behind every TrioSim listener:
// the triosimd daemon and the triosim -monitor endpoint.
package httpserve

import (
	"net/http"
	"time"
)

// HTTP timeouts, fixed rather than flags. A client has readHeaderTimeout to
// send its request headers, which bounds connections that trickle them in,
// and a keep-alive connection closes after idleTimeout without a request.
// There is deliberately no WriteTimeout: a daemon job's NDJSON stream stays
// open for as long as the job runs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// New returns an http.Server for h on addr (empty when the caller hands
// the server its own listener).
func New(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}
