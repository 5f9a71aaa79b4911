// Command triosimd is the simulation-as-a-service daemon: a long-running
// HTTP/JSON server that queues, coalesces, and executes TrioSim training and
// serving simulations (see docs/SERVER.md for the API).
//
//	triosimd -addr :8321
//	curl -s localhost:8321/v1/jobs -d '{"run":{"model":"resnet18","platform":"P1","parallelism":"ddp","trace_batch":32}}'
//	curl -s localhost:8321/v1/jobs/<id>/report
//
// SIGINT/SIGTERM drains gracefully: admissions stop (503), queued and
// in-flight runs finish, and after -drain-timeout anything still running is
// hard-canceled.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"triosim/internal/httpserve"
	"triosim/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("triosimd: ")

	var (
		addr         = flag.String("addr", ":8321", "listen address (use :0 for an ephemeral port)")
		addrFile     = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using :0)")
		queue        = flag.Int("queue", 256, "max queued requests before 429")
		inflight     = flag.Int("inflight", 0, "max concurrent simulations (default GOMAXPROCS)")
		deadline     = flag.Duration("deadline", 2*time.Minute, "default per-request deadline (queue wait + run)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for runs to finish before hard-canceling")
	)
	flag.Parse()

	srv := server.New(server.Options{
		MaxQueue:        *queue,
		Workers:         *inflight,
		DefaultDeadline: *deadline,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("listening on %s", bound)

	httpSrv := httpserve.New("", srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)

	select {
	case err := <-serveErr:
		log.Fatal(err)
	case got := <-sig:
		log.Printf("%v: draining (up to %v)", got, *drainTimeout)
	}

	// Drain the simulation queue first so /readyz flips and queued work
	// finishes, then close the HTTP listener (which also ends any open
	// NDJSON streams).
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("drain: %v (hard-canceled remaining runs)", err)
	}
	shutdownCtx, cancel2 := context.WithTimeout(context.Background(),
		5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		_ = httpSrv.Close()
	}
	st := srv.Stats()
	fmt.Printf("served %d requests (%d coalesced, %d completed, %d failed, %d canceled, %d rejected)\n",
		st.Submitted, st.Coalesced, st.Completed, st.Failed, st.Canceled,
		st.Rejected)
}
