// Package server is triosimd's simulation-as-a-service engine: an HTTP/JSON
// front end over the existing simulation stack. Clients submit training or
// serving simulation requests; the server validates them against the config
// layer, queues them by priority under per-request deadlines, executes them
// on a bounded worker pool through internal/sweep, and shares one
// process-wide trace cache across every run.
//
// The load-bearing design decision is coalescing: requests are
// content-addressed with internal/digest — the same canonicalization the
// trace cache keys with — and identical configurations submitted while an
// equivalent run is queued or running join that run instead of spawning
// another (singleflight). Every subscriber receives the same byte-identical
// RunReport, which the simulator's determinism contract (EventDigest) makes
// a safe substitution: the report a joiner would have computed is the report
// the originating run computed.
//
// Overload is explicit, not implicit: a full queue rejects with 429 and a
// draining server with 503, both carrying Retry-After, so a load balancer or
// client backs off instead of stacking latency. See docs/SERVER.md.
package server

import (
	"encoding/json"
	"fmt"

	"triosim/internal/config"
	"triosim/internal/core"
	"triosim/internal/digest"
	"triosim/internal/faults"
)

// Request kinds.
const (
	KindSimulate = "simulate"
	KindServe    = "serve"
)

// Request is one simulation job submission (POST /v1/jobs).
type Request struct {
	// Kind selects the pipeline: "simulate" (training, the default when Run
	// is set) or "serve" (request-level inference serving).
	Kind string `json:"kind,omitempty"`
	// Run configures a training simulation (required for kind "simulate").
	// TraceFile is rejected: the daemon does not read client-named paths
	// from its own filesystem.
	Run *config.RunSpec `json:"run,omitempty"`
	// Serve configures a serving simulation (required for kind "serve").
	Serve *ServeSpec `json:"serve,omitempty"`
	// Faults optionally injects a fault schedule (triosim.faults/v1).
	Faults *faults.Spec `json:"faults,omitempty"`
	// Priority orders the queue: higher runs first, ties FIFO. It does not
	// affect the simulation result and is excluded from the coalescing
	// digest; a coalesced join raises the queued run to the joiner's
	// priority when higher.
	Priority int `json:"priority,omitempty"`
	// DeadlineMS bounds the request end to end — queue wait plus execution —
	// in milliseconds (0 = the server's default). Joiners inherit the
	// originating run's deadline (see docs/SERVER.md).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// ServeSpec configures one serving simulation over the API; it is the
// spec triosim -serve-sim fills from its flags.
type ServeSpec = config.ServeSpec

// RequestDigestDomain tags request digests (see internal/digest).
const RequestDigestDomain = "server.Request"

// compiled is a validated request: the canonical form the digest covers plus
// the pre-parsed fault schedule the run executes with.
type compiled struct {
	kind   string
	run    *config.RunSpec
	serve  *ServeSpec
	sched  *faults.Schedule
	digest string
}

// compile validates a request and computes its coalescing digest. Validation
// runs the same constructors a run would (RunSpec.ToCore, ServeSpec.ToCore,
// faults.Parse), so a request that compiles cannot fail on
// configuration grounds later — only on cancellation or workload errors.
func compile(req *Request) (*compiled, error) {
	if req == nil {
		return nil, fmt.Errorf("empty request")
	}
	c := &compiled{kind: req.Kind, run: req.Run, serve: req.Serve}
	if c.kind == "" {
		switch {
		case req.Run != nil && req.Serve == nil:
			c.kind = KindSimulate
		case req.Serve != nil && req.Run == nil:
			c.kind = KindServe
		default:
			return nil, fmt.Errorf("set kind, or exactly one of run/serve")
		}
	}

	switch c.kind {
	case KindSimulate:
		if req.Run == nil {
			return nil, fmt.Errorf("kind %q needs a run spec", c.kind)
		}
		if req.Serve != nil {
			return nil, fmt.Errorf("kind %q does not take a serve spec", c.kind)
		}
		if req.Run.TraceFile != "" {
			return nil, fmt.Errorf("trace_file is not accepted over the API")
		}
		if req.Run.Model == "" {
			return nil, fmt.Errorf("run spec needs a model")
		}
		if _, err := req.Run.ToCore(); err != nil {
			return nil, err
		}
	case KindServe:
		if req.Serve == nil {
			return nil, fmt.Errorf("kind %q needs a serve spec", c.kind)
		}
		if req.Run != nil {
			return nil, fmt.Errorf("kind %q does not take a run spec", c.kind)
		}
		if _, err := req.Serve.ToCore(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown kind %q", req.Kind)
	}

	if req.Faults != nil {
		// Round-trip through the schedule parser: it owns the schema and
		// bounds-free validation, and the run needs the compiled form.
		data, err := json.Marshal(req.Faults)
		if err != nil {
			return nil, err
		}
		sched, err := faults.Parse(data)
		if err != nil {
			return nil, err
		}
		c.sched = sched
	}

	// The digest covers exactly what determines the result: kind, workload
	// spec, and fault schedule. Priority and deadline are delivery
	// parameters, not simulation inputs — two requests differing only there
	// coalesce.
	d, err := digest.Sum(RequestDigestDomain, struct {
		Kind   string          `json:"kind"`
		Run    *config.RunSpec `json:"run,omitempty"`
		Serve  *ServeSpec      `json:"serve,omitempty"`
		Faults *faults.Spec    `json:"faults,omitempty"`
	}{c.kind, c.run, c.serve, req.Faults})
	if err != nil {
		return nil, err
	}
	c.digest = d
	return c, nil
}

// coreConfig builds the training core.Config for one execution attempt. It
// must run on the executing goroutine: the topology's route cache is
// unsynchronized, so the topology cannot be shared across runs.
func (c *compiled) coreConfig() (core.Config, error) {
	cfg, err := c.run.ToCore()
	if err != nil {
		return core.Config{}, err
	}
	cfg.Faults = c.sched
	cfg.Telemetry = true
	return cfg, nil
}

// serveConfig is coreConfig for serving runs.
func (c *compiled) serveConfig() (core.ServeConfig, error) {
	cfg, err := c.serve.ToCore()
	if err != nil {
		return core.ServeConfig{}, err
	}
	cfg.Faults = c.sched
	cfg.Telemetry = true
	return cfg, nil
}
