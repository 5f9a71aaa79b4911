package serving

import (
	"fmt"

	"triosim/internal/network"
	"triosim/internal/sim"
	"triosim/internal/task"
)

// active is one request resident in a replica's continuous batch.
type active struct {
	id        int
	produced  int // decode tokens emitted so far
	prefilled bool
}

// replica is one model instance on one GPU: a policy-ordered admission
// queue feeding a continuous batch. Admission reserves the request's whole
// KV footprint (prompt + all output tokens) so a request admitted once can
// always run to completion — no mid-flight eviction, no deadlock.
type replica struct {
	c    *Cluster
	idx  int
	node network.NodeID

	queue    []int // request IDs, policy order
	batch    []active
	kvUsed   float64
	kvBudget float64
	busy     bool

	// accounting
	steps          int
	batchOccupancy int // Σ batch sizes over steps
	busySec        float64
	kvPeak         float64
	queuePeak      int
	served         int
	// outstandingTokens drives least-loaded request routing.
	outstandingTokens int
}

// kvNeed is the full KV reservation for a request: every prompt and output
// token stays cached until the request completes.
func (r *replica) kvNeed(req *Request) float64 {
	return float64(req.PromptTokens+req.OutputTokens) * r.c.cost.kvPerToken
}

// enqueue admits an arrived request to the policy queue and starts the
// replica if idle.
func (r *replica) enqueue(id int, now sim.VTime) error {
	r.queue = insertByPolicy(r.queue, id, r.c.reqs, r.c.pol)
	if len(r.queue) > r.queuePeak {
		r.queuePeak = len(r.queue)
	}
	return r.maybeStart(now)
}

// admit moves queued requests into the batch while the batch cap and the KV
// budget allow. Head-of-line blocking is strict: if the head request's
// reservation does not fit, nothing behind it is considered — that keeps
// the policy order meaningful (SJF cannot be starved into FIFO by
// accident).
func (r *replica) admit() error {
	for len(r.queue) > 0 && len(r.batch) < r.c.cfg.MaxBatch {
		id := r.queue[0]
		need := r.kvNeed(&r.c.reqs[id])
		if r.kvUsed+need > r.kvBudget {
			break
		}
		r.kvUsed += need
		if r.kvUsed > r.kvPeak {
			r.kvPeak = r.kvUsed
		}
		copy(r.queue, r.queue[1:])
		r.queue = r.queue[:len(r.queue)-1]
		r.batch = append(r.batch, active{id: id})
	}
	if len(r.batch) > r.c.cfg.MaxBatch {
		return fmt.Errorf("serving: replica %d batch %d exceeds cap %d",
			r.idx, len(r.batch), r.c.cfg.MaxBatch)
	}
	if r.kvUsed < 0 || r.kvUsed > r.kvBudget {
		return fmt.Errorf("serving: replica %d KV accounting out of range: "+
			"%.0f of %.0f bytes", r.idx, r.kvUsed, r.kvBudget)
	}
	return nil
}

// maybeStart admits and launches the next batched step if the replica is
// idle and has work.
func (r *replica) maybeStart(now sim.VTime) error {
	if r.busy {
		return nil
	}
	if err := r.admit(); err != nil {
		return err
	}
	if len(r.batch) == 0 {
		return nil
	}
	// Price the step: prefill for newly admitted requests, one decode token
	// for everything already prefilled.
	var w stepwork
	for i := range r.batch {
		a := &r.batch[i]
		req := &r.c.reqs[a.id]
		if !a.prefilled {
			r.c.cost.addPrefill(&w, req.PromptTokens)
		} else {
			r.c.cost.addDecode(&w, req.PromptTokens+a.produced)
		}
	}
	nominal := r.c.cost.stepTime(w)
	dur := nominal
	if r.c.Stretch != nil {
		if f := r.c.Stretch(r.idx, now); f != 1 {
			dur = sim.VTime(float64(dur) * f)
		}
	}
	r.busy = true
	r.c.GPUTime.Start(&task.Task{Kind: task.Compute, GPU: int32(r.idx)}, now)
	start := now
	sim.ScheduleFunc(r.c.eng, now+dur, func(end sim.VTime) error {
		return r.stepDone(start, end, nominal)
	})
	return nil
}

// stepDone accounts a finished batched step: every prefilled request emits
// its first token, every decoding request one more; completed requests free
// their KV reservation and ship their response to the host.
func (r *replica) stepDone(start, end sim.VTime, nominal sim.VTime) error {
	r.busy = false
	r.c.GPUTime.Finish(&task.Task{Kind: task.Compute, GPU: int32(r.idx)}, end)
	r.steps++
	r.batchOccupancy += len(r.batch)
	r.busySec += (end - start).Seconds()
	r.c.observeStep(r.idx, len(r.batch), start, end, nominal)

	keep := r.batch[:0]
	for i := range r.batch {
		a := r.batch[i]
		req := &r.c.reqs[a.id]
		st := &r.c.stats[a.id]
		if !a.prefilled {
			a.prefilled = true
			a.produced = 1 // prefill emits the first token
			st.firstToken = end
		} else {
			a.produced++
		}
		r.c.generated++
		r.outstandingTokens--
		if a.produced >= req.OutputTokens {
			r.kvUsed -= r.kvNeed(req)
			if r.kvUsed < -1e-6 {
				return fmt.Errorf(
					"serving: replica %d KV went negative (%.0f bytes)",
					r.idx, r.kvUsed)
			}
			r.served++
			r.outstandingTokens -= req.PromptTokens
			r.c.ship(r, a.id, end)
		} else {
			keep = append(keep, a)
		}
	}
	// Zero the dropped tail so recycled slots don't alias stale requests.
	for i := len(keep); i < len(r.batch); i++ {
		r.batch[i] = active{}
	}
	r.batch = keep
	return r.maybeStart(end)
}

// ship sends a completed request's response tokens back to the host; the
// request is finished when the transfer lands.
func (c *Cluster) ship(r *replica, id int, now sim.VTime) {
	bytes := float64(c.reqs[id].OutputTokens) * tokenWireBytes
	c.net.Send(r.node, c.host, bytes, func(end sim.VTime) {
		c.finish(id, end)
	})
}

// serveStepLabel labels a synthesized per-step task by its batch size.
var serveStepLabel = task.NewLabelForm("serve-step-b%d")

// notify reports a synthesized per-step task to the registered observers:
// the telemetry collector sees it as compute occupancy on the replica's
// GPU, the span recorder as a span on that GPU's track.
func (c *Cluster) observeStep(idx, batch int, start, end, nominal sim.VTime) {
	if len(c.obs) == 0 {
		return
	}
	t := task.Task{
		ID:       -1,
		Kind:     task.Compute,
		GPU:      int32(idx),
		Duration: nominal,
	}
	t.SetLabelf(serveStepLabel, "", batch)
	c.obs.TaskDone(&t, start, end)
}
