package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"triosim/internal/config"
	"triosim/internal/core"
	"triosim/internal/faults"
	"triosim/internal/gpu"
	"triosim/internal/server"
	"triosim/internal/serving"
	"triosim/internal/tracecache"
)

// daemon-mix: an in-process triosimd driven through its HTTP handler with
// httptest recorders — no sockets — so admission, queueing, coalescing,
// telemetry and report encoding are all on the measured path. After a
// warm-up that sends every distinct request once, an open loop offers
// Poisson arrivals at a fixed rate (latency is timed from each request's due
// time, so a stall counts against every request it delays), then a closed
// loop of callers that each wait for their reply measures capacity.
//
// Each phase sends a fixed multiset of requests with Zipf popularity over a
// fixed rank order, so the cost mix is the same for every seed; the seed
// draws the order, the arrival times and the serving workloads' own
// arrivals. On a small machine the open loop's latencies swing with the
// load, so the rate is kept at a fifth or so of capacity.
//
// The mix is synthetic: no recording of real daemon traffic backs the
// request kinds, their shares or the rank order, so the latency tail it
// produces is a regression signal, not a prediction of production latency.

const (
	zipfS     = 1.1
	openRate  = 60.0 // requests per second offered by the open loop
	openShare = 0.5  // share of the run's seconds given to the open loop
	// The closed loop's callers send closedRate requests per second of the
	// loop's share of the run; only the time they take, and so how many of
	// them coalesce, varies.
	callers    = 4
	closedRate = 250.0
	sloLimitMs = 250.0
	// lateLimitMs is the generator lateness (p99) beyond which the open
	// loop did not offer the load it claims, and the run is flagged invalid.
	lateLimitMs = 50.0
)

// mixEntry is one distinct request of the mix, in popularity rank order.
type mixEntry struct {
	name string
	req  server.Request
	body []byte
}

func (m *mixEntry) kind() string {
	if m.req.Serve != nil {
		return server.KindServe
	}
	return server.KindSimulate
}

// newRand is a seeded source for one of the workload's independent streams.
func newRand(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// daemonMix builds the distinct requests in popularity rank order, which is
// simply the order they are listed in: the simulate requests model by model,
// each at four global batches, then the serving runs, the two llama runs and
// the faulted run.
func daemonMix(seed int64, smoke bool) ([]mixEntry, error) {
	serveRequests, clusterGPUs := 1000, 256
	if smoke {
		serveRequests, clusterGPUs = 100, 64
	}
	run := func(model, platform, par string, batch, global int) *config.RunSpec {
		return &config.RunSpec{Model: model, Platform: platform,
			Parallelism: par, TraceBatch: batch, GlobalBatch: global}
	}
	simulate := func(name string, spec *config.RunSpec) mixEntry {
		return mixEntry{name: name, req: server.Request{Run: spec}}
	}
	var mix []mixEntry
	for _, m := range []struct{ model, par string }{
		{"resnet50", "ddp"}, {"gpt2", "tp"}, {"densenet121", "pp"}, {"vgg16", "ddp"},
	} {
		for _, gb := range []int{128, 256, 384, 512} {
			spec := run(m.model, "P2", m.par, 128, gb)
			if m.par == "pp" {
				spec.Chunks = 4
			}
			mix = append(mix, simulate(fmt.Sprintf("%s-%s-%d", m.model, m.par, gb), spec))
		}
	}
	r := newRand(seed, 1)
	serve := func(i int) mixEntry {
		return mixEntry{name: fmt.Sprintf("gpt2-serve-%d", i), req: server.Request{
			Serve: &server.ServeSpec{Platform: "P2", Serving: serving.Config{
				Model: "gpt2", MaxBatch: 8,
				Arrivals: serving.ArrivalConfig{Seed: 1 + r.Int63n(1<<30),
					Rate: 2000, Requests: serveRequests},
			}}}}
	}
	tp, pp := 8, 4
	dp := clusterGPUs / (tp * pp)
	step := &config.RunSpec{Model: "llama32-1b", Platform: "P3",
		Parallelism: "dp+tp+pp", NumGPUs: clusterGPUs, TPRanks: tp,
		PPStages: pp, TraceBatch: 16, GlobalBatch: dp * 4 * 16, Chunks: 4,
		FuseCompute: true, Topology: &config.TopologySpec{
			Kind: "rail-fat-tree", NumGPUs: clusterGPUs,
			Machines: clusterGPUs / 8, GPUsPerMachine: 8, NVLinkGBps: 300,
			LinkBandwidthGBps: 50, FabricGBps: 100, LinkLatencyUS: 2,
			HostBandwidthGBps: 20, HostLatencyUS: 5}}
	degraded := mixEntry{name: "resnet50-ddp-256-link-degrade",
		req: server.Request{Run: run("resnet50", "P2", "ddp", 128, 256),
			Faults: &faults.Spec{Events: []faults.EventSpec{{
				Kind: string(faults.LinkDegrade), Link: 0, Factor: 4,
				DurationSec: 1}}}}}

	mix = append(mix, serve(1), serve(2), serve(3), serve(4),
		simulate("llama-8xh100-ddp", run("llama32-1b", "P3", "ddp", 16, 0)),
		simulate(fmt.Sprintf("llama-%dgpu-step", clusterGPUs), step),
		degraded)
	for i := range mix {
		body, err := json.Marshal(&mix[i].req)
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", mix[i].name, err)
		}
		mix[i].body = body
	}
	return mix, nil
}

// zipfPicks returns n requests over the mix's ranks: each rank gets its
// Zipf(zipfS) share of n (largest remainders), so every seed offers the
// same multiset, and the seed only decides the order.
func zipfPicks(r *rand.Rand, ranks, n int) []int {
	weights := make([]float64, ranks)
	total := 0.0
	for k := range weights {
		weights[k] = math.Pow(float64(k+1), -zipfS)
		total += weights[k]
	}
	counts := make([]int, ranks)
	rem := make([]int, ranks)
	left := n
	for k, w := range weights {
		counts[k] = int(float64(n) * w / total)
		left -= counts[k]
		rem[k] = k
	}
	frac := func(k int) float64 {
		exact := float64(n) * weights[k] / total
		return exact - math.Floor(exact)
	}
	sort.SliceStable(rem, func(i, j int) bool { return frac(rem[i]) > frac(rem[j]) })
	for i := 0; i < left; i++ {
		counts[rem[i]]++
	}
	picks := make([]int, 0, n)
	for k, c := range counts {
		for i := 0; i < c; i++ {
			picks = append(picks, k)
		}
	}
	r.Shuffle(n, func(i, j int) { picks[i], picks[j] = picks[j], picks[i] })
	return picks
}

// arrival is one open-loop request: when it is due and which mix entry.
type arrival struct {
	at  time.Duration
	cfg int
}

// openSchedule offers rate·dur requests over dur: a Poisson process
// conditioned on its count, whose arrival times are sorted uniform draws.
// Fixing the count fixes the sample size, so a tail percentile always has
// the same number of samples beyond it.
func openSchedule(seed, stream int64, ranks int, rate float64,
	dur time.Duration) []arrival {

	r := newRand(seed, stream)
	n := int(math.Round(rate * dur.Seconds()))
	picks := zipfPicks(r, ranks, n)
	times := make([]float64, n)
	for i := range times {
		times[i] = r.Float64() * float64(dur)
	}
	sort.Float64s(times)
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{at: time.Duration(times[i]), cfg: picks[i]}
	}
	return out
}

// daemon is a running in-process triosimd with its warm-up references.
type daemon struct {
	srv *server.Server
	h   http.Handler
	mix []mixEntry
	ref []warm // per mix entry
}

// warm is a mix entry's warm-up outcome: the report every later response
// must match byte for byte, and the run's result.
type warm struct {
	report []byte
	result *server.Result
}

func (d *daemon) do(method, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	d.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// record is one request's life as the client saw it.
type record struct {
	cfg                       int
	due, sent, acked, fetched time.Time
	ok                        bool
	// Lifecycle stamps (Unix ms) from the events stream, traced runs only.
	runningMS, doneMS int64
	err               error
}

func (r *record) latencyMs() float64 { return float64(r.fetched.Sub(r.due)) / 1e6 }

// call submits mix entry r.cfg, waits for it and fetches its report; with
// events set it also reads the lifecycle stamps.
func (d *daemon) call(r *record, events bool) (warm, error) {
	name := d.mix[r.cfg].name
	r.sent = time.Now()
	code, body := d.do(http.MethodPost, "/v1/jobs", d.mix[r.cfg].body)
	r.acked = time.Now()
	if code != http.StatusAccepted {
		return warm{}, fmt.Errorf("%s: submit refused with %d: %s", name, code,
			bytes.TrimSpace(body))
	}
	var ack server.Ack
	if err := json.Unmarshal(body, &ack); err != nil {
		return warm{}, fmt.Errorf("%s: decode ack: %w", name, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	res := d.srv.Wait(ctx, ack.ID)
	cancel()
	if res == nil || res.State != server.StateDone {
		return warm{}, fmt.Errorf("%s: job %s did not finish: %+v", name,
			ack.ID, res)
	}
	code, rep := d.do(http.MethodGet, "/v1/jobs/"+ack.ID+"/report", nil)
	r.fetched = time.Now()
	if code != http.StatusOK {
		return warm{}, fmt.Errorf("%s: report fetch gave %d", name, code)
	}
	if events {
		if err := d.stamps(ack.ID, r); err != nil {
			return warm{}, err
		}
	}
	return warm{report: rep, result: res}, nil
}

// request is call plus the check against the warm-up report; the outcome
// lands in r.
func (d *daemon) request(r *record, events bool) {
	w, err := d.call(r, events)
	if err == nil && !bytes.Equal(w.report, d.ref[r.cfg].report) {
		err = fmt.Errorf("%s: report differs from the warm-up's",
			d.mix[r.cfg].name)
	}
	r.ok, r.err = err == nil, err
}

// stamps reads a terminal job's NDJSON lifecycle events.
func (d *daemon) stamps(id string, r *record) error {
	code, body := d.do(http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	if code != http.StatusOK {
		return fmt.Errorf("events %s: status %d", id, code)
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var ev server.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("events %s: %w", id, err)
		}
		if ev.State == server.StateRunning && r.runningMS == 0 {
			r.runningMS = ev.WallMS
		}
		r.doneMS = ev.WallMS
	}
	if r.runningMS == 0 {
		return fmt.Errorf("events %s: no running stamp", id)
	}
	return nil
}

// startDaemon starts a server with one worker per CPU and sends every mix
// entry once.
func startDaemon(mix []mixEntry) (*daemon, error) {
	srv := server.New(server.Options{Workers: runtime.NumCPU()})
	d := &daemon{srv: srv, h: srv.Handler(), mix: mix}
	for i := range mix {
		w, err := d.call(&record{cfg: i}, false)
		if err != nil {
			srv.Close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		d.ref = append(d.ref, w)
	}
	return d, nil
}

// openLoop sends the schedule's requests at their due times, each from its
// own goroutine so a slow admission never delays the next arrival, and
// returns once every request has finished.
func (d *daemon) openLoop(sched []arrival, events bool) []*record {
	recs := make([]*record, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.at)
		time.Sleep(time.Until(due))
		recs[i] = &record{cfg: a.cfg, due: due}
		wg.Add(1)
		go func(r *record) {
			defer wg.Done()
			d.request(r, events)
		}(recs[i])
	}
	wg.Wait()
	return recs
}

// closedLoop sends picks with the callers: each takes the next pick when
// its previous request's report has arrived. Identical requests in flight at
// the same time coalesce, as they would for any client; without that, the
// most popular request would run one at a time and cap the loop. It returns
// the capacity — requests completed per second over the whole loop, which
// every seed fills with the same multiset of requests — and every request
// made.
func (d *daemon) closedLoop(picks []int) (float64, []*record) {
	recs := make([]*record, len(picks))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(picks); i = int(next.Add(1)) - 1 {
				recs[i] = &record{cfg: picks[i], due: time.Now()}
				d.request(recs[i], false)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	done := 0
	for _, r := range recs {
		if r.ok {
			done++
		}
	}
	return float64(done) / elapsed, recs
}

// tally counts the records into the outcome and returns the latencies of
// the successful ones.
func (o *outcome) tally(recs []*record) []float64 {
	var lat []float64
	for _, r := range recs {
		o.attempted++
		if !r.ok {
			o.failf("%v", r.err)
			continue
		}
		lat = append(lat, r.latencyMs())
	}
	return lat
}

// openLoopInfo records the open loop's SLO misses, generator lateness and
// admission times.
func openLoopInfo(out *outcome, recs []*record, rate float64) {
	miss := 0
	var late, admit []float64
	for _, r := range recs {
		if !r.ok || r.latencyMs() > sloLimitMs {
			miss++
		}
		late = append(late, float64(r.sent.Sub(r.due))/1e6)
		admit = append(admit, float64(r.acked.Sub(r.sent))/1e6)
	}
	out.info["open_rate_per_s"] = rate
	out.info["open_requests"] = len(recs)
	if len(recs) > 0 {
		out.info["slo_miss_ratio"] = float64(miss) / float64(len(recs))
	}
	latep99 := percentile(late, 99)
	out.info["late_ms_p99"] = latep99
	out.info["admit_ms_p50"] = percentile(admit, 50)
	if latep99 > lateLimitMs {
		out.info["invalid"] = fmt.Sprintf(
			"generator ran %.1f ms late at p99 (limit %.0f ms)", latep99,
			lateLimitMs)
		fmt.Fprintf(stderr, "INVALID: %s\n", out.info["invalid"])
	}
}

// serverInfo records coalescing and refusals between two stats snapshots.
func serverInfo(out *outcome, before, after server.Stats) (coalesce float64,
	rejected float64) {

	sub := after.Submitted - before.Submitted
	if sub > 0 {
		coalesce = float64(after.Coalesced-before.Coalesced) / float64(sub)
	}
	rejected = float64(after.Rejected - before.Rejected)
	out.info["coalesce_ratio"] = coalesce
	out.info["rejected"] = rejected
	return coalesce, rejected
}

func runDaemon(o options) (*outcome, error) {
	mix, err := daemonMix(o.seed, o.smoke)
	if err != nil {
		return nil, err
	}
	d, setupS, err := setupMedian(3, func() (*daemon, error) {
		return startDaemon(mix)
	}, func(d *daemon) { d.srv.Close() })
	if err != nil {
		return nil, err
	}
	defer d.srv.Close()

	out := newOutcome()
	out.info["distinct_requests"] = len(mix)
	var lines []string
	for i, m := range mix {
		lines = append(lines, fmt.Sprintf("%s %x", m.name,
			sha256.Sum256(d.ref[i].report)))
	}
	out.info["output_digest"] = outputDigest(lines)

	rate := openRate
	if o.smoke {
		rate = 20
	}
	if o.trace {
		return out, d.traced(o, out, rate)
	}

	openDur := time.Duration(float64(o.seconds) * openShare)
	before := d.srv.Stats()
	m := markMem()
	open := d.openLoop(openSchedule(o.seed, 2, len(mix), rate, openDur), false)
	closedN := max(callers,
		int(math.Round(closedRate*(o.seconds-openDur).Seconds())))
	mid := d.srv.Stats()
	capacity, closed := d.closedLoop(zipfPicks(newRand(o.seed, 4), len(mix),
		closedN))
	var mem memDelta
	mem.addSince(m)
	end := d.srv.Stats()
	serverInfo(out, before, end)
	out.info["closed_coalesce_ratio"] = float64(end.Coalesced-mid.Coalesced) /
		float64(end.Submitted-mid.Submitted)

	lat := out.tally(open)
	closedLat := out.tally(closed)
	openLoopInfo(out, open, rate)
	out.info["closed_requests"] = len(closed)
	out.info["closed_ms_p50"] = percentile(closedLat, 50)
	out.setEndToEnd(setupS, capacity, lat, mem, len(open)+len(closed))
	return out, nil
}

// traced splits the run between an untraced open loop (the trace overhead's
// baseline and the GC counts) and an open loop that also reads every job's
// lifecycle stamps, then times each simulate entry through the pipeline
// copy and each entry with telemetry on and off.
func (d *daemon) traced(o options, out *outcome, rate float64) error {
	out.spans = newSpanLog()
	half := o.seconds / 2
	var gc memDelta
	m := markMem()
	plain := d.openLoop(openSchedule(o.seed, 2, len(d.mix), rate, half), false)
	gc.addSince(m)
	before := d.srv.Stats()
	stamped := d.openLoop(openSchedule(o.seed, 3, len(d.mix), rate, half), true)
	coalesce, rejected := serverInfo(out, before, d.srv.Stats())
	plainLat := out.tally(plain)
	stampedLat := out.tally(stamped)
	openLoopInfo(out, stamped, rate)

	d.requestSpans(out, stamped)
	acc := &layerAcc{}
	if err := d.pipelineLayers(out, acc); err != nil {
		return err
	}
	out.setLayers(acc, gc, len(plain))
	out.checkCoverage()
	if u := percentile(plainLat, 50); u > 0 {
		out.metrics["trace.overhead_ratio"] = percentile(stampedLat, 50) / u
	}
	out.metrics["server.coalesce_ratio"] = coalesce
	out.metrics["server.rejected"] = rejected
	return d.telemetryOverhead(out)
}

// requestSpans turns the stamped requests into spans and the server-layer
// shares of request latency.
func (d *daemon) requestSpans(out *outcome, recs []*record) {
	ms := func(v int64) time.Time { return time.UnixMilli(v) }
	clamp := func(t, lo, hi time.Time) time.Time {
		if t.Before(lo) {
			return lo
		}
		if t.After(hi) {
			return hi
		}
		return t
	}
	var admit, queue, run, fetch, total float64
	var queueMs, latMs, fetchMs []float64
	runMs := map[string][]float64{}
	log := out.spans
	at := func(t time.Time) time.Duration { return t.Sub(log.origin) }
	for _, r := range recs {
		if !r.ok {
			continue
		}
		running := clamp(ms(r.runningMS), r.acked, r.fetched)
		done := clamp(ms(r.doneMS), running, r.fetched)
		parts := []struct {
			name   string
			lo, hi time.Time
			sum    *float64
		}{
			{"server.admit", r.sent, r.acked, &admit},
			{"server.queue", r.acked, running, &queue},
			{"server.run", running, done, &run},
			{"server.fetch", done, r.fetched, &fetch},
		}
		op := log.nextOp()
		lane := 1000 + op
		root := log.add(span{Name: "request", Op: op, Parent: -1,
			Start: at(r.sent), End: at(r.fetched), Label: d.mix[r.cfg].name,
			Lane: lane})
		for _, p := range parts {
			log.add(span{Name: p.name, Op: op, Parent: root, Start: at(p.lo),
				End: at(p.hi), Lane: lane})
			*p.sum += float64(p.hi.Sub(p.lo))
		}
		total += float64(r.fetched.Sub(r.due))
		latMs = append(latMs, r.latencyMs())
		queueMs = append(queueMs, float64(running.Sub(r.acked))/1e6)
		fetchMs = append(fetchMs, float64(r.fetched.Sub(done))/1e6)
		kind := d.mix[r.cfg].kind()
		runMs[kind] = append(runMs[kind], float64(done.Sub(running))/1e6)
	}
	if total > 0 {
		out.metrics["server.admit_share"] = admit / total
		out.metrics["server.queue_share"] = queue / total
		out.metrics["server.run_share"] = run / total
		out.metrics["server.fetch_share"] = fetch / total
	}
	if p := percentile(latMs, 99); p > 0 {
		out.metrics["server.queue_share_p99"] = percentile(queueMs, 99) / p
	}
	out.info["queue_wait_ms_p50"] = percentile(queueMs, 50)
	out.info["queue_wait_ms_p99"] = percentile(queueMs, 99)
	out.info["run_ms_p50_simulate"] = percentile(runMs[server.KindSimulate], 50)
	out.info["run_ms_p50_serve"] = percentile(runMs[server.KindServe], 50)
	out.info["fetch_ms_p50"] = percentile(fetchMs, 50)
}

// coreConfig is the core.Config the daemon runs for a simulate entry,
// without telemetry.
func (m *mixEntry) coreConfig() (core.Config, error) {
	cfg, err := m.req.Run.ToCore()
	if err != nil {
		return cfg, err
	}
	if m.req.Faults != nil {
		data, err := json.Marshal(m.req.Faults)
		if err != nil {
			return cfg, err
		}
		if cfg.Faults, err = faults.Parse(data); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// pipelineLayers runs every simulate entry through the pipeline copy with a
// warm shared trace cache, as the daemon's runs see it, and checks each
// against core.Simulate and the daemon's own warm-up result.
func (d *daemon) pipelineLayers(out *outcome, acc *layerAcc) error {
	cache := tracecache.New()
	for i := range d.mix {
		m := &d.mix[i]
		if m.kind() != server.KindSimulate {
			continue
		}
		cfg, err := m.coreConfig()
		if err != nil {
			return err
		}
		cfg.Cache = cache
		res, err := core.Simulate(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		want := outputOf(res)
		if w := d.ref[i].result; w.EventDigest != fmt.Sprintf("%#x",
			want.EventDigest) || w.Events != want.Events ||
			w.TotalSec != want.TotalTime.Seconds() {
			out.failf("%s: core.Simulate %+v differs from the daemon's %+v",
				m.name, want, w)
		}
		if cfg, err = m.coreConfig(); err != nil {
			return err
		}
		cfg.Cache = cache
		out.traceOp(acc, m.name, want, cfg, nil)
	}
	return nil
}

// telemetryOverhead times every mix entry directly through core.Simulate or
// core.Serve with telemetry off and on, three times each, and reports per
// kind the sum of the medians with it on over the sum with it off.
func (d *daemon) telemetryOverhead(out *outcome) error {
	const reps = 3
	cache := tracecache.New()
	on := map[string]float64{}
	off := map[string]float64{}
	for i := range d.mix {
		m := &d.mix[i]
		var times [2][]float64
		for rep := 0; rep < reps; rep++ {
			for _, tel := range []bool{false, true} {
				t := time.Now()
				if err := m.runDirect(cache, tel); err != nil {
					return err
				}
				k := 0
				if tel {
					k = 1
				}
				times[k] = append(times[k], msSince(t))
			}
		}
		off[m.kind()] += percentile(times[0], 50)
		on[m.kind()] += percentile(times[1], 50)
	}
	for _, kind := range []string{server.KindSimulate, server.KindServe} {
		if off[kind] > 0 {
			out.metrics["telemetry.overhead_ratio."+kind] = on[kind] / off[kind]
		}
	}
	return nil
}

// runDirect runs the entry in-process without the server.
func (m *mixEntry) runDirect(cache *tracecache.Store, telemetry bool) error {
	if m.kind() == server.KindServe {
		plat, err := gpu.PlatformByName(m.req.Serve.Platform)
		if err != nil {
			return err
		}
		_, err = core.Serve(core.ServeConfig{Serving: m.req.Serve.Serving,
			Platform: plat, Telemetry: telemetry})
		return err
	}
	cfg, err := m.coreConfig()
	if err != nil {
		return err
	}
	cfg.Cache, cfg.Telemetry = cache, telemetry
	_, err = core.Simulate(cfg)
	return err
}
