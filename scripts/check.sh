#!/usr/bin/env bash
# Tier-2 gate: everything CI runs. Tier-1 (go build && go test) is a subset;
# this adds the race detector, go vet, TrioSim's own determinism analyzers
# (triosimvet), and the double-run replay-digest check.
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> gofmt -l ."
unformatted="$(gofmt -l .)"
if [[ -n "$unformatted" ]]; then
  echo "gofmt: these files need formatting (run gofmt -w):"
  echo "$unformatted"
  exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> race hammer (sweep pool + monitor + faults + trace cache + serving + server, repeated runs)"
go test -race -count=2 ./internal/sweep/... ./internal/monitor/... \
  ./internal/faults/... ./internal/tracecache/... ./internal/serving/... \
  ./internal/server/...

echo "==> fuzz smoke (digest table fold vs byte-wise FNV-1a; event queue vs container/heap; CSR graph freeze vs per-task slices; per-GPU time partition vs sorted interval algebra)"
go test -run '^$' -fuzz '^FuzzDigestFold$' -fuzztime 5s ./internal/sim
go test -run '^$' -fuzz '^FuzzEventQueueOrder$' -fuzztime 5s ./internal/sim
go test -run '^$' -fuzz '^FuzzGraphFreeze$' -fuzztime 5s ./internal/task
go test -run '^$' -fuzz '^FuzzGPUPartition$' -fuzztime 5s ./internal/task

echo "==> bench module (vet + tests; bench/ is a module of its own, so go test ./... above does not reach it)"
(cd bench && go vet ./... && go test ./...)

echo "==> triosimvet (static determinism + concurrency-safety analyzers, baseline-gated)"
# Gate on findings NOT in the committed baseline (new violations only); the
# committed lint.baseline.json is empty, so today this is "tree must be
# clean". TRIOSIMVET_JSON_OUT, when set (CI), captures the machine-readable
# new-findings list as a build artifact.
if [[ -n "${TRIOSIMVET_JSON_OUT:-}" ]]; then
  go run ./cmd/triosimvet -baseline lint.baseline.json -json ./... \
    >"$TRIOSIMVET_JSON_OUT" || { cat "$TRIOSIMVET_JSON_OUT"; exit 1; }
else
  go run ./cmd/triosimvet -baseline lint.baseline.json ./...
fi

echo "==> triosimvet -replay (double-run event-digest check + fault injection + serving)"
go run ./cmd/triosimvet -replay -replay-faults -replay-serving

echo "==> triosimvet -cache-smoke (trace-cache hit counters + digest identity)"
go run ./cmd/triosimvet -cache-smoke

echo "==> telemetry smoke (-metrics-out + RunReport schema validation)"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
go run ./cmd/triosim -model resnet50 -platform P2 -parallelism ddp \
  -trace-batch 32 -metrics-out "$tmpdir/report.json" >/dev/null
go run ./cmd/triosimvet -report "$tmpdir/report.json"
# The pipeline and tensor presets of the DP×TP×PP grid generator, end to
# end, and tensor parallelism fused.
for leg in pp tp dp+tp "tp -fuse-compute"; do
  read -r -a args <<<"$leg"
  out="$tmpdir/report-${leg// /}.json"
  go run ./cmd/triosim -model resnet18 -platform P2 -parallelism "${args[@]}" \
    -trace-batch 32 -chunks 2 -metrics-out "$out" >/dev/null
  go run ./cmd/triosimvet -report "$out"
done

echo "==> trace tools smoke (tracegen writes a trace; traceinfo profiles that file)"
go run ./cmd/tracegen -model resnet18 -batch 32 -gpu A100 \
  -o "$tmpdir/resnet18.trace.json" >/dev/null
go run ./cmd/traceinfo "$tmpdir/resnet18.trace.json" >"$tmpdir/traceinfo.txt"
grep -q '^trace: resnet18 on A100, batch 32' "$tmpdir/traceinfo.txt" ||
  { echo "traceinfo: no trace header for the tracegen file"; exit 1; }

echo "==> experiments smoke (-quick -only fig11 prints its block; an unknown figure id is an error)"
go run ./cmd/experiments -quick -only fig11 >"$tmpdir/fig11.txt"
grep -q '^fig11:' "$tmpdir/fig11.txt" ||
  { echo "experiments: -only fig11 printed no fig11: block"; exit 1; }
if go run ./cmd/experiments -only nosuchfig 2>/dev/null; then
  echo "experiments: -only nosuchfig exited 0"; exit 1
fi

echo "==> examples smoke (build and run every examples/* main; a non-zero exit fails)"
for dir in examples/*/; do
  name="$(basename "$dir")"
  go build -o "$tmpdir/example-$name" "./$dir"
  "$tmpdir/example-$name" >/dev/null ||
    { echo "examples/$name exited non-zero"; exit 1; }
done

echo "==> serving smoke (-serve-sim + RunReport schema validation)"
go run ./cmd/triosim -serve-sim -model gpt2 -platform P1 -serve-requests 24 \
  -serve-rate 200 -serve-seed 7 -metrics-out "$tmpdir/serving.json" >/dev/null
go run ./cmd/triosimvet -report "$tmpdir/serving.json"

echo "==> span-trace smoke (-trace-out Chrome JSON + trace-event schema validation)"
# TRIOSIM_TRACE_OUT, when set (CI), keeps the exported trace as a build
# artifact next to the triosimvet findings.
trace_out="${TRIOSIM_TRACE_OUT:-$tmpdir/trace.json}"
go run ./cmd/triosim -model resnet18 -platform P1 -parallelism ddp \
  -trace-batch 32 -trace-out "$trace_out" >/dev/null
go run ./cmd/triosimvet -trace-check "$trace_out"

echo "==> timeline-html smoke (-timeline-html: file written, SVG lanes, one breakdown row per GPU)"
html_out="$tmpdir/timeline.html"
go run ./cmd/triosim -model resnet18 -platform P1 -parallelism ddp \
  -trace-batch 32 -fault-seed 7 -timeline-html "$html_out" >/dev/null
[[ -s "$html_out" ]] || { echo "timeline-html: $html_out not written"; exit 1; }
grep -q '<svg' "$html_out" || { echo "timeline-html: no <svg> in $html_out"; exit 1; }
html_rows="$(grep -c '^<tr><td>gpu' "$html_out" || true)"
[[ "$html_rows" == 2 ]] ||
  { echo "timeline-html: $html_rows breakdown rows, want 2 (one per P1 GPU)"; exit 1; }

echo "==> triosimd smoke (daemon + load harness + coalescing + CLI training, serving and faulted-serving byte-identity gates + /metrics scrape)"
go build -o "$tmpdir/triosimd" ./cmd/triosimd
go build -o "$tmpdir/triosimload" ./cmd/triosimload
# Reference report from the one-shot CLI: -deterministic skips wall-clock
# stamps, so the daemon-served report of the same spec must match it
# byte-for-byte (the coalescing substitution guarantee, docs/SERVER.md).
go run ./cmd/triosim -model resnet18 -platform P1 -parallelism ddp \
  -trace-batch 32 -global-batch 64 -deterministic \
  -metrics-out "$tmpdir/ref-report.json" >/dev/null
cat >"$tmpdir/gate-request.json" <<'JSON'
{"run":{"model":"resnet18","platform":"P1","parallelism":"ddp","trace_batch":32,"global_batch":64}}
JSON
# The serving path holds the same guarantee: the CLI fills the ServeSpec a
# {"serve": ...} request carries, and both build it with ServeSpec.ToCore.
go run ./cmd/triosim -serve-sim -model gpt2 -platform P1 -serve-requests 8 \
  -serve-seed 3 -deterministic -metrics-out "$tmpdir/serve-ref-report.json" >/dev/null
cat >"$tmpdir/serve-gate-request.json" <<'JSON'
{"serve":{"platform":"P1","serving":{"model":"gpt2","scheduler":"fifo","arrivals":{"seed":3,"requests":8}}}}
JSON
# A faulted serving run through both entry points: the CLI's -faults file
# and the daemon's "faults" field reach the same run harness and the same
# fault-section builder, so the reports must match byte-for-byte.
serve_faults='{"schema":"triosim.faults/v1","events":[{"kind":"link-degrade","link":0,"factor":4,"duration_sec":0.02},{"kind":"gpu-slowdown","gpu":1,"factor":2,"start_sec":0.005,"duration_sec":0.02}]}'
echo "$serve_faults" >"$tmpdir/serve-faults.json"
go run ./cmd/triosim -serve-sim -model gpt2 -platform P1 -serve-requests 8 \
  -serve-seed 3 -faults "$tmpdir/serve-faults.json" -deterministic \
  -metrics-out "$tmpdir/serve-faults-ref-report.json" >/dev/null
grep -q '"degraded_sec"' "$tmpdir/serve-faults-ref-report.json" ||
  { echo "faulted serving report carries no fault section"; exit 1; }
cat >"$tmpdir/serve-faults-gate-request.json" <<JSON
{"serve":{"platform":"P1","serving":{"model":"gpt2","scheduler":"fifo","arrivals":{"seed":3,"requests":8}}},"faults":$serve_faults}
JSON
scrape_metrics() { # $1 daemon address, $2 requests the load run completed
  local metrics dup completed coalesced
  metrics="$(curl -fsS "http://$1/metrics")"
  dup="$(awk '/^# TYPE / {print $3}' <<<"$metrics" | sort | uniq -d)"
  [[ -z "$dup" ]] || { echo "/metrics declares these families twice: $dup"; exit 1; }
  # A coalesced submission shares its run, so completed runs plus coalesce
  # hits account for every request.
  completed="$(awk '$1 == "triosim_server_completed_total" {print $2}' <<<"$metrics")"
  coalesced="$(awk '$1 == "triosim_server_coalesce_hits_total" {print $2}' <<<"$metrics")"
  (( ${completed:-0} + ${coalesced:-0} >= $2 )) ||
    { echo "/metrics: $completed completed + $coalesced coalesced < $2 requests"; exit 1; }
  echo "    /metrics: $completed runs completed, $coalesced coalesced, no family repeated"
}
run_daemon_load() { # $1 daemon binary, $2 requests, $3 concurrency
  local addr_file daemon_pid addr
  addr_file="$(mktemp "$tmpdir/addr.XXXXXX")"
  : >"$addr_file"
  "$1" -addr 127.0.0.1:0 -addr-file "$addr_file" &
  daemon_pid=$!
  for _ in $(seq 100); do [[ -s "$addr_file" ]] && break; sleep 0.1; done
  addr="$(cat "$addr_file")"
  [[ -n "$addr" ]] || { echo "daemon never wrote its address"; exit 1; }
  "$tmpdir/triosimload" -addr "$addr" \
    -requests "$2" -concurrency "$3" -distinct 3 -wait-ready 10s \
    -require-coalesce -gate-request "$tmpdir/gate-request.json" \
    -gate-report "$tmpdir/ref-report.json"
  "$tmpdir/triosimload" -addr "$addr" -requests 0 \
    -gate-request "$tmpdir/serve-gate-request.json" \
    -gate-report "$tmpdir/serve-ref-report.json"
  "$tmpdir/triosimload" -addr "$addr" -requests 0 \
    -gate-request "$tmpdir/serve-faults-gate-request.json" \
    -gate-report "$tmpdir/serve-faults-ref-report.json"
  scrape_metrics "$addr" "$2"
  kill -TERM "$daemon_pid"
  wait "$daemon_pid"
}
run_daemon_load "$tmpdir/triosimd" 1000 1000

echo "==> triosimd race smoke (race-built daemon under concurrent load)"
go build -race -o "$tmpdir/triosimd-race" ./cmd/triosimd
run_daemon_load "$tmpdir/triosimd-race" 200 200

echo "==> scale smoke (1,024-GPU DP×TP×PP step: pinned event and outcome digests, replay identity, approx error bound, wall-clock budget)"
# A 128-machine rail fat-tree running llama32-1b under DP=16 × TP=8 × PP=8.
# Exact solver twice: the event digests must be byte-identical (the replay
# guarantee at cluster scale) and equal the pinned digest, so a solver
# change that moves a single event fails even when both runs agree. Their
# outcome digest (every task's start and end bits, order-free) is pinned as
# well: it moves only when a simulated time does.
# Approximate solver (1% tolerance) once: its digest is pinned too, and the
# simulated step time must stay within 1% of exact. The whole leg must fit a
# wall-clock budget — the 10k-GPU "single-digit seconds" claim, scaled to CI.
scale_exact_digest=0x5526f03f6427f794
scale_exact_outcome=0x3821382adf3416d
scale_approx_digest=0x5526f03f6427f794
scale_start=$SECONDS
scale_spec() { # $1 net_approx_tol
  cat <<JSON
{
  "model": "llama32-1b", "platform": "P3", "parallelism": "dp+tp+pp",
  "trace_batch": 16, "global_batch": 1024, "num_gpus": 1024,
  "tp_ranks": 8, "pp_stages": 8, "chunks": 4, "fuse_compute": true,
  "net_approx_tol": $1,
  "topology": {"kind": "rail-fat-tree", "machines": 128,
    "gpus_per_machine": 8, "nvlink_gbps": 300, "link_bandwidth_gbps": 50,
    "fabric_gbps": 100, "link_latency_us": 2, "host_bandwidth_gbps": 20,
    "host_latency_us": 5}
}
JSON
}
scale_spec 0    >"$tmpdir/scale-exact.json"
scale_spec 0.01 >"$tmpdir/scale-approx.json"
run_scale() { # $1 spec, $2 report out; prints the event and outcome digests
  go run ./cmd/triosim -config "$1" -deterministic -metrics-out "$2" |
    awk '/^event digest/ {e = $3} /^outcome digest/ {o = $3} END {print e, o}'
}
read -r d1 o1 <<<"$(run_scale "$tmpdir/scale-exact.json" "$tmpdir/scale-exact-report.json")"
read -r d2 o2 <<<"$(run_scale "$tmpdir/scale-exact.json" "$tmpdir/scale-exact2-report.json")"
[[ -n "$d1" && "$d1" == "$d2" && "$o1" == "$o2" ]] ||
  { echo "scale smoke: exact replays differ: $d1/$o1 vs $d2/$o2"; exit 1; }
[[ "$d1" == "$scale_exact_digest" ]] ||
  { echo "scale smoke: exact digest $d1, pinned $scale_exact_digest"; exit 1; }
[[ "$o1" == "$scale_exact_outcome" ]] ||
  { echo "scale smoke: exact outcome digest $o1, pinned $scale_exact_outcome"; exit 1; }
read -r da _ <<<"$(run_scale "$tmpdir/scale-approx.json" "$tmpdir/scale-approx-report.json")"
[[ "$da" == "$scale_approx_digest" ]] ||
  { echo "scale smoke: approx digest $da, pinned $scale_approx_digest"; exit 1; }
step_of() { # $1 report json -> per_iteration_sec
  grep -o '"per_iteration_sec": *[0-9.eE+-]*' "$1" | head -1 | awk '{print $2}'
}
exact_step="$(step_of "$tmpdir/scale-exact-report.json")"
approx_step="$(step_of "$tmpdir/scale-approx-report.json")"
awk -v a="$exact_step" -v b="$approx_step" \
  'BEGIN { d = (a - b) / a; if (d < 0) d = -d; exit !(d <= 0.01) }' ||
  { echo "scale smoke: approx step $approx_step vs exact $exact_step exceeds 1%"; exit 1; }
(( SECONDS - scale_start <= 120 )) ||
  { echo "scale smoke: $((SECONDS - scale_start))s exceeds the 120s budget"; exit 1; }
echo "    exact digest $d1, exact outcome $o1, approx digest $da, step ${exact_step}s, approx step ${approx_step}s, $((SECONDS - scale_start))s wall"

echo "==> bench smoke + benchdiff gate (allocs/op vs committed BENCH_*.json)"
go test -run '^$' -bench . -benchmem -benchtime 1x . >"$tmpdir/bench.txt"
go run ./cmd/benchdiff -out "$tmpdir/bench.json" "$tmpdir/bench.txt"
baseline="$(ls BENCH_*.json | sort | tail -1)"
go run ./cmd/benchdiff -old "$baseline" -new "$tmpdir/bench.json"

echo "==> all checks passed"
