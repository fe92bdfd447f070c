#!/usr/bin/env bash
# Seeding-server smoke test: start a race-built casa-serve on an
# ephemeral port, POST a batch and require a casa-smem/v1 report whose
# modelled fields (reads, smems, engine, min_smem) are byte-for-byte
# those of a casa-smem -json run over the same inputs, stream a second
# batch over SSE and require per-shard progress events plus a terminal
# report event, run two POSTs concurrently, check the telemetry surface
# (/metrics histograms, run-ID-correlated access logs, /v1/stats,
# /walltrace), then SIGTERM the server and require a graceful drain
# with exit 0 plus a -walltrace Chrome JSON dump. Run by CI's serve-smoke job
# and by `make serve-smoke`.
set -euo pipefail

GO=${GO:-go}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"; [ -n "${SERVE_PID:-}" ] && kill -9 "$SERVE_PID" 2>/dev/null || true' EXIT
cd "$WORKDIR"

echo "== generating workload =="
(cd "$ROOT" && $GO run ./cmd/casa-gen -bases $((1 << 20)) -reads 4000 -read-len 101 -seed 7 \
    -out "$WORKDIR/ref.fa" -reads-out "$WORKDIR/reads.fq")

echo "== building casa-serve and casa-smem (-race) =="
(cd "$ROOT" && $GO build -race -o "$WORKDIR/casa-serve" ./cmd/casa-serve)
(cd "$ROOT" && $GO build -race -o "$WORKDIR/casa-smem" ./cmd/casa-smem)

echo "== offline reference run =="
./casa-smem -ref ref.fa -reads reads.fq -engine casa -max-reads 0 -quiet -json \
    >offline.json 2>offline.log
WANT_READS=$(sed -n 's/.*"reads": \([0-9]*\).*/\1/p' offline.json | head -1)
WANT_SMEMS=$(sed -n 's/.*"smems": \([0-9]*\).*/\1/p' offline.json | head -1)
[ -n "$WANT_READS" ] && [ -n "$WANT_SMEMS" ] || { cat offline.json; echo "offline run produced no report"; exit 1; }
echo "offline: $WANT_READS reads, $WANT_SMEMS SMEMs"

echo "== starting casa-serve =="
./casa-serve -ref ref.fa -engine casa -addr 127.0.0.1:0 -walltrace walltrace.json >serve.out 2>serve.log &
SERVE_PID=$!
ADDR=
for _ in $(seq 1 600); do
    ADDR=$(sed -n 's/.*seeding server listening.*addr=\([0-9.:]*\).*/\1/p' serve.log | head -1)
    [ -n "$ADDR" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { cat serve.log; echo "casa-serve died before listening"; exit 1; }
    sleep 0.1
done
[ -n "$ADDR" ] || { cat serve.log; echo "no listen address in the log"; exit 1; }
echo "server at $ADDR"

echo "== POST /v1/seed matches the offline run =="
curl -sf -X POST --data-binary @reads.fq "http://$ADDR/v1/seed" >served.json
grep -q '"schema": "casa-smem/v1"' served.json || { cat served.json; echo "missing casa-smem/v1 report"; exit 1; }
GOT_READS=$(sed -n 's/.*"reads": \([0-9]*\).*/\1/p' served.json | head -1)
GOT_SMEMS=$(sed -n 's/.*"smems": \([0-9]*\).*/\1/p' served.json | head -1)
[ "$GOT_READS" = "$WANT_READS" ] || { echo "served reads $GOT_READS != offline $WANT_READS"; exit 1; }
[ "$GOT_SMEMS" = "$WANT_SMEMS" ] || { echo "served smems $GOT_SMEMS != offline $WANT_SMEMS"; exit 1; }
grep -q '"engine": "casa"' served.json || { echo "served report names the wrong engine"; exit 1; }
grep -q '"min_smem": 19' served.json || { echo "served report has the wrong min_smem"; exit 1; }
echo "served report matches: $GOT_READS reads, $GOT_SMEMS SMEMs"

echo "== multipart upload =="
curl -sf -F reads=@reads.fq "http://$ADDR/v1/seed" >multipart.json
MP_SMEMS=$(sed -n 's/.*"smems": \([0-9]*\).*/\1/p' multipart.json | head -1)
[ "$MP_SMEMS" = "$WANT_SMEMS" ] || { echo "multipart smems $MP_SMEMS != offline $WANT_SMEMS"; exit 1; }

echo "== SSE stream =="
curl -sN --max-time 60 -H 'Accept: text/event-stream' -X POST --data-binary @reads.fq \
    "http://$ADDR/v1/seed" >events.txt || true
PROGRESS=$(grep -c '^event: progress' events.txt || true)
[ "$PROGRESS" -ge 1 ] || { head -20 events.txt; echo "SSE stream delivered $PROGRESS progress events, want >= 1"; exit 1; }
grep -q '^event: report' events.txt || { tail -5 events.txt; echo "SSE stream has no terminal report event"; exit 1; }
grep -q '"schema":"casa-smem/v1"' events.txt || { tail -5 events.txt; echo "SSE report is not casa-smem/v1"; exit 1; }
echo "SSE delivered $PROGRESS progress events and a report"

echo "== two concurrent POSTs =="
curl -sf -X POST --data-binary @reads.fq "http://$ADDR/v1/seed" >conc1.json &
C1=$!
curl -sf -X POST --data-binary @reads.fq "http://$ADDR/v1/seed" >conc2.json &
C2=$!
wait "$C1" "$C2"
for f in conc1.json conc2.json; do
    S=$(sed -n 's/.*"smems": \([0-9]*\).*/\1/p' "$f" | head -1)
    [ "$S" = "$WANT_SMEMS" ] || { echo "$f smems $S != offline $WANT_SMEMS"; exit 1; }
done
RUNS=$(curl -sf "http://$ADDR/v1/runs")
echo "concurrent POSTs OK; runs inventory: $RUNS"

echo "== health and method guards =="
curl -sf "http://$ADDR/healthz" >/dev/null
CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/v1/seed")
[ "$CODE" = "405" ] || { echo "GET /v1/seed answered $CODE, want 405"; exit 1; }
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary @reads.fq "http://$ADDR/v1/seed?include=bogus")
[ "$CODE" = "400" ] || { echo "POST ?include=bogus answered $CODE, want 400"; exit 1; }

echo "== lifetime metrics exposition =="
curl -sf "http://$ADDR/metrics" >metrics.txt
for m in serve_run_duration_us_count serve_queue_wait_us_count http_v1_seed_duration_us_count; do
    grep -q "^$m " metrics.txt || { grep TYPE metrics.txt; echo "/metrics lacks $m"; exit 1; }
done
grep -q '^serve_queue_depth ' metrics.txt || { echo "/metrics lacks the queue-depth gauge"; exit 1; }
grep -q '^lifetime_' metrics.txt || { echo "/metrics lacks the lifetime/ engine aggregate"; exit 1; }
RUN_COUNT=$(sed -n 's/^serve_run_duration_us_count \([0-9]*\)$/\1/p' metrics.txt)
[ "${RUN_COUNT:-0}" -ge 4 ] || { echo "run-duration histogram counts $RUN_COUNT runs, want >= 4"; exit 1; }
echo "metrics exposition carries serving + lifetime families ($RUN_COUNT runs observed)"

echo "== access log correlates run IDs =="
grep -q 'http request' serve.log || { tail serve.log; echo "no access-log records in the log"; exit 1; }
grep 'http request' serve.log | grep 'path=/v1/seed' | grep -q 'run_id=' \
    || { grep 'http request' serve.log | head -5; echo "seed access-log lines carry no run_id"; exit 1; }

echo "== GET /v1/stats =="
curl -sf "http://$ADDR/v1/stats" >stats.json
grep -q '"schema": "casa-serve-stats/v1"' stats.json || { cat stats.json; echo "stats is not casa-serve-stats/v1"; exit 1; }
COMPLETED=$(sed -n 's/.*"runs_completed": \([0-9]*\).*/\1/p' stats.json | head -1)
[ "${COMPLETED:-0}" -ge 4 ] || { cat stats.json; echo "stats counts $COMPLETED completed runs, want >= 4"; exit 1; }
grep -q '"p50_us"' stats.json || { cat stats.json; echo "stats has no latency quantiles"; exit 1; }
echo "stats: $COMPLETED completed runs"

echo "== GET /walltrace =="
curl -sf "http://$ADDR/walltrace" >walltrace_live.json
grep -q '"schema": "casa-walltrace/v1"' walltrace_live.json || { head walltrace_live.json; echo "/walltrace is not casa-walltrace/v1"; exit 1; }
grep -q '"traceEvents"' walltrace_live.json || { echo "/walltrace has no traceEvents"; exit 1; }
for track in received queued running reporting; do
    grep -q "\"$track\"" walltrace_live.json || { echo "/walltrace has no $track spans"; exit 1; }
done

echo "== SIGTERM drains and exits 0 =="
kill -TERM "$SERVE_PID"
RC=0
wait "$SERVE_PID" || RC=$?
[ "$RC" = "0" ] || { cat serve.log; echo "casa-serve exited $RC after SIGTERM"; exit 1; }
grep -q 'drained, exiting' serve.log || { tail serve.log; echo "no drain record in the log"; exit 1; }

echo "== -walltrace wrote the lifecycle trace at shutdown =="
[ -s walltrace.json ] || { echo "-walltrace wrote no walltrace.json"; exit 1; }
grep -q '"schema": "casa-walltrace/v1"' walltrace.json || { head walltrace.json; echo "shutdown trace is not casa-walltrace/v1"; exit 1; }
grep -q '"ph": "X"' walltrace.json || { echo "shutdown trace has no complete events"; exit 1; }

echo "== -trace is not casa-serve's flag =="
RC=0
./casa-serve -ref ref.fa -trace x.json >renamed.out 2>renamed.err || RC=$?
[ "$RC" = "2" ] || { cat renamed.err; echo "casa-serve -trace exited $RC, want 2"; exit 1; }
grep -q -- '-walltrace' renamed.err || { cat renamed.err; echo "casa-serve -trace does not name -walltrace"; exit 1; }

echo "serve smoke OK"
