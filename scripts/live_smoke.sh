#!/usr/bin/env bash
# Live-telemetry smoke test: start casa-smem -http on a workload large
# enough to observe mid-run state, read the run's ID from /v1/runs,
# assert /v1/runs/{id} reports a strictly partial snapshot while the run
# is in flight, assert /v1/runs/{id}/events streams at least two events,
# then interrupt the run and require a clean exit with partial
# telemetry. Run by CI's live-smoke job (with -race) and by
# `make live-smoke`.
set -euo pipefail

GO=${GO:-go}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"; [ -n "${SMEM_PID:-}" ] && kill -9 "$SMEM_PID" 2>/dev/null || true' EXIT
cd "$WORKDIR"

echo "== generating workload =="
(cd "$ROOT" && $GO run ./cmd/casa-gen -bases $((4 << 20)) -reads 40000 -read-len 101 -seed 7 \
    -out "$WORKDIR/ref.fa" -reads-out "$WORKDIR/reads.fq")

echo "== building casa-smem (-race) =="
(cd "$ROOT" && $GO build -race -o "$WORKDIR/casa-smem" ./cmd/casa-smem)

echo "== starting the run =="
./casa-smem -ref ref.fa -reads reads.fq -engine casa -max-reads 0 -quiet -json \
    -http 127.0.0.1:0 -progress 2s -stall-timeout 2m \
    >report.json 2>run.log &
SMEM_PID=$!

# The listen address (port 0 = ephemeral) appears in the structured log.
ADDR=
for _ in $(seq 1 600); do
    ADDR=$(sed -n 's/.*observability server listening.*addr=\([0-9.:]*\).*/\1/p' run.log | head -1)
    [ -n "$ADDR" ] && break
    kill -0 "$SMEM_PID" 2>/dev/null || { cat run.log; echo "casa-smem died before listening"; exit 1; }
    sleep 0.1
done
[ -n "$ADDR" ] || { cat run.log; echo "no listen address in the log"; exit 1; }
echo "server at $ADDR"

echo "== reading the run ID from /v1/runs =="
RUN_ID=$(curl -sf "http://$ADDR/v1/runs" | tr -d ' \n' | sed -n 's/.*"runs":\["\([0-9a-f]*\)".*/\1/p')
[ -n "$RUN_ID" ] || { curl -s "http://$ADDR/v1/runs"; echo "no run in /v1/runs"; exit 1; }
grep -q "run_id=$RUN_ID" run.log || { cat run.log; echo "run $RUN_ID is not the run_id the log carries"; exit 1; }
echo "run $RUN_ID"

echo "== polling /v1/runs/$RUN_ID for a mid-run snapshot =="
# Require 0 < reads_done < total_reads at least once while the run is live.
MIDRUN=
for _ in $(seq 1 600); do
    SNAP=$(curl -sf "http://$ADDR/v1/runs/$RUN_ID" || true)
    [ -n "$SNAP" ] || { sleep 0.1; continue; }
    READS_DONE=$(printf '%s' "$SNAP" | sed -n 's/.*"reads_done": \([0-9]*\).*/\1/p')
    TOTAL=$(printf '%s' "$SNAP" | sed -n 's/.*"total_reads": \([0-9]*\).*/\1/p')
    DONE=$(printf '%s' "$SNAP" | sed -n 's/.*"done": \(true\|false\).*/\1/p')
    if [ "$DONE" = "false" ] && [ "${READS_DONE:-0}" -gt 0 ] && [ "$READS_DONE" -lt "${TOTAL:-0}" ]; then
        MIDRUN="$READS_DONE/$TOTAL"
        break
    fi
    [ "$DONE" = "true" ] && break
    sleep 0.05
done
[ -n "$MIDRUN" ] || { cat run.log; echo "never observed a mid-run /v1/runs/$RUN_ID snapshot (0 < reads_done < total)"; exit 1; }
echo "mid-run snapshot: $MIDRUN reads"

echo "== checking /v1/runs/$RUN_ID/events streams =="
curl -sN --max-time 10 "http://$ADDR/v1/runs/$RUN_ID/events" >events.txt || true
EVENTS=$(grep -c '^event: ' events.txt || true)
[ "$EVENTS" -ge 2 ] || { cat events.txt; echo "SSE stream delivered $EVENTS events, want >= 2"; exit 1; }
grep -q '^data: {"schema":"casa-progress/v1"' events.txt || { head events.txt; echo "SSE data is not casa-progress/v1"; exit 1; }
echo "SSE delivered $EVENTS events"

echo "== interrupting the run =="
kill -INT "$SMEM_PID"
RC=0
wait "$SMEM_PID" || RC=$?
# 130: interrupted mid-run or while serving post-run; 0: the run and
# server wound down before the signal landed. Anything else is a bug.
case "$RC" in
  0|130) echo "exit status $RC" ;;
  *) cat run.log; echo "casa-smem exited $RC after SIGINT"; exit 1 ;;
esac

echo "== checking the report =="
grep -q '"schema": "casa-smem/v1"' report.json || { cat report.json; echo "missing casa-smem/v1 report"; exit 1; }
grep -q '"reads": 0' report.json && { cat report.json; echo "report shows zero completed reads"; exit 1; }
grep -q 'progress' run.log || { cat run.log; echo "no progress ticker records in the log"; exit 1; }

echo "live smoke OK"
