#!/usr/bin/env bash
# Trace smoke test: seed a toy batch with casa-smem writing both a
# -walltrace and a -trace file, then assert casa-trace picks each file's
# report from its schema. The wall report must show the expected pool
# shape — 4 workers, the exact shard count the pool's grain math
# dictates, every read accounted for, no ring drops, and the
# utilization/imbalance lines the analyzer promises; the cycle report
# must show the sampled reads. Then align the same reads with casa-align
# -walltrace and assert its extension shards show on a "seedex" track
# beside its load, build and output phases.
# Run by CI's walltrace-smoke job and by `make walltrace-smoke`.
set -euo pipefail

GO=${GO:-go}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT
cd "$WORKDIR"

# 8000 reads stream through casa-smem in batches of 4096 and 3904 reads;
# on 4 workers each batch's grain is ceil(batch/(4*4)) (256 and 244), so
# each batch has exactly 16 shards and the run 32 — a fixed shape the
# assertions below can pin. The shard and read totals are exact
# regardless of how the workers split them; how many of the 4 workers
# actually claim a shard from the dynamic handout is
# scheduling-dependent, so the worker count is only bounded.
READS=8000
WORKERS=4
SHARDS=32

echo "== generating workload =="
(cd "$ROOT" && $GO run ./cmd/casa-gen -bases $((1 << 20)) -reads $READS -read-len 101 -seed 7 \
    -out "$WORKDIR/ref.fa" -reads-out "$WORKDIR/reads.fq")

# The cycle trace keeps the first $SAMPLED reads, so it stays small.
SAMPLED=50

echo "== seeding with -walltrace and -trace =="
(cd "$ROOT" && $GO run ./cmd/casa-smem -ref "$WORKDIR/ref.fa" -reads "$WORKDIR/reads.fq" \
    -engine casa -max-reads 0 -workers $WORKERS -quiet \
    -walltrace "$WORKDIR/wall.json" -trace "$WORKDIR/cycle.json" -trace-sample head:$SAMPLED) >smem.out 2>smem.log
grep -q "wall trace written" smem.log || { cat smem.log; echo "no wall-trace log line"; exit 1; }
[ -s wall.json ] || { echo "wall.json missing or empty"; exit 1; }
[ -s cycle.json ] || { echo "cycle.json missing or empty"; exit 1; }

echo "== analyzing both with casa-trace =="
(cd "$ROOT" && $GO run ./cmd/casa-trace "$WORKDIR/wall.json") >wall.txt
cat wall.txt
(cd "$ROOT" && $GO run ./cmd/casa-trace -top 3 "$WORKDIR/cycle.json") >cycle.txt
head -5 cycle.txt

echo "== asserting the cycle report =="
head -1 cycle.txt | grep -q "^== casa: [0-9]* spans, $SAMPLED reads ==\$" \
    || { echo "expected the cycle report for engine casa over $SAMPLED reads"; exit 1; }
grep -q "^slowest 3 reads (modelled units" cycle.txt || { echo "expected a slowest-reads table"; exit 1; }
if grep -q "casa-walltrace" cycle.txt; then echo "cycle trace got the wall report"; exit 1; fi

echo "== asserting the wall report =="
head -1 wall.txt | grep -q "^== casa-walltrace/v1: " || { echo "wall trace did not get the wall report"; exit 1; }
grep -q "(0 dropped)" wall.txt || { echo "expected a drop-free capture"; exit 1; }
GOT_WORKERS=$(sed -n 's/.*workers: \([0-9]*\).*/\1/p' wall.txt | head -1)
[ -n "$GOT_WORKERS" ] || { echo "no workers count in the report"; exit 1; }
[ "$GOT_WORKERS" -ge 1 ] && [ "$GOT_WORKERS" -le $WORKERS ] \
    || { echo "expected 1..$WORKERS workers, got $GOT_WORKERS"; exit 1; }
grep -q "shards: $SHARDS " wall.txt || { echo "expected shards: $SHARDS"; exit 1; }
grep -q "reads: $READS" wall.txt || { echo "expected reads: $READS"; exit 1; }
grep -q "utilization" wall.txt || { echo "expected a pool utilization line"; exit 1; }
grep -q "imbalance (max/mean worker busy):" wall.txt || { echo "expected an imbalance line"; exit 1; }
# Host phases from the CLI ride along as non-worker spans.
for phase in load build seed output; do
    grep -q " $phase\$" wall.txt || grep -q " $phase " wall.txt \
        || { echo "expected host phase span '$phase'"; exit 1; }
done
# The stream writes each batch as soon as it is seeded: the first output
# span ends before the last seed shard starts. The Chrome JSON carries
# one field per line; an X event's "name" precedes its "ts" and "dur".
read -r FIRST_OUT LAST_SHARD < <(awk '
    /"name":/ { name = $0 }
    /"ts":/   { ts = $2 + 0 }
    /"dur":/  {
        if (name ~ /"output"/ && (first == "" || ts + $2 < first)) first = ts + $2
        if (name ~ /"shard [0-9]+ reads/ && ts > last) last = ts
    }
    END { print first, last }' wall.json)
[ -n "$FIRST_OUT" ] && [ "$FIRST_OUT" -le "$LAST_SHARD" ] \
    || { echo "first output span ends at ${FIRST_OUT:-none}, after the last seed shard starts at $LAST_SHARD"; exit 1; }

echo "== aligning with -walltrace =="
(cd "$ROOT" && $GO run ./cmd/casa-align -ref "$WORKDIR/ref.fa" -reads "$WORKDIR/reads.fq" \
    -workers $WORKERS -out "$WORKDIR/align.sam" -walltrace "$WORKDIR/align-wall.json") 2>align.log \
    || { cat align.log; echo "casa-align failed"; exit 1; }
(cd "$ROOT" && $GO run ./cmd/casa-trace "$WORKDIR/align-wall.json") >align-wall.txt
# casa-align extends on the seeding pool, on a "seedex" track of its own
# that covers every read.
grep -Eq "^  seedex +[0-9]+ +$READS " align-wall.txt \
    || { cat align-wall.txt; echo "expected a seedex track covering $READS reads"; exit 1; }
# casa-align's host phases: the reference parse, the engines' build and
# each batch's SAM write.
for phase in load build output; do
    grep -q " $phase\$" align-wall.txt || grep -q " $phase " align-wall.txt \
        || { cat align-wall.txt; echo "expected casa-align host phase span '$phase'"; exit 1; }
done

echo "trace smoke OK: $GOT_WORKERS/$WORKERS workers, $SHARDS shards, $READS reads; cycle report over $SAMPLED reads; casa-align seedex track and host phases present"
