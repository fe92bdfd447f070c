#!/usr/bin/env bash
# lint_cli_harness.sh — keep the shared CLI plumbing in internal/runcli.
#
# casa-smem, casa-align and casa-serve get their shared flags, -ref/-index
# resolution and observability sidecar from the internal/runcli harness.
# This lint fails when that erodes:
#
#   1. one of those commands declares a harness-owned flag itself
#      ("-log-level", "-walltrace", "-stall-timeout", "-index", ...);
#   2. any command under cmd/ defines a local copy of the harness's
#      helpers (newLogger, loadRef, peekHeader, logSnapshot);
#   3. casa-smem or casa-align reads its FASTQ or drives a seeding pool
#      itself (a seqio.FastqReader, batch.Stream, batch.NewSeeder or
#      engine.CheckReads in its non-test code) instead of going through
#      runcli's one read stream (Run.OpenReads and Run.Stream);
#   4. casa-align extends, places, pairs or reseeds reads itself (an
#      ExtendRead, pairing.Rescue, pairing.Proper, engine.Positions or
#      batch.SeedEngineCtx call in its non-test code) instead of going
#      through the one align path, internal/pipeline's Aligner.
#
# Run from the repository root: scripts/lint_cli_harness.sh

set -u
cd "$(dirname "$0")/.."

fail=0

owned='ref|index|engine|verify|min-smem|partition|shards|shard-overlap|workers|metrics|trace|trace-sample|walltrace|http|progress|stall-timeout|log-level|log-format|version'
if grep -nE "\.(String|Int|Int64|Bool|Duration|Float64|Func|Var)(Var)?\(([^,\"]*, *)?\"($owned)\"" \
    cmd/casa-smem/*.go cmd/casa-align/*.go cmd/casa-serve/*.go; then
    echo "lint_cli_harness: a harness command redeclares a flag internal/runcli owns (set it in the command's runcli.Spec)" >&2
    fail=1
fi

if grep -nE 'func (newLogger|loadRef|peekHeader|logSnapshot)\(' cmd/*/*.go; then
    echo "lint_cli_harness: a command defines a local copy of a harness helper (use internal/runcli or refidx.LoadFasta)" >&2
    fail=1
fi

if grep -nE 'seqio\.(NewFastqReader|FastqReader)|batch\.(Stream|NewSeeder)\(|engine\.CheckReads\(' \
    $(ls cmd/casa-smem/*.go cmd/casa-align/*.go | grep -v '_test\.go$'); then
    echo "lint_cli_harness: casa-smem or casa-align reads or seeds its input itself (use runcli's Run.OpenReads and Run.Stream)" >&2
    fail=1
fi

if grep -nE '\.ExtendRead\(|pairing\.(Rescue|Proper)\(|engine\.Positions\(|batch\.SeedEngineCtx\(' \
    $(ls cmd/casa-align/*.go | grep -v '_test\.go$'); then
    echo "lint_cli_harness: casa-align runs part of the align path itself (use internal/pipeline's Aligner)" >&2
    fail=1
fi

if [ "$fail" -eq 0 ]; then
    echo "lint_cli_harness: OK — shared CLI plumbing and the read stream stay in internal/runcli, the align path in internal/pipeline"
fi
exit "$fail"
