#!/usr/bin/env bash
# lint_engine_registry.sh — keep engine dispatch in the registry.
#
# The internal/engine registry is the single place that maps engine
# names to constructors and batch.SeedEngine/SeedEngineCtx are the
# single per-engine-free batch API. This lint fails when either property
# erodes:
#
#   1. internal/batch grows per-engine Seed wrappers again
#      (func SeedCASA / SeedERT / SeedGenAx / SeedCPU ...).
#   2. a command under cmd/ reintroduces a local engine name-switch
#      (case "casa": ... / func build(...)) instead of engine.New.
#
# Run from the repository root: scripts/lint_engine_registry.sh

set -u
cd "$(dirname "$0")/.."

fail=0

# 1. Per-engine batch wrappers. The only engine names internal/batch may
# know are the ones flowing through engine.Engine values.
if grep -nE 'func Seed(CASA|ERT|GenAx|CPU|FM|Brute)' internal/batch/*.go; then
    echo "lint_engine_registry: internal/batch reintroduces per-engine Seed wrappers (use batch.SeedEngine)" >&2
    fail=1
fi

# 2. Engine name-switches in commands. Commands select engines through
# engine.New / engine.Lookup / engine.List; a case arm on an engine name
# or a local build() dispatcher means a new engine would silently be
# missing from that command.
if grep -nE 'case "(casa|ert|genax|cpu|bwa|fmindex|fm|brute|bruteforce|golden)"' cmd/*/*.go; then
    echo "lint_engine_registry: a command dispatches on engine names (use the internal/engine registry)" >&2
    fail=1
fi
if grep -nE 'func build\(' cmd/*/*.go; then
    echo "lint_engine_registry: a command defines a local engine build() dispatcher (use engine.New)" >&2
    fail=1
fi

if [ "$fail" -eq 0 ]; then
    echo "lint_engine_registry: OK — engine dispatch stays in internal/engine"
fi
exit "$fail"
