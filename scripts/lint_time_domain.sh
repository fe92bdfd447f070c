#!/usr/bin/env bash
# lint_time_domain.sh — keep the modelled cycle domain free of wall time.
#
# The modelled packages (the accelerator models and the seeding
# algorithms they run) express time exclusively as deterministic cycle
# counts: their numbers must be byte-identical across runs, machines and
# worker counts. A time.Now()/time.Since() call inside one of them is a
# wall-clock leak — the moment a modelled counter or trace span depends
# on host time, the determinism tests and the casa-bench -compare gate
# turn flaky. Wall-clock measurement belongs to the host layers (batch,
# serve, obshttp, the CLIs) and to internal/trace's explicit wall-span
# types.
#
# Test files are exempt: a _test.go may time itself (e.g. throughput
# floors) without the model depending on it.
#
# Run from the repository root: scripts/lint_time_domain.sh

set -u
cd "$(dirname "$0")/.."

# The modelled cycle-domain packages: accelerator hardware models (core,
# cam, dram, energy, ert, genax, cpu) and the deterministic seeding
# algorithms they execute (fmindex, smem).
PKGS="core cam dram energy ert genax cpu fmindex smem"

fail=0
for p in $PKGS; do
    # A listed package that no longer exists would pass unchecked.
    if [ ! -d "internal/$p" ]; then
        echo "lint_time_domain: PKGS names internal/$p, which does not exist (update the list)" >&2
        fail=1
        continue
    fi
    # shellcheck disable=SC2086
    hits=$(grep -rn 'time\.Now\(\)\|time\.Since(' "internal/$p" --include='*.go' | grep -v '_test\.go:') || true
    if [ -n "$hits" ]; then
        echo "$hits"
        echo "lint_time_domain: internal/$p is cycle-domain but reads the wall clock (model time must be deterministic cycles; wall time lives in the host layers)" >&2
        fail=1
    fi
done

if [ "$fail" -eq 0 ]; then
    echo "lint_time_domain: OK — modelled packages stay on deterministic cycle time"
fi
exit "$fail"
