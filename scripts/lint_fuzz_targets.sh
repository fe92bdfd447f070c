#!/usr/bin/env bash
# lint_fuzz_targets.sh — every fuzz target runs in `make fuzz` and in CI.
#
# Fails when a `func Fuzz*` declared in a _test.go file has no
# `test ./<its package>/ ... -fuzz <name>` line in the Makefile's fuzz
# target or in the fuzz-smoke job of .github/workflows/ci.yml.
#
# Run from the repository root: scripts/lint_fuzz_targets.sh

set -u
cd "$(dirname "$0")/.."

fail=0
while IFS=: read -r file decl; do
    name=${decl#func }
    dir=$(dirname "${file#./}")
    for list in Makefile .github/workflows/ci.yml; do
        if ! grep -qE " test \./$dir/ .*-fuzz $name( |\$)" "$list"; then
            echo "lint_fuzz_targets: $name ($dir) is not run by $list" >&2
            fail=1
        fi
    done
done < <(grep -rHoE --include='*_test.go' --exclude-dir=.git --exclude-dir=.bench_build '^func Fuzz[A-Za-z0-9_]+' .)

if [ "$fail" -eq 0 ]; then
    echo "lint_fuzz_targets: OK — make fuzz and CI run every fuzz target"
fi
exit "$fail"
