#!/usr/bin/env bash
# Regenerate every paper table/figure. Usage:
#   scripts/run_experiments.sh [--full] [--scale=S] [--nodes=N] [--jobs=J]
#                              [--faults=SPEC] [--check-coherence]
# Results land in results/ (one file per experiment). All flags are
# forwarded to every harness, so a whole-suite chaos sweep is just
# --faults=drop=0.01,seed=42 (see README "Fault injection & reliability").
#
# Harnesses are discovered from build/bench/bench_* (no hardcoded list), so
# new experiments join the sweep by existing. --jobs defaults to the host
# core count; results are byte-identical at any job count (the simulator is
# deterministic and batch execution only reorders wall-clock, never virtual
# time — see src/exec/batch.h).
set -euo pipefail
cd "$(dirname "$0")/.."
BIN=build/bench

ARGS=()
have_jobs=0
for a in "$@"; do
  case "$a" in
    # Bare --jobs would reach the binaries as the boolean value 1 (i.e. a
    # silent serial run); it means "all cores" here.
    --jobs) ARGS+=("--jobs=$(nproc)"); have_jobs=1 ;;
    --jobs=*) ARGS+=("$a"); have_jobs=1 ;;
    *) ARGS+=("$a") ;;
  esac
done
if [[ $have_jobs -eq 0 ]]; then
  ARGS+=("--jobs=$(nproc)")
fi

mkdir -p results

run() {
  local name="$1"; shift
  echo "=== $name ${ARGS[*]-} ==="
  "$BIN/$name" "${ARGS[@]}" "--json=results/$name.json" \
    | tee "results/$name.txt"
  echo
}

found=0
for bin in "$BIN"/bench_*; do
  [[ -x "$bin" ]] || continue
  name="$(basename "$bin")"
  # bench_selfperf measures the simulator itself (host throughput, allocs);
  # it rejects --jobs and is gated separately by scripts/ci.sh perf.
  [[ "$name" == bench_selfperf ]] && continue
  run "$name"
  found=1
done
if [[ $found -eq 0 ]]; then
  echo "no bench binaries under $BIN — build first (cmake --build build)" >&2
  exit 1
fi
echo "All results written to results/"
