#!/usr/bin/env bash
# Regenerate the committed perf baseline, or gate against it.
#
# Usage: scripts/bench.sh [--gate] [--quick] [--trials=N] [--threads=N] ...
#   scripts/bench.sh                 # full sweep -> BENCH_perf.json
#   scripts/bench.sh --gate          # rounds/sec regression gate against
#                                    # BENCH_perf.json; writes no files
#   scripts/bench.sh --quick         # smoke cells -> BENCH_perf_quick.json
#
# Only a flag-free full run writes the committed baseline: --quick goes to
# BENCH_perf_quick.json and any other flag (--trials/--seed/... change the
# report's identity fields) goes to BENCH_perf_local.json, so experiments
# can never clobber BENCH_perf.json. --gate writes nothing at all: it
# re-measures every full-suite cell (best of 3 runs — noise is one-sided,
# see --gate-reps) and fails on any cell whose rounds/sec dropped more
# than the tolerance (default 0.30; pass --tolerance=X to override) below
# the committed value. Timings in BENCH_perf.json are
# machine-dependent snapshots; the identity fields (cell set/order,
# trials, total_rounds, success_rate) are deterministic. See
# docs/PERFORMANCE.md for how to read the report and when a baseline
# refresh is legitimate.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}

# An explicit --out always wins; otherwise route by flags (quick beats
# other non-canonical flags).
OUT=BENCH_perf.json
USER_OUT=""
QUICK=0
GATE=0
OTHER=0
ARGS=()
for arg in "$@"; do
  case "$arg" in
    --gate) GATE=1; continue ;;
    --out=*) USER_OUT="${arg#--out=}" ;;
    --quick) QUICK=1 ;;
    *) OTHER=1 ;;
  esac
  ARGS+=("$arg")
done

cmake -B "$BUILD_DIR" -S . > /dev/null
cmake --build "$BUILD_DIR" -j --target perf_suite > /dev/null

if [[ "$GATE" == 1 ]]; then
  # Gate mode: measure against the committed baseline. perf_suite writes
  # no report when gating (--out=auto).
  exec "$BUILD_DIR/perf_suite" --baseline=BENCH_perf.json \
       "${ARGS[@]+"${ARGS[@]}"}"
fi

if [[ -n "$USER_OUT" ]]; then
  OUT="$USER_OUT"
elif [[ "$QUICK" == 1 ]]; then
  OUT=BENCH_perf_quick.json
elif [[ "$OTHER" == 1 ]]; then
  OUT=BENCH_perf_local.json
fi

"$BUILD_DIR/perf_suite" "${ARGS[@]+"${ARGS[@]}"}" --out="$OUT"
"$BUILD_DIR/perf_suite" --validate="$OUT"
