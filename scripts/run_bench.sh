#!/usr/bin/env bash
# Benchmark sweep with machine-readable output.
#
# Builds the bench harnesses in a Release tree and runs each one with
# --json, producing BENCH_<name>.json run reports (schema documented in
# DESIGN.md) next to this repo's root.  Every emitted file is validated
# by the project's own parser (rdfast_cli validate-json); the script
# exits nonzero if any bench binary fails or any report does not
# round-trip.
#
#   scripts/run_bench.sh [build-dir]
#
# BENCH_ARGS overrides the default per-binary arguments (default
# "--quick" so the sweep is a minutes-scale smoke run; clear it for the
# full tables: BENCH_ARGS="" scripts/run_bench.sh).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-bench}"
ARGS="${BENCH_ARGS---quick}"

BENCHES=(micro engines table1 table2 table3 testset ablation approx figures serve eco)

# bench_micro's mcnc-like throughput_ratio (compiled vs the frozen
# reference engine) is gated at this floor by compare_bench.py --self.
# The full protocol (9 interleaved samples) claims and gates 2x; the
# --quick smoke protocol (5 samples) carries ~±3% sampling noise around
# the same true ratio, so its floor gets a 5% allowance — still tight
# enough to catch a real regression, loose enough not to flake.
# Override for noisy machines: RD_MIN_SPEEDUP=1.5 scripts/run_bench.sh
#
# The path-tree row (flat per-path re-runs vs the shared-prefix-tree
# DFS on the deep carry mesh) is gated the same way; a micro report
# *without* a path-tree row fails the gate outright.  Override:
# RD_MIN_TREE_SPEEDUP=1.5 scripts/run_bench.sh
#
# The example/c17 classify-fs rows must not lose to the reference
# engine (RD_MIN_SMALL_RATIO, quick allowance 0.9 — microsecond rows
# carry the most sampling noise).
case "$ARGS" in
  *--quick*) DEFAULT_MIN_SPEEDUP=1.9 DEFAULT_MIN_TREE_SPEEDUP=1.9
             DEFAULT_MIN_SMALL_RATIO=0.9 ;;
  *)         DEFAULT_MIN_SPEEDUP=2.0 DEFAULT_MIN_TREE_SPEEDUP=2.0
             DEFAULT_MIN_SMALL_RATIO=1.0 ;;
esac
MIN_SPEEDUP="${RD_MIN_SPEEDUP:-$DEFAULT_MIN_SPEEDUP}"
MIN_TREE_SPEEDUP="${RD_MIN_TREE_SPEEDUP:-$DEFAULT_MIN_TREE_SPEEDUP}"
MIN_SMALL_RATIO="${RD_MIN_SMALL_RATIO:-$DEFAULT_MIN_SMALL_RATIO}"

# Committed baselines for the trend gate, snapshotted BEFORE the bench
# binaries overwrite the reports in place.  Missing from HEAD (first
# run in a fresh repo) just skips the trend for that report.
TREND_TOLERANCE="${RD_TREND_TOLERANCE:-15}"
TREND_DIR="$(mktemp -d)"
trap 'rm -rf "$TREND_DIR"' EXIT
for name in micro engines; do
  git show "HEAD:BENCH_${name}.json" > "$TREND_DIR/BENCH_${name}.json" \
    2>/dev/null || rm -f "$TREND_DIR/BENCH_${name}.json"
done

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
TARGETS=(rdfast_cli)
for name in "${BENCHES[@]}"; do TARGETS+=("bench_$name"); done
cmake --build "$BUILD_DIR" -j"$(nproc)" --target "${TARGETS[@]}"

status=0
for name in "${BENCHES[@]}"; do
  out="BENCH_${name}.json"
  echo "== bench_$name $ARGS --json=$out"
  # shellcheck disable=SC2086  # ARGS is intentionally word-split
  if ! "$BUILD_DIR/bench/bench_$name" $ARGS --json="$out"; then
    echo "bench_$name FAILED" >&2
    status=1
    continue
  fi
  if ! "$BUILD_DIR/examples/rdfast_cli" validate-json "$out"; then
    echo "bench_$name emitted an invalid report: $out" >&2
    status=1
  fi
done

# Gate the compiled-engine and path-tree speedup claims: the micro
# report must carry both engines' numbers, the bit-identity verdicts,
# an mcnc-like ratio at or above the floor, and a path-tree row at or
# above its floor (a missing row is itself a failure).
if [ "$status" -eq 0 ]; then
  if ! python3 scripts/compare_bench.py --self BENCH_micro.json \
       --min-speedup "$MIN_SPEEDUP" \
       --min-tree-speedup "$MIN_TREE_SPEEDUP" \
       --min-small-ratio "$MIN_SMALL_RATIO"; then
    echo "bench_micro speedup gate FAILED" >&2
    status=1
  fi
fi

# Trend gate: the fresh micro/engines reports may not drop a study or
# regress a machine-portable relative metric (throughput_ratio,
# speedup, serial/parallel) by more than RD_TREND_TOLERANCE percent
# against the committed baselines.  Skipped when HEAD has no baseline
# (fresh repo) — and expected to fail until a PR that changes the row
# set regenerates the committed reports, which is the point.
if [ "$status" -eq 0 ]; then
  for name in micro engines; do
    baseline="$TREND_DIR/BENCH_${name}.json"
    [ -f "$baseline" ] || continue
    if ! python3 scripts/compare_bench.py --trend "$baseline" \
         "BENCH_${name}.json" --trend-tolerance "$TREND_TOLERANCE"; then
      echo "bench_${name} trend gate FAILED (fresh run regressed vs the" \
           "committed BENCH_${name}.json; RD_TREND_TOLERANCE overrides)" >&2
      status=1
    fi
  done
fi

# Gate the daemon claims: the bench_serve mixed replay must cover at
# least 2000 requests with zero errors, hit the compiled-circuit cache
# at >= 95%, stay bit-identical to the one-shot session, and abort the
# fault-injected probe with a typed reason while the replay completes.
# Override the floors: RD_MIN_SERVE_REQUESTS / RD_MIN_SERVE_HIT_RATE.
if [ "$status" -eq 0 ]; then
  if ! python3 scripts/compare_bench.py --serve BENCH_serve.json \
       --min-requests "${RD_MIN_SERVE_REQUESTS:-2000}" \
       --min-hit-rate "${RD_MIN_SERVE_HIT_RATE:-0.95}"; then
    echo "bench_serve daemon gate FAILED" >&2
    status=1
  fi
fi

# Gate the incremental (ECO) claims: bench_eco's edit sequences must
# show every warm incremental run bit-identical to cold full
# reclassification, strictly fewer reclassified cones than the full
# flow, and a measurable wall-clock speedup at or above the floor.
# Override the floor: RD_MIN_ECO_SPEEDUP=1.2 scripts/run_bench.sh
if [ "$status" -eq 0 ]; then
  if ! python3 scripts/compare_bench.py --eco BENCH_eco.json \
       --min-eco-speedup "${RD_MIN_ECO_SPEEDUP:-1.0}"; then
    echo "bench_eco incremental gate FAILED" >&2
    status=1
  fi
fi

if [ "$status" -ne 0 ]; then
  echo "benchmark sweep FAILED" >&2
fi
exit "$status"
