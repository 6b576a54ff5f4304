#!/usr/bin/env bash
# Regenerates every paper table/figure plus the extension benches into
# results/, then runs the test suite. Usage:
#   ./scripts/run_all_experiments.sh [--smoke] [--chaos[=plan]] [build-dir]
#
# --smoke: CI-sized pass — FLB_SMOKE=1 shrinks the workload grids to a
# single tiny key size (256-bit) and one epoch over miniature datasets, and
# the microbenchmarks run one timing batch each. Exercises every driver
# end-to-end in minutes instead of hours; the numbers are meaningless.
#
# --chaos[=plan]: run the table/figure drivers under a fault plan
# (FLB_FAULT_PLAN; grammar in src/net/fault.h). Without a plan argument a
# canned mix of loss, duplication, reordering, corruption, a straggler, a
# crash window, and a partition window is used. The plan applies ONLY to
# the bench drivers — ctest always runs fault-free.
set -euo pipefail

DEFAULT_CHAOS_PLAN='seed=7;drop=0.02;dup=0.005;reorder=0.01;corrupt=0.002;straggler=party1:4;crash=party2@0.4-0.9;partition=party0|server@0.2-0.3'

SMOKE=0
CHAOS_PLAN=""
while [ $# -gt 0 ]; do
  case "$1" in
    --smoke)
      SMOKE=1
      shift
      ;;
    --chaos)
      CHAOS_PLAN="$DEFAULT_CHAOS_PLAN"
      shift
      ;;
    --chaos=*)
      CHAOS_PLAN="${1#--chaos=}"
      shift
      ;;
    --*)
      echo "unknown flag: $1 (usage: $0 [--smoke] [--chaos[=plan]] [build-dir])" >&2
      exit 2
      ;;
    *)
      break
      ;;
  esac
done

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
RESULTS="$REPO_ROOT/results"
mkdir -p "$RESULTS"

# Per-driver wall-clock budget. A wedged driver (deadlocked pool, runaway
# workload) would otherwise hang the whole sweep — and CI — silently.
BENCH_TIMEOUT="${FLB_BENCH_TIMEOUT:-1200}"

# run_driver <name> <cmd...>: run one bench under `timeout`, teeing its
# output to results/<name>.txt. Fails the sweep with an explicit message on
# timeout (exit 124) or any other nonzero exit.
run_driver() {
  local name="$1"
  shift
  local rc=0
  set +e
  timeout --foreground "$BENCH_TIMEOUT" "$@" | tee "$RESULTS/$name.txt" | tail -3
  rc="${PIPESTATUS[0]}"
  set -e
  if [ "$rc" = 124 ]; then
    echo "ERROR: $name exceeded FLB_BENCH_TIMEOUT=${BENCH_TIMEOUT}s and was killed" >&2
    exit 124
  elif [ "$rc" != 0 ]; then
    echo "ERROR: $name failed with exit code $rc" >&2
    exit "$rc"
  fi
}

if [ ! -d "$REPO_ROOT/$BUILD_DIR" ]; then
  cmake -S "$REPO_ROOT" -B "$REPO_ROOT/$BUILD_DIR" -G Ninja
fi
cmake --build "$REPO_ROOT/$BUILD_DIR"

GBENCH_ARGS=()
if [ "$SMOKE" = 1 ]; then
  export FLB_SMOKE=1
  GBENCH_ARGS=(--benchmark_min_time=0 --benchmark_filter='.*(256|512|1024)')
fi

if [ -n "$CHAOS_PLAN" ]; then
  echo "== chaos mode: bench drivers run under FLB_FAULT_PLAN =="
  echo "   $CHAOS_PLAN"
fi

echo "== tests =="
ctest --test-dir "$REPO_ROOT/$BUILD_DIR" | tee "$RESULTS/tests.txt" | tail -3

# Static-analysis counts ride the same BenchJson -> summary.json pipeline
# as the benches: flb_analyze drops a BENCH_*.json artifact into results/,
# which the fold below picks up as flb.analyze.* rows.
echo "== static analysis =="
"$REPO_ROOT/$BUILD_DIR"/tools/flb_analyze/flb_analyze \
  --root "$REPO_ROOT/src" \
  --exceptions "$REPO_ROOT/tools/flb_analyze/layering_exceptions.txt" \
  --baseline "$REPO_ROOT/tools/flb_analyze/analyze_baseline.txt" \
  --json "$RESULTS/BENCH_flb_analyze.json"

for bench in "$REPO_ROOT/$BUILD_DIR"/bench/bench_*; do
  name="$(basename "$bench")"
  echo "== $name =="
  case "$name" in
    # google-benchmark microbenches take runtime flags; the table/figure
    # drivers read FLB_SMOKE from the environment instead. Their results
    # are mirrored into the same BenchJson schema (bench/gbench_json.h),
    # so they leave BENCH_*.json artifacts like the regenerators do.
    bench_montgomery | bench_mpint | bench_paillier)
      run_driver "$name" env \
        FLB_BENCH_NAME="$name" \
        FLB_BENCH_JSON="$RESULTS/BENCH_$name.json" \
        "$bench" "${GBENCH_ARGS[@]}"
      ;;
    *)
      # Table/figure drivers export the observability artifacts: bench
      # result records, a unified metrics snapshot, and the (last run's)
      # simulated-time trace.
      # An empty FLB_FAULT_PLAN is ignored by the platform, so chaos mode
      # is a pure pass-through here.
      run_driver "$name" env \
        FLB_FAULT_PLAN="$CHAOS_PLAN" \
        FLB_BENCH_NAME="$name" \
        FLB_BENCH_JSON="$RESULTS/BENCH_$name.json" \
        FLB_METRICS_OUT="$RESULTS/$name.metrics.json" \
        FLB_TRACE_OUT="$RESULTS/$name.trace.json" \
        "$bench"
      ;;
  esac
done

# Fold every driver's metrics snapshot and bench records into one
# results/summary.json keyed by driver name.
python3 - "$RESULTS" <<'PYEOF'
import json, pathlib, sys

results = pathlib.Path(sys.argv[1])
summary = {"benches": {}}
for path in sorted(results.glob("BENCH_*.json")):
    name = path.stem[len("BENCH_"):]
    with open(path) as f:
        data = json.load(f)
    entry = summary["benches"].setdefault(name, {})
    entry["results"] = data.get("results", [])
    if "host_threads" in data:
        entry["host_threads"] = data["host_threads"]
    if "wall_ms" in data:
        entry["wall_ms"] = data["wall_ms"]
for path in sorted(results.glob("*.metrics.json")):
    name = path.name[: -len(".metrics.json")]
    with open(path) as f:
        data = json.load(f)
    summary["benches"].setdefault(name, {})["metrics"] = data.get("metrics", [])
n_results = sum(len(b.get("results", [])) for b in summary["benches"].values())
n_metrics = sum(len(b.get("metrics", [])) for b in summary["benches"].values())
summary["totals"] = {
    "benches": len(summary["benches"]),
    "results": n_results,
    "metrics": n_metrics,
}
out = results / "summary.json"
with open(out, "w") as f:
    json.dump(summary, f, indent=1)
print(f"wrote {out}: {len(summary['benches'])} benches, "
      f"{n_results} result rows, {n_metrics} metrics")
PYEOF

echo
echo "All outputs in $RESULTS/."
