#!/usr/bin/env bash
# Runs the full static-analysis pass; the CI lint job runs exactly this
# script, so a clean local run means a green CI lint job.
#
#   1. flb_analyze (all nine rules: the token-local domain invariants
#      FLB001-FLB006 and the interprocedural FLB007-FLB009 lock-order,
#      determinism-taint and layering passes) over src/ with the checked-in
#      exceptions + baseline files; emits results/BENCH_flb_analyze.json
#      and results/flb_analyze.sarif (uploaded to code scanning in CI)
#   2. clang thread-safety build of the flb library (-Werror=thread-safety)
#   3. clang-tidy over src/ and tools/ via compile_commands.json
#   4. clang-format --dry-run over tools/ and the whole src/ tree
#
# Steps 2-4 need clang/clang-tidy/clang-format; when absent they are
# skipped with a notice (the container toolchain is gcc-only) unless
# --require-clang is given, in which case a missing tool is a hard failure.
#
# Usage: ./scripts/run_lint.sh [--require-clang] [build-dir]
set -euo pipefail

REQUIRE_CLANG=0
BUILD_DIR="build"
while [ $# -gt 0 ]; do
  case "$1" in
    --require-clang)
      REQUIRE_CLANG=1
      shift
      ;;
    *)
      BUILD_DIR="$1"
      shift
      ;;
  esac
done

cd "$(dirname "$0")/.."
fail=0

have() { command -v "$1" >/dev/null 2>&1; }

missing() {
  if [ "$REQUIRE_CLANG" = 1 ]; then
    echo "lint: $1 not found (required by --require-clang)" >&2
    fail=1
  else
    echo "lint: $1 not found, skipping $2"
  fi
}

# ---- 1. flb_analyze -------------------------------------------------------
cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j --target flb_analyze >/dev/null
mkdir -p results
if ! "$BUILD_DIR"/tools/flb_analyze/flb_analyze --root src \
    --exceptions tools/flb_analyze/layering_exceptions.txt \
    --baseline tools/flb_analyze/analyze_baseline.txt \
    --json results/BENCH_flb_analyze.json \
    --sarif results/flb_analyze.sarif; then
  echo "lint: flb_analyze found new (non-baselined) findings" >&2
  fail=1
fi

# ---- 2. clang thread-safety build ----------------------------------------
if have clang++; then
  cmake -B "$BUILD_DIR-tsa" -S . \
    -DCMAKE_CXX_COMPILER=clang++ \
    -DCMAKE_CXX_FLAGS="-Wthread-safety -Werror=thread-safety" >/dev/null
  if ! cmake --build "$BUILD_DIR-tsa" -j --target flb >/dev/null; then
    echo "lint: thread-safety build failed" >&2
    fail=1
  fi
else
  missing clang++ "thread-safety analysis build"
fi

# ---- 3. clang-tidy --------------------------------------------------------
if have clang-tidy; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  # Headers are covered through HeaderFilterRegex in .clang-tidy.
  mapfile -t tidy_sources < <(git ls-files 'src/**/*.cc' 'tools/**/*.cc')
  if ! clang-tidy -p "$BUILD_DIR" --quiet "${tidy_sources[@]}"; then
    echo "lint: clang-tidy found issues" >&2
    fail=1
  fi
else
  missing clang-tidy "clang-tidy checks"
fi

# ---- 4. clang-format ------------------------------------------------------
if have clang-format; then
  mapfile -t fmt_sources < <(git ls-files 'tools/**/*.cc' 'tools/**/*.h' \
    'src/**/*.cc' 'src/**/*.h')
  if ! clang-format --dry-run -Werror "${fmt_sources[@]}"; then
    echo "lint: clang-format differences in tools/ or src/" >&2
    fail=1
  fi
else
  missing clang-format "format check"
fi

if [ "$fail" = 0 ]; then
  echo "lint: all checks passed"
fi
exit "$fail"
