#!/usr/bin/env bash
# Build the benchmark (Release, assertions on) and run it.
#
#   benchmark/run.sh [--seed S] [--seconds N] [--trace] [--out DIR]
#       Run every workload, each in its own process, and print one row
#       per workload.  --trace adds the traced pass and the per-layer
#       metrics.  Results go to DIR (default benchmark/out/seed<S>).
#
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#       Run one workload.  The last line of stdout is the JSON result.
#
#   benchmark/run.sh --self-test
#       Tiny runs of every workload, plus a corrupted oracle record that
#       must be caught.
#
# Exits nonzero if the build fails or any request differs from its
# interpreter oracle.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(cd "$HERE/.." && pwd)"
BUILD="$HERE/build"

usage() {
  sed -n '2,17s/^# \{0,1\}//p' "${BASH_SOURCE[0]}"
}

WORKLOAD=""
SEED=1
RUN_SECONDS=20
TRACE=0
OUT=""
SELF_TEST=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) WORKLOAD="${2:?missing value for --workload}"; shift 2 ;;
    --seed) SEED="${2:?missing value for --seed}"; shift 2 ;;
    --seconds) RUN_SECONDS="${2:?missing value for --seconds}"; shift 2 ;;
    --trace)
      if [[ "${2:-}" =~ ^[01]$ ]]; then TRACE="$2"; shift 2
      else TRACE=1; shift; fi ;;
    --out) OUT="${2:?missing value for --out}"; shift 2 ;;
    --self-test) SELF_TEST=1; shift ;;
    -h|--help) usage; exit 0 ;;
    *) echo "run.sh: unknown argument $1" >&2; usage >&2; exit 2 ;;
  esac
done

# Configure and build quietly; the log is shown only on failure, so that
# stdout carries nothing but results.
mkdir -p "$BUILD"
LOG="$BUILD/build.log"
GENERATOR=()
if command -v ninja >/dev/null 2>&1; then GENERATOR=(-G Ninja); fi
JOBS="$(nproc 2>/dev/null || echo 2)"
if [ "$JOBS" -gt 4 ]; then JOBS=4; fi
if ! { cmake -S "$HERE" -B "$BUILD" "${GENERATOR[@]}" &&
       cmake --build "$BUILD" -j "$JOBS"; } >"$LOG" 2>&1; then
  echo "run.sh: the benchmark failed to build; last lines of $LOG:" >&2
  tail -n 20 "$LOG" >&2
  exit 1
fi
BIN="$BUILD/mdabt_benchmark"

REV=unknown
if [ -e "$ROOT/.git" ] && command -v git >/dev/null 2>&1; then
  REV="$(git -C "$ROOT" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
fi

if [ "$SELF_TEST" = 1 ]; then
  exec "$BIN" --self-test --out "${OUT:-$HERE/out}"
fi

if [ -n "$WORKLOAD" ]; then
  exec "$BIN" --workload "$WORKLOAD" --seed "$SEED" --seconds "$RUN_SECONDS" \
    --trace "$TRACE" --out "${OUT:-$HERE/out}" --rev "$REV"
fi

OUT="${OUT:-$HERE/out/seed$SEED}"
mkdir -p "$OUT"
STATUS=0
for W in $(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$ROOT/BENCHMARK.json"); do
  echo "run.sh: $W (log in $OUT/$W.log)" >&2
  if ! "$BIN" --workload "$W" --seed "$SEED" --seconds "$RUN_SECONDS" \
      --trace "$TRACE" --out "$OUT" --rev "$REV" >/dev/null 2>"$OUT/$W.log"; then
    echo "run.sh: $W FAILED; see $OUT/$W.log" >&2
    STATUS=1
  fi
done
python3 "$HERE/compare.py" "$OUT"
exit "$STATUS"
