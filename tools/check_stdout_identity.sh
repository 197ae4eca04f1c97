#!/usr/bin/env bash
# Stdout identity check: run the figure, ablation, serving and soak
# binaries plus the trace_inspect demo from two build trees at CI scale
# and require byte-identical output.  A refactor that claims to change
# nothing proves it by passing this against a build of its parent; run
# with the same tree twice it checks determinism across invocations.
#
# Compared per binary: stdout (stderr carries wall-clock advisories and
# is ignored).  For the trace_inspect demo also the trace_demo.jsonl
# event stream and trace_demo.metrics.json.  A binary that exits
# nonzero, or a demo that leaves no trace artifacts, is an error in
# either tree: two identical crashes are not a pass.
#
# Usage: check_stdout_identity.sh [--jobs N] BUILD_A BUILD_B
#        check_stdout_identity.sh [--jobs N] --self-test BUILD
#   BUILD_A/BUILD_B: CMake build trees with bench/ and examples/ built.
#   --self-test: collect BUILD's outputs once, require the comparison
#   to pass against an unmodified copy and to FAIL against copies with
#   one perturbed stdout, JSONL or metrics file; then exit 0.
# Exit status: 0 identical, 1 any difference, 2 usage error, missing
# binary, nonzero binary exit or missing demo artifact.
set -u

JOBS=2
if [ "${1:-}" = "--jobs" ]; then
  JOBS="${2:?--jobs needs a value}"
  shift 2
fi

# name|arguments (run from the binary's directory; --jobs appended).
BENCHES="fig16_overall|--refs 60000
ablation_dispatch|--refs 60000
ablation_fusion|--refs 60000
ablation_aot|--refs 60000
ablation_smc|
ablation_alignment_analysis|--refs 60000
ablation_invalidation|--refs 60000
ablation_chaining|--refs 60000
ablation_adaptive|--refs 60000
serving_throughput|--requests 120
chaos_soak|"

usage() {
  sed -n '/^# Usage:/,/^# Exit status/p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

# collect BUILD OUTDIR: every binary's stdout, plus the demo trace
# artifacts, into OUTDIR.  Returns 2 on a missing binary, a nonzero exit
# or a missing artifact.
collect() {
  local build out="$2" line name args bin rc f
  # Absolute: the demo runs from a scratch directory.
  if ! build="$(cd "$1" 2> /dev/null && pwd)"; then
    echo "check_stdout_identity: no build tree $1" >&2
    return 2
  fi
  mkdir -p "$out"
  while IFS= read -r line; do
    name="${line%%|*}"
    args="${line#*|}"
    bin="$build/bench/$name"
    if [ ! -x "$bin" ]; then
      echo "check_stdout_identity: missing $bin" >&2
      return 2
    fi
    rc=0
    # shellcheck disable=SC2086 # args is a word list by design
    (cd "$build/bench" && "./$name" $args --jobs "$JOBS") \
      > "$out/$name.stdout" 2> /dev/null || rc=$?
    if [ "$rc" -ne 0 ]; then
      echo "check_stdout_identity: $bin exited $rc" >&2
      return 2
    fi
  done <<< "$BENCHES"
  bin="$build/examples/trace_inspect"
  if [ ! -x "$bin" ]; then
    echo "check_stdout_identity: missing $bin" >&2
    return 2
  fi
  local demo
  demo="$(mktemp -d)"
  rc=0
  (cd "$demo" && "$bin") > "$out/trace_inspect.stdout" 2> /dev/null || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "check_stdout_identity: $bin exited $rc" >&2
    rm -rf "$demo"
    return 2
  fi
  for f in trace_demo.jsonl trace_demo.metrics.json; do
    if [ ! -s "$demo/$f" ]; then
      echo "check_stdout_identity: $bin left no $f" >&2
      rm -rf "$demo"
      return 2
    fi
    cp "$demo/$f" "$out/"
  done
  rm -rf "$demo"
  return 0
}

# compare DIR_A DIR_B: 0 if every collected file is byte-identical.
compare() {
  local a="$1" b="$2" f bad=0
  for f in $( (cd "$a" && ls; cd "$b" && ls) | sort -u); do
    if ! cmp -s "$a/$f" "$b/$f"; then
      echo "check_stdout_identity: DIFFERS: $f" >&2
      diff -u "$a/$f" "$b/$f" 2> /dev/null | head -20 >&2
      bad=1
    fi
  done
  return "$bad"
}

self_test() {
  local build="$1" tmp f rc
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  collect "$build" "$tmp/base" || exit 2
  cp -r "$tmp/base" "$tmp/same"
  if ! compare "$tmp/base" "$tmp/same"; then
    echo "check_stdout_identity: self-test FAILED (identical copies differ)" >&2
    exit 1
  fi
  for f in fig16_overall.stdout trace_demo.jsonl trace_demo.metrics.json; do
    rm -rf "$tmp/pert"
    cp -r "$tmp/base" "$tmp/pert"
    if [ ! -s "$tmp/pert/$f" ]; then
      echo "check_stdout_identity: self-test FAILED ($f missing or empty)" >&2
      exit 1
    fi
    # Flip the first digit of the file: the smallest change a modeled
    # count could show.
    sed -i '0,/[0-9]/s/[0-9]/X/' "$tmp/pert/$f"
    rc=0
    compare "$tmp/base" "$tmp/pert" 2> /dev/null || rc=$?
    if [ "$rc" -ne 1 ]; then
      echo "check_stdout_identity: self-test FAILED (perturbed $f not caught)" >&2
      exit 1
    fi
  done
  echo "check_stdout_identity: self-test ok (3 perturbed outputs caught)"
  exit 0
}

if [ "${1:-}" = "--self-test" ]; then
  [ $# -eq 2 ] || usage
  self_test "$2"
fi
[ $# -eq 2 ] || usage

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
collect "$1" "$TMP/a" || exit 2
collect "$2" "$TMP/b" || exit 2
if compare "$TMP/a" "$TMP/b"; then
  echo "check_stdout_identity: identical ($(ls "$TMP/a" | wc -l) files, jobs=$JOBS)"
  exit 0
fi
exit 1
