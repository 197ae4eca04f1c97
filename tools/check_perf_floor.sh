#!/usr/bin/env bash
# Perf-record check: compare a freshly measured bench_perf.json against
# the checked-in reference.
#
# Two tiers:
#  * Deterministic fields — modeled MIPS, host-insts-per-guest-inst,
#    hit rates, AOT block counts and startup cycles — are pure functions
#    of the cost model and the workloads, identical on every machine and
#    at every job count.  Any mismatch HARD-FAILS (exit 1): it is a real
#    costing or mechanism change, and the reference must be regenerated
#    in the same change that causes it.
#  * Wall-clock fields (host-sim, interpreter, engine dispatch ladder,
#    serving and fusion guest MIPS) only emit a GitHub Actions ::warning
#    when they regress more than 10%: they depend on the runner's CPU
#    and load, so a hard gate against a reference measured elsewhere
#    would flake.
#
# Every --perf-json writer also stamps its record with "build_type" and
# "nproc".  Both files' stamps are printed.  A build-type mismatch, or a
# missing or mixed build type, HARD-FAILS: numbers from different build
# types are never comparable.  A core-count mismatch only warns.
#
# Usage: check_perf_floor.sh <fresh bench_perf.json> [reference.json]
# The reference defaults to the repo's results/bench_perf.json.
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
FRESH="${1:?usage: check_perf_floor.sh <fresh bench_perf.json> [reference.json]}"
REF="${2:-$ROOT/results/bench_perf.json}"

if [ ! -f "$FRESH" ]; then
  echo "check_perf_floor: fresh measurement '$FRESH' not found" >&2
  exit 1
fi
if [ ! -f "$REF" ]; then
  echo "check_perf_floor: reference '$REF' not found" >&2
  exit 1
fi

# Pull `"key": <number>` out of the flat JSON; every key is unique
# across the file so no real parser is needed.
field() { sed -n 's/.*"'"$2"'": *\(-\{0,1\}[0-9.eE+-]*\).*/\1/p' "$1" | head -n 1; }

EXACT_FIELDS="hipgi_off hipgi_on
              serving_cold_modeled_mips serving_warm_modeled_mips
              warm_hit_rate
              aot_blocks aot_coverage_pct aot_startup_cycles
              aot_steady_mips aot_dbt_baseline_mips"

WALL_FIELDS="predecode_mips interpreter_mips
             baseline_mips hash_mips ic_mips superblock_mips all_on_mips
             serving_warm_mips off_guest_mips on_guest_mips"

# Distinct values of a stamp key across the whole file, space-separated
# (one per record that carries it; a clean file has exactly one).
stamps() {
  sed -n 's/.*"'"$2"'": *"\{0,1\}\([^",]*\)"\{0,1\},\{0,1\} *$/\1/p' "$1" |
    sort -u | paste -sd' ' -
}

checked=0
warned=0
failed=0

new_bt="$(stamps "$FRESH" build_type)"
old_bt="$(stamps "$REF" build_type)"
new_np="$(stamps "$FRESH" nproc)"
old_np="$(stamps "$REF" nproc)"
echo "check_perf_floor: fresh build_type=${new_bt:-missing} nproc=${new_np:-missing};" \
     "reference build_type=${old_bt:-missing} nproc=${old_np:-missing}"
if [ -z "$new_bt" ] || [ -z "$old_bt" ] || [ "$new_bt" != "$old_bt" ] ||
   [[ "$new_bt" == *" "* ]]; then
  echo "::error ::check_perf_floor: build_type '${new_bt:-missing}' vs reference '${old_bt:-missing}' (records from different, mixed or unstamped build types are not comparable)"
  failed=$((failed + 1))
fi
if [ "$new_np" != "$old_np" ]; then
  echo "::warning ::check_perf_floor: nproc '${new_np:-missing}' vs reference '${old_np:-missing}' (wall-clock fields compare different machines)"
  warned=$((warned + 1))
fi

for key in $EXACT_FIELDS; do
  new="$(field "$FRESH" "$key")"
  old="$(field "$REF" "$key")"
  if [ -z "$new" ] || [ -z "$old" ]; then
    echo "::error ::check_perf_floor: deterministic field '$key' missing from $([ -z "$new" ] && echo fresh || echo reference) bench_perf.json"
    failed=$((failed + 1))
    continue
  fi
  checked=$((checked + 1))
  if awk -v n="$new" -v o="$old" 'BEGIN { exit !(n + 0 != o + 0) }'; then
    echo "::error ::check_perf_floor: $key is ${new}, reference ${old} (deterministic: regenerate results/bench_perf.json with the change that moved it)"
    failed=$((failed + 1))
  fi
done

for key in $WALL_FIELDS; do
  new="$(field "$FRESH" "$key")"
  old="$(field "$REF" "$key")"
  if [ -z "$new" ] || [ -z "$old" ]; then
    echo "::warning ::check_perf_floor: field '$key' missing from $([ -z "$new" ] && echo fresh || echo reference) bench_perf.json"
    warned=$((warned + 1))
    continue
  fi
  checked=$((checked + 1))
  if awk -v n="$new" -v o="$old" 'BEGIN { exit !(o > 0 && n < 0.9 * o) }'; then
    pct="$(awk -v n="$new" -v o="$old" 'BEGIN { printf "%.1f", 100 * (o - n) / o }')"
    echo "::warning ::check_perf_floor: $key regressed ${pct}% (${new} MIPS vs reference ${old}; wall clock, advisory only)"
    warned=$((warned + 1))
  fi
done

echo "check_perf_floor: $checked fields compared, $warned warnings, $failed hard failures"
[ "$failed" -eq 0 ] || exit 1
exit 0
