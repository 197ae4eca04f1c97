#!/usr/bin/env bash
# Fail if any trace event kind defined in src/obs/TraceEvent.h is not
# documented in docs/TELEMETRY.md, or if the document lists what the code
# no longer has: a wire name in the event catalog table that
# TraceEvent.h does not define, or a `cache.*` counter in the Metrics
# section that src/dbt/ExecutionContext.cpp does not register.  Run from
# anywhere in the repo.
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
HEADER="$ROOT/src/obs/TraceEvent.h"
DOC="$ROOT/docs/TELEMETRY.md"

if [ ! -f "$HEADER" ] || [ ! -f "$DOC" ]; then
  echo "check_telemetry_docs: missing $HEADER or $DOC" >&2
  exit 1
fi

# Extract every wire name from the X-macro:  X(EnumName, "wire.name")
names=$(sed -n 's/^ *X([A-Za-z0-9_]*, *"\([^"]*\)").*/\1/p' "$HEADER")
if [ -z "$names" ]; then
  echo "check_telemetry_docs: no event kinds parsed from $HEADER" >&2
  exit 1
fi

missing=0
count=0
for name in $names; do
  count=$((count + 1))
  if ! grep -qF "\`$name\`" "$DOC"; then
    echo "check_telemetry_docs: event '$name' is not documented in docs/TELEMETRY.md" >&2
    missing=1
  fi
done

# Serving-layer coverage: every cache.* counter the execution context
# registers, and every field of the "serving" record that
# bench/serving_throughput writes into results/bench_perf.json, must be
# documented too.
SERVING_CTX="$ROOT/src/dbt/ExecutionContext.cpp"
SERVING_BENCH="$ROOT/bench/serving_throughput.cpp"
extra=$(
  sed -n 's/.*addCounter("\(cache\.[a-z_]*\)".*/\1/p' "$SERVING_CTX"
  sed -n 's/.*\\"\(serving_[a-z_]*\|warm_hit_rate\|cold_p[059]*_ms\|warm_p[059]*_ms\)\\".*/\1/p' "$SERVING_BENCH"
)
if [ -z "$extra" ]; then
  echo "check_telemetry_docs: no serving metrics parsed from $SERVING_CTX / $SERVING_BENCH" >&2
  exit 1
fi
for name in $extra; do
  count=$((count + 1))
  if ! grep -qF "\`$name\`" "$DOC"; then
    echo "check_telemetry_docs: serving metric '$name' is not documented in docs/TELEMETRY.md" >&2
    missing=1
  fi
done

# Reverse direction: the event catalog table (the rows under the
# "| Wire name |" header) and the Metrics section's `cache.*` counters
# must name nothing the code has dropped.
documented_events=$(awk '/^\| Wire name \|/ { t = 1; next }
  t && !/^\|/ { exit }
  t { print }' "$DOC" | sed -n 's/^| `\([^`]*\)` |.*/\1/p')
if [ -z "$documented_events" ]; then
  echo "check_telemetry_docs: no event table parsed from $DOC" >&2
  exit 1
fi
stale=0
for name in $documented_events; do
  if ! printf '%s\n' $names | grep -qxF "$name"; then
    echo "check_telemetry_docs: docs/TELEMETRY.md documents event '$name', which src/obs/TraceEvent.h does not define" >&2
    stale=1
  fi
done
registered=$(sed -n 's/.*addCounter("\(cache\.[a-z_]*\)".*/\1/p' "$SERVING_CTX")
documented_counters=$(awk '/^## / { m = ($0 == "## Metrics") } m' "$DOC" |
  grep -o '`cache\.[a-z_]*`' | tr -d '`' | sort -u)
for name in $documented_counters; do
  if ! printf '%s\n' $registered | grep -qxF "$name"; then
    echo "check_telemetry_docs: docs/TELEMETRY.md documents counter '$name', which src/dbt/ExecutionContext.cpp does not register" >&2
    stale=1
  fi
done

if [ "$missing" -ne 0 ]; then
  echo "check_telemetry_docs: FAILED — add the missing events/metrics to the catalog" >&2
  exit 1
fi
if [ "$stale" -ne 0 ]; then
  echo "check_telemetry_docs: FAILED — remove the stale events/counters from the catalog" >&2
  exit 1
fi
echo "check_telemetry_docs: OK ($count event kinds and serving metrics all documented, none stale)"
