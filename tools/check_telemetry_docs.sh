#!/usr/bin/env bash
# Fail if any trace event kind defined in src/obs/TraceEvent.h is not
# documented in docs/TELEMETRY.md, or if the document lists what the code
# no longer has: a wire name in the event catalog table that
# TraceEvent.h does not define, or a `cache.*` counter in the Metrics
# section that src/dbt/ExecutionContext.cpp does not register, or a
# `dispatch.*` or `trace.*` counter there that the file registering the
# hot-dispatch counters (src/dbt/Dispatch.h) does not register.  The
# `verify.fail` row must list every verifier issue kind with its enum
# index, as "<index> <name>" with the name verifyIssueKindName returns
# (src/analysis/HostVerifier.cpp), and no kind the code no longer has.
# Run from anywhere in the repo.
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

# The counters with prefix $1 (an ERE alternation) that file $2 registers.
registered_counters() {
  grep -oE "addCounter\(\"($1)\.[a-z_]*\"" "$2" | sed 's/^addCounter("//; s/"$//'
}
# The counters with prefix $1 the Metrics section documents.
documented_counters() {
  awk '/^## / { m = ($0 == "## Metrics") } m' "$DOC" |
    grep -oE "\`($1)\.[a-z_]*\`" | tr -d '`' | sort -u
}

# Serving-layer coverage: every cache.* counter the execution context
# registers, and every field of the "serving" record that
# bench/serving_throughput writes into results/bench_perf.json, must be
# documented too.
SERVING_CTX="$ROOT/src/dbt/ExecutionContext.cpp"
SERVING_BENCH="$ROOT/bench/serving_throughput.cpp"
extra=$(
  registered_counters cache "$SERVING_CTX"
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

# Hot-dispatch coverage: every dispatch.* and trace.* counter, documented
# in the Metrics section, and registered by the one file that registers
# them.
DISPATCH_FILES=$(grep -rlE 'addCounter\("(dispatch|trace)\.' "$ROOT/src")
if [ "$(printf '%s\n' "$DISPATCH_FILES" | grep -c .)" -ne 1 ]; then
  echo "check_telemetry_docs: expected one file under src/ to register the dispatch.*/trace.* counters, found: ${DISPATCH_FILES:-none}" >&2
  exit 1
fi
dispatch_registered=$(registered_counters 'dispatch|trace' "$DISPATCH_FILES")
for name in $dispatch_registered; do
  count=$((count + 1))
  if ! grep -qF "\`$name\`" "$DOC"; then
    echo "check_telemetry_docs: hot-dispatch counter '$name' is not documented in docs/TELEMETRY.md" >&2
    missing=1
  fi
done

# Reverse direction: the event catalog table (the rows under the
# "| Wire name |" header) and the Metrics section's `cache.*`,
# `dispatch.*` and `trace.*` counters must name nothing the code has
# dropped.
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
registered=$(registered_counters cache "$SERVING_CTX")
for name in $(documented_counters cache); do
  if ! printf '%s\n' $registered | grep -qxF "$name"; then
    echo "check_telemetry_docs: docs/TELEMETRY.md documents counter '$name', which src/dbt/ExecutionContext.cpp does not register" >&2
    stale=1
  fi
done
for name in $(documented_counters 'dispatch|trace'); do
  if ! printf '%s\n' $dispatch_registered | grep -qxF "$name"; then
    echo "check_telemetry_docs: docs/TELEMETRY.md documents counter '$name', which ${DISPATCH_FILES#"$ROOT"/} does not register" >&2
    stale=1
  fi
done

# Verifier issue kinds: the enum order in HostVerifier.h gives the
# index the `verify.fail` event carries, verifyIssueKindName the name.
VERIFIER_H="$ROOT/src/analysis/HostVerifier.h"
VERIFIER_CPP="$ROOT/src/analysis/HostVerifier.cpp"
kinds=$(awk '/^enum class VerifyIssueKind/ { e = 1; next }
  e && /^};/ { exit }
  e' "$VERIFIER_H" | sed -n 's/^ *\([A-Z][A-Za-z0-9]*\),.*/\1/p')
kind_names=$(awk '/case VerifyIssueKind::/ {
    k = $0; sub(/.*VerifyIssueKind::/, "", k); sub(/:.*/, "", k); next }
  k != "" && /return "/ {
    n = $0; sub(/.*return "/, "", n); sub(/".*/, "", n); print k, n; k = "" }' \
  "$VERIFIER_CPP")
if [ -z "$kinds" ] || [ -z "$kind_names" ]; then
  echo "check_telemetry_docs: no verifier issue kinds parsed from $VERIFIER_H / $VERIFIER_CPP" >&2
  exit 1
fi
documented_kinds=$(grep '^| `verify.fail` |' "$DOC" |
  sed -n 's/.*`analysis::VerifyIssueKind` (\([^)]*\)).*/\1/p' |
  tr ',' '\n' | sed 's/^ *//; s/ *$//')
if [ -z "$documented_kinds" ]; then
  echo "check_telemetry_docs: no verifier issue kinds parsed from the verify.fail row of $DOC" >&2
  exit 1
fi
expected_kinds=""
index=0
for kind in $kinds; do
  count=$((count + 1))
  name=$(printf '%s\n' "$kind_names" | awk -v k="$kind" '$1 == k { print $2 }')
  if [ -z "$name" ]; then
    echo "check_telemetry_docs: verifier issue kind $kind has no verifyIssueKindName string" >&2
    missing=1
  else
    expected_kinds="$expected_kinds$index $name
"
    if ! printf '%s\n' "$documented_kinds" | grep -qxF "$index $name"; then
      echo "check_telemetry_docs: verifier issue kind '$index $name' is not documented in the verify.fail row of docs/TELEMETRY.md" >&2
      missing=1
    fi
  fi
  index=$((index + 1))
done
while IFS= read -r entry; do
  if ! printf '%s' "$expected_kinds" | grep -qxF "$entry"; then
    echo "check_telemetry_docs: docs/TELEMETRY.md documents verifier issue kind '$entry', which src/analysis/HostVerifier.* does not define" >&2
    stale=1
  fi
done <<<"$documented_kinds"

if [ "$missing" -ne 0 ]; then
  echo "check_telemetry_docs: FAILED — add the missing events/metrics to the catalog" >&2
  exit 1
fi
if [ "$stale" -ne 0 ]; then
  echo "check_telemetry_docs: FAILED — remove the stale events/counters from the catalog" >&2
  exit 1
fi
echo "check_telemetry_docs: OK ($count event kinds, serving and hot-dispatch metrics and verifier issue kinds all documented, none stale)"
