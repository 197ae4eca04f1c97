#!/usr/bin/env bash
# Layering lint: enforce the docs/ARCHITECTURE.md dependency rules from
# the *actual* `#include` edges under src/.
#
# Each src/<layer>/ may include headers only from itself and from the
# layers ARCHITECTURE.md allows below it.  Two deliberately narrow
# exceptions are whitelisted by exact file -> header pair:
#   * host/HostMachine.h -> guest/GuestMemory.h   (the trapping machine
#     reads/writes guest memory directly; the layers stay otherwise
#     independent)
#   * mda/* -> dbt/Policy.h                       ("mda policies see the
#     engine only through dbt/Policy.h")
# Anything else crossing the map upward or sideways is a back-edge and
# fails the lint, so a new violation cannot land silently.
#
# Inside dbt, the per-run code cache (dbt/CodeCache.*) sits below the
# engine: it may not include dbt/Engine.h, dbt/Policy.h,
# dbt/AotTranslator.h, dbt/TranslationCapture.h,
# dbt/TranslationService.h, or any chaos/ or mda/ header.  The per-run trap path (dbt/FaultPath.*) sits between the two:
# it reaches code only through the cache and decides through the policy
# interface, so it may not include dbt/Engine.h, dbt/AotTranslator.h,
# dbt/TranslationCapture.h, or any analysis/ or mda/ header.  Guest-code
# coherence (dbt/Coherence.*) sits beside the trap path: it reads the
# cache and the alignment analysis and reports to the engine, so it may
# not include dbt/Engine.h, dbt/FaultPath.h, dbt/AotTranslator.h,
# dbt/TranslationCapture.h, host/HostMachine.h, or any chaos/ or mda/
# header.  Hot dispatch (dbt/Dispatch.*) patches code only through the
# cache and hands trace production back to the engine, so it may not
# include dbt/Engine.h, dbt/FaultPath.h, dbt/Coherence.h,
# dbt/AotTranslator.h, dbt/TranslationCapture.h,
# dbt/TranslationService.h, dbt/Translator.h, or any chaos/, mda/ or
# analysis/ header.
#
# One system header is owned too: only guest/GuestMemory.cpp, the guest
# memory's storage, may include <sys/mman.h>, so mapping memory from the
# OS stays in one place.
#
# Usage: check_layering.sh [--self-test] [src-dir]
#   --self-test: build synthetic trees containing a back-edge, forbidden
#   code-cache (engine and service), trap-path, coherence and dispatch
#   edges, and a stray <sys/mman.h>, and assert the lint demonstrably
#   FAILS on each (the CI negative test), then exit 0.
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"

# Allowed cross-layer edges, straight from ARCHITECTURE.md's rules:
#   support depends on nothing; everything may depend on support.
#   obs sits just above support.
#   guest/host are independent (HostMachine exception aside).
#   chaos is observability-free: support only.
#   analysis knows guest+host, never dbt/mda.
#   dbt orchestrates analysis/chaos/guest/host/obs.
#   mda sees guest (+ dbt/Policy.h by exception).
#   workloads builds guest programs.
#   reporting drives dbt/mda/workloads.
allowed_edge() { # $1 = from-layer, $2 = to-layer
  case "$1:$2" in
  obs:support | guest:support | host:support | chaos:support) return 0 ;;
  analysis:guest | analysis:host | analysis:support) return 0 ;;
  dbt:analysis | dbt:chaos | dbt:guest | dbt:host | dbt:obs | dbt:support) return 0 ;;
  mda:guest | mda:support) return 0 ;;
  workloads:guest | workloads:support) return 0 ;;
  reporting:dbt | reporting:guest | reporting:mda | reporting:support | reporting:workloads) return 0 ;;
  esac
  return 1
}

allowed_exception() { # $1 = file relative to src dir, $2 = included header
  case "$1:$2" in
  host/HostMachine.h:guest/GuestMemory.h) return 0 ;;
  mda/*:dbt/Policy.h) return 0 ;;
  esac
  return 1
}

# Prints the rule a forbidden same-layer edge breaks; silent otherwise.
forbidden_edge() { # $1 = file relative to src dir, $2 = included header
  case "$1:$2" in
  dbt/CodeCache.*:dbt/Engine.h | dbt/CodeCache.*:dbt/Policy.h | \
    dbt/CodeCache.*:dbt/AotTranslator.h | dbt/CodeCache.*:dbt/TranslationCapture.h | \
    dbt/CodeCache.*:dbt/TranslationService.h | dbt/CodeCache.*:chaos/* | dbt/CodeCache.*:mda/*)
    echo "the code cache may not depend on the engine, policies, AOT, capture, the shared service, chaos or mda"
    return 0 ;;
  dbt/FaultPath.*:dbt/Engine.h | dbt/FaultPath.*:dbt/AotTranslator.h | \
    dbt/FaultPath.*:dbt/TranslationCapture.h | \
    dbt/FaultPath.*:analysis/* | dbt/FaultPath.*:mda/*)
    echo "the trap path may not depend on the engine, AOT, capture, analysis or mda"
    return 0 ;;
  dbt/Coherence.*:dbt/Engine.h | dbt/Coherence.*:dbt/FaultPath.h | \
    dbt/Coherence.*:dbt/AotTranslator.h | dbt/Coherence.*:dbt/TranslationCapture.h | \
    dbt/Coherence.*:host/HostMachine.h | dbt/Coherence.*:chaos/* | dbt/Coherence.*:mda/*)
    echo "coherence may not depend on the engine, trap path, AOT, capture, host machine, chaos or mda"
    return 0 ;;
  dbt/Dispatch.*:dbt/Engine.h | dbt/Dispatch.*:dbt/FaultPath.h | dbt/Dispatch.*:dbt/Coherence.h | \
    dbt/Dispatch.*:dbt/AotTranslator.h | dbt/Dispatch.*:dbt/TranslationCapture.h | \
    dbt/Dispatch.*:dbt/TranslationService.h | dbt/Dispatch.*:dbt/Translator.h | \
    dbt/Dispatch.*:chaos/* | dbt/Dispatch.*:mda/* | dbt/Dispatch.*:analysis/*)
    echo "hot dispatch may not depend on the engine, trap path, coherence, AOT, capture, the shared service, the translator, chaos, mda or analysis"
    return 0 ;;
  esac
  return 1
}

# The one file that may include <sys/mman.h>.
MMAN_OWNER=guest/GuestMemory.cpp

# Lint one src tree; prints violations, returns the violation count.
lint_tree() { # $1 = src dir
  local src="$1" violations=0 checked=0
  local file rel from line lineno target to rule
  while IFS= read -r file; do
    rel="${file#"$src"/}"
    from="${rel%%/*}"
    # Only first-party quoted includes that name a known layer matter;
    # system headers and third-party includes are not layer edges.
    while IFS=: read -r lineno line; do
      target="$(printf '%s\n' "$line" | sed -n 's/.*#include "\([A-Za-z0-9_][A-Za-z0-9_]*\/[A-Za-z0-9_.\/]*\)".*/\1/p')"
      [ -n "$target" ] || continue
      to="${target%%/*}"
      [ -d "$src/$to" ] || continue # not a layer (e.g. gtest/ headers)
      checked=$((checked + 1))
      if rule="$(forbidden_edge "$rel" "$target")"; then
        echo "::error file=src/$rel,line=$lineno ::layering: $rel includes \"$target\"; $rule"
        violations=$((violations + 1))
        continue
      fi
      [ "$to" = "$from" ] && continue
      if allowed_exception "$rel" "$target"; then
        continue
      fi
      if ! allowed_edge "$from" "$to"; then
        echo "::error file=src/$rel,line=$lineno ::layering: $from -> $to back-edge ($rel includes \"$target\"; not in docs/ARCHITECTURE.md's dependency rules)"
        violations=$((violations + 1))
      fi
    done < <(grep -n '#include "' "$file" || true)
    [ "$rel" = "$MMAN_OWNER" ] && continue
    while IFS=: read -r lineno line; do
      echo "::error file=src/$rel,line=$lineno ::layering: $rel includes <sys/mman.h>; only $MMAN_OWNER maps memory from the OS"
      violations=$((violations + 1))
    done < <(grep -n '#[[:space:]]*include[[:space:]]*<sys/mman\.h>' "$file" || true)
  done < <(find "$src" -name '*.h' -o -name '*.cpp' | sort)
  echo "check_layering: $checked first-party include edges checked, $violations violations" >&2
  return "$violations"
}

# Exit 1 unless the lint fails on a synthetic tree in which $2 (a path
# under src/) includes $3: a first-party header, or <a system header>.
expect_caught() { # $1 = scratch dir, $2 = planted file, $3 = its include
  local src="$1/src" include="\"$3\""
  [ "${3:0:1}" = "<" ] && include="$3"
  rm -rf "$src"
  mkdir -p "$src/guest" "$src/dbt" "$src/support"
  echo '#include "support/Format.h"' > "$src/dbt/Engine.h"
  echo "#include $include" > "$src/$2"
  if lint_tree "$src" > /dev/null 2>&1; then
    echo "check_layering: self-test FAILED ($2 -> $3 was not caught)" >&2
    exit 1
  fi
}

self_test() {
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  # A back-edge: guest reaching up into the engine.
  expect_caught "$tmp" guest/Bad.h dbt/Engine.h
  # A same-layer edge the code cache may not take.
  expect_caught "$tmp" dbt/CodeCache.h dbt/Engine.h
  # The code cache holds records, never the shared service.
  expect_caught "$tmp" dbt/CodeCache.h dbt/TranslationService.h
  # A same-layer edge the trap path may not take.
  expect_caught "$tmp" dbt/FaultPath.h dbt/Engine.h
  # A same-layer edge guest-code coherence may not take.
  expect_caught "$tmp" dbt/Coherence.h dbt/Engine.h
  # Hot dispatch selects traces; the engine translates them.
  expect_caught "$tmp" dbt/Dispatch.h dbt/Translator.h
  # Mapping memory outside the guest memory's storage file.
  expect_caught "$tmp" dbt/CodeCache.cpp "<sys/mman.h>"
  echo "check_layering: self-test ok (synthetic back-edge, code-cache, code-cache service, trap-path, coherence, dispatch and <sys/mman.h> edges caught)"
  exit 0
}

SRC="$ROOT/src"
if [ "${1:-}" = "--self-test" ]; then
  self_test
fi
[ -n "${1:-}" ] && SRC="$1"

if lint_tree "$SRC"; then
  exit 0
fi
exit 1
