//===- obs/TraceEvent.h - Typed engine trace events ------------*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The typed event vocabulary of the observability layer: everything the
/// engine, the MDA policies, and the chaos injector can report about the
/// per-block lifecycle (interpretation heating, translation, chaining,
/// patching, rearrangement/retranslation, degradation, flushes).  Each
/// event carries a monotonic virtual-time stamp in modeled cycles, the
/// guest instruction PC and owning block PC involved, and two
/// kind-specific payload words.
///
/// The authoritative field-by-field schema (including the meaning of the
/// A/B payloads per kind and stability notes) lives in docs/TELEMETRY.md;
/// tools/check_telemetry_docs.sh fails CI if an event kind listed here is
/// missing from that document.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_OBS_TRACEEVENT_H
#define MDABT_OBS_TRACEEVENT_H

#include <cstdint>

namespace mdabt {
namespace obs {

/// X-macro over every trace event kind: X(EnumName, "wire.name").  The
/// wire name is what the JSONL sink writes and what docs/TELEMETRY.md
/// documents; tools/check_telemetry_docs.sh greps this list.
#define MDABT_TRACE_EVENT_KINDS(X)                                           \
  X(RunBegin, "run.begin")                                                   \
  X(RunEnd, "run.end")                                                       \
  X(PhaseTransition, "phase.transition")                                     \
  X(BlockInterpreted, "block.interpreted")                                   \
  X(BlockTranslated, "block.translated")                                     \
  X(BlockChained, "block.chained")                                           \
  X(BlockInvalidated, "block.invalidated")                                   \
  X(BlockRetranslated, "block.retranslated")                                 \
  X(TranslationFailed, "translate.failed")                                   \
  X(TrapTaken, "trap.taken")                                                 \
  X(TrapSpurious, "trap.spurious")                                           \
  X(StubEmitted, "stub.emitted")                                             \
  X(StubReverted, "stub.reverted")                                           \
  X(PatchApplied, "patch.applied")                                           \
  X(PatchRepaired, "patch.repaired")                                         \
  X(PatchRolledBack, "patch.rolled_back")                                    \
  X(LadderRung, "ladder.rung")                                               \
  X(CacheFlush, "cache.flush")                                               \
  X(PolicySiteMarked, "policy.site_marked")                                  \
  X(PolicyMultiVersion, "policy.multi_version")                              \
  X(ChaosInjected, "chaos.injected")                                         \
  X(AnalysisVerdict, "analysis.verdict")                                     \
  X(AnalysisSummary, "analysis.summary")                                     \
  X(VerifyPass, "verify.pass")                                               \
  X(VerifyFail, "verify.fail")                                               \
  X(DispatchIcFill, "dispatch.ic_fill")                                      \
  X(DispatchIcEvict, "dispatch.ic_evict")                                    \
  X(TraceFormed, "trace.formed")                                             \
  X(TraceDeopt, "trace.deopt")                                               \
  X(SmcStore, "smc.store")                                                   \
  X(SmcInvalidate, "smc.invalidate")                                         \
  X(SmcReanalysis, "smc.reanalysis")                                         \
  X(SmcVerdictRevoked, "smc.verdict_revoked")                                \
  X(SmcChurnPin, "smc.churn_pin")                                            \
  X(SmcEpisodeStop, "smc.episode_stop")                                      \
  X(BudgetExceeded, "budget.exceeded")                                       \
  X(CacheHit, "cache.hit")                                                   \
  X(CacheMiss, "cache.miss")                                                 \
  X(CacheLoad, "cache.load")                                                 \
  X(FusionApplied, "fusion.applied")                                         \
  X(FusionSummary, "fusion.summary")                                         \
  X(AotTranslated, "aot.translated")                                         \
  X(AotInstall, "aot.install")                                               \
  X(AotFallback, "aot.fallback")                                             \
  X(AotSummary, "aot.summary")

/// Every event the observability layer can record.
enum class TraceEventKind : uint8_t {
#define MDABT_TRACE_EVENT_ENUM(Name, Wire) Name,
  MDABT_TRACE_EVENT_KINDS(MDABT_TRACE_EVENT_ENUM)
#undef MDABT_TRACE_EVENT_ENUM
};

/// Number of distinct TraceEventKind values.
constexpr unsigned NumTraceEventKinds = 0
#define MDABT_TRACE_EVENT_COUNT(Name, Wire) +1
    MDABT_TRACE_EVENT_KINDS(MDABT_TRACE_EVENT_COUNT)
#undef MDABT_TRACE_EVENT_COUNT
    ;

/// Stable wire name of \p Kind (e.g. "block.translated").
const char *traceEventName(TraceEventKind Kind);

/// Parse a wire name back to its kind.  Returns false if \p Name is not
/// a known event name.
bool traceEventKindFromName(const char *Name, TraceEventKind &Out);

/// One recorded event.  Plain data: sinks may memcpy it, and the
/// ring-buffer sink stores it by value.
struct TraceEvent {
  TraceEventKind Kind = TraceEventKind::RunBegin;
  /// Monotonic virtual-time stamp: total modeled cycles at emission
  /// (native + interpreter + translator + monitor + chaining), i.e. the
  /// same clock RunResult::Cycles reports at end of run.
  uint64_t VirtualTime = 0;
  /// Guest instruction PC the event is about, or 0 when the event is
  /// not tied to one instruction.
  uint32_t GuestPc = 0;
  /// Entry PC of the guest block involved, or 0.
  uint32_t BlockPc = 0;
  /// Kind-specific payloads; per-kind meaning in docs/TELEMETRY.md.
  uint64_t A = 0;
  uint64_t B = 0;

  bool operator==(const TraceEvent &O) const {
    return Kind == O.Kind && VirtualTime == O.VirtualTime &&
           GuestPc == O.GuestPc && BlockPc == O.BlockPc && A == O.A &&
           B == O.B;
  }
};

} // namespace obs
} // namespace mdabt

#endif // MDABT_OBS_TRACEEVENT_H
