//===- chaos/FaultInjector.h - Seeded fault-injection oracle ---*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime side of a FaultPlan: the engine consults the injector at
/// each injection point and the injector answers deterministically from
/// the plan's seeded PRNG.  All decisions share one injection budget
/// (FaultPlan::MaxInjections) so that even rate-1.0 campaigns terminate.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_CHAOS_FAULTINJECTOR_H
#define MDABT_CHAOS_FAULTINJECTOR_H

#include "chaos/FaultPlan.h"
#include "support/RNG.h"

#include <cstddef>
#include <cstdint>
#include <functional>

namespace mdabt {
namespace chaos {

/// What kind of fault an injection decision produced.  Reported through
/// the injection hook so the observability layer can attribute every
/// injected event (TraceEventKind::ChaosInjected carries this value).
enum class InjectKind : uint8_t {
  LostTrap = 0,
  DuplicateTrap,
  SpuriousTrap,
  PatchDrop,
  PatchTorn,
  TranslateFail,
  FlushStorm,
};

/// Stable human-readable name for an InjectKind.
const char *injectKindName(InjectKind Kind);

/// Answers the engine's "does this operation fail?" questions for one
/// run, deterministically.
class FaultInjector {
public:
  explicit FaultInjector(const FaultPlan &Plan)
      : Plan(Plan), Rng(Plan.Seed) {}

  /// Called once per *fired* injection, with the fault kind.  The engine
  /// uses this to emit chaos.injected trace events; unset = no overhead
  /// beyond the injection decision itself.
  using InjectionHook = std::function<void(InjectKind)>;
  void setInjectionHook(InjectionHook H) { Hook = std::move(H); }

  /// Trap delivery is lost; the faulting instruction restarts unhandled.
  bool lostTrap() { return fire(Plan.LostTrapRate, InjectKind::LostTrap); }

  /// The same exception is delivered a second time.
  bool duplicateTrap() {
    return fire(Plan.DuplicateTrapRate, InjectKind::DuplicateTrap);
  }

  /// A stale re-delivery for an already-patched word arrives now.
  bool spuriousTrap() {
    return fire(Plan.SpuriousTrapRate, InjectKind::SpuriousTrap);
  }

  /// Fate of one code-cache patch write.
  PatchFault patchFault();

  /// Deterministic corruption of a torn patch word.
  uint32_t tearWord(uint32_t Word) {
    return Word ^ (1u << (Rng.next() & 31));
  }

  /// The translator fails this block-translation attempt.
  bool translateFails();

  /// A spurious whole-cache flush is requested at this dispatch.
  bool flushStorm() {
    return fire(Plan.FlushStormRate, InjectKind::FlushStorm);
  }

  /// Total events injected so far.
  uint64_t injected() const { return Injected; }
  /// Events of kind \p Kind injected so far (the chaos.* counters).
  uint64_t injected(InjectKind Kind) const {
    return PerKind[static_cast<size_t>(Kind)];
  }

private:
  bool budgetLeft() const {
    return Plan.MaxInjections == 0 || Injected < Plan.MaxInjections;
  }
  bool fire(double Rate, InjectKind Kind);
  /// Count one fired injection and report it to the hook.
  void record(InjectKind Kind) {
    ++Injected;
    ++PerKind[static_cast<size_t>(Kind)];
    if (Hook)
      Hook(Kind);
  }

  FaultPlan Plan;
  RNG Rng;
  InjectionHook Hook;
  uint64_t Injected = 0;
  uint64_t PerKind[static_cast<size_t>(InjectKind::FlushStorm) + 1] = {};
  uint64_t TranslationAttempts = 0;
};

} // namespace chaos
} // namespace mdabt

#endif // MDABT_CHAOS_FAULTINJECTOR_H
