//===- chaos/FaultInjector.cpp --------------------------------------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//

#include "chaos/FaultInjector.h"

using namespace mdabt;
using namespace mdabt::chaos;

const char *mdabt::chaos::injectKindName(InjectKind Kind) {
  switch (Kind) {
  case InjectKind::LostTrap:
    return "lost-trap";
  case InjectKind::DuplicateTrap:
    return "duplicate-trap";
  case InjectKind::SpuriousTrap:
    return "spurious-trap";
  case InjectKind::PatchDrop:
    return "patch-drop";
  case InjectKind::PatchTorn:
    return "patch-torn";
  case InjectKind::TranslateFail:
    return "translate-fail";
  case InjectKind::FlushStorm:
    return "flush-storm";
  }
  return "unknown";
}

bool FaultInjector::fire(double Rate, InjectKind Kind) {
  if (Rate <= 0.0 || !budgetLeft())
    return false;
  if (Rng.unit() >= Rate)
    return false;
  record(Kind);
  return true;
}

PatchFault FaultInjector::patchFault() {
  if (!budgetLeft() ||
      (Plan.PatchDropRate <= 0.0 && Plan.PatchTornRate <= 0.0))
    return PatchFault::None;
  double U = Rng.unit();
  if (U < Plan.PatchDropRate) {
    record(InjectKind::PatchDrop);
    return PatchFault::Drop;
  }
  if (U < Plan.PatchDropRate + Plan.PatchTornRate) {
    record(InjectKind::PatchTorn);
    return PatchFault::Torn;
  }
  return PatchFault::None;
}

bool FaultInjector::translateFails() {
  ++TranslationAttempts;
  if (Plan.TranslateFailAt != 0 &&
      TranslationAttempts == Plan.TranslateFailAt && budgetLeft()) {
    record(InjectKind::TranslateFail);
    return true;
  }
  return fire(Plan.TranslateFailRate, InjectKind::TranslateFail);
}

FaultPlan FaultPlan::randomized(uint64_t Seed) {
  RNG Rng(Seed * 0x9e3779b97f4a7c15ULL + 0xC4A05);
  auto Rate = [&Rng]() {
    // Log-ish spread: rare glitches through sustained storms.
    static const double Buckets[] = {0.02, 0.1, 0.25, 0.5, 0.8, 1.0};
    return Buckets[Rng.below(6)];
  };
  FaultPlan P;
  P.Seed = Rng.next();
  if (Rng.chance(0.5))
    P.LostTrapRate = Rate();
  if (Rng.chance(0.4))
    P.DuplicateTrapRate = Rate();
  if (Rng.chance(0.4))
    P.SpuriousTrapRate = Rate() * 0.2; // per-dispatch, keep it sane
  if (Rng.chance(0.5))
    P.PatchDropRate = Rate() * 0.5;
  if (Rng.chance(0.5))
    P.PatchTornRate = Rate() * 0.5;
  if (Rng.chance(0.5))
    P.TranslateFailRate = Rate();
  if (Rng.chance(0.25))
    P.TranslateFailAt = static_cast<uint32_t>(Rng.range(1, 12));
  if (Rng.chance(0.4))
    P.FlushStormRate = Rate() * 0.1;
  P.MaxInjections = static_cast<uint32_t>(Rng.range(64, 4096));
  return P;
}
