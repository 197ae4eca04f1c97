//===- dbt/TranslationCapture.cpp - Content keys + publish ----------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//

#include "dbt/TranslationCapture.h"

#include "dbt/FusionRules.h"

#include <vector>

using namespace mdabt;
using namespace mdabt::dbt;

CacheKey mdabt::dbt::translationContentKey(
    const guest::GuestMemory &Mem, const GuestBlock *Blocks, size_t NBlocks,
    const Translator::PlanFn &Plan, const TranslationOpts &Opts,
    bool IsTrace) {
  std::vector<uint8_t> M;
  auto Put8 = [&M](uint8_t V) { M.push_back(V); };
  auto Put32 = [&M](uint32_t V) {
    for (int S = 0; S != 32; S += 8)
      M.push_back(static_cast<uint8_t>(V >> S));
  };
  Put8(static_cast<uint8_t>(TranslationService::FormatVersion));
  Put8(IsTrace ? 1 : 0);
  Put8(Opts.BlockMultiVersion ? 1 : 0);
  Put8(static_cast<uint8_t>(Opts.IcWays));
  // Fusion changes emitted words without changing guest bytes or
  // plans, so the enabled-rule mask and the rule-table version are
  // part of the content key: a fused translation can never alias a
  // differently-fused (or differently-versioned) entry.
  Put8(Opts.FusionMask != 0 ? 1 : 0);
  Put8(FusionRuleTableVersion);
  Put32(Opts.FusionMask);
  Put32(static_cast<uint32_t>(NBlocks));
  for (size_t BI = 0; BI != NBlocks; ++BI) {
    const GuestBlock &B = Blocks[BI];
    uint32_t Len = B.endPc() - B.StartPc;
    Put32(B.StartPc);
    Put32(Len);
    // The raw guest bytes: SMC rewrites change the key, so a hostile
    // tenant's rewritten block can only miss — it can never collide
    // into (or poison) the entry other tenants execute.
    M.insert(M.end(), Mem.data() + B.StartPc, Mem.data() + B.StartPc + Len);
    for (size_t I = 0; I != B.Insts.size(); ++I) {
      const guest::GuestInst &Inst = B.Insts[I];
      // Mirror the translator's planned-site predicate exactly: only
      // sites it would consult the plan for contribute to the key.
      if (!guest::isMemoryOp(Inst.Op) || guest::accessSize(Inst.Op) < 2)
        continue;
      Put32(B.InstPcs[I]);
      Put8(static_cast<uint8_t>(Plan(B.InstPcs[I], Inst)));
    }
  }
  return cacheKeyFromBytes(M.data(), M.size());
}

Served mdabt::dbt::acquireOrPublish(
    TranslationService &Service, const CacheKey &Key,
    const std::function<const Translation &()> &Translate) {
  if (TranslationService::Record R = Service.acquire(Key))
    return {std::move(R), true};
  return {Service.publish(Key, Translate().Rec), false};
}
