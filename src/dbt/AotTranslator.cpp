//===- dbt/AotTranslator.cpp - Static AOT pre-translation -----------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//

#include "dbt/AotTranslator.h"

#include "dbt/GuestBlock.h"
#include "dbt/TranslationCapture.h"

#include <optional>
#include <utility>

using namespace mdabt;
using namespace mdabt::dbt;

AotTranslator::AotTranslator(guest::GuestMemory &Mem,
                             const analysis::CfgResult &Cfg,
                             Translator::PlanFn Plan, TranslationOpts Opts,
                             TranslationService *Service,
                             const host::CostModel &Cost)
    : Mem(Mem), Cfg(Cfg), Plan(std::move(Plan)), Opts(Opts),
      Service(Service), Cost(Cost), Trans(Scratch) {
  S.RecoveredBlocks = Cfg.Blocks.size();
  S.FrontierSites = Cfg.Frontier.size();
}

void AotTranslator::pretranslateAll() {
  // PC order (CfgResult::Blocks is an ordered map): record production,
  // publish order and modeled startup cost are all deterministic.
  for (const auto &KV : Cfg.Blocks) {
    const analysis::CfgBlock &B = KV.second;
    // Re-discover through the same decoder the demand path uses; a
    // proven block decodes by construction.
    GuestBlock GB = discoverBlock(Mem, B.StartPc);
    Unit U;
    U.GuestPc = B.StartPc;
    U.Key = translationContentKey(Mem, &GB, 1, Plan, Opts, false);
    std::optional<Translation> T;
    auto Translate = [&]() -> const Translation & {
      T.emplace(Trans.translate(GB, Plan, 0, Opts));
      ++S.Translated;
      S.StartupTranslateCycles +=
          static_cast<uint64_t>(GB.size()) * Cost.TranslateCyclesPerInst;
      return *T;
    };
    if (Service) {
      // A hit is a warm start: someone (a previous run, the disk
      // artifact, or a concurrent tenant) already produced these words.
      Served Got = acquireOrPublish(*Service, U.Key, Translate);
      U.Record = std::move(Got.Rec);
      U.FromCache = Got.Hit;
      S.FromCache += U.FromCache ? 1 : 0;
    } else {
      U.Record = Translate().Rec;
    }
    S.GuestInsts += GB.size();
    for (const auto &R : U.Record->GuestRanges)
      Mem.watchRange(R.first, R.second);
    Units.emplace(B.StartPc, std::move(U));
  }
}

AotTranslator::Unit *AotTranslator::find(uint32_t Pc) {
  auto It = Units.find(Pc);
  return It == Units.end() ? nullptr : &It->second;
}

void AotTranslator::stale(Unit &U) {
  U.Stale = true;
  ++S.StaleDropped;
  for (const auto &R : U.Record->GuestRanges)
    Mem.unwatchRange(R.first, R.second);
}

void AotTranslator::noteGuestStore(uint32_t Addr, uint32_t Size) {
  for (auto &KV : Units)
    if (!KV.second.Stale &&
        overlapsAny(KV.second.Record->GuestRanges, Addr, Addr + Size))
      stale(KV.second);
}

void AotTranslator::drop(uint32_t Pc) {
  Unit *U = find(Pc);
  if (U && !U->Stale)
    stale(*U);
}

void AotTranslator::dropAll() {
  for (auto &KV : Units)
    if (!KV.second.Stale)
      stale(KV.second);
}
