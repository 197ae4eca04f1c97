//===- dbt/Coherence.cpp --------------------------------------------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//

#include "dbt/Coherence.h"

#include "guest/Encoding.h"

#include <map>

using namespace mdabt;
using namespace mdabt::dbt;

void Coherence::analyze(bool TraceVerdicts) {
  run();
  if (!TraceVerdicts)
    return;
  std::map<uint32_t, analysis::SiteInfo> Sites(Ana->Sites.begin(),
                                               Ana->Sites.end());
  for (const auto &[Pc, Site] : Sites)
    Trace.emit(obs::TraceEventKind::AnalysisVerdict, Pc, 0,
               static_cast<uint64_t>(Site.Verdict),
               Site.Size | (Site.IsStore ? 0x100u : 0u));
  Trace.emit(obs::TraceEventKind::AnalysisSummary,
             static_cast<uint32_t>(Ana->Sites.size()), Ana->Poisoned ? 1 : 0,
             Ana->NumAligned, Ana->NumMisaligned);
}

Coherence::Store Coherence::store(uint32_t Addr, uint32_t Size,
                                  std::optional<uint32_t> RunningWord) {
  ++Epoch;
  Trace.emit(obs::TraceEventKind::SmcStore, 0, 0, Addr, Size);
  for (uint32_t B = Addr; B != Addr + Size; ++B)
    DirtyEpoch[B] = Epoch;
  // Any rewrite of watched code bytes may shift dataflow the analysis
  // proved facts about; it is re-run lazily at the next safe point.
  Stale = Ana.has_value();
  Store R;
  R.Victims = Cache.overlapping(Addr, Size);
  S.Invalidations += R.Victims.size();
  // The store came from inside the translation it rewrote (a superblock
  // fused the patcher with the code it patches, or a block rewrote its
  // own bytes).  Live or retired, that body would keep executing the
  // stale bytes: stop the episode at the end of the storing guest
  // instruction, so the rewrite takes effect at the next one, exactly
  // the interpreter's semantics.
  const Translation *Running =
      RunningWord ? Cache.owner(*RunningWord) : nullptr;
  if (!Running ||
      !overlapsAny(Running->Rec->GuestRanges, Addr, Addr + Size))
    return R;
  R.Stop = Running->resumeAt(*RunningWord);
  if (!R.Stop) {
    R.Unstoppable = true;
    return R;
  }
  ++S.EpisodeStops;
  Trace.emit(obs::TraceEventKind::SmcEpisodeStop, R.Stop->ResumePc,
             Running->GuestPc, *RunningWord, R.Stop->EndWord);
  return R;
}

std::optional<std::vector<Translation *>> Coherence::reanalyze() {
  if (!Stale)
    return std::nullopt;
  Stale = false;
  run();
  ++S.Reanalyses;
  Trace.emit(obs::TraceEventKind::SmcReanalysis, 0, 0, Ana->Sites.size(),
             Ana->Poisoned ? 1 : 0);
  // The rewritten bytes may sit in a different block that feeds this
  // one's dataflow: sweep every live translation for an Elide the fresh
  // analysis no longer proves.  The lowest such site is reported, and
  // retires the whole translation; its next translation re-plans every
  // site.
  std::vector<Translation *> Revoked;
  Cache.forEachLive([&](Translation &T) {
    uint32_t Lost = ~0u;
    for (const auto &[Pc, Plan] : T.Rec->PlanByPc) {
      guest::GuestInst I;
      if (Plan == MemPlan::Elide && Pc < Lost &&
          !(guest::decode(Mem.data(), Mem.size(), Pc, I) &&
            Ana->verdictFor(Pc, I) == analysis::AlignVerdict::Aligned))
        Lost = Pc;
    }
    if (Lost == ~0u)
      return; // every elide is still proven
    ++S.VerdictsRevoked;
    Trace.emit(obs::TraceEventKind::SmcVerdictRevoked, Lost, T.GuestPc,
               T.Generation, 0);
    Revoked.push_back(&T);
  });
  CodeCache::sortByEntry(Revoked);
  return Revoked;
}
