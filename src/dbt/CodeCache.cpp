//===- dbt/CodeCache.cpp --------------------------------------------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//

#include "dbt/CodeCache.h"

#include "host/HostAssembler.h"

#include <algorithm>
#include <cassert>
#include <optional>

using namespace mdabt;
using namespace mdabt::dbt;
using namespace mdabt::host;

namespace {

/// Re-write attempts for a dropped/torn code-cache patch before the
/// previous content is restored and the patch abandoned.
constexpr uint32_t PatchRepairLimit = 3;

/// The disabled-guard word of an inline-cache way: skip the way's
/// remaining IcWayWords - 1 words.
uint32_t icDisabledGuardWord() {
  return encodeHost(
      brInst(HostOp::Br, RegZero, static_cast<int32_t>(IcWayWords) - 1));
}

/// Canonical host nop (bis r31, r31, r31), used to scrub retired
/// inline-cache branch words.
uint32_t hostNopWord() {
  return encodeHost(opInst(HostOp::Bis, RegZero, RegZero, RegZero));
}

/// Visit every write-watch page of the guest bytes [Lo, Hi), Lo < Hi.
template <typename Fn> void forEachPage(uint32_t Lo, uint32_t Hi, Fn F) {
  uint32_t P0 = Lo >> guest::GuestMemory::WatchPageShift;
  uint32_t P1 = (Hi - 1) >> guest::GuestMemory::WatchPageShift;
  for (uint32_t P = P0; P <= P1; ++P)
    F(P);
}

/// \p R's record proof, computed on first use.  The mutation points are
/// the words a run may rewrite: memory sites (stub patches and reverts),
/// exits (chains) and every word of every inline-cache way.
const analysis::RecordProof &proofOf(const TranslationRecord &R) {
  return R.Proof.get([&] {
    std::vector<uint32_t> Points;
    for (const auto &[Word, Pc] : R.MemWordToGuestPc)
      Points.push_back(Word);
    for (const TranslationRecord::RelExit &X : R.Exits)
      Points.push_back(X.Word);
    for (const TranslationRecord::RelIcSite &Site : R.IcSites)
      for (uint32_t Begin : Site.WayBegins)
        for (uint32_t K = 0; K != IcWayWords; ++K)
          Points.push_back(Begin + K);
    std::vector<analysis::VerifierRegion> Cores;
    for (const TranslationRecord::RelFusedSite &F : R.FusedSites)
      Cores.push_back({F.Begin, F.End});
    return analysis::proveRecord(R.Words, std::move(Points), Cores);
  });
}

/// Order verifier regions and blocks by their first word.
bool beginsBefore(uint32_t W, const analysis::VerifierRegion &R) {
  return W < R.Begin;
}
bool entersBefore(uint32_t W, const analysis::VerifierBlock &B) {
  return W < B.EntryWord;
}

} // namespace

CodeCache::CodeCache(host::CodeSpace &Code, guest::GuestMemory &Mem,
                     obs::Tracer Trace, uint32_t PatchFailureLimit,
                     std::function<void()> OnPatchFailed, bool Verified)
    : Code(Code), Mem(Mem), Trace(Trace),
      PatchFailureLimit(PatchFailureLimit),
      OnPatchFailed(std::move(OnPatchFailed)), Verified(Verified) {
  In.IcWayWords = IcWayWords;
}

// -- producing entries -------------------------------------------------------

// The emitted words are position-independent: all translator-internal
// control flow is PC-relative and exits materialize guest PCs as data, so
// a straight word copy is a correct relocation.  The private copy is
// indistinguishable from a fresh local translation: chains, MDA stubs and
// inline-cache fills mutate only this run's words, never the record.
Translation &CodeCache::instantiate(std::shared_ptr<const TranslationRecord> R,
                                    uint32_t Generation) {
  uint32_t Base = Code.size();
  for (uint32_t W : R->Words)
    Code.append(W);
  return add(Translation(std::move(R), Base, Generation));
}

// -- registering -------------------------------------------------------------

// A page two of T's ranges share (adjacent trace constituents) lists T
// once per range; untrack removes one entry per range in turn, and the
// overlap query reports each translation once.
void CodeCache::install(Translation &T, uint64_t Epoch) {
  Regions[T.EntryWord] = {T.EndWord, &T};
  T.BornEpoch = Epoch;
  for (const auto &R : T.Rec->GuestRanges) {
    Mem.watchRange(R.first, R.second);
    forEachPage(R.first, R.second,
                [&](uint32_t P) { TrackedByPage[P].push_back(&T); });
  }
  if (!Verified)
    return;
  In.Blocks.insert(std::upper_bound(In.Blocks.begin(), In.Blocks.end(),
                                    T.EntryWord, entersBefore),
                   describe(T));
  addLive(T.EntryWord, T.EndWord);
  Journal.Installed.push_back(T.EntryWord);
}

void CodeCache::addStub(Translation &T, uint32_t Word, uint32_t Entry,
                        uint32_t End, bool Adaptive) {
  T.patch(Word, Entry, End, Adaptive);
  Regions[Entry] = {End, &T};
  // A trap may still patch a retired body that is running; its stub is
  // as dead as the body.
  if (!Verified || !T.Valid)
    return;
  refresh(T);
  addLive(Entry, End);
  Journal.Stubs.push_back({Entry, End});
}

void CodeCache::untrack(Translation &T) {
  for (const auto &R : T.Rec->GuestRanges) {
    Mem.unwatchRange(R.first, R.second);
    forEachPage(R.first, R.second, [&](uint32_t P) {
      std::vector<Translation *> &V = TrackedByPage[P];
      auto It = std::find(V.begin(), V.end(), &T);
      if (It != V.end())
        V.erase(It);
      if (V.empty())
        TrackedByPage.erase(P);
    });
  }
}

// -- queries -----------------------------------------------------------------

std::vector<Translation *> CodeCache::overlapping(uint32_t Addr,
                                                  uint32_t Size) const {
  std::vector<Translation *> Victims;
  forEachPage(Addr, Addr + Size, [&](uint32_t P) {
    auto It = TrackedByPage.find(P);
    if (It == TrackedByPage.end())
      return;
    for (Translation *T : It->second)
      if (T->Valid && overlapsAny(T->Rec->GuestRanges, Addr, Addr + Size) &&
          std::find(Victims.begin(), Victims.end(), T) == Victims.end())
        Victims.push_back(T);
  });
  sortByEntry(Victims);
  return Victims;
}

analysis::VerifierBlock CodeCache::describe(const Translation &T) const {
  analysis::VerifierBlock B;
  B.EntryWord = T.EntryWord;
  B.EndWord = T.EndWord;
  B.BornEpoch = T.BornEpoch;
  B.AotInstalled = T.AotInstalled;
  for (const auto &R : T.Rec->GuestRanges)
    B.GuestRanges.push_back({R.first, R.second});
  for (size_t I = 0; I != T.Rec->Exits.size(); ++I)
    B.ExitWords.push_back(T.exitWord(I));
  for (uint32_t S = 0; S != T.IcSites.size(); ++S) {
    for (uint32_t W = 0; W != T.IcSites[S].Ways.size(); ++W) {
      const IcWay &Way = T.IcSites[S].Ways[W];
      if (!Way.Stale) // quarantined ways are covered by ExemptWords
        B.IcWays.push_back({T.icWayBegin(S, W), Way.Filled, Way.TargetEntry,
                            Way.TargetGuestPc});
    }
  }
  // Stubs are appended at the arena tail, so patch order is entry order.
  for (const StubPatch &P : T.Patches) {
    B.Patches.push_back({P.Word, !T.patched(P.Word)});
    B.Stubs.push_back({P.StubEntry, P.StubEnd});
  }
  T.forEachFusedCore([&](const TranslationRecord::RelFusedSite &F,
                         uint32_t Begin, uint32_t End,
                         std::span<const uint32_t> Words) {
    B.FusedSites.push_back({F.Rule, Begin, End, Words});
  });
  B.Pristine = T.Rec->Words;
  B.Proof = T.Rec->Proof.peek();
  return B;
}

analysis::VerifierBlock *CodeCache::block(uint32_t Entry) {
  auto It = std::upper_bound(In.Blocks.begin(), In.Blocks.end(), Entry,
                             entersBefore);
  if (It == In.Blocks.begin() || std::prev(It)->EntryWord != Entry)
    return nullptr;
  return &*std::prev(It);
}

void CodeCache::addLive(uint32_t Begin, uint32_t End) {
  std::vector<analysis::VerifierRegion> &L = In.LiveRegions;
  L.insert(std::upper_bound(L.begin(), L.end(), Begin, beginsBefore),
           {Begin, End});
}

void CodeCache::dropLive(uint32_t Begin) {
  std::vector<analysis::VerifierRegion> &L = In.LiveRegions;
  auto It = std::upper_bound(L.begin(), L.end(), Begin, beginsBefore);
  if (It != L.begin() && std::prev(It)->Begin == Begin)
    L.erase(std::prev(It));
}

analysis::VerifyReport CodeCache::verify(bool Full) {
  assert(Verified && "verify needs the verifier's input and journal");
  // Prove each block's record at the first pass that sees the block.
  for (analysis::VerifierBlock &B : In.Blocks)
    if (!B.Proof)
      B.Proof = &proofOf(*owner(B.EntryWord)->Rec);
  if (!Full)
    return analysis::verifyChanges(Code, In, Journal);
  analysis::VerifyReport R = analysis::verifyCodeSpace(Code, In);
  Journal.vouchAll(Code);
  return R;
}

// -- mutations ---------------------------------------------------------------

bool CodeCache::patchVerified(uint32_t Word, uint32_t Desired) {
  uint32_t Fallback = Code.word(Word);
  // Writes \p W until it reads back; the attempt that stuck, or 0.
  auto Write = [&](uint32_t W) -> uint32_t {
    for (uint32_t A = 1; A <= PatchRepairLimit + 1; ++A) {
      Code.patch(Word, W);
      if (Code.word(Word) == W)
        return A;
    }
    return 0;
  };
  Armed = true;
  if (uint32_t Attempt = Write(Desired)) {
    Armed = false;
    if (Attempt > 1) {
      ++S.PatchRepairs;
      Trace.emit(obs::TraceEventKind::PatchRepaired, 0, 0, Word, Desired);
    }
    return true;
  }
  ++S.PatchFailures;
  if (PatchFailureLimit != 0 && S.PatchFailures > PatchFailureLimit)
    OnPatchFailed();
  // Roll back so execution never reaches a corrupt word.
  bool Restored = Write(Fallback) != 0;
  Armed = false;
  Trace.emit(obs::TraceEventKind::PatchRolledBack, 0, 0, Word,
             Restored ? 1 : 0);
  if (!Restored)
    OnPatchFailed();
  return false;
}

void CodeCache::setPatchFault(host::CodeSpace::PatchHook Fault) {
  Code.setPatchHook([this, Fault = std::move(Fault)](uint32_t I,
                                                    uint32_t &W) {
    return !Armed || Fault(I, W);
  });
}

bool CodeCache::chain(uint32_t Word, Translation &Target) {
  std::optional<uint32_t> Br = branchTo(Word, Target.EntryWord);
  if (!Br || !patchVerified(Word, *Br))
    return false;
  Target.IncomingChains.push_back(Word);
  return true;
}

bool CodeCache::evictIcWay(Translation &Owner, uint32_t Site, uint32_t WayIdx,
                           bool Retired) {
  IcWay &Way = Owner.IcSites[Site].Ways[WayIdx];
  uint32_t Begin = Owner.icWayBegin(Site, WayIdx);
  ++S.IcEvictions;
  Trace.emit(obs::TraceEventKind::DispatchIcEvict, Way.TargetGuestPc,
             Owner.GuestPc, Begin, Retired ? 1 : 0);
  uint32_t FinalBr = Begin + IcWayWords - 1;
  // A way whose guard cannot be disabled may still reach the intact dead
  // target: the same contained casualty as a stale chain.
  if (!patchOrQuarantine(Begin, icDisabledGuardWord(), FinalBr)) {
    Way.Stale = true;
    Way.Filled = false;
    refresh(Owner);
    return false;
  }
  Way.Filled = false;
  // Scrub the final branch so no branch into a dead entry survives in
  // verified code.
  patchOrQuarantine(FinalBr, hostNopWord(), FinalBr);
  refresh(Owner);
  return true;
}

CodeCache::IcFill CodeCache::fillIc(Translation &Owner, uint32_t SiteIdx,
                                    Translation &Target,
                                    uint32_t &WayBegin) {
  IcSite &Site = Owner.IcSites[SiteIdx];
  // Victim selection: first empty way, else round-robin eviction.
  // Quarantined (Stale) ways are out of service until the next flush.
  IcWay *Way = nullptr;
  uint32_t WayIdx = 0;
  for (uint32_t I = 0; I != Site.Ways.size(); ++I) {
    if (!Site.Ways[I].Filled && !Site.Ways[I].Stale) {
      Way = &Site.Ways[I];
      WayIdx = I;
      break;
    }
  }
  bool Evicting = false;
  if (!Way) {
    uint32_t N = static_cast<uint32_t>(Site.Ways.size());
    for (uint32_t K = 0; K != N; ++K) {
      uint32_t I = (Site.NextVictim + K) % N;
      if (!Site.Ways[I].Stale) {
        Way = &Site.Ways[I];
        WayIdx = I;
        Site.NextVictim = (I + 1) % N;
        Evicting = true;
        break;
      }
    }
    if (!Way)
      return IcFill::Skipped; // every way quarantined
  }
  uint32_t Begin = Owner.icWayBegin(SiteIdx, WayIdx);
  uint32_t FinalBr = Begin + IcWayWords - 1;
  std::optional<uint32_t> Br = branchTo(FinalBr, Target.EntryWord);
  if (!Br)
    return IcFill::Skipped;
  if (Evicting && !evictIcWay(Owner, SiteIdx, WayIdx, /*Retired=*/false))
    return IcFill::Failed; // the victim is quarantined
  // Interiors first (tag compare, miss skip, target branch), guard
  // last: the way only becomes executable once fully written.
  uint32_t Tag = Target.GuestPc;
  int32_t Lo = static_cast<int16_t>(Tag & 0xffff);
  int32_t Hi = static_cast<int32_t>(Tag - static_cast<uint32_t>(Lo)) >> 16;
  const std::pair<uint32_t, uint32_t> Interior[] = {
      {Begin + 1,
       encodeHost(memInst(HostOp::Lda, RegScratch1, Lo, RegScratch1))},
      {Begin + 2,
       encodeHost(opInst(HostOp::Zextl, RegZero, RegScratch1, RegScratch1))},
      {Begin + 3,
       encodeHost(opInst(HostOp::Cmpeq, RegExitPc, RegScratch1,
                         RegScratch2))},
      {Begin + 4, encodeHost(brInst(HostOp::Beq, RegScratch2, 1))},
      {FinalBr, *Br},
  };
  // patchVerified restores a failed word, and the guard is still
  // disabled, so an interior failure leaves the way safely inert.
  for (const auto &P : Interior) {
    if (!patchVerified(P.first, P.second))
      return IcFill::Failed;
  }
  if (!patchVerified(Begin, encodeHost(memInst(HostOp::Ldah, RegScratch1,
                                               Hi, RegZero)))) {
    // Guard never armed, but FinalBr now holds a live branch the
    // verifier cannot tie to a filled way: scrub it.
    patchOrQuarantine(FinalBr, hostNopWord(), FinalBr);
    return IcFill::Failed;
  }
  In.ExemptWords.erase(FinalBr); // freshly verified content
  Way->Filled = true;
  Way->Stale = false;
  Way->TargetEntry = Target.EntryWord;
  Way->TargetGuestPc = Tag;
  Target.IncomingIcWays.push_back({&Owner, SiteIdx, WayIdx});
  refresh(Owner);
  WayBegin = Begin;
  return IcFill::Filled;
}

bool CodeCache::retire(Translation &Old) {
  Old.Valid = false;
  untrack(Old);
  // Leave the verifier's view.  The unlink patches below are changed
  // words the next pass re-checks; one that did not stick is quarantined.
  if (Verified) {
    if (analysis::VerifierBlock *B = block(Old.EntryWord))
      In.Blocks.erase(In.Blocks.begin() + (B - In.Blocks.data()));
    dropLive(Old.EntryWord);
    for (const StubPatch &P : Old.Patches)
      dropLive(P.StubEntry);
    Journal.Retired.push_back(Old.EntryWord);
  }
  bool Stuck = true;
  for (uint32_t W : Old.IncomingChains)
    Stuck &= patchOrQuarantine(W, encodeHost(srvInst(SrvFunc::Exit)), W);
  Old.IncomingChains.clear();
  for (const IcWayRef &Ref : Old.IncomingIcWays) {
    if (!Ref.Owner->Valid)
      continue; // the caller died too; the flush will reap both
    const IcWay &Way = Ref.Owner->IcSites[Ref.Site].Ways[Ref.Way];
    // Lazy staleness: the way may have been refilled toward another
    // target since this back-reference was recorded (entry words are
    // unique between flushes, so the comparison is exact).
    if (!Way.Filled || Way.TargetEntry != Old.EntryWord)
      continue;
    Stuck &= evictIcWay(*Ref.Owner, Ref.Site, Ref.Way, /*Retired=*/true);
  }
  Old.IncomingIcWays.clear();
  return Stuck;
}

bool CodeCache::revert(Translation &T, uint32_t Word) {
  if (!patchVerified(Word, T.Rec->Words[Word - T.EntryWord]))
    return false;
  T.revert(Word);
  refresh(T);
  return true;
}

void CodeCache::flush() {
#ifndef NDEBUG
  // Chain/IC bookkeeping must be fully confined to the dying arena: a
  // word at or past the arena end would be a link into code that
  // survives the flush, resurrecting as a wild branch after a refill.
  for (const Translation &T : Store) {
    for (uint32_t W : T.IncomingChains)
      assert(W < Code.size() && "incoming chain outlives the arena");
    for (const IcWayRef &Ref : T.IncomingIcWays)
      assert(Ref.Owner->icWayBegin(Ref.Site, Ref.Way) < Code.size() &&
             "incoming IC way outlives the arena");
  }
  for (uint32_t W : In.ExemptWords)
    assert(W < Code.size() && "quarantined word outlives the arena");
#endif
  // Retired translations were already untracked by retire().
  for (Translation &T : Store)
    if (T.Valid)
      untrack(T);
  TrackedByPage.clear();
  Code.clear();
  BlockMap.clear();
  Regions.clear();
  Store.clear();
  In.ExemptWords.clear();
  In.Blocks.clear();
  In.LiveRegions.clear();
  // Nothing is left to vouch for; the journaled stores keep their newest
  // epoch for blocks installed later.
  Journal.vouchAll(Code);
}
