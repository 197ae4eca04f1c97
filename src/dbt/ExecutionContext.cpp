//===- dbt/ExecutionContext.cpp -------------------------------------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-run layer of the serving architecture (docs/SERVING.md):
/// Engine::run builds one ExecutionContext, which owns ALL mutable state
/// of one guest run — guest memory and registers, the host code arena,
/// trap/patch bookkeeping, SMC epochs, budgets, degradation-ladder
/// state — and performs the run's monitor loop.
///
/// Every translation enters the arena through one pipeline.  obtain()
/// produces it — translated locally by the stateless Translator or, when
/// EngineConfig::Service is set, leased from the process-wide shared
/// cache — and install() registers it, whichever of the three producers
/// asked: a demand block, a superblock trace or a pre-translated AOT
/// unit.  Either way the run installs a private copy in its own
/// CodeSpace, so concurrent runs never share mutable code.
///
//===----------------------------------------------------------------------===//

#include "dbt/Engine.h"

#include "analysis/AlignmentAnalysis.h"
#include "analysis/CfgRecovery.h"
#include "analysis/HostVerifier.h"
#include "chaos/FaultInjector.h"
#include "dbt/AotTranslator.h"
#include "dbt/FusionRules.h"
#include "dbt/GuestBlock.h"
#include "dbt/TranslationCapture.h"
#include "dbt/TranslationService.h"
#include "dbt/Translator.h"
#include "guest/Encoding.h"
#include "guest/Interpreter.h"
#include "guest/MdaCensus.h"
#include "host/HostAssembler.h"
#include "host/HostMachine.h"
#include "support/CacheModel.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace mdabt;
using namespace mdabt::dbt;
using namespace mdabt::host;

namespace {

// Hot-dispatch shape (EngineConfig::InlineCaches / Superblocks).
/// Inline-cache ways per indirect block exit.
constexpr uint32_t InlineCacheWays = 2;
/// Backward-chain events into one loop head before a trace is attempted.
constexpr uint32_t TraceHotChains = 1;
/// Maximum constituent blocks per superblock.
constexpr uint32_t TraceMaxBlocks = 8;
/// Formation attempts per head PC (bounds retry after de-opt).
constexpr uint32_t TraceFormsPerHead = 8;

// Degradation tolerances.
/// Consecutive no-progress traps at one host word before the
/// degradation ladder engages (the trap-storm watchdog).
constexpr uint32_t WatchdogTrapK = 8;
/// Failed translation attempts for one block before it is pinned
/// interpret-only.
constexpr uint32_t TranslateRetryLimit = 4;
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

/// The `br` word that, placed at host word \p From, jumps to \p Entry
/// (a chained exit, a redirected backedge, an inline-cache way's final
/// branch); nullopt when \p Entry is out of branch range, and the
/// caller keeps going through the monitor.
std::optional<uint32_t> branchTo(uint32_t From, uint32_t Entry) {
  int64_t Disp =
      static_cast<int64_t>(Entry) - (static_cast<int64_t>(From) + 1);
  if (Disp < -(1 << 20) || Disp >= (1 << 20))
    return std::nullopt;
  return Translator::stubBranchWord(From, Entry);
}

/// Visit every write-watch page of the guest bytes [Lo, Hi), Lo < Hi.
template <typename Fn> void forEachPage(uint32_t Lo, uint32_t Hi, Fn F) {
  uint32_t P0 = Lo >> guest::GuestMemory::WatchPageShift;
  uint32_t P1 = (Hi - 1) >> guest::GuestMemory::WatchPageShift;
  for (uint32_t P = P0; P <= P1; ++P)
    F(P);
}

/// All per-run state of the engine: built fresh by every Engine::run.
/// Implements TraceClock so every emitted event is stamped with the
/// run's current modeled cycle count.
class ExecutionContext : public obs::TraceClock {
public:
  ExecutionContext(const guest::GuestImage &Image, MdaPolicy &Policy,
                   const EngineConfig &Config)
      : Policy(Policy), Config(Config), Cost(Config.Cost),
        Hard(Config.Hardening), Interp(Mem),
        Machine(Code, Mem, Hier, Cost), Trans(Code), Profiler(*this),
        Trace(Config.Trace, this),
        HTransInsts(&Reg.histogram("translate.block_insts")),
        HTrapBlock(&Reg.histogram("trap.block_faults")),
        HInterpInsts(&Reg.histogram("interp.block_insts")) {
    Mem.loadImage(Image);
    Cpu.reset(Image);
    Service = Config.Service;
    // Guest-code write barrier (self-modifying-code coherence): the
    // callback only fires for stores into pages backing live
    // translations, so runs that never execute natively never pay.
    EntryPc = Image.Entry;
    StackTopAddr = Image.StackTop;
    Mem.setWriteWatcher([this](uint32_t Addr, unsigned Size) {
      onGuestCodeStore(Addr, Size);
    });
    if (Config.Analysis) {
      // Static alignment inference over this run's own image copy (one
      // run = one isolated world, so --jobs fan-out stays bit-exact).
      // Like static profiling, the pass is modeled as offline work and
      // its cycles are not charged to the run.
      Ana.emplace(
          analysis::analyzeAlignment(Mem, Image.Entry, Image.StackTop));
      if (Trace.enabled()) {
        std::vector<uint32_t> Pcs;
        Pcs.reserve(Ana->Sites.size());
        for (const auto &Entry : Ana->Sites)
          Pcs.push_back(Entry.first);
        std::sort(Pcs.begin(), Pcs.end());
        for (uint32_t Pc : Pcs) {
          const analysis::SiteInfo &Site = Ana->Sites.at(Pc);
          Trace.emit(obs::TraceEventKind::AnalysisVerdict, Pc, 0,
                     static_cast<uint64_t>(Site.Verdict),
                     Site.Size | (Site.IsStore ? 0x100u : 0u));
        }
        Trace.emit(obs::TraceEventKind::AnalysisSummary,
                   static_cast<uint32_t>(Ana->Sites.size()),
                   Ana->Poisoned ? 1 : 0, Ana->NumAligned,
                   Ana->NumMisaligned);
      }
    }
    if (Config.Aot != AotMode::Off) {
      // AOT MemPlans come from congruence verdicts, so the alignment
      // analysis is implied even when EngineConfig::Analysis is off.
      // Like the recovery pass below it is modeled as offline work.
      if (!Ana)
        Ana.emplace(
            analysis::analyzeAlignment(Mem, Image.Entry, Image.StackTop));
      // Deterministic whole-image CFG recovery over the pristine bytes:
      // the statically proven reachable set the pre-translator covers
      // and the verifier's reachability invariant checks against.
      AotCfg.emplace(analysis::recoverCfg(Mem, Image.Entry));
      for (const auto &R : AotCfg->coverageRanges())
        AotReachable.push_back({R.first, R.second});
    }
    Interp.setObserver(&Profiler);
    Machine.setFaultHandler(
        [this](const FaultInfo &F) { return onFault(F); });
    Policy.bindTracer(Trace);
    if (Config.Chaos && Config.Chaos->enabled()) {
      Injector.emplace(*Config.Chaos);
      if (Trace.enabled())
        Injector->setInjectionHook([this](chaos::InjectKind K) {
          Trace.emit(obs::TraceEventKind::ChaosInjected, 0, 0,
                     static_cast<uint64_t>(K), Injector->injected());
        });
      // Intercept only the engine's own patch writes (stub redirection,
      // chaining, unchaining, reverts): translator-internal backpatches
      // are never read back for verification, so injecting there would
      // model a hazard the real trap/patch path does not have.
      Code.setPatchHook([this](uint32_t, uint32_t &W) {
        if (!ChaosPatchArmed)
          return true;
        switch (Injector->patchFault()) {
        case chaos::PatchFault::None:
          break;
        case chaos::PatchFault::Drop:
          ++ChaosPatchDrops;
          return false;
        case chaos::PatchFault::Torn:
          ++ChaosPatchTears;
          W = Injector->tearWord(W);
          break;
        }
        return true;
      });
    }
  }

  RunResult run();

private:
  // -- phase 1: interpretation with profiling ---------------------------

  /// Charges interpreter memory costs and feeds the policy's dynamic
  /// profile.
  class InterpProfiler : public guest::InterpObserver {
  public:
    explicit InterpProfiler(ExecutionContext &S) : S(S) {}
    void onMemAccess(uint32_t InstPc, uint32_t Addr, unsigned Size,
                     bool IsStore) override {
      ++S.InterpRefs;
      S.InterpCycles += S.Cost.InterpMemExtraCycles + S.Hier.data(Addr);
      S.Policy.onInterpMemAccess(InstPc, Addr, Size, IsStore);
    }
    ExecutionContext &S;
  };

  // -- verified code-cache patching --------------------------------------

  /// Write \p Desired into code word \p Word and verify by read-back,
  /// repairing a dropped or torn write up to PatchRepairLimit times.  On
  /// persistent failure the previous content is restored (a torn word
  /// must never become executable) and false is returned; if even the
  /// restore cannot be made to stick the run aborts with PatchFailed.
  bool patchVerified(uint32_t Word, uint32_t Desired) {
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
    ChaosPatchArmed = true;
    if (uint32_t Attempt = Write(Desired)) {
      ChaosPatchArmed = false;
      if (Attempt > 1) {
        ++PatchRepairs;
        Trace.emit(obs::TraceEventKind::PatchRepaired, 0, 0, Word,
                   Desired);
      }
      return true;
    }
    ++PatchFailures;
    if (Hard.PatchFailureLimit != 0 &&
        PatchFailures > Hard.PatchFailureLimit)
      Abort = RunError::PatchFailed;
    // Roll back so execution never reaches a corrupt word.
    bool Restored = Write(Fallback) != 0;
    ChaosPatchArmed = false;
    Trace.emit(obs::TraceEventKind::PatchRolledBack, 0, 0, Word,
               Restored ? 1 : 0);
    if (!Restored)
      Abort = RunError::PatchFailed;
    return false;
  }

  // -- translation -------------------------------------------------------

  /// The engine's memory-op planning chain, shared by first translation
  /// and superblock re-emission fallback.
  MemPlan planMemOp(uint32_t Pc, const guest::GuestInst &I) {
    // Watchdog overrides (degradation rungs 1-2) win over the policy.
    if (ForceInline.count(Pc))
      return MemPlan::Inline;
    // Static verdicts next: a proof beats any policy heuristic, and
    // only Unknown sites fall through to the policy's machinery.
    if (Ana) {
      switch (Ana->verdictFor(Pc, I)) {
      case analysis::AlignVerdict::Aligned:
        ++PlanAlignedElides;
        return MemPlan::Elide;
      case analysis::AlignVerdict::Misaligned:
        ++PlanInlineForced;
        return MemPlan::Inline;
      case analysis::AlignVerdict::Unknown:
        break;
      }
    }
    return Policy.planMemoryOp(Pc, I);
  }

  /// Policy translation options with the engine's dispatch knobs folded
  /// in.
  TranslationOpts translationOpts() {
    TranslationOpts Opts = Policy.translationOpts();
    Opts.IcWays = Config.InlineCaches ? InlineCacheWays : 0;
    Opts.FusionMask =
        Config.Fusion ? (Config.FusionMask & FusionMaskAll) : 0;
    return Opts;
  }

  /// Account for the fused sequences of a freshly installed translation
  /// (local or cache-instantiated): per-site and per-block trace
  /// events, plus the fusion.* counters.
  void recordFusion(const Translation &T) {
    if (T.FusedSites.empty())
      return;
    uint64_t Saved = 0;
    for (const FusedSite &F : T.FusedSites) {
      Saved += F.SavedWords;
      Trace.emit(obs::TraceEventKind::FusionApplied, F.GuestPc, T.GuestPc,
                 F.Rule, F.SavedWords);
    }
    FusionSites += T.FusedSites.size();
    FusionSavedWords += Saved;
    ++FusionBlocks;
    Trace.emit(obs::TraceEventKind::FusionSummary, T.GuestPc, T.GuestPc,
               T.FusedSites.size(), Saved);
  }

  /// The engine's plan chain as a translator callback.
  Translator::PlanFn planChain() {
    return [this](uint32_t Pc, const guest::GuestInst &I) {
      return planMemOp(Pc, I);
    };
  }

  /// True when the arena has outgrown EngineConfig::CodeCacheLimitWords.
  bool overCapacity() const {
    return Config.CodeCacheLimitWords != 0 &&
           Code.size() > Config.CodeCacheLimitWords;
  }

  /// Capacity policy: flush an overgrown arena before installing, and
  /// only from monitor context (translated code must not be running
  /// during a flush).  False if the flush aborted the run.
  bool makeRoom() {
    if (overCapacity())
      flushAll();
    return Abort == RunError::None;
  }

  /// Install a cached translation at this run's arena tail, rebasing
  /// every piece of metadata onto the new entry word.  The private copy
  /// is indistinguishable from a fresh local translation: chains, MDA
  /// stubs and inline-cache fills mutate only this run's words, never
  /// the shared entry.  (The emitted words are position-independent:
  /// all translator-internal control flow is PC-relative and exits
  /// materialize guest PCs as data, so a straight word copy is a
  /// correct relocation.)
  Translation instantiateCached(const CachedTranslation &C,
                                uint32_t Generation) {
    uint32_t Base = Code.size();
    for (uint32_t W : C.Words)
      Code.append(W);
    Translation T;
    T.GuestPc = C.GuestPc;
    T.EntryWord = Base;
    T.EndWord = Base + static_cast<uint32_t>(C.Words.size());
    for (const CachedTranslation::RelExit &E : C.Exits) {
      ExitSite X;
      X.SrvWord = Base + E.Word;
      X.TargetGuestPc = E.TargetGuestPc;
      X.Direct = E.Direct != 0;
      T.Exits.push_back(X);
    }
    for (const auto &MW : C.MemWordToGuestPc)
      T.MemWordToGuestPc[Base + MW.first] = MW.second;
    for (const CachedTranslation::RelResume &R : C.StoreResume)
      T.StoreResume[Base + R.Word] = {Base + R.EndWord, R.ResumePc};
    T.GuestInsts = C.GuestInsts;
    T.Generation = Generation;
    for (const CachedTranslation::RelIcSite &S : C.IcSites) {
      IcSite Site;
      Site.SrvWord = Base + S.SrvWord;
      Site.Ways.reserve(S.WayBegins.size());
      for (uint32_t W : S.WayBegins) {
        IcWay Way;
        Way.Begin = Base + W;
        Site.Ways.push_back(Way);
      }
      T.IcSites.push_back(std::move(Site));
    }
    for (const auto &P : C.PlanByPc)
      T.PlanByPc[P.first] = static_cast<MemPlan>(P.second);
    T.IsTrace = C.IsTrace != 0;
    T.Constituents = C.Constituents;
    T.GuestRanges = C.GuestRanges;
    for (const CachedTranslation::RelFusedSite &F : C.FusedSites) {
      FusedSite S;
      S.Rule = F.Rule;
      S.GuestLen = F.GuestLen;
      S.Begin = Base + F.Begin;
      S.End = Base + F.End;
      S.GuestPc = F.GuestPc;
      S.SavedWords = F.SavedWords;
      // The cached payload is the pristine translator output, so the
      // fused core's reference words come straight from it.
      S.Words.assign(C.Words.begin() + F.Begin, C.Words.begin() + F.End);
      T.FusedSites.push_back(std::move(S));
    }
    return T;
  }

  /// Produce the translation of \p Blocks (one block, or a superblock's
  /// constituents head first) at the arena tail under \p Plan.  With a
  /// service attached, the content key decides: a hit instantiates the
  /// cached words (\p FromCache set), a miss translates and publishes the
  /// pristine result for other tenants.  Returns null, charging the
  /// wasted work, when the translator fails (fault injection).
  Translation *obtain(const std::vector<GuestBlock> &Blocks,
                      const Translator::PlanFn &Plan, uint32_t Generation,
                      bool &FromCache) {
    uint32_t Pc = Blocks.front().StartPc;
    bool IsTrace = Blocks.size() > 1; // a trace has >= 2 constituents
    uint64_t Insts = 0;
    for (const GuestBlock &B : Blocks)
      Insts += B.size();
    if (Injector && Injector->translateFails()) {
      ++ChaosTranslateFails;
      ++TranslateFailures;
      if (!Policy.translationIsOffline())
        TranslateCycles += Insts * Cost.TranslateCyclesPerInst;
      // A block falls back to interpretation and is pinned interp-only
      // once failures at its PC persist; a failed trace just leaves its
      // constituents in service.
      uint32_t Attempt = IsTrace ? 0 : ++TranslateFailsAt[Pc];
      Trace.emit(obs::TraceEventKind::TranslationFailed, Pc, Pc, Attempt,
                 Generation);
      if (Attempt >= TranslateRetryLimit) {
        InterpOnly.insert(Pc);
        ++LadderInterpPins;
      }
      if (Hard.TranslationFailureLimit != 0 &&
          TranslateFailures > Hard.TranslationFailureLimit)
        Abort = RunError::TranslationFailed;
      return nullptr;
    }
    TranslateFailsAt.erase(Pc);
    TranslationOpts Opts = translationOpts();
    auto Translate = [&]() -> const Translation & {
      Store.push_back(
          IsTrace ? Trans.translateTrace(Blocks, Plan, Generation, Opts)
                  : Trans.translate(Blocks.front(), Plan, Generation, Opts));
      return Store.back();
    };
    FromCache = false;
    if (!Service) {
      Translate();
      return &Store.back();
    }
    // Serving path (docs/SERVING.md): the key covers every constituent,
    // unroll copies included, so a trace's exact shape is part of it.
    CacheKey Key = translationContentKey(Mem, Blocks.data(), Blocks.size(),
                                         Plan, Opts, IsTrace);
    TranslationLease L;
    uint64_t Evicted = 0;
    FromCache = acquireOrPublish(*Service, Key, Code, Translate, L, &Evicted);
    if (FromCache) {
      Store.push_back(instantiateCached(L.get(), Generation));
      ++CacheHits;
      CacheHitInsts += Insts;
    } else {
      ++CacheMisses;
      CacheEvictions += Evicted;
    }
    Trace.emit(FromCache ? obs::TraceEventKind::CacheHit
                         : obs::TraceEventKind::CacheMiss,
               Pc, Pc, Key.Lo, Generation);
    if (Evicted)
      Trace.emit(obs::TraceEventKind::CacheEvict, Pc, Pc, Evicted, 0);
    Leases.emplace(&Store.back(), std::move(L));
    return &Store.back();
  }

  /// Register a freshly produced translation: the one install path of
  /// demand blocks, superblock traces and AOT units.  The caller has
  /// already counted \p T, so the budget check sees it.  \p FromCache
  /// prices the install at cache-install rather than translate cycles;
  /// \p Kind, \p A and \p B are the producer's trace event.  A caller
  /// whose translation serves its head at once points the block map at
  /// \p T first (a trace waits until its head is retired).  A
  /// translation bigger than the whole cache would flush-thrash on every
  /// dispatch, so it is retired at once and false is returned; the
  /// caller decides what stops retrying it.  Either way the caller runs
  /// the verifier sweep afterwards.
  bool install(Translation *T, bool FromCache, obs::TraceEventKind Kind,
               uint64_t A, uint64_t B) {
    Regions[T->EntryWord] = {T->EndWord, T};
    trackTranslation(T);
    if (!Policy.translationIsOffline())
      TranslateCycles += static_cast<uint64_t>(T->GuestInsts) *
                         (FromCache ? Cost.CacheInstallCyclesPerInst
                                    : Cost.TranslateCyclesPerInst);
    chargeCodeGrowth();
    checkBudgets();
    HTransInsts->record(T->GuestInsts);
    Trace.emit(Kind, T->GuestPc, T->GuestPc, A, B);
    recordFusion(*T);
    if (Config.CodeCacheLimitWords != 0 &&
        T->EndWord - T->EntryWord > Config.CodeCacheLimitWords) {
      invalidate(T);
      return false;
    }
    return true;
  }

  /// The demand producer: translate the block at \p GuestPc (first
  /// translation, or a supersede's retranslation at \p Generation) and
  /// install it.  Null when the block stays interpreted.
  Translation *translateBlock(uint32_t GuestPc, uint32_t Generation,
                              bool AllowFlush = false) {
    if (InterpOnly.count(GuestPc))
      return nullptr; // degradation rung 3: this block stays interpreted
    // Never plan from stale verdicts: a supersede can reach here before
    // the monitor loop's own re-analysis point.
    maybeReanalyze();
    if (Abort != RunError::None)
      return nullptr;
    if (AllowFlush && !makeRoom())
      return nullptr;
    std::vector<GuestBlock> Blocks;
    Blocks.push_back(discoverBlock(Mem, GuestPc));
    bool FromCache = false;
    Translation *T = obtain(Blocks, planChain(), Generation, FromCache);
    if (!T)
      return nullptr;
    ++Translations;
    BlockMap[T->GuestPc] = T;
    bool Kept = install(T, FromCache, obs::TraceEventKind::BlockTranslated,
                        T->GuestInsts, Generation);
    if (!Kept) {
      InterpOnly.insert(GuestPc);
      ++OversizedPins;
    }
    runVerifier();
    return Kept ? T : nullptr;
  }

  /// Take one inline-cache way out of service: disable its guard, then
  /// scrub its final branch (so no branch into a dead entry survives in
  /// verified code).  Returns false if the guard could not be disabled;
  /// the way is then quarantined as Stale — the intact dead target code
  /// it may still reach is the same contained casualty as a stale chain.
  bool retireIcWay(IcWay &Way) {
    uint32_t FinalBr = Way.Begin + IcWayWords - 1;
    if (!patchVerified(Way.Begin, icDisabledGuardWord())) {
      Way.Stale = true;
      Way.Filled = false;
      StaleChainWords.insert(FinalBr);
      return false;
    }
    Way.Filled = false;
    if (!patchVerified(FinalBr, hostNopWord()))
      StaleChainWords.insert(FinalBr);
    return true;
  }

  /// Take \p Old out of service: mark invalid, unchain every direct
  /// branch into it, and retire every inline-cache way targeting it so
  /// stale callers fall back to the monitor.
  void invalidate(Translation *Old) {
    Old->Valid = false;
    untrackTranslation(Old);
    // Whatever retired this translation (SMC, supersede, verdict
    // revocation, ladder) also invalidates the statically computed
    // plans of its pending AOT unit: never re-install those.
    dropAotUnit(Old->GuestPc);
    HTrapBlock->record(Old->FaultCount);
    Trace.emit(obs::TraceEventKind::BlockInvalidated, 0, Old->GuestPc,
               Old->FaultCount, Old->Generation);
    if (Old->IsTrace) {
      ++TraceDeopts;
      Trace.emit(obs::TraceEventKind::TraceDeopt, 0, Old->GuestPc,
                 Old->Constituents.size(), Old->Generation);
    }
    for (uint32_t W : Old->IncomingChains) {
      if (!patchVerified(W, encodeHost(srvInst(SrvFunc::Exit)))) {
        // The unchain did not stick (fault injection): a live block now
        // holds a stale branch to this dead entry.  Quarantine the word
        // for the verifier — it is a known, contained casualty until
        // the next flush, not a fresh corruption.  Exception: under
        // SMC-triggered invalidation the dead code is *semantically*
        // stale (the guest bytes it was compiled from were rewritten),
        // so reaching it would compute old semantics with no trap to
        // catch it — that must abort, not quarantine.
        StaleChainWords.insert(W);
        if (SmcStrict)
          Abort = RunError::PatchFailed;
      }
    }
    Old->IncomingChains.clear();
    for (const IcWayRef &Ref : Old->IncomingIcWays) {
      if (!Ref.Owner->Valid)
        continue; // the caller died too; the flush will reap both
      IcWay &Way = Ref.Owner->IcSites[Ref.Site].Ways[Ref.Way];
      // Lazy staleness: the way may have been refilled toward another
      // target since this back-reference was recorded (entry words are
      // unique between flushes, so the comparison is exact).
      if (!Way.Filled || Way.TargetEntry != Old->EntryWord)
        continue;
      ++IcEvictions;
      Trace.emit(obs::TraceEventKind::DispatchIcEvict, Way.TargetGuestPc,
                 Ref.Owner->GuestPc, Way.Begin, 1);
      if (!retireIcWay(Way) && SmcStrict) {
        // Same strictness as the unchain loop above: a quarantined way
        // may still branch into semantically stale code.
        Abort = RunError::PatchFailed;
      }
    }
    Old->IncomingIcWays.clear();
    // The run no longer depends on the shared-cache entry backing this
    // translation (if any): drop the lease so the entry becomes
    // evictable once every other tenant releases too.  Purely local —
    // another run's lease on the same entry is untouched, which is the
    // cross-tenant guarantee (a hostile tenant invalidating or flushing
    // its own copies can never retire ours).
    Leases.erase(Old);
  }

  /// Invalidate \p Old and retranslate its guest block (rearrangement /
  /// retranslation; the policy's plan callback decides what is inlined
  /// in the new incarnation).
  void supersede(Translation *Old) {
    if (!Old->Valid)
      return; // already superseded; the stale code may still be running
    // The plans are being revised: the block's pending AOT unit is now
    // stale even on the FlushOnSupersede path (which never reaches
    // invalidate()) — re-installing it after the flush would recreate
    // the very translation this supersede is retiring, forever.
    dropAotUnit(Old->GuestPc);
    Trace.emit(obs::TraceEventKind::BlockRetranslated, 0, Old->GuestPc,
               Old->Generation + 1, Config.FlushOnSupersede ? 1 : 0);
    if (Config.FlushOnSupersede) {
      // Dynamo-style: flush everything at the next safe point (we may
      // be inside the fault handler with the old code still running).
      PendingFlush = true;
    } else {
      invalidate(Old);
      translateBlock(Old->GuestPc, Old->Generation + 1);
    }
    ++Supersedes;
    checkBudgets();
  }

  /// Full code-cache flush (Dynamo-style, or capacity-triggered).  Only
  /// legal from the monitor, when no translated code is running.
  void flushAll() {
    // Flushed translations leave service without invalidate(): record
    // their trap counts before the store is dropped.
    for (Translation &T : Store)
      if (T.Valid)
        HTrapBlock->record(T.FaultCount);
    Trace.emit(obs::TraceEventKind::CacheFlush, 0, 0, Code.size(),
               Store.size());
#ifndef NDEBUG
    // Chain/IC bookkeeping must be fully confined to the dying arena:
    // every incoming-chain word and quarantined word indexes code that
    // is about to be dropped.  A word at or past the arena end would
    // mean a link into code that survives the flush — a leak that would
    // resurrect as a wild branch after the arena refills.
    for (const Translation &T : Store) {
      for (uint32_t W : T.IncomingChains)
        assert(W < Code.size() && "incoming chain outlives the arena");
      for (const IcWayRef &Ref : T.IncomingIcWays)
        assert(Ref.Owner->IcSites[Ref.Site].Ways[Ref.Way].Begin <
                   Code.size() &&
               "incoming IC way outlives the arena");
    }
    for (uint32_t W : StaleChainWords)
      assert(W < Code.size() && "quarantined word outlives the arena");
#endif
    // Write-barrier bookkeeping dies with the arena; invalid
    // translations were already untracked by invalidate().
    for (Translation &T : Store)
      if (T.Valid)
        untrackTranslation(&T);
    TrackedByPage.clear();
    // Pending AOT units keep their write-barrier watches across the
    // flush (their payloads survive for lazy re-install), so the drain
    // target is their mirrored page set, not zero.
    assert(Mem.watchedPages() == AotWatchRef.size() &&
           "write-watch refcounts must drain on flush");
    Code.clear();
    BlockMap.clear();
    Regions.clear();
    Store.clear();
    Leases.clear(); // release every shared-cache lease with the arena
    PatchedOriginals.clear();
    StaleChainWords.clear();
    PendingFlush = false;
    LastCodeWords = 0; // emission accounting stays monotone
    ++Flushes;
    LastFlushStep = StepIndex;
    if (Hard.FlushLimit != 0 && Flushes > Hard.FlushLimit)
      Abort = RunError::CacheThrash;
    // Heat survives: hot blocks retranslate on their next dispatch,
    // exactly like a real cache flush.
    runVerifier();
  }

  // -- guest-code coherence (self-modifying code) ---------------------------

  /// Visit every watch page covered by \p T's guest ranges, once each
  /// (adjacent trace constituents may share a page).
  template <typename Fn>
  void forEachWatchPage(const Translation *T, Fn F) {
    std::vector<uint32_t> Pages;
    for (const auto &R : T->GuestRanges)
      forEachPage(R.first, R.second, [&](uint32_t P) {
        if (std::find(Pages.begin(), Pages.end(), P) == Pages.end())
          Pages.push_back(P);
      });
    for (uint32_t P : Pages)
      F(P);
  }

  /// Register a freshly installed translation with the write barrier:
  /// its guest ranges become watched, and the per-page victim index
  /// learns about it.  Every install path must pair this with
  /// untrackTranslation (via invalidate or flushAll).
  void trackTranslation(Translation *T) {
    T->BornEpoch = StoreEpoch;
    for (const auto &R : T->GuestRanges)
      Mem.watchRange(R.first, R.second);
    forEachWatchPage(T, [&](uint32_t P) { TrackedByPage[P].push_back(T); });
  }

  /// Drop a translation from the barrier's bookkeeping (called as it
  /// leaves service).
  void untrackTranslation(Translation *T) {
    for (const auto &R : T->GuestRanges)
      Mem.unwatchRange(R.first, R.second);
    forEachWatchPage(T, [&](uint32_t P) {
      auto It = TrackedByPage.find(P);
      if (It == TrackedByPage.end())
        return;
      auto VIt = std::find(It->second.begin(), It->second.end(), T);
      if (VIt != It->second.end())
        It->second.erase(VIt);
      if (It->second.empty())
        TrackedByPage.erase(It);
    });
  }

  // -- static AOT pre-translation (EngineConfig::Aot) -----------------------

  /// Register a pending AOT unit's source bytes with the write barrier
  /// and mirror the page refcounts: a guest store into a pending unit
  /// must stale it even before (or after) installation, and flushAll's
  /// drain assertion needs to know how many watched pages are AOT's.
  void watchAotUnit(const AotTranslator::Unit &U) {
    for (const auto &R : U.Payload.GuestRanges) {
      Mem.watchRange(R.first, R.second);
      forEachPage(R.first, R.second, [&](uint32_t P) { ++AotWatchRef[P]; });
    }
  }

  void unwatchAotUnit(const AotTranslator::Unit &U) {
    for (const auto &R : U.Payload.GuestRanges) {
      Mem.unwatchRange(R.first, R.second);
      forEachPage(R.first, R.second, [&](uint32_t P) {
        auto It = AotWatchRef.find(P);
        if (It != AotWatchRef.end() && --It->second == 0)
          AotWatchRef.erase(It);
      });
    }
  }

  /// A plan revision retired the translation at \p Pc (supersede,
  /// degradation ladder, SMC victim): its pending AOT unit, compiled
  /// under the old plans, must never be re-installed.
  void dropAotUnit(uint32_t Pc) {
    if (!Aot)
      return;
    if (Aot->drop(Pc))
      unwatchAotUnit(*Aot->find(Pc));
  }

  /// The AOT producer: instantiate one pending unit into the run's
  /// arena.  \p Sweep runs the forced verifier sweep after a kept
  /// install (the startup batch defers to one sweep over the whole
  /// pre-populated cache instead); an oversize retirement is always
  /// swept.
  Translation *installAotUnit(AotTranslator::Unit &U, bool Sweep) {
    Store.push_back(instantiateCached(U.Payload, /*Generation=*/0));
    Translation *T = &Store.back();
    T->AotInstalled = true;
    ++Translations;
    ++AotInstalls;
    BlockMap[T->GuestPc] = T;
    bool Kept = install(T, /*FromCache=*/true, obs::TraceEventKind::AotInstall,
                        T->GuestInsts, U.FromCache ? 1 : 0);
    if (!Kept) {
      InterpOnly.insert(U.GuestPc);
      ++OversizedPins;
    }
    if (Sweep || !Kept)
      runVerifier(/*Force=*/true);
    return Kept ? T : nullptr;
  }

  /// The AOT startup phase (run() calls this before the first guest
  /// instruction): statically translate every proven-reachable block,
  /// watch every unit's source bytes, eagerly install the lot under
  /// AotMode::Full, and run the verifier as the AOT output checker over
  /// the pre-populated cache — even when EngineConfig::Verify is off.
  void aotStartup() {
    uint64_t Cycles0 = now();
    Aot.emplace(Mem, *AotCfg, planChain(), translationOpts(), Service,
                Cost);
    Aot->pretranslateAll();
    const AotTranslator::Stats &AS = Aot->stats();
    if (!Policy.translationIsOffline())
      TranslateCycles += AS.StartupTranslateCycles;
    for (const auto &KV : Aot->units()) {
      Trace.emit(obs::TraceEventKind::AotTranslated, KV.first, KV.first,
                 KV.second.Payload.GuestInsts, KV.second.FromCache ? 1 : 0);
      watchAotUnit(KV.second);
    }
    // Full installs eagerly.  Installing only marks units stale, never
    // adds or removes one, so walking the unit map meanwhile is safe.
    for (const auto &KV : Aot->units()) {
      // Hybrid installs lazily at first dispatch.  So does the tail Full
      // leaves pending at capacity (capacity containment).
      if (Config.Aot != AotMode::Full || Abort != RunError::None ||
          overCapacity())
        break;
      AotTranslator::Unit *U = Aot->find(KV.first);
      if (!U->Stale && !InterpOnly.count(KV.first))
        installAotUnit(*U, /*Sweep=*/false);
    }
    AotStartupCycles = now() - Cycles0;
    Trace.emit(obs::TraceEventKind::AotSummary,
               static_cast<uint32_t>(AS.RecoveredBlocks),
               static_cast<uint32_t>(AS.FrontierSites), AS.Translated,
               AS.FromCache);
    // The AOT output checker: one full structural sweep (including the
    // reachability invariant) before the first guest instruction.
    runVerifier(/*Force=*/true);
  }

  /// The guest-code write barrier.  GuestMemory calls this for every
  /// store whose first or last byte lands on a watched page — i.e. a
  /// page backing at least one live translation.  Models the
  /// page-protection trap a real DBT takes on such stores, then
  /// performs precise transactional invalidation: every live
  /// translation whose *compiled byte ranges* overlap the store is
  /// retired before the next dispatch (a neighbour that merely shares
  /// the page stays live).  Coherence contract: rewritten guest code
  /// takes effect no later than the next basic-block boundary, exactly
  /// like classic pre-P6 x86 ("effective after the next jump").
  void onGuestCodeStore(uint32_t Addr, unsigned Size) {
    if (InSmcBarrier)
      return; // re-entrant store from coherence work itself
    InSmcBarrier = true;
    ++SmcStores;
    ++StoreEpoch;
    Machine.addCycles(Cost.SmcWriteTrapCycles);
    Trace.emit(obs::TraceEventKind::SmcStore, 0, 0, Addr, Size);
    for (uint32_t B = Addr; B != Addr + Size; ++B)
      ByteDirtyEpoch[B] = StoreEpoch;
    // Pending AOT units whose source bytes this store rewrote can never
    // be installed: the dynamic path re-discovers from the new bytes.
    if (Aot)
      for (uint32_t Pc :
           Aot->noteGuestStore(Addr, static_cast<uint32_t>(Size)))
        unwatchAotUnit(*Aot->find(Pc));
    // Victim collection first, mutation after: invalidation edits the
    // per-page index we are reading.
    std::vector<Translation *> Victims;
    forEachPage(Addr, Addr + Size, [&](uint32_t P) {
      auto It = TrackedByPage.find(P);
      if (It == TrackedByPage.end())
        return;
      for (Translation *T : It->second) {
        if (!T->Valid)
          continue;
        bool Overlaps = false;
        for (const auto &R : T->GuestRanges) {
          if (R.first < Addr + Size && Addr < R.second) {
            Overlaps = true;
            break;
          }
        }
        if (Overlaps &&
            std::find(Victims.begin(), Victims.end(), T) == Victims.end())
          Victims.push_back(T);
      }
    });
    // Deterministic retirement order regardless of hash-map iteration:
    // entry words are unique between flushes.
    std::sort(Victims.begin(), Victims.end(),
              [](const Translation *A, const Translation *B) {
                return A->EntryWord < B->EntryWord;
              });
    // The store came from *inside* a victim (a superblock fused the
    // patcher with the code it patches, or a block rewrote its own
    // bytes): quarantining alone is not enough, because the episode
    // would keep executing the stale body it just overwrote.  Arm a
    // machine stop at the end of the storing guest instruction and
    // resume via fresh dispatch — the rewrite takes effect at the next
    // guest instruction, exactly the interpreter's semantics.
    if (InNative) {
      Translation *Running = findOwner(Machine.currentWord());
      if (Running && std::find(Victims.begin(), Victims.end(), Running) !=
                         Victims.end()) {
        auto It = Running->StoreResume.find(Machine.currentWord());
        if (It != Running->StoreResume.end()) {
          Machine.stopAt(It->second.EndWord, It->second.ResumePc);
          ++SmcEpisodeStops;
          Trace.emit(obs::TraceEventKind::SmcEpisodeStop,
                     It->second.ResumePc, Running->GuestPc,
                     Machine.currentWord(), It->second.EndWord);
        } else {
          // No resume metadata for this word: the in-flight episode
          // cannot be stopped coherently.  Typed abort — never let a
          // hostile guest turn a bookkeeping gap into silent
          // corruption.
          Abort = RunError::PatchFailed;
        }
      }
    }
    // Strict mode: a failed unchain or IC-retire during SMC
    // invalidation must abort, not quarantine.  A stale branch into
    // *superseded* code reaches architecturally equivalent
    // instructions; a stale branch into *rewritten* code reaches old
    // semantics with no trap to catch it.
    SmcStrict = true;
    for (Translation *T : Victims) {
      ++SmcInvalidations;
      Trace.emit(obs::TraceEventKind::SmcInvalidate, Addr, T->GuestPc,
                 T->Generation, T->IsTrace ? 1 : 0);
      invalidate(T);
      uint32_t Pin = ++SmcInvalsAt[T->GuestPc];
      if (Config.Budget.SmcChurnPinLimit != 0 &&
          Pin >= Config.Budget.SmcChurnPinLimit &&
          !InterpOnly.count(T->GuestPc)) {
        // Per-block churn containment: a block rewritten this often is
        // cheaper to interpret (rung 3 of the degradation ladder) —
        // the interpreter fetches fresh bytes every instruction, so
        // SMC is free there.
        InterpOnly.insert(T->GuestPc);
        ++SmcChurnPins;
        ++LadderInterpPins;
        Trace.emit(obs::TraceEventKind::SmcChurnPin, 0, T->GuestPc, Pin,
                   0);
      }
    }
    SmcStrict = false;
    // Any rewrite of watched code bytes may shift dataflow the static
    // analysis proved facts about; re-run it lazily at the next safe
    // point and revoke elides that no longer hold.
    if (Ana)
      AnaStale = true;
    checkBudgets();
    if (!Victims.empty())
      runVerifier();
    InSmcBarrier = false;
  }

  /// Re-run the static alignment analysis if guest code changed since
  /// the last pass (lazy: one pass absorbs a whole burst of stores),
  /// then revoke Elide verdicts that no longer hold.
  void maybeReanalyze() {
    if (!AnaStale || !Ana || Abort != RunError::None)
      return;
    AnaStale = false;
    Ana.emplace(analysis::analyzeAlignment(Mem, EntryPc, StackTopAddr));
    ++SmcReanalyses;
    Trace.emit(obs::TraceEventKind::SmcReanalysis, 0, 0,
               Ana->Sites.size(), Ana->Poisoned ? 1 : 0);
    // Every pending AOT unit was planned under the old verdicts, and a
    // rewritten byte anywhere can shift dataflow into blocks it does
    // not overlap — a stale Elide re-installed from a pre-translation
    // would skip MDA handling without a current proof.  Drop them all;
    // covered code falls back to demand translation under fresh plans.
    if (Aot)
      for (uint32_t Pc : Aot->dropAll())
        unwatchAotUnit(*Aot->find(Pc));
    revokeStaleElides();
  }

  /// Sweep live translations for Elide sites whose Aligned proof does
  /// not survive the fresh analysis (the modified bytes may sit in a
  /// *different* block that feeds this one's dataflow) and invalidate
  /// them; their next translation re-plans every site under the new
  /// verdicts.  EngineConfig::Analysis stays sound: no live code elides
  /// MDA bookkeeping without a current proof.
  void revokeStaleElides() {
    std::vector<Translation *> Victims;
    for (Translation &T : Store) {
      if (!T.Valid)
        continue;
      std::vector<uint32_t> ElidePcs;
      for (const auto &KV : T.PlanByPc)
        if (KV.second == MemPlan::Elide)
          ElidePcs.push_back(KV.first);
      std::sort(ElidePcs.begin(), ElidePcs.end());
      for (uint32_t Pc : ElidePcs) {
        guest::GuestInst I;
        if (guest::decode(Mem.data(), Mem.size(), Pc, I) &&
            Ana->verdictFor(Pc, I) == analysis::AlignVerdict::Aligned)
          continue; // still proven; the elide stands
        ++SmcVerdictsRevoked;
        Trace.emit(obs::TraceEventKind::SmcVerdictRevoked, Pc, T.GuestPc,
                   T.Generation, 0);
        Victims.push_back(&T);
        break; // one revoked site retires the whole translation
      }
    }
    std::sort(Victims.begin(), Victims.end(),
              [](const Translation *A, const Translation *B) {
                return A->EntryWord < B->EntryWord;
              });
    for (Translation *T : Victims)
      if (T->Valid) // an earlier victim's unchaining cannot kill it,
        invalidate(T); // but stay defensive
    if (!Victims.empty())
      runVerifier();
  }

  // -- resource governance ---------------------------------------------------

  /// Account freshly emitted host-code words against the cumulative
  /// emission budget.  Monotone across flushes: Code.size() resets to
  /// zero but CodeBytesEmitted never decreases, so flush-and-refill
  /// churn cannot hide under a bounded arena.
  void chargeCodeGrowth() {
    uint32_t Words = Code.size();
    if (Words > LastCodeWords)
      CodeBytesEmitted +=
          static_cast<uint64_t>(Words - LastCodeWords) * 4;
    LastCodeWords = Words;
  }

  /// Enforce the BudgetConfig ceilings (all 0 = unlimited).  First
  /// ceiling tripped wins; the typed RunError tells the operator *what*
  /// the hostile guest exhausted.
  void checkBudgets() {
    const BudgetConfig &B = Config.Budget;
    if (Abort != RunError::None)
      return;
    if (B.MaxTranslations != 0 &&
        Translations + TracesFormed > B.MaxTranslations) {
      Abort = RunError::BudgetTranslations;
      Trace.emit(obs::TraceEventKind::BudgetExceeded, 0, 0, 0,
                 Translations + TracesFormed);
    } else if (B.MaxCodeBytes != 0 && CodeBytesEmitted > B.MaxCodeBytes) {
      Abort = RunError::BudgetCodeBytes;
      Trace.emit(obs::TraceEventKind::BudgetExceeded, 0, 0, 1,
                 CodeBytesEmitted);
    } else if (B.MaxChurn != 0 &&
               Supersedes + SmcInvalidations > B.MaxChurn) {
      Abort = RunError::BudgetChurn;
      Trace.emit(obs::TraceEventKind::BudgetExceeded, 0, 0, 2,
                 Supersedes + SmcInvalidations);
    }
  }

  // -- code-cache verification ---------------------------------------------

  /// Run the structural verifier (EngineConfig::Verify) over the
  /// current cache.  Called after every mutation of installed code; a
  /// violation aborts the run with VerifyFailed.  Read-only, so it is
  /// safe even from fault-handler context.  \p Force runs the sweep
  /// even when EngineConfig::Verify is off — the AOT output checker
  /// verifies statically produced code unconditionally.
  void runVerifier(bool Force = false) {
    if ((!Config.Verify && !Force) || Abort != RunError::None)
      return;
    analysis::VerifierInput In;
    std::unordered_map<const Translation *, size_t> Index;
    for (Translation &T : Store) {
      if (!T.Valid)
        continue;
      analysis::VerifierBlock B;
      B.EntryWord = T.EntryWord;
      B.EndWord = T.EndWord;
      B.BornEpoch = T.BornEpoch;
      B.AotInstalled = T.AotInstalled;
      for (const auto &R : T.GuestRanges)
        B.GuestRanges.push_back({R.first, R.second});
      for (const ExitSite &X : T.Exits)
        B.ExitWords.push_back(X.SrvWord);
      for (const IcSite &S : T.IcSites)
        for (const IcWay &W : S.Ways)
          if (!W.Stale) // quarantined ways are covered by ExemptWords
            B.IcWays.push_back(
                {W.Begin, W.Filled, W.TargetEntry, W.TargetGuestPc});
      for (uint32_t W : T.PatchedWords)
        B.Patches.push_back({W, T.MemWordToGuestPc.count(W) != 0});
      for (const FusedSite &F : T.FusedSites)
        B.FusedSites.push_back({F.Rule, F.Begin, F.End, F.Words});
      Index[&T] = In.Blocks.size();
      In.Blocks.push_back(std::move(B));
    }
    for (const auto &[Entry, Region] : Regions) {
      Translation *T = Region.second;
      if (!T->Valid || Entry == T->EntryWord)
        continue; // dead, or the body region itself
      auto It = Index.find(T);
      if (It != Index.end())
        In.Blocks[It->second].Stubs.push_back({Entry, Region.first});
    }
    In.ExemptWords = StaleChainWords;
    In.IcWayWords = IcWayWords;
    In.GuestDirtyEpoch = &ByteDirtyEpoch;
    if (AotCfg)
      In.ReachableRanges = &AotReachable;
    analysis::VerifyReport Report = analysis::verifyCodeSpace(Code, In);
    VerifyWords += Report.WordsChecked;
    if (Report.ok()) {
      ++VerifyPasses;
      Trace.emit(obs::TraceEventKind::VerifyPass, 0, 0,
                 Report.WordsChecked, Report.RegionsChecked);
      return;
    }
    VerifyIssues += Report.Issues.size();
    for (const analysis::VerifyIssue &I : Report.Issues)
      Trace.emit(obs::TraceEventKind::VerifyFail, 0, I.Word,
                 static_cast<uint64_t>(I.Kind), I.Aux);
    Abort = RunError::VerifyFailed;
  }

  // -- fault handling ------------------------------------------------------

  Translation *findOwner(uint32_t Word) {
    auto It = Regions.upper_bound(Word);
    if (It == Regions.begin())
      return nullptr;
    --It;
    if (Word >= It->second.first)
      return nullptr;
    return It->second.second;
  }

  /// Handle one (possibly stale or injected) trap delivery.  Validates
  /// the delivery against the current cache contents before acting:
  /// duplicate and spurious deliveries for a word that has since been
  /// patched, flushed, or reused must not patch the wrong instruction.
  FaultAction deliver(const FaultInfo &F) {
    if (F.HostPc >= Code.size() ||
        Code.word(F.HostPc) != encodeHost(F.Inst)) {
      // Stale delivery: the word no longer holds the faulting
      // instruction (already patched, flushed, or reused).
      ++SpuriousTraps;
      Trace.emit(obs::TraceEventKind::TrapSpurious, 0, 0, F.HostPc, 0);
      return FaultAction::Retry;
    }
    Translation *T = findOwner(F.HostPc);
    if (!T) {
      // The word matches but no live translation owns it (flushed and
      // not yet reused): emulate so the guest still makes progress.
      ++SpuriousTraps;
      Trace.emit(obs::TraceEventKind::TrapSpurious, 0, 0, F.HostPc, 1);
      return FaultAction::Fixup;
    }
    auto It = T->MemWordToGuestPc.find(F.HostPc);
    if (It == T->MemWordToGuestPc.end()) {
      ++SpuriousTraps;
      Trace.emit(obs::TraceEventKind::TrapSpurious, 0, T->GuestPc,
                 F.HostPc, 2);
      return FaultAction::Retry;
    }
    uint32_t InstPc = It->second;
    ++T->FaultCount;
    Trace.emit(obs::TraceEventKind::TrapTaken, InstPc, T->GuestPc,
               F.HostPc, T->FaultCount);

    FaultDecision D = Policy.onFault(InstPc, T->GuestPc, T->FaultCount);
    if (!D.PatchStub)
      return FaultAction::Fixup;

    // Exception-handling method (paper Fig. 5): generate the MDA code
    // sequence in the code cache and patch the offending instruction.
    Translator::StubInfo S;
    bool Adaptive = D.AdaptiveStub;
    if (Adaptive && NextCounterCell + 4 > Mem.size()) {
      // Runtime counter cells exhausted: degrade to a plain stub rather
      // than corrupting guest memory.
      Adaptive = false;
      ++StubDowngrades;
    }
    if (Adaptive) {
      // The revertible stub of paper Fig. 8 (right): remember the
      // original word so the monitor can patch it back when the stub
      // reports a run of aligned executions.
      uint32_t CounterAddr = NextCounterCell;
      NextCounterCell += 4;
      Mem.store(CounterAddr, 4, 0);
      PatchedOriginals[F.HostPc] = {Code.word(F.HostPc), InstPc};
      S = Trans.emitAdaptiveStub(F.Inst, F.HostPc, CounterAddr,
                                 MailboxAddr, D.RevertThreshold);
    } else {
      S = Trans.emitStub(F.Inst, F.HostPc);
    }
    Trace.emit(obs::TraceEventKind::StubEmitted, InstPc, T->GuestPc,
               S.Entry, Adaptive ? 1 : 0);
    if (!patchVerified(F.HostPc,
                       Translator::stubBranchWord(F.HostPc, S.Entry))) {
      // The redirect did not stick; the original instruction is still
      // in place.  Emulate this occurrence and let a later trap retry
      // the patch (or the watchdog escalate).
      if (Adaptive)
        PatchedOriginals.erase(F.HostPc);
      return Abort != RunError::None ? FaultAction::Halt
                                     : FaultAction::Fixup;
    }
    T->PatchedWords.push_back(F.HostPc);
    T->MemWordToGuestPc.erase(F.HostPc);
    Regions[S.Entry] = {S.End, T};
    // A store executed out of the stub must stop the episode at the
    // same place as the body word it replaces: propagate the resume
    // metadata to every stub word.  (Loads were never recorded, so the
    // lookup fails for them and nothing is registered.)
    auto RIt = T->StoreResume.find(F.HostPc);
    if (RIt != T->StoreResume.end()) {
      SmcResume V = RIt->second; // copy: the inserts below may rehash
      for (uint32_t W = S.Entry; W != S.End; ++W)
        T->StoreResume[W] = V;
    }
    Machine.addCycles(Cost.PatchExtraCycles);
    chargeCodeGrowth(); // the stub is emitted code too
    checkBudgets();
    ++Patches;
    Trace.emit(obs::TraceEventKind::PatchApplied, InstPc, T->GuestPc,
               F.HostPc, S.Entry);
    LastPatch = F;
    HaveLastPatch = true;
    runVerifier();
    if (Abort != RunError::None)
      return FaultAction::Halt;

    if (D.Supersede)
      supersede(T);
    return FaultAction::Retry;
  }

  /// Trap-storm watchdog escalation: force progress at a site the
  /// normal policy machinery has failed to fix.  Climbs a three-rung
  /// degradation ladder per block — (1) rearrangement with the storming
  /// site force-inlined, (2) retranslation with every memory site
  /// force-inlined, (3) interpret-only pin — and always emulates the
  /// current access so the guest advances regardless.
  FaultAction engageLadder(const FaultInfo &F) {
    ++WatchdogTrips;
    ConsecutiveTraps = 0;
    if (WatchdogTrips > Hard.MaxWatchdogTrips) {
      Abort = RunError::TrapStorm;
      return FaultAction::Halt;
    }
    Translation *T = findOwner(F.HostPc);
    if (!T) {
      ++SpuriousTraps;
      Trace.emit(obs::TraceEventKind::TrapSpurious, 0, 0, F.HostPc, 3);
      return FaultAction::Fixup;
    }
    uint32_t BlockPc = T->GuestPc;
    auto It = T->MemWordToGuestPc.find(F.HostPc);
    uint32_t InstPc =
        It != T->MemWordToGuestPc.end() ? It->second : 0;
    uint32_t Rung = ++LadderRungOf[BlockPc];
    Trace.emit(obs::TraceEventKind::LadderRung, InstPc, BlockPc,
               Rung > 3 ? 3 : Rung, WatchdogTrips);
    if (Rung == 1 && InstPc != 0) {
      ForceInline.insert(InstPc);
      Policy.onWatchdogEscalation(BlockPc, InstPc, 1);
      if (T->Valid)
        supersede(T);
      ++LadderRearranges;
    } else if (Rung <= 2) {
      for (const auto &Entry : T->MemWordToGuestPc)
        ForceInline.insert(Entry.second);
      Policy.onWatchdogEscalation(BlockPc, InstPc, 2);
      if (T->Valid)
        supersede(T);
      ++LadderRetranslations;
    } else {
      InterpOnly.insert(BlockPc);
      Policy.onWatchdogEscalation(BlockPc, 0, 3);
      if (T->Valid)
        invalidate(T);
      ++LadderInterpPins;
    }
    return FaultAction::Fixup;
  }

  FaultAction onFault(const FaultInfo &F) {
    // Watchdog: consecutive traps at one host word with no intervening
    // progress (Fixup always advances Pc, so delta > 1 means the guest
    // is moving) indicate a livelock the policy cannot break.
    if (F.HostPc == LastTrapWord &&
        Machine.Instructions - LastTrapInsts <= 1) {
      ++ConsecutiveTraps;
    } else {
      ConsecutiveTraps = 1;
      LastTrapWord = F.HostPc;
    }
    LastTrapInsts = Machine.Instructions;
    if (Abort != RunError::None)
      return FaultAction::Halt;
    if (ConsecutiveTraps > WatchdogTrapK)
      return engageLadder(F);

    if (Injector && Injector->lostTrap()) {
      // The delivery is lost: the handler never runs and the faulting
      // instruction restarts — the retry storm the watchdog contains.
      ++ChaosLostTraps;
      return FaultAction::Retry;
    }
    FaultAction A = deliver(F);
    if (Abort != RunError::None)
      return FaultAction::Halt;
    if (Injector && Injector->duplicateTrap()) {
      // The same exception is delivered twice: the second delivery must
      // be recognized as stale and stay harmless.
      ++ChaosDupTraps;
      deliver(F);
      if (Abort != RunError::None)
        return FaultAction::Halt;
    }
    return A;
  }

  /// Apply a revert request posted by an adaptive stub: restore the
  /// original memory instruction.  It may trap (and be re-patched)
  /// later — that is the adaptivity loop of paper Fig. 8.
  void pollRevertMailbox() {
    uint32_t Posted = static_cast<uint32_t>(Mem.load(MailboxAddr, 4));
    if (Posted == 0)
      return;
    Mem.store(MailboxAddr, 4, 0);
    uint32_t FaultWord = Posted - 1;
    auto It = PatchedOriginals.find(FaultWord);
    if (It == PatchedOriginals.end())
      return;
    if (!patchVerified(FaultWord, It->second.first))
      return; // revert failed; the stub stays in place and stays correct
    Translation *T = findOwner(FaultWord);
    if (T)
      T->MemWordToGuestPc[FaultWord] = It->second.second;
    Trace.emit(obs::TraceEventKind::StubReverted, It->second.second,
               T ? T->GuestPc : 0, FaultWord, 0);
    PatchedOriginals.erase(It);
    MonitorCycles += Cost.ChainPatchCycles; // one store into the cache
    ++Reverts;
    runVerifier();
  }

  // -- state sync ----------------------------------------------------------

  void syncToHost() {
    for (unsigned I = 0; I != guest::NumGPR; ++I)
      Machine.R[hostGpr(I)] = Cpu.Gpr[I];
    for (unsigned I = 0; I != guest::NumQReg; ++I)
      Machine.R[hostQ(I)] = Cpu.Qreg[I];
    Machine.R[RegChecksum] = Cpu.Checksum;
  }

  void syncToGuest() {
    for (unsigned I = 0; I != guest::NumGPR; ++I)
      Cpu.Gpr[I] = static_cast<uint32_t>(Machine.R[hostGpr(I)]);
    for (unsigned I = 0; I != guest::NumQReg; ++I)
      Cpu.Qreg[I] = Machine.R[hostQ(I)];
    Cpu.Checksum = Machine.R[RegChecksum];
  }

  // -- chaining ------------------------------------------------------------

  void maybeChain(const ExitInfo &E) {
    if (!Config.EnableChaining)
      return;
    Translation *Owner = findOwner(E.SrvWord);
    if (!Owner || !Owner->Valid)
      return;
    for (ExitSite &X : Owner->Exits) {
      if (X.SrvWord != E.SrvWord)
        continue;
      if (!X.Direct || X.Chained)
        return;
      auto TIt = BlockMap.find(X.TargetGuestPc);
      if (TIt == BlockMap.end() || !TIt->second->Valid)
        return;
      Translation *Target = TIt->second;
      std::optional<uint32_t> Br = branchTo(X.SrvWord, Target->EntryWord);
      if (!Br || !patchVerified(X.SrvWord, *Br))
        return; // out of range or patch failed: keep exiting via monitor
      X.Chained = true;
      Target->IncomingChains.push_back(X.SrvWord);
      ChainCycles += Cost.ChainPatchCycles;
      ++Chains;
      Trace.emit(obs::TraceEventKind::BlockChained, X.TargetGuestPc,
                 Owner->GuestPc, X.SrvWord, Target->EntryWord);
      runVerifier();
      // A backward chain closes a native loop — the hotness signal for
      // superblock formation.  (Chain events, not dispatch counts: a
      // fully chained loop never revisits the monitor, so a dispatch
      // counter would stop ticking exactly when the loop gets hot.)
      if (Config.Superblocks && Abort == RunError::None &&
          X.TargetGuestPc <= Owner->GuestPc &&
          ++BackedgeHeat[X.TargetGuestPc] >= TraceHotChains)
        tryFormSuperblock(X.TargetGuestPc);
      return;
    }
  }

  /// On an indirect-exit miss, fill (or refill) an inline-cache way
  /// with the observed target if it is translated (EngineConfig::
  /// InlineCaches).  Interior words are written before the guard, so a
  /// partially written way is never executable; any patch failure
  /// leaves the way disabled.
  void maybeIcFill(const ExitInfo &E) {
    if (!Config.InlineCaches || Abort != RunError::None)
      return;
    Translation *Owner = findOwner(E.SrvWord);
    if (!Owner || !Owner->Valid || Owner->IcSites.empty())
      return;
    uint32_t SiteIdx = ~0u;
    for (uint32_t I = 0; I != Owner->IcSites.size(); ++I) {
      if (Owner->IcSites[I].SrvWord == E.SrvWord) {
        SiteIdx = I;
        break;
      }
    }
    if (SiteIdx == ~0u)
      return; // a direct exit's Srv word, not an IC fallback
    IcSite &Site = Owner->IcSites[SiteIdx];
    ++IcMisses;
    auto TIt = BlockMap.find(E.GuestPc);
    if (TIt == BlockMap.end() || !TIt->second->Valid)
      return; // target not translated yet; a later miss can fill
    Translation *Target = TIt->second;
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
        return; // every way quarantined; fall back to the monitor
    }
    uint32_t FinalBr = Way->Begin + IcWayWords - 1;
    std::optional<uint32_t> Br = branchTo(FinalBr, Target->EntryWord);
    if (!Br)
      return; // out of branch range; keep going through the monitor
    if (Evicting) {
      ++IcEvictions;
      Trace.emit(obs::TraceEventKind::DispatchIcEvict, Way->TargetGuestPc,
                 Owner->GuestPc, Way->Begin, 0);
      if (!retireIcWay(*Way)) {
        runVerifier();
        return; // victim quarantined; this fill attempt is abandoned
      }
    }
    // Interiors first (tag compare, miss skip, target branch), guard
    // last: the way only becomes executable once fully written.
    uint32_t Tag = Target->GuestPc;
    int32_t Lo = static_cast<int16_t>(Tag & 0xffff);
    int32_t Hi =
        static_cast<int32_t>(Tag - static_cast<uint32_t>(Lo)) >> 16;
    const std::pair<uint32_t, uint32_t> Interior[] = {
        {Way->Begin + 1,
         encodeHost(memInst(HostOp::Lda, RegScratch1, Lo, RegScratch1))},
        {Way->Begin + 2,
         encodeHost(opInst(HostOp::Zextl, RegZero, RegScratch1,
                           RegScratch1))},
        {Way->Begin + 3,
         encodeHost(opInst(HostOp::Cmpeq, RegExitPc, RegScratch1,
                           RegScratch2))},
        {Way->Begin + 4, encodeHost(brInst(HostOp::Beq, RegScratch2, 1))},
        {FinalBr, *Br},
    };
    for (const auto &P : Interior) {
      if (!patchVerified(P.first, P.second)) {
        // patchVerified restored the word (or quarantined the run); the
        // guard is still disabled, so the way stays safely inert.
        ++IcFillFails;
        runVerifier();
        return;
      }
    }
    if (!patchVerified(Way->Begin,
                       encodeHost(memInst(HostOp::Ldah, RegScratch1, Hi,
                                          RegZero)))) {
      // Guard never armed, but FinalBr now holds a live branch the
      // verifier cannot tie to a filled way: scrub it.
      ++IcFillFails;
      if (!patchVerified(FinalBr, hostNopWord()))
        StaleChainWords.insert(FinalBr);
      runVerifier();
      return;
    }
    StaleChainWords.erase(FinalBr); // freshly verified content
    Way->Filled = true;
    Way->Stale = false;
    Way->TargetEntry = Target->EntryWord;
    Way->TargetGuestPc = Tag;
    Target->IncomingIcWays.push_back({Owner, SiteIdx, WayIdx});
    ChainCycles +=
        static_cast<uint64_t>(Cost.ChainPatchCycles) * IcWayWords;
    ++IcFills;
    Trace.emit(obs::TraceEventKind::DispatchIcFill, Tag, Owner->GuestPc,
               Way->Begin, Target->EntryWord);
    runVerifier();
  }

  // -- superblock formation ----------------------------------------------

  /// Re-emit the hot chain of blocks starting at \p HeadPc as one
  /// straight-line superblock (EngineConfig::Superblocks).  The trace
  /// supersedes the head block in the block map; constituents' recorded
  /// MemPlans are replayed so every memory site keeps its exact MDA
  /// treatment.  De-optimization is ordinary invalidation: the trace
  /// falls back to the still-installed constituent blocks.
  void tryFormSuperblock(uint32_t HeadPc) {
    if (Abort != RunError::None || InterpOnly.count(HeadPc))
      return;
    // Trace planning replays constituent MemPlans and consults the
    // analysis for fresh sites: both must be current.
    maybeReanalyze();
    if (Abort != RunError::None)
      return;
    if (TraceFormsAt[HeadPc] >= TraceFormsPerHead)
      return;
    auto HIt = BlockMap.find(HeadPc);
    if (HIt == BlockMap.end() || !HIt->second->Valid ||
        HIt->second->IsTrace)
      return;
    Translation *Head = HIt->second;

    // Walk direct exits from the head, preferring chained (observed
    // hot) edges, to pick the trace's constituents.
    std::vector<uint32_t> Pcs;
    std::unordered_set<uint32_t> Seen;
    std::unordered_map<uint32_t, MemPlan> Plans;
    uint32_t Pc = HeadPc;
    bool ClosedAtHead = false;
    while (Pcs.size() < TraceMaxBlocks) {
      auto It = BlockMap.find(Pc);
      if (It == BlockMap.end() || !It->second->Valid ||
          It->second->IsTrace)
        break;
      if (!Seen.insert(Pc).second) {
        ClosedAtHead = Pc == HeadPc;
        break; // closed the loop (or revisited): stop
      }
      Pcs.push_back(Pc);
      Translation *T = It->second;
      for (const auto &KV : T->PlanByPc)
        Plans.insert(KV);
      const ExitSite *Next = nullptr;
      for (const ExitSite &X : T->Exits) {
        if (!X.Direct)
          continue;
        if (X.Chained) {
          Next = &X;
          break;
        }
        if (!Next)
          Next = &X;
      }
      if (!Next)
        break; // indirect terminator: the trace ends here
      Pc = Next->TargetGuestPc;
    }
    // A loop that closes back at the head is unrolled to fill the block
    // budget: each extra copy turns the backedge's exit sequence
    // (materialize exit PC + branch) into straight-line fallthrough,
    // which is where a superblock actually earns its cycles on tight
    // loops.  Only the final copy's backedge survives, and it chains to
    // the trace's own entry like any other exit.
    // One extra copy only: each further copy saves the same few exit
    // instructions per circuit but multiplies code size (I-cache
    // pressure — exactly the locality figs. 6/11 measure) and
    // translation cycles.
    if (ClosedAtHead && Pcs.size() * 2 <= TraceMaxBlocks) {
      const std::vector<uint32_t> Body = Pcs;
      Pcs.insert(Pcs.end(), Body.begin(), Body.end());
    }
    if (Pcs.size() < 2)
      return; // a single-block "trace" would only re-emit the head

    ++TraceFormsAt[HeadPc];
    std::vector<GuestBlock> Blocks;
    Blocks.reserve(Pcs.size());
    for (uint32_t P : Pcs)
      Blocks.push_back(discoverBlock(Mem, P));
    // Each site gets the stronger of its recorded constituent plan and
    // the policy's current verdict: never weaker than the constituent
    // (the identity guarantee PlanByPc exists for), and never weaker
    // than what the policy has learned since — a site the constituent
    // emitted as a plain op and later patched to a stub re-emits with
    // the MDA sequence inline, like any retranslation would, instead of
    // re-faulting once per trace copy.
    Translator::PlanFn Plan = [this, &Plans](uint32_t InstPc,
                                             const guest::GuestInst &I) {
      MemPlan Fresh = planMemOp(InstPc, I);
      auto It = Plans.find(InstPc);
      if (It == Plans.end() || It->second == MemPlan::Normal)
        return Fresh;
      return It->second; // keep the constituent's MDA treatment
    };
    bool FromCache = false;
    Translation *Tr = obtain(Blocks, Plan, Head->Generation + 1, FromCache);
    if (!Tr)
      return; // constituents stay in service; no harm done
    ++TracesFormed;
    TraceBlocksEmitted += Pcs.size();
    if (!install(Tr, FromCache, obs::TraceEventKind::TraceFormed, Pcs.size(),
                 Tr->EntryWord)) {
      // The trace alone would thrash the cache: stop trying to form one
      // at this head.
      TraceFormsAt[HeadPc] = TraceFormsPerHead;
      runVerifier();
      return;
    }
    // Capture the head's incoming chains before invalidation unchains
    // them: an unchained source never re-chains on its own, so without
    // redirection every former backedge would round-trip through the
    // monitor forever — the opposite of what the trace is for.
    const std::vector<uint32_t> Incoming = Head->IncomingChains;
    invalidate(Head);
    BlockMap[HeadPc] = Tr;
    for (uint32_t W : Incoming) {
      if (StaleChainWords.count(W))
        continue; // the unchain did not stick; leave it quarantined
      Translation *Src = findOwner(W);
      if (!Src || !Src->Valid)
        continue; // the head's own backedge, or a dead caller
      std::optional<uint32_t> Br = branchTo(W, Tr->EntryWord);
      if (!Br || !patchVerified(W, *Br))
        continue; // keep exiting through the monitor (verified restore)
      Tr->IncomingChains.push_back(W);
      ChainCycles += Cost.ChainPatchCycles;
      ++Chains;
      Trace.emit(obs::TraceEventKind::BlockChained, HeadPc, Src->GuestPc,
                 W, Tr->EntryWord);
    }
    runVerifier();
  }

  // -- members ---------------------------------------------------------------

  MdaPolicy &Policy;
  const EngineConfig &Config;
  const CostModel &Cost;
  const HardeningConfig &Hard;

  guest::GuestMemory Mem;
  guest::GuestCPU Cpu;
  guest::Interpreter Interp;
  CodeSpace Code;
  MemoryHierarchy Hier;
  HostMachine Machine;
  Translator Trans;
  InterpProfiler Profiler;

  // -- observability -----------------------------------------------------

  /// TraceClock: the monotonic virtual time every trace event carries —
  /// the same cycle aggregation RunResult::Cycles reports at end of run.
  uint64_t now() const override {
    return Machine.Cycles + InterpCycles + TranslateCycles +
           MonitorCycles + ChainCycles;
  }

  obs::Tracer Trace;
  obs::MetricsRegistry Reg;
  /// Histogram handles resolved once; hot paths record through these
  /// rather than by-name lookups.
  obs::Histogram *HTransInsts;
  obs::Histogram *HTrapBlock;
  obs::Histogram *HInterpInsts;

  std::unordered_map<uint32_t, Translation *> BlockMap;
  std::unordered_map<uint32_t, uint32_t> Heat;
  std::deque<Translation> Store;
  /// Host-word region -> owning translation (bodies and stubs).
  std::map<uint32_t, std::pair<uint32_t, Translation *>> Regions;

  /// Backward-chain events per loop-head PC (superblock hotness).
  std::unordered_map<uint32_t, uint32_t> BackedgeHeat;
  /// Formation attempts per head PC (bounds retry after de-opt).
  std::unordered_map<uint32_t, uint32_t> TraceFormsAt;

  /// Adaptive-revert runtime state (paper Fig. 8, right).
  static constexpr uint32_t MailboxAddr = guest::layout::RuntimeBase;
  uint32_t NextCounterCell = guest::layout::RuntimeBase + 8;
  /// Adaptively patched word -> (original word, guest inst PC).
  std::unordered_map<uint32_t, std::pair<uint32_t, uint32_t>>
      PatchedOriginals;

  /// Fault injection (chaos campaigns); disengaged in normal runs.
  std::optional<chaos::FaultInjector> Injector;
  bool ChaosPatchArmed = false;
  /// Most recent successfully patched fault, replayed by the spurious
  /// (stale re-delivery) injection point.
  FaultInfo LastPatch;
  bool HaveLastPatch = false;

  /// Static alignment analysis (EngineConfig::Analysis); empty when
  /// disabled.  Also implied by EngineConfig::Aot != Off.
  std::optional<analysis::AnalysisResult> Ana;

  // -- static AOT pre-translation state (EngineConfig::Aot) --------------

  /// Statically recovered CFG of the pristine image (Aot != Off only).
  std::optional<analysis::CfgResult> AotCfg;
  /// AotCfg's merged reachable byte ranges in the verifier's region
  /// form (HostVerifier check 10), sorted and disjoint.
  std::vector<analysis::VerifierRegion> AotReachable;
  /// The pre-translator; emplaced by aotStartup() before the first
  /// guest instruction.
  std::optional<AotTranslator> Aot;
  /// Mirror of the write-watch page refcounts held for pending AOT
  /// units: flushAll()'s drain assertion and stale-unit unwatching.
  std::unordered_map<uint32_t, uint32_t> AotWatchRef;
  /// First-touch dynamic block heads (coverage accounting: a head the
  /// monitor ever dispatches is either statically covered or a flagged
  /// fallback).
  std::unordered_set<uint32_t> DynHeads;
  uint64_t AotInstalls = 0;
  uint64_t AotCoveredHeads = 0;
  uint64_t AotFallbackBlocks = 0;
  uint64_t AotStartupCycles = 0;

  /// Chain-exit words whose unchain patch failed under fault injection:
  /// quarantined from the verifier's liveness checks until the next
  /// flush (see invalidate()).
  std::unordered_set<uint32_t> StaleChainWords;

  // -- guest-code coherence state ----------------------------------------

  /// Live translations indexed by guest watch page (GuestMemory::
  /// WatchPageShift granularity): the write barrier's victim lookup.
  std::unordered_map<uint32_t, std::vector<Translation *>> TrackedByPage;
  /// Guest-store epoch: bumped once per barrier-visible store.  Dirty
  /// bytes and Translation::BornEpoch are stamped with it.
  uint64_t StoreEpoch = 0;
  /// Dirtied guest code byte -> epoch of the store that dirtied it.
  /// Byte-granular on purpose: two translations can share one watch
  /// page, and the verifier must not flag the live neighbour of a
  /// rewritten range.  Bounded by distinct dirtied bytes on watched
  /// pages (only those reach the barrier).
  std::unordered_map<uint32_t, uint64_t> ByteDirtyEpoch;
  /// Re-entrancy guard for the write barrier.
  bool InSmcBarrier = false;
  /// Inside SMC-triggered invalidation: failed unchain/IC-retire
  /// patches abort instead of quarantining (see invalidate()).
  bool SmcStrict = false;
  /// Guest code bytes changed since the last analysis pass; re-run
  /// lazily at the next safe point (maybeReanalyze).
  bool AnaStale = false;
  /// SMC invalidations per block PC (BudgetConfig::SmcChurnPinLimit).
  std::unordered_map<uint32_t, uint32_t> SmcInvalsAt;
  /// Re-analysis anchor (the image's entry and initial stack top).
  uint32_t EntryPc = 0;
  uint32_t StackTopAddr = 0;

  /// Degradation-ladder state.
  std::unordered_set<uint32_t> ForceInline; ///< inst PCs forced Inline
  std::unordered_set<uint32_t> InterpOnly;  ///< block PCs never translated
  std::unordered_map<uint32_t, uint32_t> LadderRungOf; ///< block -> rung
  std::unordered_map<uint32_t, uint32_t> TranslateFailsAt;
  RunError Abort = RunError::None;

  /// Trap-storm watchdog state.
  uint32_t LastTrapWord = ~0u;
  uint64_t LastTrapInsts = 0;
  uint32_t ConsecutiveTraps = 0;

  uint64_t StepIndex = 0;
  uint64_t LastFlushStep = 0;

  uint64_t InterpCycles = 0;
  uint64_t TranslateCycles = 0;
  uint64_t MonitorCycles = 0;
  uint64_t ChainCycles = 0;
  uint64_t InterpInsts = 0;
  uint64_t InterpRefs = 0;
  uint64_t InterpBlocks = 0;
  uint64_t Translations = 0;
  uint64_t Supersedes = 0;
  uint64_t Patches = 0;
  uint64_t Chains = 0;
  uint64_t Reverts = 0;
  uint64_t Flushes = 0;
  uint64_t NativeEntries = 0;
  uint64_t WatchdogTrips = 0;
  uint64_t LadderRearranges = 0;
  uint64_t LadderRetranslations = 0;
  uint64_t LadderInterpPins = 0;
  uint64_t OversizedPins = 0;
  uint64_t SpuriousTraps = 0;
  uint64_t PatchRepairs = 0;
  uint64_t PatchFailures = 0;
  uint64_t TranslateFailures = 0;
  uint64_t FlushesSuppressed = 0;
  uint64_t StubDowngrades = 0;
  uint64_t ChaosLostTraps = 0;
  uint64_t ChaosDupTraps = 0;
  uint64_t ChaosSpurious = 0;
  uint64_t ChaosPatchDrops = 0;
  uint64_t ChaosPatchTears = 0;
  uint64_t ChaosTranslateFails = 0;
  uint64_t ChaosFlushStorms = 0;
  uint64_t PlanAlignedElides = 0;
  uint64_t PlanInlineForced = 0;
  uint64_t DispatchHits = 0;
  uint64_t DispatchMisses = 0;
  uint64_t IcFills = 0;
  uint64_t IcMisses = 0;
  uint64_t IcEvictions = 0;
  uint64_t IcFillFails = 0;
  uint64_t TracesFormed = 0;
  uint64_t TraceBlocksEmitted = 0;
  uint64_t TraceDeopts = 0;
  uint64_t FusionSites = 0;
  uint64_t FusionSavedWords = 0;
  uint64_t FusionBlocks = 0;
  uint64_t VerifyPasses = 0;
  uint64_t VerifyWords = 0;
  uint64_t VerifyIssues = 0;
  uint64_t SmcStores = 0;
  uint64_t SmcInvalidations = 0;
  uint64_t SmcReanalyses = 0;
  uint64_t SmcVerdictsRevoked = 0;
  uint64_t SmcChurnPins = 0;
  uint64_t SmcEpisodeStops = 0;
  // -- serving state (EngineConfig::Service) -----------------------------

  /// The process-wide translation service, or null for isolated runs.
  TranslationService *Service = nullptr;
  /// Shared-cache leases held by this run, one per service-installed
  /// translation.  Erased on invalidate/flush and drained wholesale at
  /// end of run, so the cache's live-lease count returns to this run's
  /// pre-existing level no matter how the run ended.
  std::unordered_map<const Translation *, TranslationLease> Leases;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t CacheEvictions = 0;
  uint64_t CacheHitInsts = 0;

  /// True while Machine.run() is on the stack: a write-barrier hit
  /// then means the store was issued by the running translation.
  bool InNative = false;
  /// Cumulative emitted host-code bytes (monotone across flushes).
  uint64_t CodeBytesEmitted = 0;
  /// Arena size at the last chargeCodeGrowth() sample.
  uint32_t LastCodeWords = 0;
  bool PendingFlush = false;
};

RunResult ExecutionContext::run() {
  RunResult R;
  bool Guarded = false;
  Trace.emit(obs::TraceEventKind::RunBegin, Cpu.Pc, 0,
             Policy.hotThreshold(), Injector ? 1 : 0);

  // Static AOT pre-translation: populate (and under Full, install) the
  // code cache before the first guest instruction executes.
  if (Config.Aot != AotMode::Off)
    aotStartup();

  while (!Cpu.Halted) {
    if (++StepIndex > Config.MaxMonitorSteps) {
      Guarded = true;
      break;
    }
    if (Abort != RunError::None)
      break;

    if (Injector) {
      if (Injector->flushStorm()) {
        ++ChaosFlushStorms;
        // Flush-storm backoff: absorb requests arriving faster than
        // the cache can usefully refill.
        if (StepIndex - LastFlushStep >= Hard.FlushStormBackoffSteps)
          PendingFlush = true;
        else
          ++FlushesSuppressed;
      }
      if (HaveLastPatch && Injector->spuriousTrap()) {
        // Stale re-delivery of an already-handled exception: it must be
        // recognized as such and rejected.
        ++ChaosSpurious;
        Machine.addCycles(Cost.TrapCycles);
        deliver(LastPatch);
        if (Abort != RunError::None)
          break;
      }
    }

    if (PendingFlush) {
      flushAll();
      if (Abort != RunError::None)
        break;
    }

    // Guest code changed since the last analysis pass: re-analyze and
    // revoke stale Elide verdicts before dispatching anything compiled
    // under the old proofs.
    maybeReanalyze();
    if (Abort != RunError::None)
      break;

    // AOT coverage accounting: every executed head reaches this point
    // at least once before any chain or inline cache can bypass the
    // monitor, so first touch here decides statically-covered vs.
    // dynamically-discovered exactly once per head.
    if (Aot && DynHeads.insert(Cpu.Pc).second) {
      if (AotCfg->contains(Cpu.Pc)) {
        ++AotCoveredHeads;
      } else {
        ++AotFallbackBlocks;
        Trace.emit(obs::TraceEventKind::AotFallback, Cpu.Pc, Cpu.Pc,
                   AotFallbackBlocks, 0);
      }
    }

    // One block-map lookup on every dispatch; HashDispatch only selects
    // the modeled price of a hit.  A miss is not priced on either path:
    // it is folded into the interpretation/translation episode it starts.
    auto It = BlockMap.find(Cpu.Pc);
    Translation *T =
        (It != BlockMap.end() && It->second->Valid) ? It->second : nullptr;
    if (T) {
      ++DispatchHits;
      MonitorCycles += Config.HashDispatch ? Cost.DispatchTableHitCycles
                                           : Cost.MonitorDispatchCycles;
    } else {
      ++DispatchMisses;
    }

    // Dispatch miss with a pending pre-translated unit: install it now,
    // before any heating — statically covered code never pays the
    // interpretation phase (the Hybrid install path; Full reaches it
    // only for units a capacity flush spilled back to pending).
    if (!T && Aot) {
      AotTranslator::Unit *U = Aot->find(Cpu.Pc);
      if (U && !U->Stale && !InterpOnly.count(Cpu.Pc)) {
        if (!makeRoom())
          break;
        T = installAotUnit(*U, /*Sweep=*/true);
        if (Abort != RunError::None)
          break;
      }
    }

    if (T) {
      syncToHost();
      ++NativeEntries;
      InNative = true;
      ExitInfo E = Machine.run(T->EntryWord);
      InNative = false;
      syncToGuest();
      if (E.K == ExitInfo::Stop) {
        // SMC episode stop: the guest store invalidated the running
        // translation; resume by fresh dispatch at the next guest
        // instruction.  No chain/IC bookkeeping — the exit was
        // synthetic, not a Srv Exit word.
        Cpu.Pc = E.GuestPc;
        continue;
      }
      if (E.K == ExitInfo::Halt) {
        if (Abort == RunError::None)
          Cpu.Halted = true;
        break;
      }
      if (E.K == ExitInfo::Limit) {
        Guarded = true;
        break;
      }
      Cpu.Pc = E.GuestPc;
      pollRevertMailbox();
      maybeChain(E);
      maybeIcFill(E);
      continue;
    }

    if (!InterpOnly.count(Cpu.Pc)) {
      uint32_t H = ++Heat[Cpu.Pc];
      if (H > Policy.hotThreshold()) {
        // The block crossed the heating threshold: phase 1
        // (interpretation) -> phase 2 (native execution) for this PC.
        Trace.emit(obs::TraceEventKind::PhaseTransition, Cpu.Pc, Cpu.Pc,
                   H, 0);
        if (translateBlock(Cpu.Pc, /*Generation=*/0, /*AllowFlush=*/true))
          continue; // dispatch natively on the next iteration
        if (Abort != RunError::None)
          break;
        // Translation failed: fall through and interpret this block so
        // the guest still makes forward progress.
      }
    }

    // Phase 1: interpret one dynamic basic block, profiling as we go.
    uint32_t BlockPc = Cpu.Pc;
    uint64_t N = Interp.stepBlock(Cpu);
    InterpInsts += N;
    ++InterpBlocks;
    InterpCycles += N * Cost.InterpCyclesPerInst;
    HInterpInsts->record(N);
    if (Trace.enabled())
      Trace.emit(obs::TraceEventKind::BlockInterpreted, BlockPc, BlockPc,
                 N, Heat[BlockPc]);
  }

  // One final sweep over whatever the cache holds at end of run.
  runVerifier();

  RunError Err = Abort;
  if (Err == RunError::None && (Guarded || !Cpu.Halted))
    Err = RunError::MonitorStepLimit;
  R.Error = Err;
  R.FinalCpu = Cpu;
  R.Checksum = Cpu.Checksum;
  // The BT-runtime scratch cells (revert counters) are not part of the
  // guest-visible state: zero them so the memory hash is comparable
  // with a pure-interpreter run.
  if (NextCounterCell > guest::layout::RuntimeBase)
    Mem.zeroRange(guest::layout::RuntimeBase, NextCounterCell);
  R.MemoryHash = memoryHash(Mem);
  R.Cycles = now();
  Trace.emit(obs::TraceEventKind::RunEnd, Cpu.Pc, 0,
             static_cast<uint64_t>(Err), R.Cycles);
  if (Config.Trace)
    Config.Trace->flush();

  // Blocks still in service at end of run never pass through
  // invalidate(): fold their trap counts into the distribution here.
  for (Translation &T : Store)
    if (T.Valid)
      HTrapBlock->record(T.FaultCount);

  // The registry is the authoritative record; the legacy CounterBag is
  // derived from it below so the two views agree by construction.
  Reg.addCounter("cycles.total", R.Cycles);
  Reg.addCounter("cycles.native", Machine.Cycles);
  Reg.addCounter("cycles.interp", InterpCycles);
  Reg.addCounter("cycles.translate", TranslateCycles);
  Reg.addCounter("cycles.monitor", MonitorCycles);
  Reg.addCounter("cycles.chain", ChainCycles);
  Reg.addCounter("cycles.traps",
                 Machine.Faults * Cost.TrapCycles +
                     Machine.Fixups * Cost.FixupExtraCycles +
                     Patches * Cost.PatchExtraCycles);
  Reg.addCounter("interp.insts", InterpInsts);
  Reg.addCounter("interp.refs", InterpRefs);
  Reg.addCounter("interp.blocks", InterpBlocks);
  Reg.addCounter("host.insts", Machine.Instructions);
  Reg.addCounter("host.loads", Machine.Loads);
  Reg.addCounter("host.stores", Machine.Stores);
  Reg.addCounter("host.l1i_misses", Hier.L1I.misses());
  Reg.addCounter("host.l1d_misses", Hier.L1D.misses());
  Reg.addCounter("host.l2_misses", Hier.L2.misses());
  Reg.addCounter("dbt.translations", Translations);
  Reg.addCounter("dbt.supersedes", Supersedes);
  Reg.addCounter("dbt.patches", Patches);
  Reg.addCounter("dbt.chains", Chains);
  Reg.addCounter("dbt.reverts", Reverts);
  Reg.addCounter("dbt.flushes", Flushes);
  Reg.addCounter("dbt.native_entries", NativeEntries);
  Reg.addCounter("dbt.fault_traps", Machine.Faults);
  Reg.addCounter("dbt.fixups", Machine.Fixups);
  Reg.setGauge("dbt.code_words", Code.size());
  Reg.setGauge("run.error", static_cast<uint64_t>(Err));
  Reg.addCounter("harden.watchdog_trips", WatchdogTrips);
  Reg.addCounter("harden.ladder_rearrange", LadderRearranges);
  Reg.addCounter("harden.ladder_retranslate", LadderRetranslations);
  Reg.addCounter("harden.ladder_interp_only", LadderInterpPins);
  Reg.addCounter("harden.oversized_pins", OversizedPins);
  Reg.setGauge("harden.interp_only_blocks", InterpOnly.size());
  Reg.addCounter("harden.spurious_traps", SpuriousTraps);
  Reg.addCounter("harden.patch_repairs", PatchRepairs);
  Reg.addCounter("harden.patch_failures", PatchFailures);
  Reg.addCounter("harden.translate_failures", TranslateFailures);
  Reg.addCounter("harden.flush_suppressed", FlushesSuppressed);
  Reg.addCounter("harden.stub_downgrades", StubDowngrades);
  Reg.addCounter("smc.stores", SmcStores);
  Reg.addCounter("smc.invalidations", SmcInvalidations);
  Reg.addCounter("smc.reanalyses", SmcReanalyses);
  Reg.addCounter("smc.verdicts_revoked", SmcVerdictsRevoked);
  Reg.addCounter("smc.churn_pins", SmcChurnPins);
  Reg.addCounter("smc.episode_stops", SmcEpisodeStops);
  Reg.addCounter("budget.code_bytes_emitted", CodeBytesEmitted);
  if (Service) {
    Reg.addCounter("cache.hits", CacheHits);
    Reg.addCounter("cache.misses", CacheMisses);
    Reg.addCounter("cache.evictions", CacheEvictions);
    Reg.addCounter("cache.hit_insts", CacheHitInsts);
  }
  if (Config.HashDispatch) {
    Reg.addCounter("dispatch.table_hits", DispatchHits);
    Reg.addCounter("dispatch.table_misses", DispatchMisses);
  }
  if (Config.InlineCaches) {
    Reg.addCounter("dispatch.ic_fills", IcFills);
    Reg.addCounter("dispatch.ic_misses", IcMisses);
    Reg.addCounter("dispatch.ic_evictions", IcEvictions);
    Reg.addCounter("dispatch.ic_fill_fails", IcFillFails);
  }
  if (Config.Superblocks) {
    Reg.addCounter("trace.formed", TracesFormed);
    Reg.addCounter("trace.blocks_emitted", TraceBlocksEmitted);
    Reg.addCounter("trace.deopts", TraceDeopts);
  }
  if (Config.Fusion) {
    Reg.addCounter("fusion.sites", FusionSites);
    Reg.addCounter("fusion.saved_words", FusionSavedWords);
    Reg.addCounter("fusion.blocks", FusionBlocks);
  }
  if (Ana) {
    Reg.addCounter("analysis.blocks", Ana->Blocks);
    Reg.addCounter("analysis.mem_sites", Ana->Sites.size());
    Reg.addCounter("analysis.provably_aligned", Ana->NumAligned);
    Reg.addCounter("analysis.provably_misaligned", Ana->NumMisaligned);
    Reg.addCounter("analysis.unknown", Ana->NumUnknown);
    Reg.addCounter("analysis.poisoned", Ana->Poisoned ? 1 : 0);
    Reg.addCounter("analysis.plan_aligned_elides", PlanAlignedElides);
    Reg.addCounter("analysis.plan_inline_forced", PlanInlineForced);
  }
  if (Config.Verify) {
    Reg.addCounter("verify.passes", VerifyPasses);
    Reg.addCounter("verify.words", VerifyWords);
    Reg.addCounter("verify.issues", VerifyIssues);
  }
  if (Config.Aot != AotMode::Off) {
    const AotTranslator::Stats &AS = Aot->stats();
    Reg.addCounter("aot.blocks", AS.RecoveredBlocks);
    Reg.addCounter("aot.frontier_sites", AS.FrontierSites);
    Reg.addCounter("aot.translated", AS.Translated);
    Reg.addCounter("aot.from_cache", AS.FromCache);
    Reg.addCounter("aot.installed", AotInstalls);
    Reg.addCounter("aot.covered_blocks", AotCoveredHeads);
    Reg.addCounter("aot.fallback_blocks", AotFallbackBlocks);
    Reg.addCounter("aot.stale_dropped", AS.StaleDropped);
    Reg.addCounter("aot.startup_cycles", AotStartupCycles);
    uint64_t Heads = AotCoveredHeads + AotFallbackBlocks;
    Reg.setGauge("aot.coverage_pct",
                 Heads ? (AotCoveredHeads * 100) / Heads : 100);
  }
  if (Injector) {
    Reg.addCounter("chaos.injected", Injector->injected());
    Reg.addCounter("chaos.lost_traps", ChaosLostTraps);
    Reg.addCounter("chaos.dup_traps", ChaosDupTraps);
    Reg.addCounter("chaos.spurious_traps", ChaosSpurious);
    Reg.addCounter("chaos.patch_drops", ChaosPatchDrops);
    Reg.addCounter("chaos.patch_tears", ChaosPatchTears);
    Reg.addCounter("chaos.translate_fail", ChaosTranslateFails);
    Reg.addCounter("chaos.flush_storms", ChaosFlushStorms);
  }
  Reg.fillCounterBag(R.Counters);
  R.Metrics = std::move(Reg);
  return R;
}

} // namespace

RunResult Engine::run() {
  if (Used) {
    // A second run would silently reuse policy state already specialized
    // by the first; that has produced corrupt figures before.  Hard
    // error in every build mode, not just under assert.
    std::fprintf(stderr, "mdabt fatal: Engine::run() called twice; one "
                         "Engine performs exactly one run\n");
    std::abort();
  }
  Used = true;
  ExecutionContext Ctx(Image, Policy, Config);
  return Ctx.run();
}
