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
/// the code cache, the trap path, guest-code coherence, budgets — and
/// performs the run's monitor loop.
///
/// Every translation enters the arena through one pipeline.  obtain()
/// produces it — translated locally by the stateless Translator or, when
/// EngineConfig::Service is set, taken from the process-wide shared
/// cache — and install() registers it, whichever of the three producers
/// asked: a demand block, a superblock trace or a pre-translated AOT
/// unit.  Either way the run installs a private copy in its own
/// CodeSpace, so concurrent runs never share mutable code.
///
/// The run's CodeCache owns the translations and every index over them,
/// its FaultPath the trap path and the degradation ledger, its
/// Coherence what the run knows about guest code bytes (store epochs,
/// dirty bytes, the alignment analysis), and its Dispatch the hot
/// dispatch mechanisms (the priced lookup, chaining, inline-cache fills,
/// trace selection).  This file decides what to translate, retire,
/// charge and verify, and reaches cache, trap, coherence and dispatch
/// state only through them: the write barrier here charges the SMC
/// trap, arms the episode stop Coherence asks for and retires the
/// victims it reports.
///
//===----------------------------------------------------------------------===//

#include "dbt/Engine.h"

#include "analysis/CfgRecovery.h"
#include "analysis/HostVerifier.h"
#include "chaos/FaultInjector.h"
#include "dbt/AotTranslator.h"
#include "dbt/CodeCache.h"
#include "dbt/Coherence.h"
#include "dbt/Dispatch.h"
#include "dbt/FaultPath.h"
#include "dbt/FusionRules.h"
#include "dbt/GuestBlock.h"
#include "dbt/TranslationCapture.h"
#include "dbt/TranslationService.h"
#include "dbt/Translator.h"
#include "guest/Encoding.h"
#include "guest/Interpreter.h"
#include "host/HostMachine.h"
#include "support/CacheModel.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace mdabt;
using namespace mdabt::dbt;
using namespace mdabt::host;

namespace {

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
        HInterpInsts(&Reg.histogram("interp.block_insts")),
        Cache(Code, Mem, Trace, Hard.PatchFailureLimit,
              [this] { Abort = RunError::PatchFailed; },
              Config.Verify || Config.Aot != AotMode::Off),
        Faults(Code, Mem, Cache, Policy, Trace, Hard.MaxWatchdogTrips),
        Coh(Cache, Mem, Trace, Image.Entry, Image.StackTop),
        Disp(Cache, Mem, Trace, Cost,
             {Config.EnableChaining, Config.HashDispatch, Config.InlineCaches,
              Config.Superblocks}) {
    Mem.loadImage(Image);
    Cpu.reset(Image);
    // Guest-code write barrier (self-modifying-code coherence): the
    // callback only fires for stores into pages backing live
    // translations, so runs that never execute natively never pay.
    Mem.setWriteWatcher([this](uint32_t Addr, unsigned Size) {
      onGuestCodeStore(Addr, Size);
    });
    // Static alignment inference over this run's own image copy (one run
    // = one isolated world, so --jobs fan-out stays bit-exact).  Like
    // static profiling, the pass is modeled as offline work and its
    // cycles are not charged to the run.  AOT MemPlans come from
    // congruence verdicts, so AOT implies it even with Analysis off.
    if (Config.Analysis || Config.Aot != AotMode::Off)
      Coh.analyze(Config.Analysis && Trace.enabled());
    if (Config.Aot != AotMode::Off) {
      // Deterministic whole-image CFG recovery over the pristine bytes:
      // the statically proven reachable set the pre-translator covers
      // and the verifier's reachability invariant checks against.
      AotCfg.emplace(analysis::recoverCfg(Mem, Image.Entry));
      for (const auto &R : AotCfg->coverageRanges())
        AotReachable.push_back({R.first, R.second});
    }
    Cache.setGuestInputs(&Coh.dirtyEpochs(), AotCfg ? &AotReachable : nullptr);
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
      // The cache applies this to its own verified patches only (stub
      // redirection, chaining, unchaining, reverts).
      Cache.setPatchFault([this](uint32_t, uint32_t &W) {
        chaos::PatchFault Fate = Injector->patchFault();
        if (Fate == chaos::PatchFault::Torn)
          W = Injector->tearWord(W);
        return Fate != chaos::PatchFault::Drop;
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

  // -- translation -------------------------------------------------------

  /// The engine's memory-op planning chain, shared by first translation
  /// and superblock re-emission fallback.
  MemPlan planMemOp(uint32_t Pc, const guest::GuestInst &I) {
    // Watchdog overrides (degradation rungs 1-2) win over the policy.
    if (Faults.forcedInline(Pc))
      return MemPlan::Inline;
    // Static verdicts next: a proof beats any policy heuristic, and
    // only Unknown sites fall through to the policy's machinery.
    switch (Coh.verdict(Pc, I)) {
    case analysis::AlignVerdict::Aligned:
      ++PlanAlignedElides;
      return MemPlan::Elide;
    case analysis::AlignVerdict::Misaligned:
      ++PlanInlineForced;
      return MemPlan::Inline;
    case analysis::AlignVerdict::Unknown:
      break;
    }
    return Policy.planMemoryOp(Pc, I);
  }

  /// Policy translation options with the engine's dispatch knobs folded
  /// in.
  TranslationOpts translationOpts() {
    TranslationOpts Opts = Policy.translationOpts();
    Opts.IcWays = Config.InlineCaches ? Dispatch::InlineCacheWays : 0;
    Opts.FusionMask =
        Config.Fusion ? (Config.FusionMask & FusionMaskAll) : 0;
    return Opts;
  }

  /// Account for the fused sequences of a freshly installed translation
  /// (local or cache-instantiated): per-site and per-block trace
  /// events, plus the fusion.* counters.
  void recordFusion(const Translation &T) {
    const auto &Sites = T.Rec->FusedSites;
    if (Sites.empty())
      return;
    uint64_t Saved = 0;
    for (const TranslationRecord::RelFusedSite &F : Sites) {
      Saved += F.SavedWords;
      Trace.emit(obs::TraceEventKind::FusionApplied, F.GuestPc, T.GuestPc,
                 F.Rule, F.SavedWords);
    }
    FusionSites += Sites.size();
    FusionSavedWords += Saved;
    ++FusionBlocks;
    Trace.emit(obs::TraceEventKind::FusionSummary, T.GuestPc, T.GuestPc,
               Sites.size(), Saved);
  }

  /// The engine's plan chain as a translator callback; for a trace
  /// \p P, under the constituents' recorded plans.
  Translator::PlanFn planChain(const Dispatch::TracePlan *P = nullptr) {
    return [this, P](uint32_t Pc, const guest::GuestInst &I) {
      MemPlan Fresh = planMemOp(Pc, I);
      return P ? P->plan(Pc, Fresh) : Fresh;
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
      ++TranslateFailures;
      if (!Policy.translationIsOffline())
        TranslateCycles += Insts * Cost.TranslateCyclesPerInst;
      // A block falls back to interpretation and is pinned interp-only
      // once failures at its PC persist; a failed trace just leaves its
      // constituents in service.
      uint32_t Attempt = IsTrace ? 0 : Faults.translateFailed(Pc);
      Trace.emit(obs::TraceEventKind::TranslationFailed, Pc, Pc, Attempt,
                 Generation);
      if (Hard.TranslationFailureLimit != 0 &&
          TranslateFailures > Hard.TranslationFailureLimit)
        Abort = RunError::TranslationFailed;
      return nullptr;
    }
    Faults.translated(Pc);
    TranslationOpts Opts = translationOpts();
    Translation *T = nullptr;
    auto Translate = [&]() -> const Translation & {
      T = &Cache.add(
          IsTrace ? Trans.translateTrace(Blocks, Plan, Generation, Opts)
                  : Trans.translate(Blocks.front(), Plan, Generation, Opts));
      return *T;
    };
    FromCache = false;
    if (!Config.Service) {
      Translate();
      return T;
    }
    // Serving path (docs/SERVING.md): the key covers every constituent,
    // unroll copies included, so a trace's exact shape is part of it.
    CacheKey Key = translationContentKey(Mem, Blocks.data(), Blocks.size(),
                                         Plan, Opts, IsTrace);
    Served Got = acquireOrPublish(*Config.Service, Key, Translate);
    FromCache = Got.Hit;
    if (FromCache) {
      T = &Cache.instantiate(std::move(Got.Rec), Generation);
      ++CacheHits;
      CacheHitInsts += Insts;
    } else {
      ++CacheMisses;
    }
    Trace.emit(FromCache ? obs::TraceEventKind::CacheHit
                         : obs::TraceEventKind::CacheMiss,
               Pc, Pc, Key.Lo, Generation);
    return T;
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
    Cache.install(*T, Coh.epoch());
    if (!Policy.translationIsOffline())
      TranslateCycles += static_cast<uint64_t>(T->Rec->GuestInsts) *
                         (FromCache ? Cost.CacheInstallCyclesPerInst
                                    : Cost.TranslateCyclesPerInst);
    chargeCodeGrowth();
    checkBudgets();
    HTransInsts->record(T->Rec->GuestInsts);
    Trace.emit(Kind, T->GuestPc, T->GuestPc, A, B);
    recordFusion(*T);
    if (Config.CodeCacheLimitWords != 0 &&
        T->EndWord - T->EntryWord > Config.CodeCacheLimitWords) {
      invalidate(T);
      return false;
    }
    return true;
  }

  /// The install tail of the two producers whose translation serves its
  /// block head at once (a demand block, an AOT unit): count it, map its
  /// PC, install, and pin the head interpret-only if it is oversized.
  /// \p B is the trace event's second payload.  Null when not kept.
  Translation *installHead(Translation *T, bool FromCache,
                           obs::TraceEventKind Kind, uint64_t B) {
    ++Translations;
    Cache.map(*T);
    if (install(T, FromCache, Kind, T->Rec->GuestInsts, B))
      return T;
    Faults.pin(T->GuestPc, FaultPath::Pin::Oversize);
    return nullptr;
  }

  /// The demand producer: translate the block at \p GuestPc (first
  /// translation, or a supersede's retranslation at \p Generation) and
  /// install it.  Null when the block stays interpreted.
  Translation *translateBlock(uint32_t GuestPc, uint32_t Generation,
                              bool AllowFlush = false) {
    if (Faults.pinned(GuestPc))
      return nullptr; // degradation rung 3: this block stays interpreted
    // Never plan from stale verdicts: a supersede can reach here before
    // the monitor loop's own re-analysis point.
    if (!maybeReanalyze())
      return nullptr;
    if (AllowFlush && !makeRoom())
      return nullptr;
    std::vector<GuestBlock> Blocks;
    Blocks.push_back(discoverBlock(Mem, GuestPc));
    bool FromCache = false;
    Translation *T = obtain(Blocks, planChain(), Generation, FromCache);
    if (!T)
      return nullptr;
    T = installHead(T, FromCache, obs::TraceEventKind::BlockTranslated,
                    Generation);
    runVerifier();
    return T;
  }

  /// Take \p Old out of service (CodeCache::retire) and record why.
  /// False if an unlink patch did not stick, leaving a quarantined word
  /// that may still branch into the dead body.
  bool invalidate(Translation *Old) {
    // Whatever retired this translation (SMC, supersede, verdict
    // revocation, ladder) also invalidates the statically computed
    // plans of its pending AOT unit: never re-install those.
    if (Aot)
      Aot->drop(Old->GuestPc);
    HTrapBlock->record(Old->FaultCount);
    Trace.emit(obs::TraceEventKind::BlockInvalidated, 0, Old->GuestPc,
               Old->FaultCount, Old->Generation);
    Disp.retiring(*Old);
    return Cache.retire(*Old);
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
    if (Aot)
      Aot->drop(Old->GuestPc);
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
    Cache.forEachLive(
        [&](const Translation &T) { HTrapBlock->record(T.FaultCount); });
    Trace.emit(obs::TraceEventKind::CacheFlush, 0, 0, Code.size(),
               Cache.size());
    Cache.flush();
#ifndef NDEBUG
    // Pending AOT units keep their write-barrier watches across the
    // flush (their records survive for lazy re-install), so the drain
    // target is the page set of the units not yet staled, not zero.
    std::unordered_set<uint32_t> AotPages;
    constexpr uint32_t Shift = guest::GuestMemory::WatchPageShift;
    if (Aot)
      for (const auto &KV : Aot->units())
        if (!KV.second.Stale)
          for (const auto &R : KV.second.Record->GuestRanges)
            for (uint32_t P = R.first >> Shift; P <= (R.second - 1) >> Shift;
                 ++P)
              AotPages.insert(P);
    assert(Mem.watchedPages() == AotPages.size() &&
           "write-watch refcounts must drain on flush");
#endif
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

  // -- static AOT pre-translation (EngineConfig::Aot) -----------------------

  /// The AOT producer: instantiate one pending unit into the run's
  /// arena.  \p Check runs the forced verifier pass after a kept install
  /// (the startup batch defers to one full sweep over the whole
  /// pre-populated cache instead); an oversize retirement is always
  /// checked.
  Translation *installAotUnit(AotTranslator::Unit &U, bool Check) {
    Translation *T = &Cache.instantiate(U.Record, /*Generation=*/0);
    T->AotInstalled = true;
    ++AotInstalls;
    T = installHead(T, /*FromCache=*/true, obs::TraceEventKind::AotInstall,
                    U.FromCache ? 1 : 0);
    if (Check || !T)
      runVerifier(/*Force=*/true);
    return T;
  }

  /// The AOT startup phase (run() calls this before the first guest
  /// instruction): statically translate every proven-reachable block
  /// (each pending unit watches its source bytes), eagerly install the
  /// lot under AotMode::Full, and run the verifier as the AOT output
  /// checker over the pre-populated cache — even when
  /// EngineConfig::Verify is off.
  void aotStartup() {
    uint64_t Cycles0 = now();
    Aot.emplace(Mem, *AotCfg, planChain(), translationOpts(), Config.Service,
                Cost);
    Aot->pretranslateAll();
    const AotTranslator::Stats &AS = Aot->stats();
    if (!Policy.translationIsOffline())
      TranslateCycles += AS.StartupTranslateCycles;
    for (const auto &KV : Aot->units())
      Trace.emit(obs::TraceEventKind::AotTranslated, KV.first, KV.first,
                 KV.second.Record->GuestInsts, KV.second.FromCache ? 1 : 0);
    // Full installs eagerly.  Installing only marks units stale, never
    // adds or removes one, so walking the unit map meanwhile is safe.
    for (const auto &KV : Aot->units()) {
      // Hybrid installs lazily at first dispatch.  So does the tail Full
      // leaves pending at capacity (capacity containment).
      if (Config.Aot != AotMode::Full || Abort != RunError::None ||
          overCapacity())
        break;
      AotTranslator::Unit *U = Aot->find(KV.first);
      if (!U->Stale && !Faults.pinned(KV.first))
        installAotUnit(*U, /*Check=*/false);
    }
    AotStartupCycles = now() - Cycles0;
    Trace.emit(obs::TraceEventKind::AotSummary,
               static_cast<uint32_t>(AS.RecoveredBlocks),
               static_cast<uint32_t>(AS.FrontierSites), AS.Translated,
               AS.FromCache);
    // The AOT output checker: one full structural sweep (including the
    // reachability invariant) before the first guest instruction.
    runVerifier(/*Force=*/true, /*Full=*/true);
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
  /// like classic pre-P6 x86 ("effective after the next jump"), and at
  /// the next guest instruction when the store came from inside the
  /// running translation's own bytes.
  void onGuestCodeStore(uint32_t Addr, unsigned Size) {
    Machine.addCycles(Cost.SmcWriteTrapCycles);
    Coherence::Store St = Coh.store(
        Addr, Size,
        InNative ? std::optional(Machine.currentWord()) : std::nullopt);
    Cache.noteGuestStore(Addr, Size, Coh.epoch());
    // Pending AOT units whose source bytes this store rewrote can never
    // be installed: the dynamic path re-discovers from the new bytes.
    if (Aot)
      Aot->noteGuestStore(Addr, static_cast<uint32_t>(Size));
    // Resume via fresh dispatch; with no resume metadata for the storing
    // word, typed abort — never let a hostile guest turn a bookkeeping
    // gap into silent corruption.
    if (St.Stop)
      Machine.stopAt(St.Stop->EndWord, St.Stop->ResumePc);
    else if (St.Unstoppable)
      Abort = RunError::PatchFailed;
    for (Translation *T : St.Victims) {
      Trace.emit(obs::TraceEventKind::SmcInvalidate, Addr, T->GuestPc,
                 T->Generation, T->Rec->IsTrace ? 1 : 0);
      // A failed unchain or IC-retire must abort here, not quarantine:
      // a stale branch into *superseded* code reaches architecturally
      // equivalent instructions, but one into *rewritten* code reaches
      // old semantics with no trap to catch it.
      if (!invalidate(T))
        Abort = RunError::PatchFailed;
      Faults.smcInvalidated(T->GuestPc, Config.Budget.SmcChurnPinLimit);
    }
    checkBudgets();
    if (!St.Victims.empty())
      runVerifier();
  }

  /// Re-run the static alignment analysis if guest code changed since
  /// the last pass (lazy: one pass absorbs a whole burst of stores),
  /// then retire the translations whose Elide verdicts no longer hold:
  /// EngineConfig::Analysis stays sound, no live code elides MDA
  /// bookkeeping without a current proof.  False if the run is
  /// aborting.
  bool maybeReanalyze() {
    if (Abort != RunError::None)
      return false;
    std::optional<std::vector<Translation *>> Revoked = Coh.reanalyze();
    if (!Revoked)
      return true;
    // Every pending AOT unit was planned under the old verdicts, and a
    // rewritten byte anywhere can shift dataflow into blocks it does
    // not overlap — a stale Elide re-installed from a pre-translation
    // would skip MDA handling without a current proof.  Drop them all;
    // covered code falls back to demand translation under fresh plans.
    if (Aot)
      Aot->dropAll();
    for (Translation *T : *Revoked)
      invalidate(T);
    if (!Revoked->empty())
      runVerifier();
    return Abort == RunError::None;
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
        Translations + Disp.stats().TracesFormed > B.MaxTranslations) {
      Abort = RunError::BudgetTranslations;
      Trace.emit(obs::TraceEventKind::BudgetExceeded, 0, 0, 0,
                 Translations + Disp.stats().TracesFormed);
    } else if (B.MaxCodeBytes != 0 && CodeBytesEmitted > B.MaxCodeBytes) {
      Abort = RunError::BudgetCodeBytes;
      Trace.emit(obs::TraceEventKind::BudgetExceeded, 0, 0, 1,
                 CodeBytesEmitted);
    } else if (B.MaxChurn != 0 &&
               Supersedes + Coh.stats().Invalidations > B.MaxChurn) {
      Abort = RunError::BudgetChurn;
      Trace.emit(obs::TraceEventKind::BudgetExceeded, 0, 0, 2,
                 Supersedes + Coh.stats().Invalidations);
    }
  }

  // -- code-cache verification ---------------------------------------------

  /// Run the structural verifier (EngineConfig::Verify) over the
  /// current cache.  Called after every mutation of installed code; a
  /// violation aborts the run with VerifyFailed.  It only reads the
  /// code, so it is safe even from fault-handler context.  The pass
  /// checks what changed since the last one; \p Full sweeps everything
  /// instead (end of run, the AOT output checker).  \p Force runs the
  /// pass even when EngineConfig::Verify is off — the AOT output checker
  /// verifies statically produced code unconditionally.
  void runVerifier(bool Force = false, bool Full = false) {
    if ((!Config.Verify && !Force) || Abort != RunError::None)
      return;
    analysis::VerifyReport Report = Cache.verify(Full);
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

  /// Deliver one (possibly stale or injected) trap through the fault
  /// path, and account for the stub it patched in: the patch's cycles,
  /// the emitted code, the verifier sweep and the supersede the policy
  /// may have asked for.
  FaultAction deliver(const FaultInfo &F) {
    FaultPath::Delivery D = Faults.deliver(F);
    if (!D.Patched)
      return D.Action;
    Machine.addCycles(Cost.PatchExtraCycles);
    chargeCodeGrowth(); // the stub is emitted code too
    checkBudgets();
    Trace.emit(obs::TraceEventKind::PatchApplied, D.InstPc,
               D.Patched->GuestPc, F.HostPc, D.StubEntry);
    runVerifier();
    if (Abort == RunError::None && D.Supersede)
      supersede(D.Patched);
    return Abort != RunError::None ? FaultAction::Halt : FaultAction::Retry;
  }

  /// The machine's fault handler.  The watchdog sees every trap; a storm
  /// climbs the degradation ladder and emulates the access, so the guest
  /// advances regardless.
  FaultAction onFault(const FaultInfo &F) {
    bool Storm = Faults.storming(F.HostPc, Machine.Instructions);
    if (Abort != RunError::None)
      return FaultAction::Halt;
    if (Storm) {
      FaultPath::Escalation E = Faults.escalate(F);
      if (E.Storm) {
        Abort = RunError::TrapStorm;
        return FaultAction::Halt;
      }
      if (E.Block && E.Rung < 3)
        supersede(E.Block);
      else if (E.Block && E.Block->Valid)
        invalidate(E.Block);
      return FaultAction::Fixup;
    }
    // A lost delivery: the handler never runs and the faulting
    // instruction restarts — the retry storm the watchdog contains.
    if (Injector && Injector->lostTrap())
      return FaultAction::Retry;
    FaultAction A = deliver(F);
    // The same exception delivered twice: the second delivery must be
    // recognized as stale and stay harmless.
    if (Abort == RunError::None && Injector && Injector->duplicateTrap())
      deliver(F);
    return Abort != RunError::None ? FaultAction::Halt : A;
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

  // -- superblock formation ----------------------------------------------

  /// Re-emit the hot loop at \p HeadPc as one straight-line superblock
  /// (EngineConfig::Superblocks).  Dispatch selects the constituents;
  /// their recorded MemPlans are replayed so every memory site keeps its
  /// exact MDA treatment, and the trace supersedes the head in the block
  /// map.  De-optimization is ordinary invalidation: the trace falls
  /// back to the still-installed constituent blocks.
  void formTrace(uint32_t HeadPc) {
    // Trace planning replays constituent MemPlans and consults the
    // analysis for fresh sites: both must be current.
    if (Faults.pinned(HeadPc) || !maybeReanalyze())
      return;
    std::optional<Dispatch::TracePlan> P = Disp.selectTrace(HeadPc);
    if (!P)
      return;
    bool FromCache = false;
    Translation *Tr =
        obtain(P->Blocks, planChain(&*P), P->Head->Generation + 1, FromCache);
    if (!Tr)
      return; // constituents stay in service; no harm done
    Disp.formed(*P);
    bool Kept = install(Tr, FromCache, obs::TraceEventKind::TraceFormed,
                        P->Blocks.size(), Tr->EntryWord);
    if (Kept)
      invalidate(P->Head);
    Disp.placed(*P, Kept ? Tr : nullptr, ChainCycles);
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

  /// The live translations and every index over them.
  CodeCache Cache;
  /// The trap path and the degradation ledger.
  FaultPath Faults;
  /// Store epochs, dirty bytes, the alignment analysis and revocation.
  Coherence Coh;
  /// The priced lookup, chaining, inline-cache fills, trace selection.
  Dispatch Disp;
  std::unordered_map<uint32_t, uint32_t> Heat;

  /// Fault injection (chaos campaigns); disengaged in normal runs.
  std::optional<chaos::FaultInjector> Injector;

  // -- static AOT pre-translation state (EngineConfig::Aot) --------------

  /// Statically recovered CFG of the pristine image (Aot != Off only).
  std::optional<analysis::CfgResult> AotCfg;
  /// AotCfg's merged reachable byte ranges in the verifier's region
  /// form (HostVerifier check 10), sorted and disjoint.
  std::vector<analysis::VerifierRegion> AotReachable;
  /// The pre-translator; emplaced by aotStartup() before the first
  /// guest instruction.
  std::optional<AotTranslator> Aot;
  /// First-touch dynamic block heads (coverage accounting: a head the
  /// monitor ever dispatches is either statically covered or a flagged
  /// fallback).
  std::unordered_set<uint32_t> DynHeads;
  uint64_t AotInstalls = 0;
  uint64_t AotCoveredHeads = 0;
  uint64_t AotFallbackBlocks = 0;
  uint64_t AotStartupCycles = 0;

  RunError Abort = RunError::None;

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
  uint64_t Flushes = 0;
  uint64_t NativeEntries = 0;
  uint64_t TranslateFailures = 0;
  uint64_t FlushesSuppressed = 0;
  uint64_t PlanAlignedElides = 0;
  uint64_t PlanInlineForced = 0;
  uint64_t FusionSites = 0;
  uint64_t FusionSavedWords = 0;
  uint64_t FusionBlocks = 0;
  uint64_t VerifyPasses = 0;
  uint64_t VerifyWords = 0;
  uint64_t VerifyIssues = 0;
  // -- serving state (EngineConfig::Service) -----------------------------

  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
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
        // Flush-storm backoff: absorb requests arriving faster than
        // the cache can usefully refill.
        if (StepIndex - LastFlushStep >= Hard.FlushStormBackoffSteps)
          PendingFlush = true;
        else
          ++FlushesSuppressed;
      }
      if (Faults.lastPatch() && Injector->spuriousTrap()) {
        // Stale re-delivery of an already-handled exception: it must be
        // recognized as such and rejected.
        Machine.addCycles(Cost.TrapCycles);
        deliver(*Faults.lastPatch());
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
    if (!maybeReanalyze())
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

    Translation *T = Disp.lookup(Cpu.Pc, MonitorCycles);

    // Dispatch miss with a pending pre-translated unit: install it now,
    // before any heating — statically covered code never pays the
    // interpretation phase (the Hybrid install path; Full reaches it
    // only for units a capacity flush spilled back to pending).
    if (!T && Aot) {
      AotTranslator::Unit *U = Aot->find(Cpu.Pc);
      if (U && !U->Stale && !Faults.pinned(Cpu.Pc)) {
        if (!makeRoom())
          break;
        T = installAotUnit(*U, /*Check=*/true);
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
      if (Faults.pollRevert()) {
        MonitorCycles += Cost.ChainPatchCycles; // one store into the cache
        runVerifier();
      }
      Dispatch::Exit X = Disp.onExit(E, Abort != RunError::None, ChainCycles);
      if (X.Patched)
        runVerifier();
      if (X.LoopHead && Abort == RunError::None)
        formTrace(*X.LoopHead);
      continue;
    }

    if (!Faults.pinned(Cpu.Pc)) {
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

  // One final full sweep over whatever the cache holds at end of run.
  runVerifier(/*Force=*/false, /*Full=*/true);

  RunError Err = Abort;
  if (Err == RunError::None && (Guarded || !Cpu.Halted))
    Err = RunError::MonitorStepLimit;
  R.Error = Err;
  R.FinalCpu = Cpu;
  R.Checksum = Cpu.Checksum;
  Faults.scrubRuntime();
  R.MemoryHash = memoryHash(Mem);
  R.Cycles = now();
  Trace.emit(obs::TraceEventKind::RunEnd, Cpu.Pc, 0,
             static_cast<uint64_t>(Err), R.Cycles);
  if (Config.Trace)
    Config.Trace->flush();

  // Blocks still in service at end of run never pass through
  // invalidate(): fold their trap counts into the distribution here.
  Cache.forEachLive(
      [&](const Translation &T) { HTrapBlock->record(T.FaultCount); });

  // The registry is the authoritative record; the legacy CounterBag is
  // derived from it below so the two views agree by construction.
  Reg.addCounter("cycles.total", R.Cycles);
  Reg.addCounter("cycles.native", Machine.Cycles);
  Reg.addCounter("cycles.interp", InterpCycles);
  Reg.addCounter("cycles.translate", TranslateCycles);
  Reg.addCounter("cycles.monitor", MonitorCycles);
  Reg.addCounter("cycles.chain", ChainCycles);
  const FaultPath::Stats &FS = Faults.stats();
  Reg.addCounter("cycles.traps",
                 Machine.Faults * Cost.TrapCycles +
                     Machine.Fixups * Cost.FixupExtraCycles +
                     FS.Patches * Cost.PatchExtraCycles);
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
  Reg.addCounter("dbt.patches", FS.Patches);
  Reg.addCounter("dbt.chains", Disp.stats().Chains);
  Reg.addCounter("dbt.reverts", FS.Reverts);
  Reg.addCounter("dbt.flushes", Flushes);
  Reg.addCounter("dbt.native_entries", NativeEntries);
  Reg.addCounter("dbt.fault_traps", Machine.Faults);
  Reg.addCounter("dbt.fixups", Machine.Fixups);
  Reg.setGauge("dbt.code_words", Code.size());
  Reg.setGauge("run.error", static_cast<uint64_t>(Err));
  Reg.addCounter("harden.watchdog_trips", FS.WatchdogTrips);
  Reg.addCounter("harden.ladder_rearrange", FS.LadderRearranges);
  Reg.addCounter("harden.ladder_retranslate", FS.LadderRetranslations);
  Reg.addCounter("harden.ladder_interp_only", FS.LadderInterpPins);
  Reg.addCounter("harden.oversized_pins", FS.OversizedPins);
  Reg.setGauge("harden.interp_only_blocks", Faults.pinnedBlocks());
  Reg.addCounter("harden.spurious_traps", FS.SpuriousTraps);
  Reg.addCounter("harden.patch_repairs", Cache.stats().PatchRepairs);
  Reg.addCounter("harden.patch_failures", Cache.stats().PatchFailures);
  Reg.addCounter("harden.translate_failures", TranslateFailures);
  Reg.addCounter("harden.flush_suppressed", FlushesSuppressed);
  Reg.addCounter("harden.stub_downgrades", FS.StubDowngrades);
  const Coherence::Stats &CS = Coh.stats();
  Reg.addCounter("smc.stores", Coh.epoch());
  Reg.addCounter("smc.invalidations", CS.Invalidations);
  Reg.addCounter("smc.reanalyses", CS.Reanalyses);
  Reg.addCounter("smc.verdicts_revoked", CS.VerdictsRevoked);
  Reg.addCounter("smc.churn_pins", FS.SmcChurnPins);
  Reg.addCounter("smc.episode_stops", CS.EpisodeStops);
  Reg.addCounter("budget.code_bytes_emitted", CodeBytesEmitted);
  if (Config.Service) {
    Reg.addCounter("cache.hits", CacheHits);
    Reg.addCounter("cache.misses", CacheMisses);
    Reg.addCounter("cache.hit_insts", CacheHitInsts);
  }
  Disp.exportMetrics(Reg);
  if (Config.Fusion) {
    Reg.addCounter("fusion.sites", FusionSites);
    Reg.addCounter("fusion.saved_words", FusionSavedWords);
    Reg.addCounter("fusion.blocks", FusionBlocks);
  }
  if (const analysis::AnalysisResult *A = Coh.analysis()) {
    Reg.addCounter("analysis.blocks", A->Blocks);
    Reg.addCounter("analysis.mem_sites", A->Sites.size());
    Reg.addCounter("analysis.provably_aligned", A->NumAligned);
    Reg.addCounter("analysis.provably_misaligned", A->NumMisaligned);
    Reg.addCounter("analysis.unknown", A->NumUnknown);
    Reg.addCounter("analysis.poisoned", A->Poisoned ? 1 : 0);
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
    // One counter per InjectKind, in enumerator order.
    static const char *const PerKind[] = {
        "chaos.lost_traps",   "chaos.dup_traps",      "chaos.spurious_traps",
        "chaos.patch_drops",  "chaos.patch_tears",    "chaos.translate_fail",
        "chaos.flush_storms"};
    for (size_t K = 0; K != std::size(PerKind); ++K)
      Reg.addCounter(PerKind[K],
                     Injector->injected(static_cast<chaos::InjectKind>(K)));
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
