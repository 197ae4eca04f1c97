//===- dbt/Dispatch.h - The monitor's hot dispatch --------------*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The monitor's hot dispatch (EngineConfig::EnableChaining,
/// HashDispatch, InlineCaches and Superblocks): the single owner of
///
///  * the priced block-map lookup, counted as table hits and misses;
///  * exit handling: one owner lookup per monitor exit, then chain a
///    direct exit to its translated target, or fill an inline-cache way
///    at an indirect one;
///  * trace selection: the walk over chained direct exits from a loop
///    head, the one-time unroll, the per-trace and per-head bounds and
///    the constituents' recorded memory plans;
///  * the redirect of a retired head's incoming chains to its trace.
///
/// Dispatch reaches cache state only through CodeCache and decides
/// nothing about the run.  It reports what it did — patched a word (so
/// the verifier runs), closed a loop at a head with a backward chain —
/// and the ExecutionContext produces and installs the trace, retires
/// the head, schedules the verifier and sets the RunError.  A patch's
/// modeled price goes into the cycle account the context passes in,
/// before the patch's trace event is stamped with the run's clock.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_DBT_DISPATCH_H
#define MDABT_DBT_DISPATCH_H

// CodeCache.h brings the translations, the arena, guest memory, the
// tracer and the standard containers this class is built over.
#include "dbt/CodeCache.h"
#include "dbt/GuestBlock.h"
#include "host/CostModel.h"
#include "host/HostMachine.h"
#include "obs/Metrics.h"

#include <optional>

namespace mdabt {
namespace dbt {

/// The hot-dispatch mechanisms of one run.
class Dispatch {
public:
  /// Inline-cache ways per indirect block exit.
  static constexpr uint32_t InlineCacheWays = 2;
  /// Maximum constituent blocks per superblock.
  static constexpr uint32_t TraceMaxBlocks = 8;
  /// Formation attempts per head PC (bounds retry after de-opt).
  static constexpr uint32_t TraceFormsPerHead = 8;

  /// The mechanisms on in this run (the EngineConfig flags).
  struct Options {
    bool Chaining, HashDispatch, InlineCaches, Superblocks;
  };

  /// What the mechanisms did, for the owner's counters.
  struct Stats {
    uint64_t Hits = 0, Misses = 0; ///< block-map lookups
    uint64_t Chains = 0;           ///< exit words chained
    uint64_t IcMisses = 0; ///< indirect exits that reached the monitor
    uint64_t IcFills = 0, IcFillFails = 0; ///< fills that stuck, or not
    uint64_t TracesFormed = 0, TraceBlocksEmitted = 0, TraceDeopts = 0;
  };

  /// What exit handling did at one monitor exit.
  struct Exit {
    /// A word was chained, or a fill patched or failed: run the verifier.
    bool Patched = false;
    /// A backward chain closed a native loop at this head (Superblocks
    /// on): the hotness signal for trace formation.
    std::optional<uint32_t> LoopHead;
  };

  /// A selected superblock: the head it replaces and its constituents,
  /// head first, unroll copy included.
  struct TracePlan {
    Translation *Head = nullptr;
    /// The head's incoming chain words, captured before the head's
    /// invalidation unchains them.
    std::vector<uint32_t> Incoming;
    std::vector<GuestBlock> Blocks;
    /// The constituents' recorded plans by guest PC (the first
    /// constituent to hold a PC wins).
    std::unordered_map<uint32_t, MemPlan> Recorded;

    /// The plan of the site at \p Pc: the stronger of its recorded plan
    /// and \p Fresh, the policy's current one.  Never weaker than the
    /// constituent (the identity guarantee PlanByPc exists for), and
    /// never weaker than what the policy has learned since — a site the
    /// constituent emitted as a plain op and later patched to a stub
    /// re-emits with the MDA sequence inline, like any retranslation
    /// would, instead of re-faulting once per trace copy.
    MemPlan plan(uint32_t Pc, MemPlan Fresh) const {
      auto It = Recorded.find(Pc);
      return It == Recorded.end() || It->second == MemPlan::Normal
                 ? Fresh
                 : It->second;
    }
  };

  /// Chains and fills patch \p Cache; traces are discovered from \p Mem.
  Dispatch(CodeCache &Cache, const guest::GuestMemory &Mem,
           obs::Tracer Trace, const host::CostModel &Cost, Options Opts)
      : Cache(Cache), Mem(Mem), Trace(Trace), Cost(Cost), Opts(Opts) {}

  /// The monitor's one block-map lookup per dispatch: the live
  /// translation serving \p GuestPc, or null.  HashDispatch only selects
  /// the price a hit adds to \p Cycles; a miss is priced on neither path,
  /// it is folded into the interpretation or translation episode it
  /// starts.
  Translation *lookup(uint32_t GuestPc, uint64_t &Cycles) {
    Translation *T = Cache.lookup(GuestPc);
    ++(T ? S.Hits : S.Misses);
    if (T)
      Cycles += Opts.HashDispatch ? Cost.DispatchTableHitCycles
                                  : Cost.MonitorDispatchCycles;
    return T;
  }

  /// Handle the monitor exit \p E: chain a direct exit to its target if
  /// that is translated, or, at an inline-cache site, fill (or refill) a
  /// way with the observed target if that is translated.  \p Aborting
  /// skips the fill.  Patch cycles go to \p Cycles.
  Exit onExit(const host::ExitInfo &E, bool Aborting, uint64_t &Cycles) {
    Exit H;
    Translation *Owner = Opts.Chaining || Opts.InlineCaches
                             ? Cache.owner(E.SrvWord)
                             : nullptr;
    if (!Owner || !Owner->Valid)
      return H;
    std::optional<size_t> I = Owner->exitAt(E.SrvWord);
    if (!I)
      return H;
    const TranslationRecord::RelExit &X = Owner->Rec->Exits[*I];
    if (X.Direct) {
      Translation *Target = Opts.Chaining && !Owner->Chained[*I]
                                ? Cache.lookup(X.TargetGuestPc)
                                : nullptr;
      if (!Target || !chain(E.SrvWord, *Owner, *Target, Cycles))
        return H; // keep exiting via the monitor
      Owner->Chained[*I] = true;
      H.Patched = true;
      // Chain events, not dispatch counts, mark a loop hot: a fully
      // chained loop never revisits the monitor, so a dispatch counter
      // would stop ticking exactly when the loop gets hot.  Every
      // backward chain into a head attempts formation, bounded by
      // TraceFormsPerHead.
      if (Opts.Superblocks && X.TargetGuestPc <= Owner->GuestPc)
        H.LoopHead = X.TargetGuestPc;
      return H;
    }
    std::optional<uint32_t> Site = Owner->icSiteAt(E.SrvWord);
    if (!Opts.InlineCaches || Aborting || !Site)
      return H;
    ++S.IcMisses;
    Translation *Target = Cache.lookup(E.GuestPc);
    if (!Target)
      return H; // target not translated yet; a later miss can fill
    uint32_t WayBegin = 0;
    CodeCache::IcFill F = Cache.fillIc(*Owner, *Site, *Target, WayBegin);
    if (F == CodeCache::IcFill::Skipped)
      return H; // keep going through the monitor
    H.Patched = true;
    if (F == CodeCache::IcFill::Failed) {
      ++S.IcFillFails; // the way is left disabled or quarantined
      return H;
    }
    ++S.IcFills;
    Cycles += static_cast<uint64_t>(Cost.ChainPatchCycles) * IcWayWords;
    Trace.emit(obs::TraceEventKind::DispatchIcFill, Target->GuestPc,
               Owner->GuestPc, WayBegin, Target->EntryWord);
    return H;
  }

  /// Select the superblock at loop head \p HeadPc: walk direct exits
  /// from the head, preferring chained (observed hot) edges, until an
  /// indirect exit, a revisit or TraceMaxBlocks.  Null when the head
  /// has used its TraceFormsPerHead attempts, is not a live block, or
  /// the walk found a single block (a "trace" that would only re-emit
  /// the head); otherwise the attempt counts toward the head's bound.
  std::optional<TracePlan> selectTrace(uint32_t HeadPc) {
    uint32_t &Forms = FormsAt[HeadPc];
    Translation *Head = Cache.lookup(HeadPc);
    if (Forms >= TraceFormsPerHead || !Head || Head->Rec->IsTrace)
      return std::nullopt;
    TracePlan P;
    P.Head = Head;
    P.Incoming = Head->IncomingChains;
    std::vector<uint32_t> Pcs;
    bool ClosedAtHead = false;
    for (uint32_t Pc = HeadPc; Pcs.size() < TraceMaxBlocks;) {
      Translation *T = Cache.lookup(Pc);
      if (!T || T->Rec->IsTrace)
        break;
      if (std::find(Pcs.begin(), Pcs.end(), Pc) != Pcs.end()) {
        ClosedAtHead = Pc == HeadPc;
        break; // closed the loop (or revisited): stop
      }
      Pcs.push_back(Pc);
      P.Recorded.insert(T->Rec->PlanByPc.begin(), T->Rec->PlanByPc.end());
      // Next: the first chained direct exit, else the first direct one.
      const TranslationRecord::RelExit *Next = nullptr;
      for (size_t I = 0; I != T->Rec->Exits.size(); ++I) {
        const TranslationRecord::RelExit &X = T->Rec->Exits[I];
        if (X.Direct && (!Next || T->Chained[I]))
          Next = &X;
        if (X.Direct && T->Chained[I])
          break;
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
    if (ClosedAtHead && Pcs.size() * 2 <= TraceMaxBlocks)
      for (size_t K = 0, N = Pcs.size(); K != N; ++K)
        Pcs.push_back(Pcs[K]);
    if (Pcs.size() < 2)
      return std::nullopt;
    ++Forms;
    for (uint32_t B : Pcs)
      P.Blocks.push_back(discoverBlock(Mem, B));
    return P;
  }

  /// Count the trace \p P was produced from (before its install, whose
  /// budget check counts it).
  void formed(const TracePlan &P) {
    ++S.TracesFormed;
    S.TraceBlocksEmitted += P.Blocks.size();
  }
  /// Put \p Trace, produced from \p P, in service: map it in place of
  /// the retired head and re-chain the head's former incoming chains to
  /// it.  An unchained source never re-chains on its own, so without
  /// this every former backedge would round-trip through the monitor
  /// forever — the opposite of what the trace is for.  A null \p Trace
  /// means the trace alone would have thrashed the cache (its install
  /// retired it): stop forming one at this head.
  void placed(const TracePlan &P, Translation *Trace, uint64_t &Cycles) {
    if (!Trace) {
      FormsAt[P.Head->GuestPc] = TraceFormsPerHead;
      return;
    }
    Cache.map(*Trace);
    for (uint32_t W : P.Incoming) {
      if (Cache.quarantined(W))
        continue; // the unchain did not stick; leave it quarantined
      Translation *Src = Cache.owner(W);
      if (Src && Src->Valid) // not the head's own backedge or a dead caller
        chain(W, *Src, *Trace, Cycles);
    }
  }
  /// \p T is leaving service: a trace's retirement is a de-optimization,
  /// after which dispatch falls back to its constituent blocks.
  void retiring(const Translation &T) {
    if (!T.Rec->IsTrace)
      return;
    ++S.TraceDeopts;
    Trace.emit(obs::TraceEventKind::TraceDeopt, 0, T.GuestPc,
               T.Rec->Constituents.size(), T.Generation);
  }

  /// Register the counters of the mechanisms that are on.
  void exportMetrics(obs::MetricsRegistry &Reg) const {
    if (Opts.HashDispatch) {
      Reg.addCounter("dispatch.table_hits", S.Hits);
      Reg.addCounter("dispatch.table_misses", S.Misses);
    }
    if (Opts.InlineCaches) {
      Reg.addCounter("dispatch.ic_fills", S.IcFills);
      Reg.addCounter("dispatch.ic_misses", S.IcMisses);
      Reg.addCounter("dispatch.ic_evictions", Cache.stats().IcEvictions);
      Reg.addCounter("dispatch.ic_fill_fails", S.IcFillFails);
    }
    if (Opts.Superblocks) {
      Reg.addCounter("trace.formed", S.TracesFormed);
      Reg.addCounter("trace.blocks_emitted", S.TraceBlocksEmitted);
      Reg.addCounter("trace.deopts", S.TraceDeopts);
    }
  }
  const Stats &stats() const { return S; }

private:
  /// Chain the exit word \p Word of \p Src to \p Target's entry and
  /// account for the patch.  False if the word keeps exiting through the
  /// monitor.
  bool chain(uint32_t Word, const Translation &Src, Translation &Target,
             uint64_t &Cycles) {
    if (!Cache.chain(Word, Target))
      return false;
    Cycles += Cost.ChainPatchCycles;
    ++S.Chains;
    Trace.emit(obs::TraceEventKind::BlockChained, Target.GuestPc,
               Src.GuestPc, Word, Target.EntryWord);
    return true;
  }

  CodeCache &Cache;
  const guest::GuestMemory &Mem;
  obs::Tracer Trace;
  const host::CostModel &Cost;
  Options Opts;
  Stats S;
  /// Formation attempts per head PC.
  std::unordered_map<uint32_t, uint32_t> FormsAt;
};

} // namespace dbt
} // namespace mdabt

#endif // MDABT_DBT_DISPATCH_H
