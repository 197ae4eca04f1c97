//===- dbt/Coherence.h - Per-run guest-code coherence -----------*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-run guest-code coherence: the single owner of what the run knows
/// about the guest bytes its translations were compiled from.
///
///  * the guest-store epoch, bumped once per store the write barrier
///    sees (it is also `smc.stores`); translations are born at it;
///  * the per-byte dirty epochs that feed verifier invariant 8 (no live
///    translation over bytes rewritten after it was installed);
///  * the static alignment analysis, its staleness flag and the one
///    pass that produces it, at start-up and at every re-analysis;
///  * the Elide-revocation scan: which live translations lost an
///    aligned proof under the fresh analysis.
///
/// For a store the barrier sees, Coherence reports the live translations
/// whose compiled bytes it rewrote (CodeCache::overlapping) and whether
/// the running episode must stop.  The episode must stop whenever the
/// running translation's own guest ranges overlap the store, whether it
/// is live or already retired: a body superseded from inside its own
/// trap handler (exception handling with rearrangement, ladder rungs 1
/// and 2) keeps running, and would otherwise execute the bytes it just
/// overwrote.
///
/// Like FaultPath, Coherence decides nothing about the run and holds no
/// reference to the ExecutionContext or the host machine.  The context
/// charges the SMC trap, arms the machine stop, retires the victims,
/// stales pending AOT units, enforces budgets and schedules the
/// verifier.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_DBT_COHERENCE_H
#define MDABT_DBT_COHERENCE_H

#include "analysis/AlignmentAnalysis.h"
#include "dbt/CodeCache.h"

#include <optional>

namespace mdabt {
namespace dbt {

/// What one run knows about its guest code bytes.
class Coherence {
public:
  /// What the coherence machinery did, for the owner's counters.
  struct Stats {
    uint64_t Invalidations = 0;   ///< live translations stores rewrote
    uint64_t EpisodeStops = 0;    ///< running episodes stopped
    uint64_t Reanalyses = 0;      ///< lazy analysis re-runs
    uint64_t VerdictsRevoked = 0; ///< Elide sites whose proof died
  };

  /// What one barrier-visible store asks of the owner.
  struct Store {
    /// Live translations whose compiled bytes the store rewrote, ordered
    /// by entry word: retire each before the next dispatch.
    std::vector<Translation *> Victims;
    /// The running translation rewrote its own bytes: stop the episode
    /// at Stop->EndWord and redispatch at Stop->ResumePc.
    std::optional<SmcResume> Stop;
    /// ... but the storing word has no resume entry, so the episode
    /// cannot be stopped coherently.
    bool Unstoppable = false;
  };

  /// Victims come from \p Cache; the analysis reads \p Mem from the
  /// image's \p Entry with the stack at \p StackTop.
  Coherence(CodeCache &Cache, const guest::GuestMemory &Mem,
            obs::Tracer Trace, uint32_t Entry, uint32_t StackTop)
      : Cache(Cache), Mem(Mem), Trace(Trace), Entry(Entry),
        StackTop(StackTop) {}

  /// Start the static alignment analysis over the loaded image; from
  /// now on every store stales it.  \p TraceVerdicts emits each site's
  /// verdict and the summary.
  void analyze(bool TraceVerdicts);
  /// The write barrier: account for the store [Addr, Addr + Size).
  /// \p RunningWord is the host word that issued it, or nullopt for an
  /// interpreter store (which never stops anything).
  Store store(uint32_t Addr, uint32_t Size,
              std::optional<uint32_t> RunningWord);
  /// If guest code changed since the last pass, re-run the analysis and
  /// return the live translations with an Elide site it no longer
  /// proves, ordered by entry word.  nullopt when nothing was stale.
  std::optional<std::vector<Translation *>> reanalyze();

  /// The current store epoch (one tick per barrier-visible store).
  uint64_t epoch() const { return Epoch; }
  /// Dirtied guest byte -> epoch of the store that last dirtied it.
  const std::unordered_map<uint32_t, uint64_t> &dirtyEpochs() const {
    return DirtyEpoch;
  }
  /// The current verdict on the memory instruction \p I at \p Pc;
  /// Unknown when the analysis is off.
  analysis::AlignVerdict verdict(uint32_t Pc,
                                 const guest::GuestInst &I) const {
    return Ana ? Ana->verdictFor(Pc, I) : analysis::AlignVerdict::Unknown;
  }
  /// The current analysis, or null when it is off.
  const analysis::AnalysisResult *analysis() const {
    return Ana ? &*Ana : nullptr;
  }
  const Stats &stats() const { return S; }

private:
  /// The one analysis pass, at start-up and at re-analysis.
  void run() {
    Ana.emplace(analysis::analyzeAlignment(Mem, Entry, StackTop));
  }

  CodeCache &Cache;
  const guest::GuestMemory &Mem;
  obs::Tracer Trace;
  uint32_t Entry;
  uint32_t StackTop;
  Stats S;

  uint64_t Epoch = 0;
  /// Byte-granular on purpose: two translations can share one watch
  /// page, and the verifier must not flag the live neighbour of a
  /// rewritten range.  Bounded by distinct dirtied bytes on watched
  /// pages (only those reach the barrier).
  std::unordered_map<uint32_t, uint64_t> DirtyEpoch;
  std::optional<analysis::AnalysisResult> Ana;
  /// Guest code changed since the last analysis pass.
  bool Stale = false;
};

} // namespace dbt
} // namespace mdabt

#endif // MDABT_DBT_COHERENCE_H
