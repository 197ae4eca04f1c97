//===- dbt/Translation.h - Translated-block records ------------*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one record of a translated block, and its live copies.
/// TranslationRecord is what the translator emits — host words, exit
/// sites, the map from trapping host memory words back to guest
/// instruction PCs (consumed by the misalignment exception handler),
/// store resume points, plans — entry-relative and immutable, shared by
/// the serving cache, AOT units and every copy.  Translation is one copy
/// in a run's arena: where it lives, its chains and inline-cache fills,
/// its stub patches and the fault counters driving the retranslation
/// policy of paper Fig. 7.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_DBT_TRANSLATION_H
#define MDABT_DBT_TRANSLATION_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace mdabt {
namespace dbt {

/// How the translator renders one guest memory operation (paper
/// Table II's configuration space).
enum class MemPlan {
  Normal,       ///< single host memory op; traps if misaligned
  Inline,       ///< the MDA code sequence, inline
  MultiVersion, ///< alignment check selecting between both (Fig. 8)
  /// Single host memory op with *no* trap exposure bookkeeping: the
  /// static alignment analysis proved the access can never misalign, so
  /// the engine does not register the word as a potential fault site
  /// and no MDA machinery (stub, multi-version, retranslation) can ever
  /// attach to it.  Only the engine's analysis wrapper produces this;
  /// policies never see or return it.
  Elide,
};

struct Translation;

/// True if a guest store to [Lo, Hi) rewrites a byte of the half-open
/// guest byte ranges \p Ranges (TranslationRecord::GuestRanges).
inline bool
overlapsAny(const std::vector<std::pair<uint32_t, uint32_t>> &Ranges,
            uint32_t Lo, uint32_t Hi) {
  return std::any_of(Ranges.begin(), Ranges.end(), [&](const auto &R) {
    return R.first < Hi && Lo < R.second;
  });
}

/// Words per inline-cache way at an indirect block exit
/// (EngineConfig::InlineCaches).  Layout, in code-cache words from the
/// way's first word:
///
///   +0  guard:  disabled = `br +5` (skip the way);
///               filled   = `ldah RegScratch1, hi(tag)(r31)`
///   +1  `lda RegScratch1, lo(tag)(RegScratch1)`
///   +2  `zextl RegScratch1, RegScratch1`   (tag == zext32 guest PC)
///   +3  `cmpeq RegExitPc, RegScratch1, RegScratch2`
///   +4  `beq RegScratch2, +1`              (mismatch: next way / exit)
///   +5  `br <target block entry>`
///
/// The translator emits every way disabled (guard branch + nop filler);
/// the monitor fills interior words first and the guard last, so a
/// half-written way is never executable.  Scratch registers are dead
/// across block boundaries, so a hit may clobber them freely.
inline constexpr uint32_t IcWayWords = 6;

/// This run's state of one inline-cache way (its words are fixed by the
/// record: Translation::icWayBegin).
struct IcWay {
  bool Filled = false;
  /// Quarantined: a disable patch failed under fault injection and the
  /// way's final branch may still target a dead (but intact) entry.
  /// Excluded from verification until refilled or flushed.
  bool Stale = false;
  uint32_t TargetEntry = 0;   ///< cached target's host entry word
  uint32_t TargetGuestPc = 0; ///< cached target's guest PC (the tag)
};

/// This run's state of the inline cache at one indirect exit.
struct IcSite {
  std::vector<IcWay> Ways;
  uint32_t NextVictim = 0; ///< round-robin eviction cursor
};

/// Back-reference from a cached target block to the way that branches
/// to it, so invalidation can take the way out of service
/// (IncomingChains-style bookkeeping, extended to inline caches).
struct IcWayRef {
  Translation *Owner = nullptr;
  uint32_t Site = 0; ///< index into Owner->IcSites
  uint32_t Way = 0;  ///< index into IcSites[Site].Ways
};

/// Block-level translation options (beyond the per-instruction plan).
struct TranslationOpts {
  /// Multi-version code at basic-block granularity (paper section IV-D:
  /// "most of MDAs occurred in hot loops and the addresses of MDAs
  /// usually followed the same pattern ... generate multi-version code
  /// based on basic-block granularity").  One alignment check at the
  /// first multi-version site selects between a copy of the block tail
  /// with plain memory ops and a copy with inline MDA sequences.  The
  /// plain copy remains guarded by the exception handler, so a site that
  /// defies the shared-pattern assumption is still handled correctly.
  bool BlockMultiVersion = false;
  /// Inline-cache ways to emit at each indirect block exit (0 = none,
  /// clamped by the engine to 1..4 when EngineConfig::InlineCaches is
  /// set).  Ways are emitted disabled; the monitor fills them.
  unsigned IcWays = 0;
  /// Enabled fusion-rule mask (dbt/FusionRules.h; bit i enables rule
  /// id i).  0 disables peephole fusion entirely.
  uint32_t FusionMask = 0;
};

/// Episode-stop resume point for a guest store (SMC coherence).  When
/// a store executed from inside a translation invalidates that very
/// translation (the patcher and the patched code were fused into one
/// superblock, or a block rewrites its own bytes), the engine cannot
/// let the episode keep running the stale body.  It arms a machine
/// stop at EndWord — the first host word after the storing guest
/// instruction's lowering — and redispatches at ResumePc, so the
/// rewrite takes effect at the next guest instruction, exactly like
/// the interpreter.
struct SmcResume {
  uint32_t EndWord = 0;  ///< first host word after the instruction
  uint32_t ResumePc = 0; ///< guest PC to redispatch at
};

/// One translated block or superblock as the translator emitted it: the
/// pristine host words and every piece of install metadata.  Word
/// numbers are relative to the entry word, so the same record serves a
/// copy at any arena base.  Immutable once built and shared
/// (`std::shared_ptr<const TranslationRecord>`) by the shared cache
/// entry, an AOT unit and every live Translation installed from it; the
/// translator, the cache's save/load and Translation's own lookups are
/// the only code that reads its relative word numbers.
struct TranslationRecord {
  uint32_t GuestPc = 0;
  uint32_t GuestInsts = 0; ///< guest instructions (for cost accounting)
  /// A superblock spanning several guest blocks.
  bool IsTrace = false;
  /// The emitted host words, after label resolution.
  std::vector<uint32_t> Words;

  /// One block-exit service call, patchable into a direct chain.
  struct RelExit {
    uint32_t Word = 0; ///< Srv Exit word
    uint32_t TargetGuestPc = 0;
    bool Direct = false; ///< compile-time-known target (chainable)
  };
  std::vector<RelExit> Exits;
  /// Trapping-capable memory word -> guest inst PC, sorted by word
  /// (consumed by the misalignment exception handler).
  std::vector<std::pair<uint32_t, uint32_t>> MemWordToGuestPc;
  /// Every word that performs a guest store (plain op, each word of an
  /// inline MDA sequence, multi-version arms, the Call push) and where
  /// to resume if that store invalidates this translation mid-episode;
  /// sorted by word.
  struct RelResume {
    uint32_t Word = 0;
    uint32_t EndWord = 0; ///< episode-stop word
    uint32_t ResumePc = 0;
  };
  std::vector<RelResume> StoreResume;
  /// Policy-intent memory plan per guest instruction PC (mem ops of
  /// size >= 2 only), sorted by PC, so superblock re-emission
  /// reproduces the exact MDA treatment of every site without
  /// re-consulting the (stateful) policy.
  std::vector<std::pair<uint32_t, MemPlan>> PlanByPc;
  /// The inline cache at each indirect exit, in emission order (empty
  /// when TranslationOpts::IcWays == 0).
  struct RelIcSite {
    uint32_t SrvWord = 0; ///< the Srv Exit word the ways fall back to
    std::vector<uint32_t> WayBegins; ///< guard word of each way
  };
  std::vector<RelIcSite> IcSites;
  /// Head-first guest PCs of a trace's constituent blocks (empty for
  /// plain block translations).
  std::vector<uint32_t> Constituents;
  /// Half-open guest byte ranges whose bytes this translation compiled
  /// (one per constituent block, deduplicated); the engine registers
  /// them with the guest memory's write barrier so a store into any of
  /// them invalidates the translation (self-modifying-code coherence).
  std::vector<std::pair<uint32_t, uint32_t>> GuestRanges;
  /// One fused guest-idiom sequence (dbt/FusionRules.h).  The core
  /// [Begin, End) covers the fused words — address arithmetic and
  /// memory/ALU/branch ops, but *not* the exit materialization that may
  /// follow a fused compare-branch (exits are chained by the monitor).
  /// HostVerifier re-checks the core against Words (invariant 9).
  struct RelFusedSite {
    uint8_t Rule = 0;     ///< FusionRuleId
    uint8_t GuestLen = 0; ///< guest instructions consumed
    uint32_t Begin = 0;
    uint32_t End = 0;
    uint32_t GuestPc = 0;    ///< PC of the first fused guest instruction
    uint32_t SavedWords = 0; ///< estimated host words saved vs unfused
  };
  /// In emission order (empty when TranslationOpts::FusionMask was 0).
  std::vector<RelFusedSite> FusedSites;

  /// Approximate heap footprint, for accounting.
  size_t footprintBytes() const;
};

/// One fault word redirected to an exception stub (paper Fig. 5).
struct StubPatch {
  uint32_t Word = 0;      ///< the patched body word
  uint32_t StubEntry = 0; ///< the stub, [StubEntry, StubEnd)
  uint32_t StubEnd = 0;
  bool Adaptive = false; ///< the stub may ask for Word back (paper Fig. 8)
  bool Reverted = false; ///< an adaptive stub patched Word back since
};

/// One live copy of a translation in a run's code space: the shared
/// record plus the state only this run changes.
struct Translation {
  Translation(std::shared_ptr<const TranslationRecord> R, uint32_t Entry,
              uint32_t Generation)
      : Rec(std::move(R)), GuestPc(Rec->GuestPc), EntryWord(Entry),
        EndWord(Entry + static_cast<uint32_t>(Rec->Words.size())),
        Generation(Generation), Chained(Rec->Exits.size()),
        IcSites(Rec->IcSites.size()) {
    for (size_t I = 0; I != IcSites.size(); ++I)
      IcSites[I].Ways.resize(Rec->IcSites[I].WayBegins.size());
  }

  std::shared_ptr<const TranslationRecord> Rec;
  uint32_t GuestPc = 0; ///< Rec->GuestPc, the block-map key
  uint32_t EntryWord = 0;
  uint32_t EndWord = 0; ///< one past the block body
  /// Retranslation generation of this block (0 = first translation).
  uint32_t Generation = 0;
  /// Per Rec->Exits: the exit has been chained to its target.
  std::vector<bool> Chained;
  /// Host words of *other* blocks' exit branches chained to this entry;
  /// restored to Srv Exit when this block is invalidated.
  std::vector<uint32_t> IncomingChains;
  /// Per Rec->IcSites: the inline cache's way states.
  std::vector<IcSite> IcSites;
  /// Ways in *other* translations whose final branch targets this
  /// entry; taken out of service when this block is invalidated
  /// (the inline-cache analogue of IncomingChains).
  std::vector<IcWayRef> IncomingIcWays;
  /// Every stub redirect, in patch order; a word patched again after an
  /// adaptive revert appears again.
  std::vector<StubPatch> Patches;
  /// Misalignment traps taken inside this translation.
  uint32_t FaultCount = 0;
  /// False once superseded by a rearranged/retranslated version.
  bool Valid = true;
  /// The engine's guest-store epoch when this translation was
  /// installed.  HostVerifier invariant: no byte of a live
  /// translation's guest ranges may carry a dirty epoch newer than this.
  uint64_t BornEpoch = 0;
  /// Instantiated from a static AOT pre-translation unit
  /// (EngineConfig::Aot); HostVerifier holds such blocks to the
  /// recovered-reachable-set invariant (check 10).
  bool AotInstalled = false;

  // -- lookups -------------------------------------------------------------

  /// True while body word \p Word branches to a stub.
  bool patched(uint32_t Word) const {
    return std::any_of(Patches.begin(), Patches.end(), [&](const auto &P) {
      return P.Word == Word && !P.Reverted;
    });
  }
  /// The guest PC of the trapping-capable memory op at host word
  /// \p Word; nullopt for any other word, and for a site now patched to
  /// a stub.
  std::optional<uint32_t> siteAt(uint32_t Word) const {
    if (Word < EntryWord || Word >= EndWord || patched(Word))
      return std::nullopt;
    const auto &M = Rec->MemWordToGuestPc;
    auto It = std::lower_bound(M.begin(), M.end(),
                               std::make_pair(Word - EntryWord, 0u));
    if (It == M.end() || It->first != Word - EntryWord)
      return std::nullopt;
    return It->second;
  }
  /// Visit the guest PC of every memory site not patched to a stub.
  template <typename Fn> void forEachSite(Fn F) const {
    for (const auto &[Rel, Pc] : Rec->MemWordToGuestPc)
      if (!patched(EntryWord + Rel))
        F(Pc);
  }
  /// Where to stop the episode if the guest store issued by host word
  /// \p Word rewrites this translation; nullopt if \p Word issues no
  /// store.  A stub word stops where the body word it replaces would.
  std::optional<SmcResume> resumeAt(uint32_t Word) const {
    for (const StubPatch &P : Patches) {
      if (Word >= P.StubEntry && Word < P.StubEnd) {
        Word = P.Word;
        break;
      }
    }
    if (Word < EntryWord || Word >= EndWord)
      return std::nullopt;
    const auto &R = Rec->StoreResume;
    auto It = std::lower_bound(R.begin(), R.end(), Word - EntryWord,
                               [](const TranslationRecord::RelResume &E,
                                  uint32_t W) { return E.Word < W; });
    if (It == R.end() || It->Word != Word - EntryWord)
      return std::nullopt;
    return SmcResume{EntryWord + It->EndWord, It->ResumePc};
  }
  /// The Srv Exit word of exit \p I (an index into Rec->Exits).
  uint32_t exitWord(size_t I) const {
    return EntryWord + Rec->Exits[I].Word;
  }
  /// The exit whose Srv Exit word is \p Word, if any.
  std::optional<size_t> exitAt(uint32_t Word) const {
    for (size_t I = 0; I != Rec->Exits.size(); ++I)
      if (exitWord(I) == Word)
        return I;
    return std::nullopt;
  }
  /// The inline-cache site falling back to Srv Exit word \p Word, if any.
  std::optional<uint32_t> icSiteAt(uint32_t Word) const {
    for (uint32_t S = 0; S != Rec->IcSites.size(); ++S)
      if (EntryWord + Rec->IcSites[S].SrvWord == Word)
        return S;
    return std::nullopt;
  }
  /// The guard word (first word) of way \p Way of inline-cache site
  /// \p Site.
  uint32_t icWayBegin(uint32_t Site, uint32_t Way) const {
    return EntryWord + Rec->IcSites[Site].WayBegins[Way];
  }
  /// Visit every fused core as (site, first host word, one past the
  /// last, the pristine words the translator emitted there).
  template <typename Fn> void forEachFusedCore(Fn F) const {
    for (const TranslationRecord::RelFusedSite &S : Rec->FusedSites)
      F(S, EntryWord + S.Begin, EntryWord + S.End,
        std::span<const uint32_t>(Rec->Words).subspan(S.Begin,
                                                      S.End - S.Begin));
  }

  // -- the exception handler's patches ---------------------------------------

  /// Body word \p Word now branches to the stub [StubEntry, StubEnd).
  void patch(uint32_t Word, uint32_t StubEntry, uint32_t StubEnd,
             bool Adaptive) {
    Patches.push_back({Word, StubEntry, StubEnd, Adaptive, false});
  }
  /// An adaptive stub patched the original op back in at \p Word.
  void revert(uint32_t Word) {
    for (StubPatch &P : Patches)
      if (P.Word == Word)
        P.Reverted = true;
  }
};

} // namespace dbt
} // namespace mdabt

#endif // MDABT_DBT_TRANSLATION_H
