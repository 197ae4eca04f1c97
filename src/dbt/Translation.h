//===- dbt/Translation.h - Translated-block records ------------*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bookkeeping for one translated basic block: where its host code lives,
/// its exit sites (for block chaining), the incoming chain links that must
/// be undone if the block is invalidated, the mapping from trapping host
/// memory words back to guest instruction PCs (consumed by the
/// misalignment exception handler), and fault counters driving the
/// retranslation policy of paper Fig. 7.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_DBT_TRANSLATION_H
#define MDABT_DBT_TRANSLATION_H

#include <algorithm>
#include <cstdint>
#include <unordered_map>
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
/// guest byte ranges \p Ranges (Translation::GuestRanges).
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

/// One way of an indirect-exit inline cache.
struct IcWay {
  uint32_t Begin = 0; ///< guard word (first word of the way)
  bool Filled = false;
  /// Quarantined: a disable patch failed under fault injection and the
  /// way's final branch may still target a dead (but intact) entry.
  /// Excluded from verification until refilled or flushed.
  bool Stale = false;
  uint32_t TargetEntry = 0;   ///< cached target's host entry word
  uint32_t TargetGuestPc = 0; ///< cached target's guest PC (the tag)
};

/// The inline cache attached to one indirect exit site.
struct IcSite {
  uint32_t SrvWord = 0; ///< the Srv Exit word the ways fall back to
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

/// One fused multi-guest-instruction host sequence (dbt/FusionRules.h).
/// The core range [Begin, End) covers the translator-final fused words
/// — address arithmetic and memory/ALU/branch ops, but *not* the exit
/// materialization that may follow a fused compare-branch (exit words
/// are chained/patched by the monitor).  HostVerifier re-checks the
/// captured words byte-exactly (invariant 9), skipping words the
/// exception handler has patched to MDA stubs.
struct FusedSite {
  uint8_t Rule = 0;        ///< FusionRuleId
  uint32_t Begin = 0;      ///< first host word of the fused core
  uint32_t End = 0;        ///< one past the fused core
  uint32_t GuestPc = 0;    ///< PC of the first fused guest instruction
  uint8_t GuestLen = 0;    ///< guest instructions consumed
  uint32_t SavedWords = 0; ///< estimated host words saved vs unfused
  /// Word values of [Begin, End), captured after label resolution.
  std::vector<uint32_t> Words;
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

/// One block-exit service call, patchable into a direct chain.
struct ExitSite {
  uint32_t SrvWord = 0;      ///< word index of the Srv Exit instruction
  uint32_t TargetGuestPc = 0;
  bool Direct = false; ///< compile-time-known target (chainable)
  bool Chained = false;
};

/// One translated guest basic block.
struct Translation {
  uint32_t GuestPc = 0;
  uint32_t EntryWord = 0;
  uint32_t EndWord = 0; ///< one past the block body
  std::vector<ExitSite> Exits;
  /// Host words of *other* blocks' exit branches chained to this entry;
  /// restored to Srv Exit when this block is invalidated.
  std::vector<uint32_t> IncomingChains;
  /// Host word of each trapping-capable memory op -> guest inst PC.
  std::unordered_map<uint32_t, uint32_t> MemWordToGuestPc;
  /// Every host word that performs a guest store (plain op, each word
  /// of an inline MDA sequence, multi-version arms, the Call push, and
  /// — registered at stub-emission time — MDA stub words) -> where to
  /// resume if that store invalidates this translation mid-episode.
  std::unordered_map<uint32_t, SmcResume> StoreResume;
  /// Number of guest instructions translated (for cost accounting).
  uint32_t GuestInsts = 0;
  /// Misalignment traps taken inside this translation.
  uint32_t FaultCount = 0;
  /// Patched (stub-redirected) words, to avoid double patching.
  std::vector<uint32_t> PatchedWords;
  /// Retranslation generation of this block (0 = first translation).
  uint32_t Generation = 0;
  /// False once superseded by a rearranged/retranslated version.
  bool Valid = true;
  /// Inline caches at this translation's indirect exits (one per
  /// indirect ExitSite, in emission order; empty when IcWays == 0).
  std::vector<IcSite> IcSites;
  /// Ways in *other* translations whose final branch targets this
  /// entry; taken out of service when this block is invalidated
  /// (the inline-cache analogue of IncomingChains).
  std::vector<IcWayRef> IncomingIcWays;
  /// Policy-intent memory plan per guest instruction PC (mem ops of
  /// size >= 2 only), recorded at translation time so superblock
  /// re-emission reproduces the exact MDA treatment of every site
  /// without re-consulting the (stateful) policy.
  std::unordered_map<uint32_t, MemPlan> PlanByPc;
  /// True for a superblock/trace spanning several guest blocks.
  bool IsTrace = false;
  /// Head-first guest PCs of a trace's constituent blocks (empty for
  /// plain block translations).
  std::vector<uint32_t> Constituents;
  /// Half-open guest byte ranges whose bytes this translation compiled
  /// (one per constituent block, deduplicated).  Filled by the
  /// translator; the engine registers them with the guest memory's
  /// write barrier so a store into any of them invalidates this
  /// translation (self-modifying-code coherence).
  std::vector<std::pair<uint32_t, uint32_t>> GuestRanges;
  /// The engine's guest-store epoch when this translation was
  /// installed.  HostVerifier invariant: no byte of a live
  /// translation's GuestRanges may carry a dirty epoch newer than this.
  uint64_t BornEpoch = 0;
  /// Fused guest-idiom sequences in this translation, in emission
  /// order (empty when TranslationOpts::FusionMask was 0).
  std::vector<FusedSite> FusedSites;
  /// Instantiated from a static AOT pre-translation unit
  /// (EngineConfig::Aot); HostVerifier holds such blocks to the
  /// recovered-reachable-set invariant (check 10).
  bool AotInstalled = false;
};

} // namespace dbt
} // namespace mdabt

#endif // MDABT_DBT_TRANSLATION_H
