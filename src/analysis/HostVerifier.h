//===- analysis/HostVerifier.h - Code-cache structural lint ----*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A structural verifier for the host code cache: an oracle that walks
/// every installed translation (body + exception stubs) and checks the
/// invariants the engine's patching machinery is supposed to preserve —
/// so chaos-injected torn or dropped patches are caught *at the point
/// of corruption* instead of only by downstream architectural
/// divergence.
///
/// Checked invariants (see DESIGN.md for the rationale of each):
///  1. predecode coherence: the CodeSpace's execution view matches a
///     fresh lowering of every raw word in the arena, and valid words
///     round-trip through the encoder;
///  2. every word inside a live region decodes;
///  3. branch targets land on instruction boundaries inside live
///     regions;
///  4. patched fault sites are a branch into one of the owning
///     translation's stubs — or, after an adaptive revert, a trapping-
///     capable memory op again;
///  5. exit sites are `Srv Exit` or (when chained) a branch to a live
///     translation's entry;
///  6. every MDA sequence in live code is a complete, byte-exact
///     ldq_u/ext/ins/msk/stq_u shape (re-emitted and compared);
///  7. every indirect-exit inline-cache way is either disabled (guard
///     branch skipping the way) or a complete, byte-exact tag-compare
///     shape whose final branch targets a live translation's entry.
///     The way shape is re-derived here independently of the engine's
///     emitter — intentionally duplicated constants, so a drift between
///     the two is a caught bug, not a silently shared one;
///  8. guest-code coherence: no live translation's compiled guest byte
///     ranges carry a dirty epoch newer than the translation's birth —
///     i.e. the engine's write barrier invalidated every translation
///     whose source bytes were rewritten (self-modifying code) before
///     this verification point;
///  9. fused-sequence integrity: every fused guest-idiom core
///     (dbt/FusionRules.h) is byte-exact against the words the
///     translator emitted at install time — fusion rewrites guest
///     semantics into denser host code, so a single flipped word inside
///     a fused core silently changes architectural behaviour.  Words
///     the engine legitimately patched (fault-site stubs, reverts) or
///     quarantined are excused;
/// 10. AOT reachability: every translation the static AOT
///     pre-translator installed covers only guest bytes inside the
///     statically recovered reachable set — static pre-translation can
///     never smuggle code for bytes the CFG-recovery pass did not
///     prove reachable.  Skipped when the engine supplies no
///     reachable-range set (AOT off).
///
/// The verifier is read-only and engine-agnostic: the engine describes
/// its bookkeeping through `VerifierInput` and gets a `VerifyReport`
/// back.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_ANALYSIS_HOSTVERIFIER_H
#define MDABT_ANALYSIS_HOSTVERIFIER_H

#include "host/CodeSpace.h"

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace mdabt {
namespace analysis {

/// What went wrong at one code-cache word.
enum class VerifyIssueKind : uint8_t {
  PredecodeMismatch, ///< Execution view disagrees with the raw word.
  Undecodable,       ///< Live-region word does not decode.
  BranchTargetBad,   ///< Branch lands outside every live region.
  PatchSiteBad,      ///< Patched site is not a branch to an own stub
                     ///< (or, reverted, not a trapping memory op).
  ExitSiteBad,       ///< Exit is neither `Srv Exit` nor a chain to a
                     ///< live entry.
  MdaSequenceMalformed, ///< Incomplete or corrupted MDA sequence.
  IcWayBad, ///< Inline-cache way is neither cleanly disabled nor a
            ///< byte-exact filled shape targeting a live entry.
  StaleGuestCode, ///< Live translation built from guest bytes that were
                  ///< rewritten after it was installed.
  FusedSiteBad,   ///< Fused-sequence core diverged from the byte-exact
                  ///< words the translator emitted.
  AotUnreachable, ///< AOT-installed translation covers guest bytes
                  ///< outside the statically recovered reachable set.
};

const char *verifyIssueKindName(VerifyIssueKind K);

struct VerifyIssue {
  VerifyIssueKind Kind;
  uint32_t Word = 0; ///< Code-cache word index of the issue.
  uint32_t Aux = 0;  ///< Kind-specific detail (e.g. branch target).
};

/// Render an issue for diagnostics.
std::string verifyIssueToString(const VerifyIssue &Issue);

/// A fault site the engine has patched (or patched and later reverted).
struct VerifierPatch {
  uint32_t Word = 0;
  bool Reverted = false;
};

/// Half-open word range of one exception stub.
struct VerifierRegion {
  uint32_t Begin = 0;
  uint32_t End = 0;
};

/// One inline-cache way as the engine believes it to be.
struct VerifierIcWay {
  uint32_t Begin = 0; ///< Guard word (first word of the way).
  bool Filled = false;
  uint32_t TargetEntry = 0;   ///< Expected branch target when filled.
  uint32_t TargetGuestPc = 0; ///< Expected tag constant when filled.
};

/// One fused guest-idiom core (check 9): the half-open word range the
/// fusion emitter produced plus the pristine words the translator
/// emitted there (a view into the engine's translation record).
struct VerifierFusedSite {
  uint8_t Rule = 0; ///< dbt::FusionRuleId value, diagnostic only.
  uint32_t Begin = 0;
  uint32_t End = 0;
  std::span<const uint32_t> Words; ///< Reference words, size == End - Begin.
};

/// One live translation as the engine knows it.
/// Every member has a default initializer, so an aggregate initializer
/// may stop after the fields it sets.
struct VerifierBlock {
  uint32_t EntryWord = 0;
  uint32_t EndWord = 0; ///< One past the body's last word.
  std::vector<VerifierRegion> Stubs{};
  std::vector<VerifierPatch> Patches{};
  std::vector<uint32_t> ExitWords{};
  /// Non-quarantined inline-cache ways at indirect exits.
  std::vector<VerifierIcWay> IcWays{};
  /// Half-open *guest byte* ranges this translation was compiled from
  /// (check 8; empty disables the check for this block).
  std::vector<VerifierRegion> GuestRanges{};
  /// Guest-store epoch when this translation was installed (check 8).
  uint64_t BornEpoch = 0;
  /// Fused guest-idiom cores with their reference words (check 9).
  std::vector<VerifierFusedSite> FusedSites{};
  /// Installed by the static AOT pre-translator (check 10).
  bool AotInstalled = false;
};

/// The engine's view of the cache, handed to the verifier.
struct VerifierInput {
  std::vector<VerifierBlock> Blocks;
  /// Words excused from the branch-target and exit checks: chain sites
  /// whose unpatching failed under fault injection and which the engine
  /// has quarantined (the owning target block is gone, so the stale
  /// branch cannot satisfy liveness until the next flush).
  std::unordered_set<uint32_t> ExemptWords;
  /// Words per inline-cache way (the engine's declared layout width);
  /// the check fails closed if it disagrees with the verifier's own
  /// 6-word shape.
  uint32_t IcWayWords = 6;
  /// Dirtied guest code byte -> epoch of the store that dirtied it
  /// (check 8).  Byte-granular so a live translation sharing a watch
  /// page with a rewritten neighbour is not a false positive.  Null
  /// disables the check.
  const std::unordered_map<uint32_t, uint64_t> *GuestDirtyEpoch = nullptr;
  /// Statically recovered reachable guest byte ranges, half-open,
  /// sorted and non-overlapping (check 10: every AOT-installed block's
  /// guest ranges must lie inside them).  Null disables the check.
  const std::vector<VerifierRegion> *ReachableRanges = nullptr;
};

struct VerifyReport {
  std::vector<VerifyIssue> Issues;
  uint64_t WordsChecked = 0;
  uint64_t RegionsChecked = 0;
  uint64_t MdaSequencesChecked = 0;
  uint64_t FusedSitesChecked = 0;
  bool ok() const { return Issues.empty(); }
};

/// Run all checks over \p Code as described by \p Input.
VerifyReport verifyCodeSpace(const host::CodeSpace &Code,
                             const VerifierInput &Input);

} // namespace analysis
} // namespace mdabt

#endif // MDABT_ANALYSIS_HOSTVERIFIER_H
