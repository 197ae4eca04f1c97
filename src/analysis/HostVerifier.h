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
/// Where each check runs.  A translation's body is a copy of an
/// immutable record, so most of what a sweep proves about it was already
/// true of the record:
///
///  * the record proof (proveRecord) runs checks 1-3, 6 and 9 once over
///    a record's pristine words, with every branch required to land
///    inside the body;
///  * the per-run pass (verifyChanges) covers only what changed since
///    the last pass, read from the code cache's VerifierJournal: body
///    words must still equal their record's words except at the
///    record's mutation points (memory sites, exits, inline-cache
///    ways), which keep checks 4, 5 and 7; a body word that differs
///    anywhere else is BodyWordChanged.  Check 1 covers the rewritten
///    words and the appended tail, stubs are checked when emitted,
///    check 8 covers the guest bytes stored to, check 10 runs at
///    install, and a retirement rechecks every exit and inline-cache
///    way that still targets the dead entry;
///  * the full sweep (verifyCodeSpace) checks everything.  The engine
///    runs it at the end of every run and as the AOT output check; the
///    tests use it as the oracle for the other two.
///
/// The verifier is read-only and engine-agnostic: the engine describes
/// its bookkeeping through `VerifierInput` and gets a `VerifyReport`
/// back.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_ANALYSIS_HOSTVERIFIER_H
#define MDABT_ANALYSIS_HOSTVERIFIER_H

#include "host/CodeSpace.h"

#include <algorithm>
#include <atomic>
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
  BodyWordChanged, ///< Live body word differs from its record's word
                   ///< outside the record's mutation points (per-run
                   ///< pass only; aux is the record's word).
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

struct RecordProof;

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
  /// The record's pristine words, which [EntryWord, EndWord) must equal
  /// outside the record's mutation points, and the record's proof; the
  /// per-run pass reads both, the full sweep neither.
  std::span<const uint32_t> Pristine{};
  const RecordProof *Proof = nullptr;
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
  /// Every live body and stub, sorted by Begin (disjoint).  The per-run
  /// pass's liveness index, which requires Blocks sorted by EntryWord
  /// too; the full sweep derives its own from Blocks.
  std::vector<VerifierRegion> LiveRegions{};
};

struct VerifyReport {
  std::vector<VerifyIssue> Issues;
  uint64_t WordsChecked = 0;
  uint64_t RegionsChecked = 0;
  uint64_t MdaSequencesChecked = 0;
  uint64_t FusedSitesChecked = 0;
  bool ok() const { return Issues.empty(); }
};

/// What the record-level checks proved about one translation record.
struct RecordProof {
  /// Checks 1-3, 6 and 9 hold on the pristine words, and every branch
  /// lands inside the body.
  bool Clean = false;
  /// No mutation point lies inside one of the record's MDA sequences,
  /// so rewriting one cannot change check 6 unless the new word could
  /// start or continue a sequence.
  bool PointsClear = false;
  /// Sorted body offsets of the words a run may rewrite: memory sites
  /// (stub patches, reverts), exits (chains) and inline-cache ways.
  std::vector<uint32_t> Points;
};

/// Prove the record whose pristine words are \p Words, with mutation
/// points \p Points (body offsets, any order, may repeat) and fused
/// cores \p FusedCores (body offsets).
RecordProof proveRecord(std::span<const uint32_t> Words,
                        std::vector<uint32_t> Points,
                        std::span<const VerifierRegion> FusedCores);

/// A record's proof, computed at most once by whichever verification
/// first needs it and then shared by every thread that reads the record.
class RecordProofMemo {
public:
  RecordProofMemo() = default;
  /// A copy starts unproven: it belongs to a record of its own.
  RecordProofMemo(const RecordProofMemo &) {}
  RecordProofMemo &operator=(const RecordProofMemo &) {
    delete P.exchange(nullptr, std::memory_order_acq_rel);
    return *this;
  }
  ~RecordProofMemo() { delete P.load(std::memory_order_acquire); }

  /// The proof, computing it with \p Prove on first use.  Racing first
  /// uses each compute one and keep the first published.
  template <typename Fn> const RecordProof &get(Fn Prove) const {
    if (const RecordProof *Q = P.load(std::memory_order_acquire))
      return *Q;
    const RecordProof *Mine = new RecordProof(Prove());
    const RecordProof *Expected = nullptr;
    if (P.compare_exchange_strong(Expected, Mine, std::memory_order_acq_rel))
      return *Mine;
    delete Mine;
    return *Expected;
  }
  /// The proof if one was computed, else null.
  const RecordProof *peek() const {
    return P.load(std::memory_order_acquire);
  }

private:
  mutable std::atomic<const RecordProof *> P{nullptr};
};

/// What changed in the arena since the last pass.  The code cache keeps
/// it as it mutates; every pass resets it.
struct VerifierJournal {
  /// The arena as the last pass saw it.  A word that differs from it was
  /// rewritten since (by the cache's patches, or by anything else); the
  /// words past its end were appended since.
  std::vector<uint32_t> Vouched;
  /// Entry words of the blocks installed since the last pass.
  std::vector<uint32_t> Installed;
  /// Stubs registered since the last pass.
  std::vector<VerifierRegion> Stubs;
  /// Entry words of the blocks retired since the last pass: the exits
  /// and inline-cache ways that still target one are rechecked.
  std::vector<uint32_t> Retired;
  /// Guest byte ranges stored to since the last pass (check 8), each
  /// with the epoch of the newest store into it.
  struct GuestStore {
    uint32_t Begin = 0;
    uint32_t End = 0;
    uint64_t Epoch = 0;
  };
  std::vector<GuestStore> Stores;
  /// The newest store epoch journaled this run: a block born before it
  /// is checked against every dirtied byte when installed.
  uint64_t NewestStore = 0;

  /// Journal a guest store to [Begin, End) at \p Epoch.
  void store(uint32_t Begin, uint32_t End, uint64_t Epoch) {
    NewestStore = std::max(NewestStore, Epoch);
    // A burst of stores into one range is one entry.
    if (!Stores.empty() && Begin <= Stores.back().End &&
        Stores.back().Begin <= End) {
      GuestStore &Last = Stores.back();
      Last = {std::min(Last.Begin, Begin), std::max(Last.End, End), Epoch};
      return;
    }
    Stores.push_back({Begin, End, Epoch});
  }
  /// The last pass vouched for all of \p Code.
  void vouchAll(const host::CodeSpace &Code) {
    Vouched.assign(Code.data(), Code.data() + Code.size());
    Installed.clear();
    Stubs.clear();
    Retired.clear();
    Stores.clear();
  }
};

/// The full sweep: run all checks over \p Code as described by
/// \p Input.
VerifyReport verifyCodeSpace(const host::CodeSpace &Code,
                             const VerifierInput &Input);

/// The per-run pass: the checks whose outcome \p Journal's changes can
/// affect, given that the previous pass found nothing.  Reports what the
/// full sweep would, plus BodyWordChanged at each live body word that
/// differs from its record outside the record's mutation points.
/// Requires \p Input's LiveRegions, Blocks sorted by EntryWord and every
/// block's Pristine and Proof.  Vouches for \p Code afterwards.
VerifyReport verifyChanges(const host::CodeSpace &Code,
                           const VerifierInput &Input,
                           VerifierJournal &Journal);

} // namespace analysis
} // namespace mdabt

#endif // MDABT_ANALYSIS_HOSTVERIFIER_H
