//===- analysis/HostVerifier.cpp - Code-cache structural lint -------------===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/HostVerifier.h"

#include "host/HostAssembler.h"
#include "host/HostEncoding.h"
#include "host/HostISA.h"
#include "host/MdaSequences.h"
#include "support/Format.h"

#include <algorithm>
#include <cstring>
#include <iterator>

namespace mdabt {
namespace analysis {

using namespace host;

const char *verifyIssueKindName(VerifyIssueKind K) {
  switch (K) {
  case VerifyIssueKind::PredecodeMismatch:
    return "predecode-mismatch";
  case VerifyIssueKind::Undecodable:
    return "undecodable";
  case VerifyIssueKind::BranchTargetBad:
    return "branch-target-bad";
  case VerifyIssueKind::PatchSiteBad:
    return "patch-site-bad";
  case VerifyIssueKind::ExitSiteBad:
    return "exit-site-bad";
  case VerifyIssueKind::MdaSequenceMalformed:
    return "mda-sequence-malformed";
  case VerifyIssueKind::IcWayBad:
    return "ic-way-bad";
  case VerifyIssueKind::StaleGuestCode:
    return "stale-guest-code";
  case VerifyIssueKind::FusedSiteBad:
    return "fused-site-bad";
  case VerifyIssueKind::AotUnreachable:
    return "aot-unreachable";
  case VerifyIssueKind::BodyWordChanged:
    return "body-word-changed";
  }
  return "?";
}

std::string verifyIssueToString(const VerifyIssue &Issue) {
  return mdabt::format("%s at word %u (aux %u)",
                       verifyIssueKindName(Issue.Kind), Issue.Word,
                       Issue.Aux);
}

namespace {

/// The region of the sorted, disjoint \p Cover that holds \p Word, or
/// null.  A binary search: the region checks ask this for every live
/// branch, and a scan per branch would make a sweep quadratic.
const VerifierRegion *regionOf(const std::vector<VerifierRegion> &Cover,
                               uint32_t Word) {
  auto It = std::upper_bound(
      Cover.begin(), Cover.end(), Word,
      [](uint32_t W, const VerifierRegion &R) { return W < R.Begin; });
  if (It == Cover.begin() || Word >= std::prev(It)->End)
    return nullptr;
  return &*std::prev(It);
}

/// True if \p Word could start or continue an MDA sequence (check 6's
/// scan keys on `lda RegMdaT2` followed by `ldq_u`).
bool mayShapeSequence(uint32_t Word) {
  HostInst I;
  return decodeHost(Word, I) &&
         ((I.Op == HostOp::Lda && I.Ra == RegMdaT2) || I.Op == HostOp::LdqU);
}

struct Verifier {
  const CodeSpace &Code;
  const VerifierInput &Input;
  VerifyReport Report;

  /// Live half-open ranges, block bodies and stubs, in block order (the
  /// full sweep's iteration order).
  std::vector<VerifierRegion> LiveRegions;
  /// The full sweep's own disjoint cover of the live words.
  std::vector<VerifierRegion> OwnCover;
  /// Live words as disjoint ranges sorted by Begin: OwnCover, or the
  /// input's maintained LiveRegions in the per-run pass.
  const std::vector<VerifierRegion> *Cover = &OwnCover;
  /// The full sweep's live entries; the per-run pass searches the sorted
  /// Blocks instead.
  std::unordered_set<uint32_t> LiveEntries;
  bool Incremental = false;
  /// When set, check 6 records the span of every sequence it probes
  /// (the record proof's PointsClear).
  std::vector<VerifierRegion> *Spans = nullptr;

  Verifier(const CodeSpace &C, const VerifierInput &I, bool Incremental)
      : Code(C), Input(I), Incremental(Incremental) {
    if (Incremental) {
      Cover = &Input.LiveRegions;
      return;
    }
    for (const VerifierBlock &B : Input.Blocks) {
      LiveRegions.push_back({B.EntryWord, B.EndWord});
      LiveEntries.insert(B.EntryWord);
      for (const VerifierRegion &S : B.Stubs)
        LiveRegions.push_back(S);
    }
    std::vector<VerifierRegion> Sorted = LiveRegions;
    std::sort(Sorted.begin(), Sorted.end(),
              [](const VerifierRegion &A, const VerifierRegion &B) {
                return A.Begin < B.Begin;
              });
    for (const VerifierRegion &R : Sorted) {
      if (R.Begin >= R.End)
        continue;
      if (!OwnCover.empty() && R.Begin <= OwnCover.back().End)
        OwnCover.back().End = std::max(OwnCover.back().End, R.End);
      else
        OwnCover.push_back(R);
    }
  }

  void issue(VerifyIssueKind K, uint32_t Word, uint32_t Aux = 0) {
    Report.Issues.push_back({K, Word, Aux});
  }

  bool inLiveRegion(uint32_t Word) const {
    return regionOf(*Cover, Word) != nullptr;
  }

  /// Index of the block whose body holds \p Word (per-run pass: Blocks
  /// are sorted by entry), or Blocks.size().
  size_t bodyOf(uint32_t Word) const {
    const std::vector<VerifierBlock> &Bs = Input.Blocks;
    auto It = std::upper_bound(
        Bs.begin(), Bs.end(), Word,
        [](uint32_t W, const VerifierBlock &B) { return W < B.EntryWord; });
    if (It == Bs.begin() || Word >= std::prev(It)->EndWord)
      return Bs.size();
    return static_cast<size_t>(std::prev(It) - Bs.begin());
  }

  bool isLiveEntry(uint32_t Word) const {
    if (!Incremental)
      return LiveEntries.count(Word) != 0;
    size_t I = bodyOf(Word);
    return I != Input.Blocks.size() && Input.Blocks[I].EntryWord == Word;
  }

  /// Check 1 at \p W: the execution-view entry equals a fresh lowering
  /// of the raw word, and a valid word round-trips through the encoder.
  void checkPredecode(uint32_t W) {
    uint32_t Raw = Code.word(W);
    if (Code.exec(W) != lowerHostWord(Raw)) {
      issue(VerifyIssueKind::PredecodeMismatch, W);
      return;
    }
    HostInst Fresh;
    if (decodeHost(Raw, Fresh) && encodeHost(Fresh) != Raw)
      issue(VerifyIssueKind::PredecodeMismatch, W, Raw);
  }

  /// Checks 2 + 3 at live word \p W: it decodes, and a branch lands
  /// inside a live region.
  void checkWord(uint32_t W) {
    HostInst I;
    if (!decodeHost(Code.word(W), I)) {
      issue(VerifyIssueKind::Undecodable, W, Code.word(W));
      return;
    }
    if (!isBranchFormat(I.Op) || Input.ExemptWords.count(W))
      return;
    int64_t Target = static_cast<int64_t>(W) + 1 + I.Disp;
    if (Target < 0 || Target >= static_cast<int64_t>(Code.size()) ||
        !inLiveRegion(static_cast<uint32_t>(Target))) {
      issue(VerifyIssueKind::BranchTargetBad, W,
            static_cast<uint32_t>(Target));
    }
  }

  void checkWords(const VerifierRegion &R) {
    for (uint32_t W = R.Begin; W < R.End; ++W)
      checkWord(W);
  }

  /// Check 4 at one patch record of \p B.
  void checkPatch(const VerifierBlock &B, const VerifierPatch &P) {
    HostInst I;
    if (!decodeHost(Code.word(P.Word), I)) {
      issue(VerifyIssueKind::PatchSiteBad, P.Word);
      return;
    }
    if (P.Reverted) {
      // An adaptive revert restored the original trapping op.
      if (!accessesMemory(I.Op) || alignmentOf(I.Op) <= 1)
        issue(VerifyIssueKind::PatchSiteBad, P.Word);
      return;
    }
    if (I.Op != HostOp::Br) {
      issue(VerifyIssueKind::PatchSiteBad, P.Word);
      return;
    }
    uint32_t Target = P.Word + 1 + static_cast<uint32_t>(I.Disp);
    bool IntoOwnStub = std::any_of(B.Stubs.begin(), B.Stubs.end(),
                                   [&](const VerifierRegion &S) {
                                     return Target >= S.Begin &&
                                            Target < S.End;
                                   });
    if (!IntoOwnStub)
      issue(VerifyIssueKind::PatchSiteBad, P.Word, Target);
  }

  /// Check 5 at exit word \p W: `Srv Exit` or a chain branch to a live
  /// translation entry.
  void checkExit(uint32_t W) {
    if (Input.ExemptWords.count(W))
      return;
    HostInst I;
    if (!decodeHost(Code.word(W), I)) {
      issue(VerifyIssueKind::ExitSiteBad, W);
      return;
    }
    if (I.Op == HostOp::Srv && I.Disp == static_cast<int32_t>(SrvFunc::Exit))
      return;
    if (I.Op == HostOp::Br) {
      uint32_t Target = W + 1 + static_cast<uint32_t>(I.Disp);
      if (!isLiveEntry(Target))
        issue(VerifyIssueKind::ExitSiteBad, W, Target);
      return;
    }
    issue(VerifyIssueKind::ExitSiteBad, W);
  }

  /// Check 6 over region \p R: every MDA sequence in live code is
  /// complete and byte-exact.  A sequence start is unmistakable — `lda
  /// RegMdaT2` followed by `ldq_u` occurs nowhere else in translator
  /// output (the adaptive stub's alignment probe also begins `lda
  /// RegMdaT2` but is followed by `and`).
  void checkSequences(const VerifierRegion &R) {
    for (uint32_t W = R.Begin; W < R.End; ++W) {
      HostInst Lda;
      if (!decodeHost(Code.word(W), Lda) || Lda.Op != HostOp::Lda ||
          Lda.Ra != RegMdaT2)
        continue;
      HostInst Next;
      if (W + 1 >= R.End || !decodeHost(Code.word(W + 1), Next) ||
          Next.Op != HostOp::LdqU)
        continue;
      ++Report.MdaSequencesChecked;
      if (!checkOneMdaSequence(R, W, Next))
        issue(VerifyIssueKind::MdaSequenceMalformed, W);
      // Skip past the sequence body so its own ldq_u/lda words are not
      // re-probed (harmless, but noisy under corruption).
      uint32_t Len =
          Next.Ra == RegMdaT1 ? mdaStoreLength() : mdaLoadLength();
      if (Spans)
        Spans->push_back({W, std::min(W + Len, R.End)});
      W += Len - 1;
      W = std::min(W, R.End - 1);
    }
  }

  bool checkOneMdaSequence(const VerifierRegion &R, uint32_t W,
                           const HostInst &FirstLdqU) {
    HostInst Lda;
    decodeHost(Code.word(W), Lda);
    uint8_t Rb = Lda.Rb;
    int32_t Disp = Lda.Disp;

    bool IsStore;
    unsigned Len;
    int32_t HighDisp;
    uint8_t DataReg;
    if (FirstLdqU.Ra == RegMdaT0) {
      // Load shape: the second ldq_u carries Disp + Size - 1 and the
      // final bis writes the destination.
      IsStore = false;
      Len = mdaLoadLength();
      if (W + Len > R.End)
        return false;
      HostInst High, Last;
      if (!decodeHost(Code.word(W + 2), High) || High.Op != HostOp::LdqU)
        return false;
      if (!decodeHost(Code.word(W + Len - 1), Last) ||
          Last.Op != HostOp::Bis)
        return false;
      HighDisp = High.Disp;
      DataReg = Last.Rc;
    } else if (FirstLdqU.Ra == RegMdaT1) {
      // Store shape: the first ldq_u already carries the high
      // displacement; the first ins* carries the value register.
      IsStore = true;
      Len = mdaStoreLength();
      if (W + Len > R.End)
        return false;
      HostInst Ins;
      if (!decodeHost(Code.word(W + 3), Ins))
        return false;
      HighDisp = FirstLdqU.Disp;
      DataReg = Ins.Ra;
    } else {
      return false;
    }

    int64_t Size = static_cast<int64_t>(HighDisp) - Disp + 1;
    if (Size != 2 && Size != 4 && Size != 8)
      return false;

    // Re-emit the canonical sequence and require byte equality.
    CodeSpace Scratch;
    {
      HostAssembler Asm(Scratch);
      if (IsStore)
        emitMdaStore(Asm, static_cast<unsigned>(Size), DataReg, Rb, Disp);
      else
        emitMdaLoad(Asm, static_cast<unsigned>(Size), DataReg, Rb, Disp);
      Asm.finish();
    }
    if (Scratch.size() != Len)
      return false;
    for (uint32_t K = 0; K < Len; ++K)
      if (Scratch.word(K) != Code.word(W + K))
        return false;
    return true;
  }

  /// Check 7 at one inline-cache way.  A disabled way must start with
  /// the guard branch that skips it; a filled way must be the byte-exact
  /// tag-compare shape for the engine's claimed (tag, target) pair, and
  /// the target must be a live translation entry.  The shape constants
  /// are re-derived here, independent of the engine's fill path.
  void checkIcWay(const VerifierIcWay &W) {
    if (Input.IcWayWords != 6) {
      // Unknown layout width: fail closed rather than mis-walk.
      issue(VerifyIssueKind::IcWayBad, W.Begin, Input.IcWayWords);
      return;
    }
    if (!W.Filled) {
      HostInst G;
      if (!decodeHost(Code.word(W.Begin), G) || G.Op != HostOp::Br ||
          G.Ra != RegZero ||
          G.Disp != static_cast<int32_t>(Input.IcWayWords) - 1)
        issue(VerifyIssueKind::IcWayBad, W.Begin, Code.word(W.Begin));
      return;
    }
    uint32_t FinalBr = W.Begin + Input.IcWayWords - 1;
    int32_t Lo = static_cast<int16_t>(W.TargetGuestPc & 0xffff);
    int32_t Hi =
        static_cast<int32_t>(W.TargetGuestPc - static_cast<uint32_t>(Lo)) >>
        16;
    int64_t Disp = static_cast<int64_t>(W.TargetEntry) -
                   (static_cast<int64_t>(FinalBr) + 1);
    const uint32_t Expect[6] = {
        encodeHost(memInst(HostOp::Ldah, RegScratch1, Hi, RegZero)),
        encodeHost(memInst(HostOp::Lda, RegScratch1, Lo, RegScratch1)),
        encodeHost(opInst(HostOp::Zextl, RegZero, RegScratch1, RegScratch1)),
        encodeHost(
            opInst(HostOp::Cmpeq, RegExitPc, RegScratch1, RegScratch2)),
        encodeHost(brInst(HostOp::Beq, RegScratch2, 1)),
        encodeHost(brInst(HostOp::Br, RegZero, static_cast<int32_t>(Disp))),
    };
    bool Ok = isLiveEntry(W.TargetEntry);
    for (uint32_t K = 0; Ok && K != 6; ++K)
      if (Code.word(W.Begin + K) != Expect[K])
        Ok = false;
    if (!Ok)
      issue(VerifyIssueKind::IcWayBad, W.Begin, W.TargetEntry);
  }

  /// Check 8 for \p B: every dirtied guest byte inside its compiled
  /// ranges must be older than the translation itself (dirty epoch <=
  /// birth epoch) — a newer epoch means the engine's write barrier
  /// failed to invalidate a translation whose source bytes were
  /// rewritten.  The issue's word is the translation's entry; aux is
  /// the offending guest byte.  Requires a non-empty dirty map.
  void checkCoherence(const VerifierBlock &B) {
    if (B.GuestRanges.empty())
      return;
    for (const auto &[Byte, Epoch] : *Input.GuestDirtyEpoch) {
      if (Epoch <= B.BornEpoch)
        continue;
      bool Inside = std::any_of(
          B.GuestRanges.begin(), B.GuestRanges.end(),
          [&](const VerifierRegion &R) {
            return Byte >= R.Begin && Byte < R.End;
          });
      if (Inside) {
        issue(VerifyIssueKind::StaleGuestCode, B.EntryWord, Byte);
        return; // one offending byte per block is enough signal
      }
    }
  }

  bool coherenceOn() const {
    return Input.GuestDirtyEpoch && !Input.GuestDirtyEpoch->empty();
  }

  /// Check 9 for \p B: every fused core must still be byte-exact against
  /// the words the translator emitted, except at words the engine
  /// legitimately rewrote afterwards (patched fault sites, adaptive
  /// reverts) or quarantined (ExemptWords).  The issue's word is the
  /// first diverging word; aux is its current raw value.
  void checkFused(const VerifierBlock &B) {
    for (const VerifierFusedSite &F : B.FusedSites) {
      ++Report.FusedSitesChecked;
      if (F.Begin > F.End || F.Begin < B.EntryWord || F.End > B.EndWord ||
          F.Words.size() != F.End - F.Begin) {
        issue(VerifyIssueKind::FusedSiteBad, F.Begin, F.End);
        continue;
      }
      for (uint32_t K = 0; K != F.Words.size(); ++K) {
        uint32_t W = F.Begin + K;
        if (Input.ExemptWords.count(W))
          continue;
        bool Patched =
            std::any_of(B.Patches.begin(), B.Patches.end(),
                        [&](const VerifierPatch &P) { return P.Word == W; });
        if (Patched)
          continue;
        if (Code.word(W) != F.Words[K]) {
          issue(VerifyIssueKind::FusedSiteBad, W, Code.word(W));
          break; // first diverging word per site is enough signal
        }
      }
    }
  }

  /// Check 10 for \p B: an AOT-installed translation's guest ranges must
  /// all lie inside the statically recovered reachable set — the
  /// pre-translator can only ever install code the CFG-recovery pass
  /// proved the guest can reach.  The issue's word is the translation's
  /// entry; aux is the first uncovered guest byte.  Requires the set.
  void checkReachable(const VerifierBlock &B) {
    if (!B.AotInstalled)
      return;
    const std::vector<VerifierRegion> &Set = *Input.ReachableRanges;
    for (const VerifierRegion &G : B.GuestRanges) {
      // Ranges are sorted and disjoint: one range must cover the whole
      // span (recovery merges adjacent blocks).
      bool Covered = false;
      for (const VerifierRegion &R : Set) {
        if (G.Begin >= R.Begin && G.End <= R.End) {
          Covered = true;
          break;
        }
        if (R.Begin > G.Begin)
          break;
      }
      if (!Covered) {
        issue(VerifyIssueKind::AotUnreachable, B.EntryWord, G.Begin);
        return; // one uncovered range per block is enough signal
      }
    }
  }

  /// The full sweep: every check over the whole arena and every live
  /// region.  Check 1 runs over dead regions too — a stale entry
  /// anywhere means patch/clear bookkeeping went wrong.
  VerifyReport sweep() {
    Report.WordsChecked += Code.size();
    for (uint32_t W = 0; W != Code.size(); ++W)
      checkPredecode(W);
    for (const VerifierRegion &R : LiveRegions) {
      ++Report.RegionsChecked;
      checkWords(R);
    }
    for (const VerifierBlock &B : Input.Blocks)
      for (const VerifierPatch &P : B.Patches)
        checkPatch(B, P);
    for (const VerifierBlock &B : Input.Blocks)
      for (uint32_t W : B.ExitWords)
        checkExit(W);
    for (const VerifierRegion &R : LiveRegions)
      checkSequences(R);
    for (const VerifierBlock &B : Input.Blocks)
      for (const VerifierIcWay &W : B.IcWays)
        checkIcWay(W);
    if (coherenceOn())
      for (const VerifierBlock &B : Input.Blocks)
        checkCoherence(B);
    for (const VerifierBlock &B : Input.Blocks)
      checkFused(B);
    if (Input.ReachableRanges)
      for (const VerifierBlock &B : Input.Blocks)
        checkReachable(B);
    return std::move(Report);
  }

  /// Checks 2-7 and 9 for block \p B whose mutation points \p Points
  /// (arena words) changed since the last pass, or, with \p New, every
  /// point of a block installed since.  \p Changed holds the words of
  /// the body that changed.
  void checkBlock(const VerifierBlock &B, bool New,
                  const std::vector<uint32_t> &Changed) {
    const RecordProof &P = *B.Proof;
    const uint32_t E = B.EntryWord;
    // Run checks 2, 3, 6 and 9 over the whole body when the record does
    // not vouch for the words the body shares with it.
    bool Full = !P.Clean;
    auto BodyWord = [&](uint32_t W) {
      if (Code.word(W) == B.Pristine[W - E])
        return;
      issue(VerifyIssueKind::BodyWordChanged, W, B.Pristine[W - E]);
      Full = true;
    };
    std::vector<uint32_t> Points;
    if (New) {
      uint32_t W = E;
      for (uint32_t Off : P.Points) {
        if (E + Off >= B.EndWord)
          break; // an unclean record's stray point
        for (; W < E + Off; ++W)
          BodyWord(W);
        Points.push_back(E + Off);
        W = E + Off + 1;
      }
      for (; W < B.EndWord; ++W)
        BodyWord(W);
    } else {
      for (uint32_t W : Changed) {
        if (std::binary_search(P.Points.begin(), P.Points.end(), W - E))
          Points.push_back(W);
        else
          BodyWord(W);
      }
    }

    bool Sequences = false;
    bool Fused = false;
    auto InRange = [](uint32_t W, uint32_t Begin, uint32_t End) {
      return W >= Begin && W < End;
    };
    for (uint32_t W : Points) {
      if (!Full)
        checkWord(W);
      for (const VerifierPatch &Pt : B.Patches)
        if (Pt.Word == W)
          checkPatch(B, Pt);
      if (std::find(B.ExitWords.begin(), B.ExitWords.end(), W) !=
          B.ExitWords.end())
        checkExit(W);
      Fused |= std::any_of(
          B.FusedSites.begin(), B.FusedSites.end(),
          [&](const VerifierFusedSite &F) { return InRange(W, F.Begin, F.End); });
    }
    for (const VerifierIcWay &Way : B.IcWays) {
      uint32_t End = Way.Begin + Input.IcWayWords;
      if (std::any_of(Points.begin(), Points.end(),
                      [&](uint32_t W) { return InRange(W, Way.Begin, End); }))
        checkIcWay(Way);
    }
    // A rewritten point changes check 6 only if it lies in a sequence or
    // could shape one.
    if (!Points.empty())
      Sequences = !P.PointsClear ||
                  std::any_of(P.Points.begin(), P.Points.end(),
                              [&](uint32_t Off) {
                                return mayShapeSequence(Code.word(E + Off));
                              });
    VerifierRegion Body{E, B.EndWord};
    if (Full)
      checkWords(Body);
    if (Full || Sequences)
      checkSequences(Body);
    if (Full || Fused)
      checkFused(B);
  }

  /// The per-run pass over \p J (see verifyChanges).
  VerifyReport changes(VerifierJournal &J) {
    const uint32_t Size = Code.size();
    const uint32_t *Words = Code.data();
    const uint32_t Tail =
        std::min(static_cast<uint32_t>(J.Vouched.size()), Size);
    const std::vector<VerifierBlock> &Blocks = Input.Blocks;
    Report.WordsChecked = Size;
    Report.RegionsChecked = Input.LiveRegions.size();

    // Words rewritten since the last pass, found by comparing the arena
    // with what it vouched for.
    std::vector<uint32_t> Changed;
    constexpr uint32_t Chunk = 64;
    for (uint32_t W = 0; W < Tail;) {
      uint32_t N = std::min(Tail - W, Chunk);
      if (std::memcmp(Words + W, J.Vouched.data() + W, N * 4) != 0) {
        for (uint32_t K = W; K != W + N; ++K)
          if (Words[K] != J.Vouched[K])
            Changed.push_back(K);
      }
      W += N;
    }
    for (uint32_t W : Changed)
      checkPredecode(W);
    for (uint32_t W = Tail; W < Size; ++W)
      checkPredecode(W);

    // What each block needs: (block, changed word), with New marking a
    // block installed since the last pass and Visit one whose record is
    // not clean (its body is rechecked in full every pass).
    constexpr uint32_t New = ~0u;
    constexpr uint32_t Visit = ~0u - 1;
    std::vector<std::pair<size_t, uint32_t>> Touched;
    for (uint32_t Entry : J.Installed) {
      size_t I = bodyOf(Entry);
      if (I != Blocks.size() && Blocks[I].EntryWord == Entry)
        Touched.push_back({I, New});
    }
    std::vector<VerifierRegion> Stubs = J.Stubs;
    for (uint32_t W : Changed) {
      const VerifierRegion *R = regionOf(*Cover, W);
      if (!R)
        continue; // dead: check 1 only
      size_t I = bodyOf(W);
      if (I != Blocks.size())
        Touched.push_back({I, W});
      else
        Stubs.push_back(*R);
    }
    // An exit or inline-cache way that still targets a block retired
    // since the last pass is rechecked even if its word did not change:
    // the unlink that should have rewritten it may never have been
    // issued.
    std::vector<uint32_t> Retired = J.Retired;
    std::sort(Retired.begin(), Retired.end());
    auto Dead = [&](uint32_t Entry) {
      return std::binary_search(Retired.begin(), Retired.end(), Entry);
    };
    for (size_t I = 0; I != Blocks.size(); ++I) {
      const VerifierBlock &B = Blocks[I];
      if (!B.Proof->Clean)
        Touched.push_back({I, Visit});
      if (Retired.empty())
        continue;
      for (uint32_t W : B.ExitWords) {
        HostInst X;
        if (decodeHost(Code.word(W), X) && X.Op == HostOp::Br &&
            Dead(W + 1 + static_cast<uint32_t>(X.Disp)))
          Touched.push_back({I, W});
      }
      for (const VerifierIcWay &Way : B.IcWays)
        if (Way.Filled && Dead(Way.TargetEntry))
          Touched.push_back({I, Way.Begin + Input.IcWayWords - 1});
    }
    std::sort(Touched.begin(), Touched.end());
    Touched.erase(std::unique(Touched.begin(), Touched.end()),
                  Touched.end());

    std::vector<char> CoherenceDone(Blocks.size(), 0);
    std::vector<uint32_t> BlockChanged;
    for (size_t K = 0; K != Touched.size();) {
      size_t I = Touched[K].first;
      const VerifierBlock &B = Blocks[I];
      bool IsNew = false;
      BlockChanged.clear();
      for (; K != Touched.size() && Touched[K].first == I; ++K) {
        if (Touched[K].second == New)
          IsNew = true;
        else if (Touched[K].second != Visit)
          BlockChanged.push_back(Touched[K].second);
      }
      checkBlock(B, IsNew, BlockChanged);
      if (!IsNew)
        continue;
      if (Input.ReachableRanges)
        checkReachable(B);
      if (coherenceOn() && B.BornEpoch < J.NewestStore) {
        checkCoherence(B);
        CoherenceDone[I] = 1;
      }
    }

    // Stubs registered since the last pass, or holding a rewritten word.
    std::sort(Stubs.begin(), Stubs.end(),
              [](const VerifierRegion &A, const VerifierRegion &B) {
                return A.Begin < B.Begin;
              });
    for (size_t K = 0; K != Stubs.size(); ++K) {
      const VerifierRegion &S = Stubs[K];
      if (K != 0 && Stubs[K - 1].Begin == S.Begin)
        continue;
      const VerifierRegion *R = regionOf(*Cover, S.Begin);
      if (!R || R->Begin != S.Begin || R->End != S.End)
        continue; // retired since
      checkWords(S);
      checkSequences(S);
    }

    // Check 8 against the guest bytes stored to since the last pass.
    if (coherenceOn() && !J.Stores.empty()) {
      for (size_t I = 0; I != Blocks.size(); ++I) {
        const VerifierBlock &B = Blocks[I];
        if (CoherenceDone[I])
          continue;
        bool Hit = std::any_of(
            J.Stores.begin(), J.Stores.end(),
            [&](const VerifierJournal::GuestStore &S) {
              return S.Epoch > B.BornEpoch &&
                     std::any_of(B.GuestRanges.begin(), B.GuestRanges.end(),
                                 [&](const VerifierRegion &G) {
                                   return G.Begin < S.End && S.Begin < G.End;
                                 });
            });
        if (Hit)
          checkCoherence(B);
      }
    }

    // Vouch for the arena as it is now.
    for (uint32_t W : Changed)
      J.Vouched[W] = Words[W];
    J.Vouched.resize(Tail);
    J.Vouched.insert(J.Vouched.end(), Words + Tail, Words + Size);
    J.Installed.clear();
    J.Stubs.clear();
    J.Stores.clear();
    return std::move(Report);
  }
};

} // namespace

VerifyReport verifyCodeSpace(const CodeSpace &Code,
                             const VerifierInput &Input) {
  return Verifier(Code, Input, /*Incremental=*/false).sweep();
}

VerifyReport verifyChanges(const CodeSpace &Code, const VerifierInput &Input,
                           VerifierJournal &Journal) {
  return Verifier(Code, Input, /*Incremental=*/true).changes(Journal);
}

RecordProof proveRecord(std::span<const uint32_t> Words,
                        std::vector<uint32_t> Points,
                        std::span<const VerifierRegion> FusedCores) {
  const uint32_t N = static_cast<uint32_t>(Words.size());
  RecordProof P;
  std::sort(Points.begin(), Points.end());
  Points.erase(std::unique(Points.begin(), Points.end()), Points.end());
  // The record alone, as a one-block arena: a full sweep over it is the
  // record-level check, since only the body itself is live.
  CodeSpace Scratch;
  for (uint32_t W : Words)
    Scratch.append(W);
  VerifierInput In;
  VerifierBlock B;
  B.EntryWord = 0;
  B.EndWord = N;
  for (const VerifierRegion &F : FusedCores) {
    std::span<const uint32_t> Core;
    if (F.Begin <= F.End && F.End <= N)
      Core = Words.subspan(F.Begin, F.End - F.Begin);
    B.FusedSites.push_back({0, F.Begin, F.End, Core});
  }
  In.Blocks.push_back(std::move(B));
  std::vector<VerifierRegion> Spans;
  Verifier V(Scratch, In, /*Incremental=*/false);
  V.Spans = &Spans;
  P.Clean = V.sweep().ok() && (Points.empty() || Points.back() < N);
  P.PointsClear = std::none_of(
      Points.begin(), Points.end(), [&](uint32_t Off) {
        const VerifierRegion *S = regionOf(Spans, Off);
        return S != nullptr;
      });
  P.Points = std::move(Points);
  return P;
}

} // namespace analysis
} // namespace mdabt
