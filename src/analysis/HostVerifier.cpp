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
  }
  return "?";
}

std::string verifyIssueToString(const VerifyIssue &Issue) {
  return mdabt::format("%s at word %u (aux %u)",
                       verifyIssueKindName(Issue.Kind), Issue.Word,
                       Issue.Aux);
}

namespace {

struct Verifier {
  const CodeSpace &Code;
  const VerifierInput &Input;
  VerifyReport Report;

  /// All live half-open ranges: block bodies and stubs.
  std::vector<VerifierRegion> LiveRegions;
  /// The same words as disjoint ranges sorted by Begin, for lookups.
  std::vector<VerifierRegion> LiveCover;
  std::unordered_set<uint32_t> LiveEntries;

  Verifier(const CodeSpace &C, const VerifierInput &I) : Code(C), Input(I) {
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
      if (!LiveCover.empty() && R.Begin <= LiveCover.back().End)
        LiveCover.back().End = std::max(LiveCover.back().End, R.End);
      else
        LiveCover.push_back(R);
    }
  }

  void issue(VerifyIssueKind K, uint32_t Word, uint32_t Aux = 0) {
    Report.Issues.push_back({K, Word, Aux});
  }

  /// A binary search: checkRegions asks this for every live branch, and
  /// a scan of every region per branch would make a sweep quadratic.
  bool inLiveRegion(uint32_t Word) const {
    auto It = std::upper_bound(
        LiveCover.begin(), LiveCover.end(), Word,
        [](uint32_t W, const VerifierRegion &R) { return W < R.Begin; });
    return It != LiveCover.begin() && Word < std::prev(It)->End;
  }

  /// Check 1: every execution-view entry equals a fresh lowering of its
  /// raw word, and valid words round-trip through the encoder.  Runs
  /// over the whole arena, dead regions included — a stale entry
  /// anywhere means patch/clear bookkeeping went wrong.
  void checkPredecode() {
    const uint32_t *Words = Code.data();
    const ExecEntry *View = Code.execView();
    const uint32_t Size = Code.size();
    Report.WordsChecked += Size;
    for (uint32_t W = 0; W != Size; ++W) {
      if (View[W] != lowerHostWord(Words[W])) {
        issue(VerifyIssueKind::PredecodeMismatch, W);
        continue;
      }
      HostInst Fresh;
      if (decodeHost(Words[W], Fresh) && encodeHost(Fresh) != Words[W])
        issue(VerifyIssueKind::PredecodeMismatch, W, Words[W]);
    }
  }

  /// Checks 2 + 3: every live word decodes and every branch in live
  /// code lands inside a live region.
  void checkRegions() {
    for (const VerifierRegion &R : LiveRegions) {
      ++Report.RegionsChecked;
      for (uint32_t W = R.Begin; W < R.End; ++W) {
        HostInst I;
        if (!decodeHost(Code.word(W), I)) {
          issue(VerifyIssueKind::Undecodable, W, Code.word(W));
          continue;
        }
        if (!isBranchFormat(I.Op) || Input.ExemptWords.count(W))
          continue;
        int64_t Target = static_cast<int64_t>(W) + 1 + I.Disp;
        if (Target < 0 || Target >= static_cast<int64_t>(Code.size()) ||
            !inLiveRegion(static_cast<uint32_t>(Target))) {
          issue(VerifyIssueKind::BranchTargetBad, W,
                static_cast<uint32_t>(Target));
        }
      }
    }
  }

  /// Check 4: patched fault sites.
  void checkPatches() {
    for (const VerifierBlock &B : Input.Blocks) {
      for (const VerifierPatch &P : B.Patches) {
        HostInst I;
        if (!decodeHost(Code.word(P.Word), I)) {
          issue(VerifyIssueKind::PatchSiteBad, P.Word);
          continue;
        }
        if (P.Reverted) {
          // An adaptive revert restored the original trapping op.
          if (!accessesMemory(I.Op) || alignmentOf(I.Op) <= 1)
            issue(VerifyIssueKind::PatchSiteBad, P.Word);
          continue;
        }
        if (I.Op != HostOp::Br) {
          issue(VerifyIssueKind::PatchSiteBad, P.Word);
          continue;
        }
        uint32_t Target = P.Word + 1 + static_cast<uint32_t>(I.Disp);
        bool IntoOwnStub =
            std::any_of(B.Stubs.begin(), B.Stubs.end(),
                        [&](const VerifierRegion &S) {
                          return Target >= S.Begin && Target < S.End;
                        });
        if (!IntoOwnStub)
          issue(VerifyIssueKind::PatchSiteBad, P.Word, Target);
      }
    }
  }

  /// Check 5: exit sites are `Srv Exit` or a chain branch to a live
  /// translation entry.
  void checkExits() {
    for (const VerifierBlock &B : Input.Blocks) {
      for (uint32_t W : B.ExitWords) {
        if (Input.ExemptWords.count(W))
          continue;
        HostInst I;
        if (!decodeHost(Code.word(W), I)) {
          issue(VerifyIssueKind::ExitSiteBad, W);
          continue;
        }
        if (I.Op == HostOp::Srv &&
            I.Disp == static_cast<int32_t>(SrvFunc::Exit))
          continue;
        if (I.Op == HostOp::Br) {
          uint32_t Target = W + 1 + static_cast<uint32_t>(I.Disp);
          if (LiveEntries.count(Target))
            continue;
          issue(VerifyIssueKind::ExitSiteBad, W, Target);
          continue;
        }
        issue(VerifyIssueKind::ExitSiteBad, W);
      }
    }
  }

  /// Check 6: every MDA sequence in live code is complete and
  /// byte-exact.  A sequence start is unmistakable — `lda RegMdaT2`
  /// followed by `ldq_u` occurs nowhere else in translator output (the
  /// adaptive stub's alignment probe also begins `lda RegMdaT2` but is
  /// followed by `and`).
  void checkMdaSequences() {
    for (const VerifierRegion &R : LiveRegions) {
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
        // Skip past the sequence body so its own ldq_u/lda words are
        // not re-probed (harmless, but noisy under corruption).
        W += (Next.Ra == RegMdaT1 ? mdaStoreLength() : mdaLoadLength()) - 1;
        W = std::min(W, R.End - 1);
      }
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

  /// Check 7: inline-cache ways.  A disabled way must start with the
  /// guard branch that skips it; a filled way must be the byte-exact
  /// tag-compare shape for the engine's claimed (tag, target) pair, and
  /// the target must be a live translation entry.  The shape constants
  /// are re-derived here, independent of the engine's fill path.
  void checkIcWays() {
    for (const VerifierBlock &B : Input.Blocks) {
      for (const VerifierIcWay &W : B.IcWays) {
        if (Input.IcWayWords != 6) {
          // Unknown layout width: fail closed rather than mis-walk.
          issue(VerifyIssueKind::IcWayBad, W.Begin, Input.IcWayWords);
          continue;
        }
        if (!W.Filled) {
          HostInst G;
          if (!decodeHost(Code.word(W.Begin), G) || G.Op != HostOp::Br ||
              G.Ra != RegZero ||
              G.Disp != static_cast<int32_t>(Input.IcWayWords) - 1)
            issue(VerifyIssueKind::IcWayBad, W.Begin, Code.word(W.Begin));
          continue;
        }
        uint32_t FinalBr = W.Begin + Input.IcWayWords - 1;
        int32_t Lo = static_cast<int16_t>(W.TargetGuestPc & 0xffff);
        int32_t Hi = static_cast<int32_t>(W.TargetGuestPc -
                                          static_cast<uint32_t>(Lo)) >>
                     16;
        int64_t Disp = static_cast<int64_t>(W.TargetEntry) -
                       (static_cast<int64_t>(FinalBr) + 1);
        const uint32_t Expect[6] = {
            encodeHost(memInst(HostOp::Ldah, RegScratch1, Hi, RegZero)),
            encodeHost(
                memInst(HostOp::Lda, RegScratch1, Lo, RegScratch1)),
            encodeHost(
                opInst(HostOp::Zextl, RegZero, RegScratch1, RegScratch1)),
            encodeHost(
                opInst(HostOp::Cmpeq, RegExitPc, RegScratch1,
                       RegScratch2)),
            encodeHost(brInst(HostOp::Beq, RegScratch2, 1)),
            encodeHost(
                brInst(HostOp::Br, RegZero, static_cast<int32_t>(Disp))),
        };
        bool Ok = LiveEntries.count(W.TargetEntry) != 0;
        for (uint32_t K = 0; Ok && K != 6; ++K)
          if (Code.word(W.Begin + K) != Expect[K])
            Ok = false;
        if (!Ok)
          issue(VerifyIssueKind::IcWayBad, W.Begin, W.TargetEntry);
      }
    }
  }

  /// Check 8: guest-code coherence.  Every dirtied guest byte that
  /// falls inside a live translation's compiled ranges must be older
  /// than the translation itself (dirty epoch <= birth epoch) — a
  /// newer epoch means the engine's write barrier failed to invalidate
  /// a translation whose source bytes were rewritten.  The issue's
  /// word is the translation's entry; aux is the offending guest byte.
  void checkGuestCoherence() {
    if (!Input.GuestDirtyEpoch || Input.GuestDirtyEpoch->empty())
      return;
    for (const VerifierBlock &B : Input.Blocks) {
      if (B.GuestRanges.empty())
        continue;
      for (const auto &[Byte, Epoch] : *Input.GuestDirtyEpoch) {
        if (Epoch <= B.BornEpoch)
          continue;
        bool Inside = std::any_of(B.GuestRanges.begin(),
                                  B.GuestRanges.end(),
                                  [&](const VerifierRegion &R) {
                                    return Byte >= R.Begin &&
                                           Byte < R.End;
                                  });
        if (Inside) {
          issue(VerifyIssueKind::StaleGuestCode, B.EntryWord, Byte);
          break; // one offending byte per block is enough signal
        }
      }
    }
  }

  /// Check 9: fused-sequence integrity.  Every fused core must still be
  /// byte-exact against the words the translator emitted, except at
  /// words the engine legitimately rewrote afterwards (patched fault
  /// sites, adaptive reverts) or quarantined (ExemptWords).  The
  /// issue's word is the first diverging word; aux is its current raw
  /// value.
  void checkFusedSites() {
    for (const VerifierBlock &B : Input.Blocks) {
      for (const VerifierFusedSite &F : B.FusedSites) {
        ++Report.FusedSitesChecked;
        if (F.Begin > F.End || F.Begin < B.EntryWord ||
            F.End > B.EndWord ||
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
                          [&](const VerifierPatch &P) {
                            return P.Word == W;
                          });
          if (Patched)
            continue;
          if (Code.word(W) != F.Words[K]) {
            issue(VerifyIssueKind::FusedSiteBad, W, Code.word(W));
            break; // first diverging word per site is enough signal
          }
        }
      }
    }
  }

  /// Check 10: AOT reachability.  An AOT-installed translation's guest
  /// ranges must all lie inside the statically recovered reachable set
  /// — the pre-translator can only ever install code the CFG-recovery
  /// pass proved the guest can reach.  The issue's word is the
  /// translation's entry; aux is the first uncovered guest byte.
  void checkAotReachability() {
    if (!Input.ReachableRanges)
      return;
    const std::vector<VerifierRegion> &Set = *Input.ReachableRanges;
    auto Covered = [&](uint32_t Begin, uint32_t End, uint32_t &Bad) {
      // Ranges are sorted and disjoint: one range must cover the whole
      // [Begin, End) span (recovery merges adjacent blocks).
      for (const VerifierRegion &R : Set) {
        if (Begin >= R.Begin && End <= R.End)
          return true;
        if (R.Begin > Begin)
          break;
      }
      Bad = Begin;
      return false;
    };
    for (const VerifierBlock &B : Input.Blocks) {
      if (!B.AotInstalled)
        continue;
      for (const VerifierRegion &G : B.GuestRanges) {
        uint32_t Bad = 0;
        if (!Covered(G.Begin, G.End, Bad)) {
          issue(VerifyIssueKind::AotUnreachable, B.EntryWord, Bad);
          break; // one uncovered range per block is enough signal
        }
      }
    }
  }

  VerifyReport run() {
    checkPredecode();
    checkRegions();
    checkPatches();
    checkExits();
    checkMdaSequences();
    checkIcWays();
    checkGuestCoherence();
    checkFusedSites();
    checkAotReachability();
    return std::move(Report);
  }
};

} // namespace

VerifyReport verifyCodeSpace(const CodeSpace &Code,
                             const VerifierInput &Input) {
  Verifier V(Code, Input);
  return V.run();
}

} // namespace analysis
} // namespace mdabt
