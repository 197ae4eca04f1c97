//===- tests/verifier_incremental_test.cpp - Per-run verifier pass --------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the code-cache verifier's record proof and per-run pass
/// (analysis::verifyChanges over the CodeCache's journal).  The full
/// sweep (analysis::verifyCodeSpace) is the oracle: after every mutation
/// driven through dbt::CodeCache — install, stub patch, revert, chain,
/// inline-cache fill and eviction, retire, quarantine, flush, guest
/// stores, and corrupting or torn patches — the per-run pass must report
/// exactly the full sweep's issues, plus BodyWordChanged only at words
/// where a live body differs from its record.
///
//===----------------------------------------------------------------------===//

#include "analysis/HostVerifier.h"
#include "dbt/CodeCache.h"
#include "dbt/FusionRules.h"
#include "dbt/GuestBlock.h"
#include "dbt/Translator.h"
#include "guest/Assembler.h"
#include "host/CodeSpace.h"
#include "host/HostAssembler.h"
#include "host/HostEncoding.h"
#include "host/MdaSequences.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <tuple>
#include <unordered_map>
#include <vector>

using namespace mdabt;

namespace {

using Issue = std::tuple<analysis::VerifyIssueKind, uint32_t, uint32_t>;

constexpr unsigned NumBlocks = 5;

/// What a run of random mutations exercised, so a test can require that
/// it reached every path it means to.
struct Tally {
  unsigned Chains = 0, Patches = 0, Reverts = 0, Retires = 0, Flushes = 0;
  unsigned IcFills = 0, PatchFailures = 0;
  unsigned Issues = 0, BodyWordChanged = 0;
};

/// A code cache over a small guest program whose blocks exercise every
/// mutation point: memory sites (stubs, reverts), direct exits (chains),
/// indirect exits (inline caches), MDA sequences and fusion.
struct Harness {
  explicit Harness(bool Verified = true)
      : Cache(Code, Mem, obs::Tracer(), /*PatchFailureLimit=*/0,
              [this] { ++PatchAborts; }, Verified) {
    using namespace guest;
    ProgramBuilder B("verifier-incremental");
    ProgramBuilder::Label L1 = B.newLabel(), L3 = B.newLabel();
    Pc[0] = B.codeAddress();
    B.ldl(3, mem(4, 0));
    B.movrr(1, 3);
    B.add(1, 2);
    B.stl(mem(4, 8), 1);
    B.ldq(0, mem(4, 16));
    B.stq(mem(4, 24), 0);
    B.jmp(L1);
    Pc[1] = B.codeAddress();
    B.bind(L1);
    B.cmpi(1, 0);
    B.jcc(Cond::Eq, L3);
    Pc[2] = B.codeAddress();
    B.ldl(0, mem(5, 0));
    B.addi(0, 1);
    B.stl(mem(5, 0), 0);
    B.ldw(6, mem(5, 4));
    B.jmpr(2);
    Pc[3] = B.codeAddress();
    B.bind(L3);
    B.movri(1, 7);
    B.stw(mem(4, 2), 1);
    B.jmpr(2);
    Pc[4] = B.codeAddress();
    B.addi(1, 3);
    B.jmp(L1);
    End = B.codeAddress();
    Mem.loadImage(B.build());
    Mem.setWriteWatcher([](uint32_t, unsigned) {});
    // Every block but the last is statically reachable (check 10).
    Reachable.push_back({Pc[0], Pc[4]});
    Cache.setGuestInputs(&Dirty, &Reachable);
  }

  /// Translate and install block \p I, or the superblock of blocks \p I
  /// and 1, with memory plans drawn from \p Rng, born at store epoch
  /// \p Born; \p Aot marks it AOT-installed (check 10).
  dbt::Translation &install(unsigned I, std::mt19937 &Rng, bool Trace,
                            bool Fuse, uint64_t Born, bool Aot = false) {
    dbt::TranslationOpts Opts;
    Opts.IcWays = 2;
    Opts.FusionMask = Fuse ? dbt::FusionMaskAll : 0;
    unsigned Mode = Rng() % 4;
    uint32_t Salt = Rng();
    dbt::Translator::PlanFn Plan = [Mode, Salt](uint32_t Pc,
                                                const guest::GuestInst &) {
      static constexpr dbt::MemPlan Plans[] = {dbt::MemPlan::Normal,
                                               dbt::MemPlan::Inline,
                                               dbt::MemPlan::MultiVersion};
      return Mode < 3 ? Plans[Mode] : Plans[(Pc * 2654435761u ^ Salt) % 3];
    };
    dbt::Translation *T;
    if (Trace) {
      std::vector<dbt::GuestBlock> Blocks = {dbt::discoverBlock(Mem, Pc[I]),
                                             dbt::discoverBlock(Mem, Pc[1])};
      T = &Cache.add(Trans.translateTrace(Blocks, Plan, 1, Opts));
    } else {
      T = &Cache.add(
          Trans.translate(dbt::discoverBlock(Mem, Pc[I]), Plan, 0, Opts));
    }
    T->AotInstalled = Aot;
    Cache.install(*T, Born);
    Cache.map(*T);
    Live.push_back(T);
    return *T;
  }

  /// Redirect memory site \p Word of \p T to a fresh stub, the way the
  /// exception handler does.  False if nothing was patched.
  bool patchSite(dbt::Translation &T, uint32_t Word, bool Adaptive) {
    host::HostInst Inst;
    if (!host::decodeHost(Code.word(Word), Inst))
      return false;
    dbt::Translator::AdaptiveProbe Probe{0x1000, 0x1004, 4};
    std::optional<dbt::Translator::StubInfo> S =
        Trans.emitStub(Inst, Word, Adaptive ? &Probe : nullptr);
    if (!S)
      return false;
    std::optional<uint32_t> Br = host::branchTo(Word, S->Entry);
    if (!Br || !Cache.patchVerified(Word, *Br))
      return false;
    Cache.addStub(T, Word, S->Entry, S->End, Adaptive);
    return true;
  }

  /// A guest store to [Addr, Addr + Size) as the write barrier sees it;
  /// returns the live translations it rewrote.
  std::vector<dbt::Translation *> store(uint32_t Addr, uint32_t Size) {
    ++Epoch;
    for (uint32_t B = Addr; B != Addr + Size; ++B)
      Dirty[B] = Epoch;
    Cache.noteGuestStore(Addr, Size, Epoch);
    return Cache.overlapping(Addr, Size);
  }

  void retire(dbt::Translation &T) {
    Cache.retire(T);
    Live.erase(std::find(Live.begin(), Live.end(), &T));
  }

  void flush() {
    Cache.flush();
    Live.clear();
  }

  /// The word a live body's record holds at arena word \p W, if any.
  std::optional<uint32_t> pristine(uint32_t W) const {
    for (const analysis::VerifierBlock &B : Cache.verifierInput().Blocks)
      if (W >= B.EntryWord && W < B.EndWord)
        return B.Pristine[W - B.EntryWord];
    return std::nullopt;
  }

  /// Run the per-run pass and the full sweep over the same state and
  /// require the same issues, BodyWordChanged aside.  Returns whether the
  /// full sweep was clean.
  bool compare(const char *What) {
    analysis::VerifyReport Inc = Cache.verify(/*Full=*/false);
    analysis::VerifyReport Full =
        analysis::verifyCodeSpace(Code, Cache.verifierInput());
    std::vector<Issue> A, B;
    for (const analysis::VerifyIssue &I : Inc.Issues) {
      if (I.Kind != analysis::VerifyIssueKind::BodyWordChanged) {
        A.emplace_back(I.Kind, I.Word, I.Aux);
        continue;
      }
      std::optional<uint32_t> Rec = pristine(I.Word);
      EXPECT_TRUE(Rec) << What << ": body-word-changed outside a live body";
      if (Rec) {
        EXPECT_NE(Code.word(I.Word), *Rec) << What;
        EXPECT_EQ(I.Aux, *Rec) << What;
      }
    }
    for (const analysis::VerifyIssue &I : Full.Issues)
      B.emplace_back(I.Kind, I.Word, I.Aux);
    Done.Issues += !Full.ok();
    Done.BodyWordChanged += Inc.Issues.size() - A.size();
    std::sort(A.begin(), A.end());
    std::sort(B.begin(), B.end());
    EXPECT_EQ(A, B) << What;
    EXPECT_EQ(Inc.WordsChecked, Full.WordsChecked) << What;
    EXPECT_EQ(Inc.RegionsChecked, Full.RegionsChecked) << What;
    ++Compared;
    return Full.ok();
  }

  /// Bring the cache back to a state both passes call clean.
  void restore() {
    flush();
    EXPECT_TRUE(Cache.verify(/*Full=*/false).ok());
  }

  guest::GuestMemory Mem;
  host::CodeSpace Code;
  dbt::Translator Trans{Code};
  uint32_t PatchAborts = 0;
  dbt::CodeCache Cache;
  std::vector<dbt::Translation *> Live;
  std::unordered_map<uint32_t, uint64_t> Dirty;
  std::vector<analysis::VerifierRegion> Reachable;
  uint64_t Epoch = 0;
  uint32_t Pc[NumBlocks] = {};
  uint32_t End = 0;
  uint64_t Compared = 0;
  Tally Done;
};

/// A word to write over an arbitrary code word: garbage, or one of the
/// shapes the checks key on.
uint32_t corruptWord(std::mt19937 &Rng, uint32_t At, uint32_t Size) {
  using namespace host;
  switch (Rng() % 7) {
  case 0:
    return Rng();
  case 1:
    return encodeHost(brInst(HostOp::Br, RegZero,
                             static_cast<int32_t>(Rng() % (Size + 8)) -
                                 static_cast<int32_t>(At) - 1));
  case 2:
    return encodeHost(memInst(HostOp::Lda, RegMdaT2, 0, 4));
  case 3:
    return encodeHost(memInst(HostOp::LdqU, RegMdaT0, 0, RegMdaT2));
  case 4:
    return encodeHost(opInst(HostOp::Bis, RegZero, RegZero, RegZero));
  case 5:
    return encodeHost(srvInst(SrvFunc::Exit));
  default:
    return encodeHost(memInst(HostOp::Ldl, 3, 0, 4));
  }
}

/// One random mutation through the cache.  \p Corrupt allows the
/// mutations that break an invariant on purpose.
void mutate(Harness &H, std::mt19937 &Rng, bool Corrupt) {
  auto Pick = [&]() -> dbt::Translation * {
    return H.Live.empty() ? nullptr : H.Live[Rng() % H.Live.size()];
  };
  // Compare the passes; a state either finds broken is reset, since the
  // per-run pass assumes the previous pass was clean.
  auto Check = [&](const char *What) {
    if (!H.compare(What))
      H.restore();
  };
  // An arbitrary word may also be a branch the checks accept but no
  // cache index tracks (say, into a live neighbour).  The per-run pass
  // assumes every branch between regions is the cache's own — chains,
  // inline-cache ways, stub redirects and returns — so compare once and
  // reset.
  auto CheckOnce = [&](const char *What) {
    H.compare(What);
    H.restore();
  };
  switch (Rng() % (Corrupt ? 15 : 10)) {
  case 0:
  case 1: { // install a block or a superblock
    unsigned I = Rng() % NumBlocks;
    bool Trace = (I == 0 || I == 4) && Rng() % 3 == 0;
    uint64_t Born = H.Epoch;
    if (Corrupt && Born != 0 && Rng() % 4 == 0)
      --Born; // born before the newest store: check 8 at install
    // Block 4 lies outside the reachable set: only a corrupting run
    // installs it as AOT code.
    bool Aot = Rng() % 8 == 0 && (Corrupt || I != 4);
    H.install(I, Rng, Trace, Rng() % 2 == 0, Born, Aot);
    Check("install");
    return;
  }
  case 2: { // chain a direct exit to its live target
    dbt::Translation *T = Pick();
    if (!T)
      return;
    for (size_t I = 0; I != T->Rec->Exits.size(); ++I) {
      const dbt::TranslationRecord::RelExit &X = T->Rec->Exits[I];
      dbt::Translation *Target = H.Cache.lookup(X.TargetGuestPc);
      if (X.Direct && Target && H.Code.word(T->exitWord(I)) ==
                                    host::encodeHost(host::srvInst(
                                        host::SrvFunc::Exit))) {
        H.Done.Chains += H.Cache.chain(T->exitWord(I), *Target);
        break;
      }
    }
    Check("chain");
    return;
  }
  case 3: { // fill or refill an inline-cache way
    dbt::Translation *T = Pick();
    dbt::Translation *Target = Pick();
    if (!T || !Target || T->IcSites.empty())
      return;
    uint32_t Way = 0;
    H.Done.IcFills += H.Cache.fillIc(*T, Rng() % T->IcSites.size(), *Target,
                                     Way) == dbt::CodeCache::IcFill::Filled;
    Check("ic-fill");
    return;
  }
  case 4: { // patch a memory site to a stub
    dbt::Translation *T = Pick();
    if (!T || T->Rec->MemWordToGuestPc.empty())
      return;
    const auto &Sites = T->Rec->MemWordToGuestPc;
    uint32_t Word = T->EntryWord + Sites[Rng() % Sites.size()].first;
    if (!T->siteAt(Word))
      return;
    H.Done.Patches += H.patchSite(*T, Word, Rng() % 2 == 0);
    Check("patch");
    return;
  }
  case 5: { // revert an adaptive patch
    dbt::Translation *T = Pick();
    if (!T)
      return;
    for (const dbt::StubPatch &P : T->Patches) {
      if (P.Adaptive && !P.Reverted) {
        H.Done.Reverts += H.Cache.revert(*T, P.Word);
        break;
      }
    }
    Check("revert");
    return;
  }
  case 6:
  case 7: { // retire
    if (dbt::Translation *T = Pick()) {
      H.retire(*T);
      ++H.Done.Retires;
      Check("retire");
    }
    return;
  }
  case 8: { // a guest store; the barrier retires what it rewrote
    uint32_t Addr = H.Pc[0] + Rng() % (H.End - H.Pc[0]);
    uint32_t Size = 1 + Rng() % 4;
    for (dbt::Translation *T : H.store(Addr, Size))
      H.retire(*T);
    Check("store");
    return;
  }
  case 9: { // flush, now and then
    if (Rng() % 4 == 0) {
      H.flush();
      ++H.Done.Flushes;
      Check("flush");
    }
    return;
  }
  case 10: { // a store the barrier misses: stale guest code
    uint32_t Addr = H.Pc[0] + Rng() % (H.End - H.Pc[0]);
    H.store(Addr, 1 + Rng() % 4);
    Check("missed-store");
    return;
  }
  case 11: { // overwrite any arena word through the cache
    if (H.Code.size() == 0)
      return;
    uint32_t W = Rng() % H.Code.size();
    H.Cache.patchVerified(W, corruptWord(Rng, W, H.Code.size()));
    CheckOnce("patch-any");
    return;
  }
  case 12: { // chain an exit behind the cache's back
    // Nothing is wrong yet; once the target retires, nothing unlinks the
    // exit and both passes must report it.
    dbt::Translation *T = Pick();
    dbt::Translation *Target = Pick();
    if (!T || !Target || T->Rec->Exits.empty())
      return;
    uint32_t W = T->exitWord(Rng() % T->Rec->Exits.size());
    if (std::optional<uint32_t> Br = host::branchTo(W, Target->EntryWord))
      H.Code.patch(W, *Br);
    Check("untracked-chain");
    return;
  }
  case 13: { // a stub emitted corrupt
    dbt::Translation *T = Pick();
    if (!T || T->Rec->MemWordToGuestPc.empty())
      return;
    const auto &Sites = T->Rec->MemWordToGuestPc;
    uint32_t Word = T->EntryWord + Sites[Rng() % Sites.size()].first;
    if (!T->siteAt(Word) || !H.patchSite(*T, Word, Rng() % 2 == 0))
      return;
    const dbt::StubPatch &P = T->Patches.back();
    uint32_t W = P.StubEntry + Rng() % (P.StubEnd - P.StubEntry);
    H.Code.patch(W, corruptWord(Rng, W, H.Code.size()));
    CheckOnce("corrupt-stub");
    return;
  }
  default: { // poke any arena word behind the cache's back
    if (H.Code.size() == 0)
      return;
    uint32_t W = Rng() % H.Code.size();
    H.Code.patch(W, corruptWord(Rng, W, H.Code.size()));
    CheckOnce("poke");
    return;
  }
  }
}

} // namespace

/// Run 300 random mutations for each seed in [1, \p Seeds], with
/// corrupting mutations when \p Corrupt and torn or dropped patch writes
/// when \p Torn, and sum what they exercised.
Tally runSeeds(uint32_t Seeds, bool Corrupt, bool Torn) {
  Tally Sum;
  for (uint32_t Seed = 1; Seed <= Seeds; ++Seed) {
    SCOPED_TRACE(Seed);
    std::mt19937 Rng(Seed);
    Harness H;
    std::mt19937 Faults(Seed * 7919u);
    if (Torn)
      H.Cache.setPatchFault([&Faults](uint32_t, uint32_t &W) {
        switch (Faults() % 6) {
        case 0:
          return false; // dropped
        case 1:
          W ^= 1u << (Faults() % 32); // torn
          return true;
        default:
          return true;
        }
      });
    for (unsigned Step = 0; Step != 300; ++Step) {
      mutate(H, Rng, Corrupt);
      // A rollback that did not stick leaves a torn word behind.
      if (H.PatchAborts != 0) {
        H.compare("rollback-failed");
        H.restore();
        H.PatchAborts = 0;
      }
    }
    EXPECT_GT(H.Compared, 80u);
    Tally &T = H.Done;
    Sum.Chains += T.Chains;
    Sum.Patches += T.Patches;
    Sum.Reverts += T.Reverts;
    Sum.Retires += T.Retires;
    Sum.Flushes += T.Flushes;
    Sum.Issues += T.Issues;
    Sum.BodyWordChanged += T.BodyWordChanged;
    Sum.IcFills += T.IcFills;
    Sum.PatchFailures += H.Cache.stats().PatchFailures;
  }
  return Sum;
}

TEST(VerifierIncrementalTest, PerRunPassMatchesFullSweep) {
  Tally T = runSeeds(40, /*Corrupt=*/false, /*Torn=*/false);
  EXPECT_GT(T.Chains, 0u);
  EXPECT_GT(T.Patches, 0u);
  EXPECT_GT(T.Reverts, 0u);
  EXPECT_GT(T.IcFills, 0u);
  EXPECT_GT(T.Retires, 0u);
  EXPECT_GT(T.Flushes, 0u);
  // Nothing here breaks an invariant.
  EXPECT_EQ(T.Issues, 0u);
  EXPECT_EQ(T.BodyWordChanged, 0u);
}

TEST(VerifierIncrementalTest, PerRunPassMatchesFullSweepUnderCorruption) {
  Tally T = runSeeds(60, /*Corrupt=*/true, /*Torn=*/false);
  EXPECT_GT(T.Issues, 0u);
  EXPECT_GT(T.BodyWordChanged, 0u);
}

// Chaos-style torn and dropped patches: patchVerified repairs, rolls
// back or quarantines, and the two passes must still agree.
TEST(VerifierIncrementalTest, PerRunPassMatchesFullSweepUnderTornPatches) {
  Tally T = runSeeds(30, /*Corrupt=*/false, /*Torn=*/true);
  EXPECT_GT(T.PatchFailures, 0u);
  EXPECT_GT(T.Chains + T.Patches + T.IcFills, 0u);
}

// The BodyWordChanged mutant: one body word outside the record's
// mutation points, rewritten behind the cache's back.
TEST(VerifierIncrementalTest, PokedBodyWordIsBodyWordChanged) {
  std::mt19937 Rng(3);
  Harness H;
  dbt::Translation &T = H.install(0, Rng, false, false, 0);
  ASSERT_TRUE(H.Cache.verify(/*Full=*/false).ok());
  const analysis::RecordProof *P = T.Rec->Proof.peek();
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(P->Clean);
  uint32_t Off = 0;
  while (std::binary_search(P->Points.begin(), P->Points.end(), Off))
    ++Off;
  uint32_t W = T.EntryWord + Off;
  uint32_t Nop =
      host::encodeHost(host::opInst(host::HostOp::Bis, 31, 31, 31));
  ASSERT_NE(T.Rec->Words[Off], Nop);
  H.Code.patch(W, Nop);

  analysis::VerifyReport R = H.Cache.verify(/*Full=*/false);
  ASSERT_EQ(R.Issues.size(), 1u);
  EXPECT_EQ(R.Issues[0].Kind, analysis::VerifyIssueKind::BodyWordChanged);
  EXPECT_EQ(R.Issues[0].Word, W);
  EXPECT_EQ(R.Issues[0].Aux, T.Rec->Words[Off]);
  // A nop is structurally fine: the full sweep has nothing to say.
  EXPECT_TRUE(analysis::verifyCodeSpace(H.Code, H.Cache.verifierInput())
                  .ok());
}

// A stub is checked when it is emitted: a branch out of the arena in a
// fresh stub is reported by both passes.
TEST(VerifierIncrementalTest, StubIsCheckedWhenEmitted) {
  std::mt19937 Rng(11);
  Harness H;
  dbt::Translation *Tp = &H.install(0, Rng, false, false, 0);
  while (Tp->Rec->MemWordToGuestPc.empty()) { // an all-inline memory plan
    H.retire(*Tp);
    Tp = &H.install(0, Rng, false, false, 0);
  }
  dbt::Translation &T = *Tp;
  ASSERT_TRUE(H.Cache.verify(/*Full=*/false).ok());
  ASSERT_TRUE(
      H.patchSite(T, T.EntryWord + T.Rec->MemWordToGuestPc[0].first, false));
  uint32_t W = T.Patches.back().StubEntry;
  H.Code.patch(W, host::encodeHost(host::brInst(host::HostOp::Br,
                                                host::RegZero, 1 << 16)));
  EXPECT_FALSE(H.compare("corrupt-stub"));
}

// An exit chained behind the cache's back is not unlinked when its
// target retires; the per-run pass rechecks every exit that still
// targets a retired entry, though the exit's word did not change.
TEST(VerifierIncrementalTest, ExitIntoRetiredEntryIsRechecked) {
  std::mt19937 Rng(13);
  Harness H;
  dbt::Translation &A = H.install(0, Rng, false, false, 0);
  dbt::Translation &B = H.install(1, Rng, false, false, 0);
  ASSERT_FALSE(A.Rec->Exits.empty());
  uint32_t W = A.exitWord(0);
  std::optional<uint32_t> Br = host::branchTo(W, B.EntryWord);
  ASSERT_TRUE(Br);
  H.Code.patch(W, *Br);
  ASSERT_TRUE(H.compare("untracked-chain"));
  H.retire(B);
  analysis::VerifyReport Sweep =
      analysis::verifyCodeSpace(H.Code, H.Cache.verifierInput());
  EXPECT_TRUE(std::any_of(Sweep.Issues.begin(), Sweep.Issues.end(),
                          [&](const analysis::VerifyIssue &I) {
                            return I.Kind ==
                                       analysis::VerifyIssueKind::ExitSiteBad &&
                                   I.Word == W;
                          }));
  EXPECT_FALSE(H.compare("retire"));
}

// A poke into a retired body bypasses the cache and every live region:
// only check 1 sees such a word, and the end-of-run full sweep runs it
// over the whole arena.  (The per-run pass finds it too, since it
// compares the whole arena with what the last pass vouched for.)
TEST(VerifierIncrementalTest, DeadRegionPokeIsCaughtBySweep) {
  std::mt19937 Rng(5);
  Harness H;
  dbt::Translation &T = H.install(1, Rng, false, false, 0);
  H.install(2, Rng, false, false, 0);
  uint32_t W = T.EntryWord;
  H.retire(T);
  ASSERT_TRUE(H.Cache.verify(/*Full=*/false).ok());
  // A canonical word with a stray bit in an operate's unused field
  // decodes, but does not round-trip through the encoder.
  uint32_t Raw =
      host::encodeHost(host::opInst(host::HostOp::Addq, 1, 2, 3)) | (1u << 13);
  host::HostInst I;
  ASSERT_TRUE(host::decodeHost(Raw, I));
  ASSERT_NE(host::encodeHost(I), Raw);
  H.Code.patch(W, Raw);

  analysis::VerifyReport Sweep =
      analysis::verifyCodeSpace(H.Code, H.Cache.verifierInput());
  ASSERT_EQ(Sweep.Issues.size(), 1u);
  EXPECT_EQ(Sweep.Issues[0].Kind,
            analysis::VerifyIssueKind::PredecodeMismatch);
  EXPECT_EQ(Sweep.Issues[0].Word, W);
  EXPECT_FALSE(H.compare("dead-poke"));
}

// A cache without verification never proves a record; with it, the
// first pass proves each record once and every copy shares the proof.
TEST(VerifierIncrementalTest, RecordsAreProvedOnceAndOnlyWhenVerifying) {
  std::mt19937 Rng(7);
  {
    Harness Off(/*Verified=*/false);
    dbt::Translation &T = Off.install(0, Rng, false, true, 0);
    Off.patchSite(T, T.EntryWord + T.Rec->MemWordToGuestPc[0].first, true);
    EXPECT_EQ(T.Rec->Proof.peek(), nullptr);
  }
  Harness H;
  dbt::Translation &A = H.install(2, Rng, false, true, 0);
  EXPECT_EQ(A.Rec->Proof.peek(), nullptr); // lazily, at the first pass
  ASSERT_TRUE(H.Cache.verify(/*Full=*/false).ok());
  const analysis::RecordProof *P = A.Rec->Proof.peek();
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(P->Clean);
  EXPECT_TRUE(P->PointsClear);
  H.retire(A);
  dbt::Translation &B = H.Cache.instantiate(A.Rec, 1);
  H.Cache.install(B, 0);
  ASSERT_TRUE(H.Cache.verify(/*Full=*/false).ok());
  EXPECT_EQ(B.Rec->Proof.peek(), P);
}

// The record proof rejects a branch that leaves the body, even into code
// that happens to be live in some arena: the per-run pass then rechecks
// that body in full every pass.
TEST(VerifierIncrementalTest, RecordProofRequiresBranchesInsideTheBody) {
  using namespace host;
  std::vector<uint32_t> Words = {
      encodeHost(opInst(HostOp::Bis, RegZero, RegZero, RegZero)),
      encodeHost(brInst(HostOp::Br, RegZero, -1)),
      encodeHost(srvInst(SrvFunc::Exit)),
  };
  EXPECT_TRUE(analysis::proveRecord(Words, {2}, {}).Clean);
  Words[1] = encodeHost(brInst(HostOp::Br, RegZero, 5));
  EXPECT_FALSE(analysis::proveRecord(Words, {2}, {}).Clean);
  // A mutation point inside an MDA sequence clears PointsClear.
  std::vector<uint32_t> Seq;
  {
    CodeSpace C;
    HostAssembler Asm(C);
    emitMdaLoad(Asm, 4, 3, 4, 0);
    Asm.finish();
    for (uint32_t K = 0; K != C.size(); ++K)
      Seq.push_back(C.word(K));
  }
  Seq.push_back(encodeHost(srvInst(SrvFunc::Exit)));
  uint32_t Exit = static_cast<uint32_t>(Seq.size() - 1);
  analysis::RecordProof P = analysis::proveRecord(Seq, {Exit}, {});
  EXPECT_TRUE(P.Clean);
  EXPECT_TRUE(P.PointsClear);
  EXPECT_FALSE(analysis::proveRecord(Seq, {Exit, 1}, {}).PointsClear);
}
