//===- tests/fusion_test.cpp - Table-driven fusion layer tests ------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The peephole fusion layer (dbt/FusionRules.h): rule-table and matcher
/// unit tests over hand-built blocks, emission-density checks against
/// the unfused translator, a random-program property test (every
/// enabled-rule subset is architecturally invisible), and shared-cache
/// integration (mask in the content key, fused metadata surviving a disk
/// round trip).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "RandomProgram.h"

#include "dbt/FusionRules.h"
#include "dbt/GuestBlock.h"
#include "dbt/TranslationService.h"
#include "dbt/Translator.h"
#include "mda/PolicyFactory.h"
#include "workloads/Kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

using namespace mdabt;
using namespace mdabt::dbt;
using namespace mdabt::testutil;

namespace {

GuestBlock entryBlock(const guest::GuestImage &Image) {
  guest::GuestMemory Mem;
  Mem.loadImage(Image);
  return discoverBlock(Mem, Image.Entry);
}

/// Match with every rule enabled (or \p Mask) and all plans \p Plan.
bool matchAt(const GuestBlock &B, size_t Idx, FusionMatch &M,
             uint32_t Mask = FusionMaskAll,
             MemPlan Plan = MemPlan::Normal) {
  FusionMatcher Matcher(Mask);
  return Matcher.match(B, Idx, B.size(),
                       [Plan](size_t) { return Plan; }, M);
}

mda::PolicySpec ehSpec() {
  mda::PolicySpec S;
  S.Kind = mda::MechanismKind::ExceptionHandling;
  return S;
}

mda::PolicySpec dpehSpec() {
  mda::PolicySpec S;
  S.Kind = mda::MechanismKind::Dpeh;
  S.RetranslateThreshold = 4;
  S.MultiVersion = true;
  return S;
}

/// Verify on (fused-site byte-exactness is re-checked after every cache
/// mutation) plus the full dispatch surface, so fusion composes with
/// hash dispatch, inline caches and superblock formation.
dbt::EngineConfig fusionConfig(uint32_t Mask) {
  dbt::EngineConfig C;
  C.Verify = true;
  C.HashDispatch = true;
  C.InlineCaches = true;
  C.Superblocks = true;
  C.Fusion = Mask != 0;
  C.FusionMask = Mask;
  return C;
}

dbt::RunResult runWith(const guest::GuestImage &Image,
                       const mda::PolicySpec &Spec,
                       const dbt::EngineConfig &Config) {
  std::unique_ptr<dbt::MdaPolicy> Policy = mda::makePolicy(Spec, &Image);
  dbt::Engine Engine(Image, *Policy, Config);
  return Engine.run();
}

void expectSameArchState(const dbt::RunResult &A, const dbt::RunResult &B,
                         const char *What) {
  EXPECT_TRUE(A.completed()) << What;
  EXPECT_TRUE(B.completed()) << What;
  EXPECT_EQ(A.Checksum, B.Checksum) << What << ": checksum";
  EXPECT_EQ(A.MemoryHash, B.MemoryHash) << What << ": memory";
  for (unsigned I = 0; I != guest::NumGPR; ++I)
    EXPECT_EQ(A.FinalCpu.Gpr[I], B.FinalCpu.Gpr[I])
        << What << ": GPR " << I;
  for (unsigned I = 0; I != guest::NumQReg; ++I)
    EXPECT_EQ(A.FinalCpu.Qreg[I], B.FinalCpu.Qreg[I])
        << What << ": Q" << I;
}

} // namespace

// -- rule table --------------------------------------------------------------

TEST(FusionRuleTableTest, TableIsWellFormed) {
  const FusionRule *Table = fusionRuleTable();
  for (unsigned I = 0; I != NumFusionRules; ++I) {
    const FusionRule &R = Table[I];
    EXPECT_EQ(static_cast<unsigned>(R.Id), I) << "table out of id order";
    EXPECT_NE(R.Name, nullptr);
    EXPECT_STREQ(fusionRuleName(R.Id), R.Name);
    EXPECT_GE(R.Len, 1u);
    EXPECT_LE(R.Len, 3u);
    EXPECT_GE(R.MaxLen, R.Len);
    EXPECT_NE(R.Constraint, nullptr);
    EXPECT_GT(R.CostDelta, 0u);
    unsigned Slots = R.Repeating ? 1 : R.Len;
    for (unsigned S = 0; S != Slots; ++S)
      EXPECT_GT(R.Slots[S].NumOps, 0u)
          << R.Name << " slot " << S << " empty";
  }
  EXPECT_EQ(FusionMaskAll, (1u << NumFusionRules) - 1);
}

TEST(FusionRuleTableTest, MaskGatesEveryRule) {
  using namespace guest;
  ProgramBuilder B("movop");
  B.movri(5, 7);
  B.movri(6, 9);
  B.movrr(3, 5);
  B.add(3, 6);
  B.halt();
  GuestBlock Blk = entryBlock(B.build());
  FusionMatch M;
  EXPECT_TRUE(matchAt(Blk, 2, M));
  EXPECT_TRUE(matchAt(Blk, 2, M, fusionRuleBit(FusionRuleId::MovOp)));
  EXPECT_FALSE(matchAt(Blk, 2, M, fusionRuleBit(FusionRuleId::MovOpI)));
  EXPECT_FALSE(matchAt(Blk, 2, M, 0));
  EXPECT_FALSE(FusionMatcher(0).enabled());
  EXPECT_EQ(FusionMatcher(~0u).mask(), FusionMaskAll);
}

// -- matcher -----------------------------------------------------------------

TEST(FusionMatcherTest, MovOpMatchesAndRejectsSelfSource) {
  using namespace guest;
  ProgramBuilder B("movop");
  B.movri(5, 7);
  B.movrr(3, 5); // 1
  B.add(3, 5);   // 2: fusable, source 5 != dest 3
  B.movrr(3, 5); // 3
  B.add(3, 3);   // 4: source == dest -> baseline reads post-mov value
  B.halt();
  GuestBlock Blk = entryBlock(B.build());
  FusionMatch M;
  ASSERT_TRUE(matchAt(Blk, 1, M));
  EXPECT_EQ(M.Rule, FusionRuleId::MovOp);
  EXPECT_EQ(M.Length, 2u);
  EXPECT_EQ(M.SavedWords, 1u);
  EXPECT_FALSE(matchAt(Blk, 3, M));
}

TEST(FusionMatcherTest, MovOpImmNeedsLiteralRange) {
  using namespace guest;
  ProgramBuilder B("movopi");
  B.movrr(5, 3);
  B.addi(5, 7); // literal form
  B.movrr(5, 3);
  B.addi(5, 300); // exceeds the 8-bit literal
  B.halt();
  GuestBlock Blk = entryBlock(B.build());
  FusionMatch M;
  ASSERT_TRUE(matchAt(Blk, 0, M));
  EXPECT_EQ(M.Rule, FusionRuleId::MovOpI);
  EXPECT_EQ(M.Length, 2u);
  EXPECT_FALSE(matchAt(Blk, 2, M));
}

TEST(FusionMatcherTest, CmpBr0OnlyForEqualityAgainstZero) {
  using namespace guest;
  auto blockEnding = [](int32_t Imm, Cond C) {
    ProgramBuilder B("cmpbr");
    ProgramBuilder::Label Top = B.here();
    B.addi(6, 1);
    B.cmpi(6, Imm);
    B.jcc(C, Top);
    B.halt();
    return entryBlock(B.build());
  };
  FusionMatch M;
  GuestBlock Ne0 = blockEnding(0, Cond::Ne);
  ASSERT_TRUE(matchAt(Ne0, 1, M));
  EXPECT_EQ(M.Rule, FusionRuleId::CmpBr0);
  EXPECT_EQ(M.Length, 2u);
  GuestBlock Eq0 = blockEnding(0, Cond::Eq);
  EXPECT_TRUE(matchAt(Eq0, 1, M));
  // Orderings test the sign the zero-extended register cannot carry.
  GuestBlock Lt0 = blockEnding(0, Cond::Lt);
  EXPECT_FALSE(matchAt(Lt0, 1, M));
  GuestBlock Gt0 = blockEnding(0, Cond::Gt);
  EXPECT_FALSE(matchAt(Gt0, 1, M));
  // Non-zero immediates keep the full compare.
  GuestBlock Ne1 = blockEnding(1, Cond::Ne);
  EXPECT_FALSE(matchAt(Ne1, 1, M));
}

TEST(FusionMatcherTest, ImmNegSavesTheMaterialization) {
  using namespace guest;
  ProgramBuilder B("immneg");
  B.addi(3, -5);   // 0: fusable
  B.subi(3, -255); // 1: fusable (becomes addi 255)
  B.addi(3, 5);    // 2: already literal, nothing to save
  B.addi(3, -256); // 3: outside the literal range
  B.halt();
  GuestBlock Blk = entryBlock(B.build());
  FusionMatch M;
  ASSERT_TRUE(matchAt(Blk, 0, M));
  EXPECT_EQ(M.Rule, FusionRuleId::ImmNeg);
  EXPECT_EQ(M.Length, 1u);
  EXPECT_EQ(M.SavedWords, 3u); // ldah + lda + zextl dropped
  EXPECT_TRUE(matchAt(Blk, 1, M));
  EXPECT_FALSE(matchAt(Blk, 2, M));
  EXPECT_FALSE(matchAt(Blk, 3, M));
}

TEST(FusionMatcherTest, LdOpStNeedsSameSiteAndNontrivialAddress) {
  using namespace guest;
  ProgramBuilder B("ldopst");
  uint32_t Buf = B.dataReserve(256, 8);
  B.movri(1, static_cast<int32_t>(Buf));
  B.movri(2, 4);
  B.ldl(3, memIdx(1, 2, 2, 8)); // 2
  B.xori(3, 0x33);              // 3
  B.stl(memIdx(1, 2, 2, 8), 3); // 4: full read-modify-write
  B.ldl(3, mem(1, 4));          // 5: trivial address
  B.xori(3, 0x33);              // 6
  B.stl(mem(1, 4), 3);          // 7
  B.ldl(3, memIdx(1, 2, 2, 8)); // 8: store disp differs
  B.xori(3, 0x33);              // 9
  B.stl(memIdx(1, 2, 2, 12), 3); // 10
  B.ldl(3, memIdx(1, 2, 2, 8)); // 11: middle writes another register
  B.xori(5, 0x33);              // 12
  B.stl(memIdx(1, 2, 2, 8), 3); // 13
  B.ldw(3, memIdx(1, 2, 2, 8)); // 14: size mismatch
  B.xori(3, 0x33);              // 15
  B.stl(memIdx(1, 2, 2, 8), 3); // 16
  B.halt();
  GuestBlock Blk = entryBlock(B.build());
  FusionMatch M;
  ASSERT_TRUE(matchAt(Blk, 2, M));
  EXPECT_EQ(M.Rule, FusionRuleId::LdOpSt);
  EXPECT_EQ(M.Length, 3u);
  EXPECT_EQ(M.SavedWords, 2u); // one sll+addl address setup dropped
  EXPECT_FALSE(matchAt(Blk, 5, M));
  EXPECT_FALSE(matchAt(Blk, 8, M));
  EXPECT_FALSE(matchAt(Blk, 11, M));
  EXPECT_FALSE(matchAt(Blk, 14, M));
}

TEST(FusionMatcherTest, LdOpStDataRegMustNotAliasAddressRegs) {
  using namespace guest;
  ProgramBuilder B("ldopst-alias");
  uint32_t Buf = B.dataReserve(256, 8);
  B.movri(1, static_cast<int32_t>(Buf));
  B.movri(2, 4);
  B.ldl(2, memIdx(1, 2, 2, 8)); // 2: data == index
  B.xori(2, 0x33);
  B.stl(memIdx(1, 2, 2, 8), 2);
  B.halt();
  GuestBlock Blk = entryBlock(B.build());
  FusionMatch M;
  EXPECT_FALSE(matchAt(Blk, 2, M));
}

TEST(FusionMatcherTest, SharedAddrGrowsGreedilyAndStopsAtRunBreaks) {
  using namespace guest;
  ProgramBuilder B("sharedaddr");
  uint32_t Buf = B.dataReserve(1024, 8);
  B.movri(1, static_cast<int32_t>(Buf));
  B.movri(2, 0);
  B.ldl(3, memIdx(1, 2, 2, 0));  // 2
  B.ldl(5, memIdx(1, 2, 2, 4));  // 3
  B.stl(memIdx(1, 2, 2, 8), 3);  // 4
  B.ldl(6, memIdx(1, 2, 2, 12)); // 5
  B.ldl(7, mem(1, 16));          // 6: no index -> run ends
  B.halt();
  GuestBlock Blk = entryBlock(B.build());
  FusionMatch M;
  ASSERT_TRUE(matchAt(Blk, 2, M));
  EXPECT_EQ(M.Rule, FusionRuleId::SharedAddr);
  EXPECT_EQ(M.Length, 4u);
  EXPECT_EQ(M.SavedWords, 6u); // (4 - 1) * (sll + addl)
  // A tail of the run still matches on its own.
  ASSERT_TRUE(matchAt(Blk, 4, M));
  EXPECT_EQ(M.Length, 2u);
  // A single indexed op does not.
  EXPECT_FALSE(matchAt(Blk, 5, M) && M.Rule == FusionRuleId::SharedAddr);
}

TEST(FusionMatcherTest, SharedAddrStopsWhenALoadClobbersTheAddress) {
  using namespace guest;
  ProgramBuilder B("sharedaddr-clobber");
  uint32_t Buf = B.dataReserve(1024, 8);
  B.movri(1, static_cast<int32_t>(Buf));
  B.movri(2, 0);
  B.ldl(3, memIdx(1, 2, 2, 0)); // 2
  B.ldl(2, memIdx(1, 2, 2, 4)); // 3: writes the index register
  B.ldl(5, memIdx(1, 2, 2, 8)); // 4: must NOT share the stale address
  B.halt();
  GuestBlock Blk = entryBlock(B.build());
  FusionMatch M;
  ASSERT_TRUE(matchAt(Blk, 2, M));
  EXPECT_EQ(M.Rule, FusionRuleId::SharedAddr);
  // The index-clobbering load may be the *last* member (the shared
  // address was computed before it), but nothing after it can join.
  EXPECT_EQ(M.Length, 2u);
}

TEST(FusionMatcherTest, MemoryRulesRespectThePlan) {
  using namespace guest;
  ProgramBuilder B("plan-gate");
  uint32_t Buf = B.dataReserve(256, 8);
  B.movri(1, static_cast<int32_t>(Buf));
  B.movri(2, 4);
  B.ldl(3, memIdx(1, 2, 2, 8));
  B.xori(3, 0x33);
  B.stl(memIdx(1, 2, 2, 8), 3);
  B.halt();
  GuestBlock Blk = entryBlock(B.build());
  FusionMatch M;
  EXPECT_TRUE(matchAt(Blk, 2, M, FusionMaskAll, MemPlan::Normal));
  EXPECT_TRUE(matchAt(Blk, 2, M, FusionMaskAll, MemPlan::Elide));
  // Inline MDA sequences and multi-version sites must not be disturbed.
  EXPECT_FALSE(matchAt(Blk, 2, M, FusionMaskAll, MemPlan::Inline));
  EXPECT_FALSE(matchAt(Blk, 2, M, FusionMaskAll, MemPlan::MultiVersion));
}

// -- emission ----------------------------------------------------------------

TEST(FusionEmitTest, FusedBlockIsDenserByExactlyTheSavedWords) {
  using namespace guest;
  ProgramBuilder B("dense");
  uint32_t Buf = B.dataReserve(1024, 8);
  B.movri(1, static_cast<int32_t>(Buf));
  B.movri(2, 4);
  B.movri(5, 9);
  B.movrr(3, 5);
  B.add(3, 2);   // MovOp
  B.movrr(6, 3);
  B.addi(6, 7);  // MovOpI
  B.addi(6, -5); // ImmNeg
  B.ldl(3, memIdx(1, 2, 2, 8));
  B.xori(3, 0x33);
  B.stl(memIdx(1, 2, 2, 8), 3); // LdOpSt
  B.ldl(3, memIdx(1, 2, 2, 0));
  B.stl(memIdx(1, 2, 2, 16), 3); // SharedAddr run of 2
  B.halt();
  guest::GuestImage Image = B.build();
  GuestBlock Blk = entryBlock(Image);

  auto Plan = [](uint32_t, const guest::GuestInst &) {
    return MemPlan::Normal;
  };
  host::CodeSpace OffCode, OnCode;
  Translator Off(OffCode), On(OnCode);
  TranslationOpts OffOpts, OnOpts;
  OnOpts.FusionMask = FusionMaskAll;
  Translation TOff = Off.translate(Blk, Plan, 0, OffOpts);
  Translation TOn = On.translate(Blk, Plan, 0, OnOpts);

  EXPECT_TRUE(TOff.Rec->FusedSites.empty());
  ASSERT_EQ(TOn.Rec->FusedSites.size(), 5u);
  uint32_t Saved = 0;
  TOn.forEachFusedCore([&](const TranslationRecord::RelFusedSite &F,
                           uint32_t Begin, uint32_t End,
                           std::span<const uint32_t> Words) {
    EXPECT_LT(F.Rule, NumFusionRules);
    EXPECT_LT(Begin, End);
    EXPECT_GE(Begin, TOn.EntryWord);
    EXPECT_LE(End, TOn.EndWord);
    ASSERT_EQ(Words.size(), End - Begin);
    for (uint32_t K = 0; K != Words.size(); ++K)
      EXPECT_EQ(Words[K], OnCode.word(Begin + K))
          << "recorded core diverges at word " << K;
    Saved += F.SavedWords;
  });
  EXPECT_GT(Saved, 0u);
  EXPECT_EQ((TOff.EndWord - TOff.EntryWord) -
                (TOn.EndWord - TOn.EntryWord),
            Saved)
      << "cost-delta accounting disagrees with the actual emission";
  // Fused memory sites keep their fault-attribution and episode-stop
  // metadata: same guest PCs as the unfused rendering.
  std::vector<uint32_t> OffPcs, OnPcs;
  TOff.forEachSite([&](uint32_t Pc) { OffPcs.push_back(Pc); });
  TOn.forEachSite([&](uint32_t Pc) { OnPcs.push_back(Pc); });
  std::sort(OffPcs.begin(), OffPcs.end());
  std::sort(OnPcs.begin(), OnPcs.end());
  EXPECT_EQ(OffPcs, OnPcs);
  EXPECT_FALSE(TOn.Rec->StoreResume.empty());
}

// -- architectural invisibility ----------------------------------------------

TEST(FusionPropertyTest, EveryRuleSubsetIsArchitecturallyInvisible) {
  const uint32_t Masks[] = {
      fusionRuleBit(FusionRuleId::MovOp),
      fusionRuleBit(FusionRuleId::MovOpI),
      fusionRuleBit(FusionRuleId::CmpBr0),
      fusionRuleBit(FusionRuleId::ImmNeg),
      fusionRuleBit(FusionRuleId::LdOpSt),
      fusionRuleBit(FusionRuleId::SharedAddr),
      0x15u, // alternating subset
      0x2au, // complement subset
      FusionMaskAll,
  };
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    guest::GuestImage Image = RandomProgram(Seed).build();
    Oracle O = interpretOracle(Image);
    dbt::RunResult Base = runWith(Image, ehSpec(), fusionConfig(0));
    expectMatchesOracle(Base, O, "fusion-off baseline");
    for (uint32_t Mask : Masks) {
      dbt::RunResult R = runWith(Image, ehSpec(), fusionConfig(Mask));
      expectMatchesOracle(R, O, "fusion run vs oracle");
      expectSameArchState(R, Base, "fusion run vs fusion-off");
    }
    // The retranslating multi-version mechanism exercises the
    // plan-gating paths (Inline / MultiVersion sites refuse to fuse).
    dbt::RunResult Mv =
        runWith(Image, dpehSpec(), fusionConfig(FusionMaskAll));
    expectMatchesOracle(Mv, O, "fusion + dpeh/mv");
  }
}

TEST(FusionKernelTest, FusionDenseKernelsFuseAndStayExact) {
  struct Row {
    const char *Name;
    guest::GuestImage Image;
  };
  const Row Rows[] = {
      {"memcpy", workloads::buildFusionMemcpyKernel(64, 40)},
      {"memset", workloads::buildFusionMemsetKernel(64, 40)},
  };
  for (const Row &R : Rows) {
    Oracle O = interpretOracle(R.Image);
    dbt::RunResult Off = runWith(R.Image, ehSpec(), fusionConfig(0));
    dbt::RunResult On =
        runWith(R.Image, ehSpec(), fusionConfig(FusionMaskAll));
    expectMatchesOracle(Off, O, R.Name);
    expectMatchesOracle(On, O, R.Name);
    expectSameArchState(On, Off, R.Name);
    EXPECT_GT(On.Counters.get("fusion.sites"), 0u) << R.Name;
    EXPECT_GT(On.Counters.get("fusion.saved_words"), 0u) << R.Name;
    EXPECT_GT(On.Counters.get("fusion.blocks"), 0u) << R.Name;
    EXPECT_EQ(Off.Counters.get("fusion.sites"), 0u) << R.Name;
  }
}

// -- serving integration -----------------------------------------------------

namespace {

dbt::EngineConfig servingFusionConfig(dbt::TranslationService *Service,
                                      uint32_t Mask) {
  dbt::EngineConfig C = fusionConfig(Mask);
  C.Service = Service;
  return C;
}

} // namespace

TEST(FusionServingTest, RuleMaskIsPartOfTheContentKey) {
  guest::GuestImage Image = workloads::buildFusionMemcpyKernel(64, 40);
  dbt::TranslationService Service;
  dbt::RunResult On =
      runWith(Image, ehSpec(),
              servingFusionConfig(&Service, FusionMaskAll));
  EXPECT_EQ(On.Counters.get("cache.hits"), 0u);
  uint64_t AfterOn = Service.entries();
  ASSERT_GT(AfterOn, 0u);
  // A fusion-off tenant must never be served differently-fused words.
  dbt::RunResult Off =
      runWith(Image, ehSpec(), servingFusionConfig(&Service, 0));
  EXPECT_EQ(Off.Counters.get("cache.hits"), 0u)
      << "fusion-off run aliased a fused cache entry";
  EXPECT_GT(Service.entries(), AfterOn);
  // Same mask again: full hits.
  dbt::RunResult On2 =
      runWith(Image, ehSpec(),
              servingFusionConfig(&Service, FusionMaskAll));
  EXPECT_GT(On2.Counters.get("cache.hits"), 0u);
  EXPECT_EQ(On2.Counters.get("cache.misses"), 0u);
  expectSameArchState(On2, On, "warm fused serving");
}

TEST(FusionServingTest, FusedTranslationsRoundTripThroughDisk) {
  const char *Path = "fusion_test_cache.bin";
  guest::GuestImage Image = workloads::buildFusionMemcpyKernel(64, 40);
  Oracle O = interpretOracle(Image);

  dbt::TranslationService Producer;
  dbt::RunResult Cold =
      runWith(Image, ehSpec(),
              servingFusionConfig(&Producer, FusionMaskAll));
  expectMatchesOracle(Cold, O, "cold fused serving");
  ASSERT_GT(Cold.Counters.get("fusion.sites"), 0u);
  std::string Err;
  ASSERT_TRUE(Producer.save(Path, &Err)) << Err;

  dbt::TranslationService Consumer;
  ASSERT_TRUE(Consumer.load(Path, nullptr, &Err)) << Err;
  dbt::RunResult Warm =
      runWith(Image, ehSpec(),
              servingFusionConfig(&Consumer, FusionMaskAll));
  expectMatchesOracle(Warm, O, "disk-warmed fused serving");
  // The whole point: no retranslation, and the fused metadata (sites,
  // reference words for the verifier, per-site fault attribution) was
  // reconstructed from the artifact — with Verify on, a lost fused
  // site would abort the run.
  EXPECT_EQ(Warm.Counters.get("cache.misses"), 0u);
  EXPECT_GT(Warm.Counters.get("cache.hits"), 0u);
  EXPECT_EQ(Warm.Counters.get("fusion.sites"),
            Cold.Counters.get("fusion.sites"));
  EXPECT_EQ(Warm.Counters.get("fusion.saved_words"),
            Cold.Counters.get("fusion.saved_words"));
  std::remove(Path);
}
