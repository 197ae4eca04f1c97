//===- tests/dispatch_test.cpp - Hot-dispatch mechanism tests -------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hot-dispatch mechanisms behind EngineConfig::HashDispatch,
/// InlineCaches and Superblocks: HashDispatch as a pure pricing switch
/// over the monitor's block-map lookup, inline-cache fill/hit/eviction
/// across retranslation, superblock formation and de-optimization, and
/// the architectural-transparency guarantee (every combination
/// reproduces the interpreter oracle and replays bit-identically)
/// including under code-cache flush storms.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "mda/PolicyFactory.h"
#include "workloads/Hostile.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace mdabt;
using namespace mdabt::testutil;

namespace {

dbt::RunResult runDispatch(const guest::GuestImage &Image,
                           const mda::PolicySpec &Spec,
                           dbt::EngineConfig Config) {
  std::unique_ptr<dbt::MdaPolicy> Policy = mda::makePolicy(Spec);
  dbt::Engine Engine(Image, *Policy, Config);
  return Engine.run();
}

dbt::EngineConfig allOn() {
  dbt::EngineConfig Config;
  Config.HashDispatch = true;
  Config.InlineCaches = true;
  Config.Superblocks = true;
  return Config;
}

/// Hot call/ret kernel: one callee returning alternately to two call
/// sites, so the return's inline cache needs two ways.
guest::GuestImage callRetProgram(uint32_t Iters) {
  using namespace guest;
  ProgramBuilder B("callret");
  uint32_t Buf = B.dataReserve(64, 8);
  ProgramBuilder::Label F = B.newLabel();
  B.movri(1, 0);
  B.movri(0, static_cast<int32_t>(Buf));
  B.movri(2, 0);
  ProgramBuilder::Label Loop = B.here();
  B.call(F);
  B.call(F);
  B.addi(1, 1);
  B.cmpi(1, static_cast<int32_t>(Iters));
  B.jcc(Cond::B, Loop);
  B.chk(2);
  B.halt();
  B.bind(F);
  B.stl(mem(0, 0), 1);
  B.ldl(3, mem(0, 0));
  B.add(2, 3);
  B.ret();
  return B.build();
}

/// A call whose *return-continuation* block turns misaligned at
/// iteration \p Onset: the callee bumps the shared base pointer once,
/// so the continuation (the block an inline-cache way targets) faults,
/// gets retranslated, and the stale way must be evicted.
guest::GuestImage lateOnsetCallProgram(uint32_t Iters, uint32_t Onset) {
  using namespace guest;
  ProgramBuilder B("late-onset-call");
  uint32_t Buf = B.dataReserve(64, 8);
  uint32_t Slot = B.dataU32(Buf);
  ProgramBuilder::Label F = B.newLabel();
  B.movri(1, 0);
  ProgramBuilder::Label Loop = B.here();
  B.call(F);
  // Continuation block: access through the callee-managed base.
  B.movri(3, static_cast<int32_t>(Slot));
  B.ldl(0, mem(3, 0));
  B.movri(2, 0x1234);
  B.stl(mem(0, 0), 2);
  B.ldl(2, mem(0, 0));
  B.chk(2);
  B.addi(1, 1);
  B.cmpi(1, static_cast<int32_t>(Iters));
  B.jcc(Cond::B, Loop);
  B.halt();
  B.bind(F);
  ProgramBuilder::Label Fret = B.newLabel();
  B.cmpi(1, static_cast<int32_t>(Onset));
  B.jcc(Cond::Ne, Fret);
  B.movri(3, static_cast<int32_t>(Slot));
  B.ldl(0, mem(3, 0));
  B.addi(0, 1);
  B.stl(mem(3, 0), 0);
  B.bind(Fret);
  B.ret();
  return B.build();
}

/// Hot three-block loop (if/else arms), the shape multi-block
/// superblock formation straightens.
guest::GuestImage threeBlockLoopProgram(uint32_t Iters) {
  using namespace guest;
  ProgramBuilder B("loop3");
  uint32_t Buf = B.dataReserve(64, 8);
  B.movri(1, 0);
  B.movri(0, static_cast<int32_t>(Buf));
  B.movri(2, 0);
  ProgramBuilder::Label Odd = B.newLabel(), Join = B.newLabel();
  ProgramBuilder::Label Loop = B.here();
  B.movrr(3, 1);
  B.andi(3, 1);
  B.cmpi(3, 0);
  B.jcc(Cond::Ne, Odd);
  B.stl(mem(0, 0), 1);
  B.ldl(3, mem(0, 0));
  B.add(2, 3);
  B.jmp(Join);
  B.bind(Odd);
  B.stl(mem(0, 4), 2);
  B.ldl(3, mem(0, 4));
  B.add(2, 3);
  B.bind(Join);
  B.addi(1, 1);
  B.cmpi(1, static_cast<int32_t>(Iters));
  B.jcc(Cond::B, Loop);
  B.chk(2);
  B.halt();
  return B.build();
}

/// Main loop calling \p NumFuncs hot callees through a misaligned base:
/// enough distinct warm blocks (callees plus the per-call continuation
/// blocks) that a small code-cache limit forces capacity flushes while
/// everything is still hot.
guest::GuestImage multiFuncLoopProgram(uint32_t Iters, unsigned NumFuncs) {
  using namespace guest;
  ProgramBuilder B("multi-func");
  uint32_t Buf = B.dataReserve(256, 8);
  std::vector<ProgramBuilder::Label> Funcs(NumFuncs);
  for (ProgramBuilder::Label &F : Funcs)
    F = B.newLabel();
  B.movri(1, 0);
  B.movri(0, static_cast<int32_t>(Buf + 1)); // misaligned base
  B.movri(2, 0);
  ProgramBuilder::Label Loop = B.here();
  for (ProgramBuilder::Label &F : Funcs)
    B.call(F);
  B.addi(1, 1);
  B.cmpi(1, static_cast<int32_t>(Iters));
  B.jcc(Cond::B, Loop);
  B.chk(2);
  B.halt();
  for (unsigned F = 0; F != NumFuncs; ++F) {
    B.bind(Funcs[F]);
    B.stl(mem(0, static_cast<int32_t>(8 * F)), 1);
    B.ldl(3, mem(0, static_cast<int32_t>(8 * F)));
    B.add(2, 3);
    B.ret();
  }
  return B.build();
}

} // namespace

// ---- engine-level: transparency and mechanism activity ---------------------

TEST(DispatchEngineTest, HashDispatchIsArchitecturallyTransparent) {
  guest::GuestImage Image = misalignedSumProgram(600);
  Oracle O = interpretOracle(Image);
  dbt::EngineConfig Config;
  Config.HashDispatch = true;
  Config.Verify = true;
  dbt::RunResult R = runDispatch(
      Image, {mda::MechanismKind::Dpeh, 50, false, 0, false}, Config);
  expectMatchesOracle(R, O, "hash dispatch");
  EXPECT_GT(R.Counters.get("dispatch.table_hits"), 0u);
  EXPECT_GT(R.Counters.get("dispatch.table_misses"), 0u);
}

TEST(DispatchEngineTest, HashDispatchOnlyChangesPricing) {
  // Both dispatch paths do the same block-map lookup; HashDispatch only
  // selects what a hit costs.  Everything else — architectural state,
  // every counter outside the monitor's cycle account — must match.
  guest::GuestImage Image = callRetProgram(500);
  mda::PolicySpec Spec{mda::MechanismKind::Dpeh, 50, false, 0, false};
  dbt::EngineConfig Off;
  Off.InlineCaches = true;
  Off.Superblocks = true;
  Off.Verify = true;
  dbt::EngineConfig On = Off;
  On.HashDispatch = true;
  dbt::RunResult A = runDispatch(Image, Spec, Off);
  dbt::RunResult B = runDispatch(Image, Spec, On);
  ASSERT_TRUE(A.completed());
  ASSERT_TRUE(B.completed());
  EXPECT_EQ(A.Checksum, B.Checksum);
  EXPECT_EQ(A.MemoryHash, B.MemoryHash);
  for (unsigned I = 0; I != guest::NumGPR; ++I)
    EXPECT_EQ(A.FinalCpu.Gpr[I], B.FinalCpu.Gpr[I]) << "GPR " << I;
  for (unsigned I = 0; I != guest::NumQReg; ++I)
    EXPECT_EQ(A.FinalCpu.Qreg[I], B.FinalCpu.Qreg[I]) << "Q" << I;
  EXPECT_EQ(A.FinalCpu.Pc, B.FinalCpu.Pc);

  auto PricingOnly = [](const std::string &Name) {
    return Name == "cycles.monitor" || Name == "cycles.total" ||
           Name.rfind("dispatch.table_", 0) == 0;
  };
  // Both directions, so a counter registered on only one side is checked.
  for (const auto &[X, Y] : {std::pair(&A, &B), std::pair(&B, &A)}) {
    for (const auto &Entry : X->Counters.entries()) {
      if (PricingOnly(Entry.first))
        continue;
      EXPECT_EQ(Entry.second, Y->Counters.get(Entry.first)) << Entry.first;
    }
  }

  host::CostModel Cost;
  uint64_t Hits = B.Counters.get("dispatch.table_hits");
  uint64_t Saved =
      Hits * (Cost.MonitorDispatchCycles - Cost.DispatchTableHitCycles);
  EXPECT_GT(Hits, 0u);
  EXPECT_EQ(A.Counters.get("cycles.monitor"),
            B.Counters.get("cycles.monitor") + Saved);
  EXPECT_EQ(A.Cycles, B.Cycles + Saved);
}

TEST(DispatchEngineTest, InlineCachesFillAndCutMonitorEntries) {
  guest::GuestImage Image = callRetProgram(500);
  Oracle O = interpretOracle(Image);
  mda::PolicySpec Spec{mda::MechanismKind::Dpeh, 50, false, 0, false};
  dbt::EngineConfig Plain;
  dbt::EngineConfig Ic;
  Ic.InlineCaches = true;
  Ic.Verify = true;
  dbt::RunResult Base = runDispatch(Image, Spec, Plain);
  dbt::RunResult Cached = runDispatch(Image, Spec, Ic);
  expectMatchesOracle(Base, O, "callret baseline");
  expectMatchesOracle(Cached, O, "callret with inline caches");
  // The callee returns to two sites, so its return IC needs (and the
  // default budget has) two ways; once filled, returns stop visiting
  // the monitor.
  EXPECT_GE(Cached.Counters.get("dispatch.ic_fills"), 2u);
  EXPECT_LT(Cached.Counters.get("dbt.native_entries"),
            Base.Counters.get("dbt.native_entries"));
}

TEST(DispatchEngineTest, InlineCacheWayEvictedWhenTargetRetranslates) {
  guest::GuestImage Image = lateOnsetCallProgram(500, 150);
  Oracle O = interpretOracle(Image);
  // RetranslateThreshold 2: the continuation block the callee's return
  // IC targets goes misaligned at the onset, faults, and is superseded;
  // the way caching its entry must be taken out of service (and the
  // verifier must never see a live way to a dead entry).
  dbt::EngineConfig Config;
  Config.InlineCaches = true;
  Config.Verify = true;
  dbt::RunResult R = runDispatch(
      Image, {mda::MechanismKind::Dpeh, 10, false, 2, false}, Config);
  expectMatchesOracle(R, O, "IC eviction on retranslation");
  EXPECT_GT(R.Counters.get("dbt.supersedes"), 0u);
  EXPECT_GT(R.Counters.get("dispatch.ic_fills"), 0u);
  EXPECT_GT(R.Counters.get("dispatch.ic_evictions"), 0u);
}

TEST(DispatchEngineTest, SuperblockFormsOnHotSelfLoop) {
  guest::GuestImage Image = misalignedSumProgram(600);
  Oracle O = interpretOracle(Image);
  dbt::EngineConfig Config;
  Config.Superblocks = true;
  Config.Verify = true;
  dbt::RunResult R = runDispatch(
      Image, {mda::MechanismKind::Dpeh, 50, false, 0, false}, Config);
  expectMatchesOracle(R, O, "superblock self-loop");
  EXPECT_GE(R.Counters.get("trace.formed"), 1u);
  EXPECT_GE(R.Counters.get("trace.blocks_emitted"), 2u); // unrolled copy
}

TEST(DispatchEngineTest, SuperblockStraightensMultiBlockLoop) {
  // Long enough that the straightened loop amortizes the one-time trace
  // translation cost in modeled cycles.
  guest::GuestImage Image = threeBlockLoopProgram(5000);
  Oracle O = interpretOracle(Image);
  mda::PolicySpec Spec{mda::MechanismKind::Dpeh, 50, false, 0, false};
  dbt::EngineConfig Plain;
  dbt::EngineConfig Super;
  Super.Superblocks = true;
  Super.Verify = true;
  dbt::RunResult Base = runDispatch(Image, Spec, Plain);
  dbt::RunResult Traced = runDispatch(Image, Spec, Super);
  expectMatchesOracle(Base, O, "loop3 baseline");
  expectMatchesOracle(Traced, O, "loop3 with superblocks");
  EXPECT_GE(Traced.Counters.get("trace.formed"), 1u);
  EXPECT_GE(Traced.Counters.get("trace.blocks_emitted"), 2u);
  EXPECT_LT(Traced.Cycles, Base.Cycles);
}

TEST(DispatchEngineTest, SuperblockDeoptsOnFlushAndReforms) {
  guest::GuestImage Image = lateOnsetProgram(800, 300);
  Oracle O = interpretOracle(Image);
  dbt::EngineConfig Config;
  Config.Superblocks = true;
  Config.Verify = true;
  // The trace is formed while the loop is aligned; after the onset its
  // faulting copies push it over the retranslate threshold.  The
  // supersede must de-opt the trace cleanly and a fresh trace (with the
  // fault sites inlined) must take its place.
  dbt::RunResult R = runDispatch(
      Image, {mda::MechanismKind::Dpeh, 10, false, 2, false}, Config);
  expectMatchesOracle(R, O, "superblock supersede de-opt");
  EXPECT_GT(R.Counters.get("dbt.supersedes"), 0u);
  EXPECT_GE(R.Counters.get("trace.deopts"), 1u);
  EXPECT_GE(R.Counters.get("trace.formed"), 2u); // re-formed after de-opt
}

// ---- flush interactions (chain bookkeeping regression) ---------------------

TEST(DispatchEngineTest, ChainBookkeepingSurvivesFlushStorms) {
  // Regression: a chain patched into a block that is flushed within the
  // same monitor episode must be fully unwound — the flush asserts that
  // IncomingChains and the stale-word quarantine drain to empty, and
  // the verifier checks the surviving image.  Sweep small cache limits
  // so the flush lands at different points of the chain/translate
  // interleaving.
  guest::GuestImage Image = multiFuncLoopProgram(500, 6);
  Oracle O = interpretOracle(Image);
  for (uint32_t Limit : {96u, 128u, 160u, 192u}) {
    dbt::EngineConfig Config = allOn();
    Config.Verify = true;
    Config.CodeCacheLimitWords = Limit;
    dbt::RunResult R = runDispatch(
        Image, {mda::MechanismKind::Dpeh, 10, false, 0, false}, Config);
    expectMatchesOracle(
        R, O, ("flush storm limit " + std::to_string(Limit)).c_str());
    EXPECT_GT(R.Counters.get("dbt.flushes"), 0u) << "limit " << Limit;
  }
}

TEST(DispatchEngineTest, HashDispatchSurvivesFlushStorms) {
  guest::GuestImage Image = multiFuncLoopProgram(500, 6);
  Oracle O = interpretOracle(Image);
  mda::PolicySpec Spec{mda::MechanismKind::Dpeh, 10, false, 0, false};
  dbt::EngineConfig Unlimited;
  Unlimited.HashDispatch = true;
  dbt::EngineConfig Limited = Unlimited;
  Limited.Verify = true;
  Limited.CodeCacheLimitWords = 96;
  dbt::RunResult Calm = runDispatch(Image, Spec, Unlimited);
  dbt::RunResult Stormy = runDispatch(Image, Spec, Limited);
  expectMatchesOracle(Calm, O, "hash dispatch, unlimited cache");
  expectMatchesOracle(Stormy, O, "hash dispatch under flush storms");
  EXPECT_GT(Stormy.Counters.get("dbt.flushes"), 0u);
  EXPECT_GT(Stormy.Counters.get("dispatch.table_hits"), 0u);
  // Each flush drops every translation; flush victims that come back
  // hot miss once more before they are retranslated, so the stormy run
  // misses strictly more often.
  EXPECT_GT(Stormy.Counters.get("dispatch.table_misses"),
            Calm.Counters.get("dispatch.table_misses"));
}

// ---- every combination is transparent and deterministic ---------------------

TEST(DispatchEngineTest, AllConfigCombinationsMatchOracle) {
  const guest::GuestImage Images[] = {misalignedSumProgram(400),
                                      callRetProgram(400),
                                      threeBlockLoopProgram(400),
                                      lateOnsetProgram(400, 100)};
  for (const guest::GuestImage &Image : Images) {
    Oracle O = interpretOracle(Image);
    for (unsigned Bits = 0; Bits != 8; ++Bits) {
      dbt::EngineConfig Config;
      Config.HashDispatch = Bits & 1;
      Config.InlineCaches = Bits & 2;
      Config.Superblocks = Bits & 4;
      Config.Verify = true;
      dbt::RunResult R = runDispatch(
          Image, {mda::MechanismKind::Dpeh, 20, false, 0, false}, Config);
      expectMatchesOracle(R, O,
                          ("config bits " + std::to_string(Bits)).c_str());
    }
  }
}

TEST(DispatchEngineTest, AllOnReplaysBitIdentically) {
  guest::GuestImage Image = callRetProgram(500);
  mda::PolicySpec Spec{mda::MechanismKind::Dpeh, 50, false, 0, false};
  dbt::RunResult A = runDispatch(Image, Spec, allOn());
  dbt::RunResult B = runDispatch(Image, Spec, allOn());
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.Checksum, B.Checksum);
  EXPECT_EQ(A.MemoryHash, B.MemoryHash);
  ASSERT_EQ(A.Counters.entries().size(), B.Counters.entries().size());
  for (const auto &Entry : A.Counters.entries())
    EXPECT_EQ(Entry.second, B.Counters.get(Entry.first)) << Entry.first;
}

namespace {

/// A guest whose worker patches the imm32 of its *return-target*
/// block before returning into it: the ret's cached inline-cache way
/// then points at a translation that is invalidated on every circuit,
/// so the storm exercises way retirement, not just block invalidation.
/// (The nop padding 4-aligns the patched imm so the patch
/// store itself is aligned traffic.)
guest::GuestImage icStormProgram(uint32_t Iters) {
  using namespace guest;
  ProgramBuilder B("ic.storm");
  ProgramBuilder::Label Worker = B.newLabel();
  ProgramBuilder::Label Loop = B.newLabel();
  B.movri(6, static_cast<int32_t>(Iters));
  B.bind(Loop);
  B.call(Worker);
  // Continuation block — the ret target the worker rewrites.
  while ((B.codeAddress() + 2) % 4 != 0)
    B.nop();
  uint32_t ContImm = B.codeAddress() + 2;
  B.movri(0, 0); // imm32 patched every circuit
  B.chk(0);
  B.subi(6, 1);
  B.cmpi(6, 0);
  B.jcc(Cond::Ne, Loop);
  B.halt();
  // Patch only every 8th circuit: in between, the continuation stays
  // valid so the ret's way actually fills (and hits); on patching
  // circuits the filled way's target is invalidated and the way must
  // be evicted.
  ProgramBuilder::Label Skip = B.newLabel();
  B.bind(Worker);
  B.movrr(2, 6);
  B.andi(2, 7);
  B.cmpi(2, 0);
  B.jcc(Cond::Ne, Skip);
  B.movri(3, static_cast<int32_t>(ContImm));
  B.stl(mem(3, 0), 6); // SMC into the return-target block
  B.bind(Skip);
  B.ret();
  return B.build();
}

} // namespace

TEST(DispatchEngineTest, InlineCacheRetirementSurvivesSmcInvalidationStorm) {
  // Each circuit invalidates the worker's cached return target: the
  // SMC barrier must invalidate the translation and retire the filled
  // inline-cache way before the next dispatch — and the run must stay
  // byte-identical.
  guest::GuestImage Image = icStormProgram(250);
  Oracle O = interpretOracle(Image);
  dbt::EngineConfig Config = allOn();
  Config.Analysis = true;
  Config.Verify = true;
  dbt::RunResult R = runDispatch(
      Image, {mda::MechanismKind::Direct, 0, false, 0, false}, Config);
  expectMatchesOracle(R, O, "ic.storm all-on");
  EXPECT_GT(R.Counters.get("smc.invalidations"), 0u);
  EXPECT_GT(R.Counters.get("dispatch.table_hits"), 0u);
  EXPECT_GT(R.Counters.get("dispatch.ic_fills"), 0u);
  EXPECT_GT(R.Counters.get("dispatch.ic_evictions"), 0u);
}
