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
/// including under code-cache flush storms.  The DispatchUnitTest suite
/// drives dbt::Dispatch directly over a real CodeCache and Translator,
/// without an engine.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/HostVerifier.h"
#include "dbt/Dispatch.h"
#include "dbt/Translator.h"
#include "host/HostAssembler.h"
#include "mda/PolicyFactory.h"
#include "workloads/Hostile.h"

#include <gtest/gtest.h>

#include <optional>
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

//===----------------------------------------------------------------------===//
// Dispatch without an engine: blocks the Translator emits for small guest
// graphs, installed in a CodeCache, then chained, filled and walked.
//===----------------------------------------------------------------------===//

namespace {

/// Successor of a graph block that ends in an indirect jump (jmpr r2).
constexpr int Indirect = -1;

/// A code cache, translator and Dispatch over one guest program.
struct DispatchHarness {
  explicit DispatchHarness(
      const guest::GuestImage &Image,
      dbt::Dispatch::Options Opts = {/*Chaining=*/true,
                                     /*HashDispatch=*/false,
                                     /*InlineCaches=*/true,
                                     /*Superblocks=*/true})
      : Cache(Code, Mem, obs::Tracer(), /*PatchFailureLimit=*/0,
              [this] { ++PatchAborts; }),
        Disp(Cache, Mem, obs::Tracer(), Cost, Opts) {
    Mem.loadImage(Image);
    Mem.setWriteWatcher([](uint32_t, unsigned) {});
  }

  static dbt::MemPlan normal(uint32_t, const guest::GuestInst &) {
    return dbt::MemPlan::Normal;
  }
  static dbt::TranslationOpts opts() {
    dbt::TranslationOpts Opts;
    Opts.IcWays = dbt::Dispatch::InlineCacheWays;
    return Opts;
  }

  /// Translate, install and map the block at \p Pc.
  dbt::Translation &install(uint32_t Pc) {
    dbt::Translation &T = Cache.add(
        Trans.translate(dbt::discoverBlock(Mem, Pc), normal, 0, opts()));
    Cache.install(T, 0);
    Cache.map(T);
    return T;
  }

  /// The monitor exit through \p T's exit \p I toward \p GuestPc.
  static host::ExitInfo exitOf(const dbt::Translation &T, size_t I,
                               uint32_t GuestPc) {
    host::ExitInfo E;
    E.K = host::ExitInfo::Exit;
    E.GuestPc = GuestPc;
    E.SrvWord = T.exitWord(I);
    return E;
  }

  /// Handle the exit through \p T's direct exit toward \p Target.
  dbt::Dispatch::Exit exitTo(dbt::Translation &T, uint32_t Target) {
    for (size_t I = 0; I != T.Rec->Exits.size(); ++I)
      if (T.Rec->Exits[I].Direct && T.Rec->Exits[I].TargetGuestPc == Target)
        return Disp.onExit(exitOf(T, I, Target), false, Cycles);
    ADD_FAILURE() << "no direct exit to " << Target;
    return {};
  }

  /// The guest PCs of a selected trace's constituents.
  static std::vector<uint32_t> pcsOf(const dbt::Dispatch::TracePlan &P) {
    std::vector<uint32_t> Pcs;
    for (const dbt::GuestBlock &B : P.Blocks)
      Pcs.push_back(B.StartPc);
    return Pcs;
  }

  guest::GuestMemory Mem;
  host::CodeSpace Code;
  host::CostModel Cost;
  dbt::Translator Trans{Code};
  uint32_t PatchAborts = 0;
  uint64_t Cycles = 0;
  dbt::CodeCache Cache;
  dbt::Dispatch Disp;
};

/// One guest block per entry of \p Succ: block I bumps r1 and jumps to
/// block Succ[I], or ends in an indirect jump where Succ[I] is Indirect.
/// \p Pcs receives each block's PC.
guest::GuestImage graphProgram(const std::vector<int> &Succ,
                               std::vector<uint32_t> &Pcs) {
  guest::ProgramBuilder B("dispatch-graph");
  std::vector<guest::ProgramBuilder::Label> L;
  for (size_t I = 0; I != Succ.size(); ++I)
    L.push_back(B.newLabel());
  Pcs.clear();
  for (size_t I = 0; I != Succ.size(); ++I) {
    B.bind(L[I]);
    Pcs.push_back(B.codeAddress());
    B.addi(1, static_cast<int32_t>(I + 1));
    if (Succ[I] == Indirect)
      B.jmpr(2);
    else
      B.jmp(L[Succ[I]]);
  }
  return B.build();
}

/// The block PCs of a graphProgram, built before the harness over it.
struct GraphPcs {
  std::vector<uint32_t> Pcs;
};

/// graphProgram with every block installed.
struct GraphHarness : GraphPcs, DispatchHarness {
  explicit GraphHarness(const std::vector<int> &Succ)
      : DispatchHarness(graphProgram(Succ, Pcs)) {
    for (uint32_t Pc : Pcs)
      Blocks.push_back(&install(Pc));
  }
  /// The constituents selected at block \p Head, or empty for none.
  std::vector<uint32_t> select(unsigned Head) {
    std::optional<dbt::Dispatch::TracePlan> P = Disp.selectTrace(Pcs[Head]);
    return P ? pcsOf(*P) : std::vector<uint32_t>{};
  }
  /// The PCs of blocks \p Idx, in order.
  std::vector<uint32_t> pcs(const std::vector<unsigned> &Idx) const {
    std::vector<uint32_t> R;
    for (unsigned I : Idx)
      R.push_back(Pcs[I]);
    return R;
  }

  std::vector<dbt::Translation *> Blocks;
};

} // namespace

TEST(DispatchUnitTest, LookupCountsAndPricesHits) {
  std::vector<uint32_t> Pcs;
  guest::GuestImage Image = graphProgram({Indirect, Indirect}, Pcs);
  for (bool Hash : {false, true}) {
    DispatchHarness H(Image, {true, Hash, false, false});
    dbt::Translation &T = H.install(Pcs[0]);
    EXPECT_EQ(H.Disp.lookup(Pcs[0], H.Cycles), &T);
    EXPECT_EQ(H.Disp.lookup(Pcs[1], H.Cycles), nullptr);
    EXPECT_EQ(H.Disp.stats().Hits, 1u);
    EXPECT_EQ(H.Disp.stats().Misses, 1u);
    // Only the hit is priced, at the price HashDispatch selects.
    EXPECT_EQ(H.Cycles, Hash ? H.Cost.DispatchTableHitCycles
                             : H.Cost.MonitorDispatchCycles);
  }
}

TEST(DispatchUnitTest, DirectExitChainsOnceAndSetsChained) {
  GraphHarness H({1, 0}); // a two-block loop
  dbt::Translation &A = *H.Blocks[0];
  uint32_t Word = A.exitWord(0);
  ASSERT_EQ(H.Code.word(Word), host::encodeHost(host::srvInst(
                                   host::SrvFunc::Exit)));

  dbt::Dispatch::Exit X = H.exitTo(A, H.Pcs[1]);
  EXPECT_TRUE(X.Patched);
  EXPECT_FALSE(X.LoopHead) << "a forward chain closes no loop";
  EXPECT_TRUE(A.Chained[0]);
  EXPECT_EQ(H.Code.word(Word), *host::branchTo(Word, H.Blocks[1]->EntryWord));
  EXPECT_EQ(H.Blocks[1]->IncomingChains, std::vector<uint32_t>{Word});
  EXPECT_EQ(H.Disp.stats().Chains, 1u);
  EXPECT_EQ(H.Cycles, H.Cost.ChainPatchCycles);

  // The same exit again (a chain that reaches the monitor anyway) does
  // not chain twice.
  X = H.exitTo(A, H.Pcs[1]);
  EXPECT_FALSE(X.Patched);
  EXPECT_EQ(H.Disp.stats().Chains, 1u);

  // The backedge is a backward chain: formation is attempted at its
  // target.
  X = H.exitTo(*H.Blocks[1], H.Pcs[0]);
  EXPECT_TRUE(X.Patched);
  EXPECT_EQ(X.LoopHead, H.Pcs[0]);
}

TEST(DispatchUnitTest, BackwardChainReportsNoLoopHeadWithoutSuperblocks) {
  std::vector<uint32_t> Pcs;
  guest::GuestImage Image = graphProgram({1, 0}, Pcs);
  DispatchHarness H(Image, {true, false, true, false});
  dbt::Translation &A = H.install(Pcs[0]);
  dbt::Translation &B = H.install(Pcs[1]);
  EXPECT_TRUE(H.exitTo(B, Pcs[0]).Patched);
  EXPECT_FALSE(H.exitTo(A, Pcs[1]).LoopHead);
  EXPECT_FALSE(H.exitTo(B, Pcs[0]).LoopHead);
}

TEST(DispatchUnitTest, DirectExitToUntranslatedTargetKeepsExiting) {
  std::vector<uint32_t> Pcs;
  guest::GuestImage Image = graphProgram({1, 0}, Pcs);
  DispatchHarness H(Image);
  dbt::Translation &A = H.install(Pcs[0]);
  EXPECT_FALSE(H.exitTo(A, Pcs[1]).Patched);
  EXPECT_FALSE(A.Chained[0]);
  // Chaining off: a translated target is not chained either.
  DispatchHarness Off(Image, {false, false, true, true});
  dbt::Translation &A2 = Off.install(Pcs[0]);
  Off.install(Pcs[1]);
  EXPECT_FALSE(Off.exitTo(A2, Pcs[1]).Patched);
  EXPECT_EQ(Off.Disp.stats().Chains, 0u);
}

TEST(DispatchUnitTest, RetiredOwnerIsIgnored) {
  GraphHarness H({1, 2, Indirect});
  dbt::Translation &A = *H.Blocks[0];
  dbt::Translation &C = *H.Blocks[2];
  host::ExitInfo Direct = H.exitOf(A, 0, H.Pcs[1]);
  host::ExitInfo Ic = H.exitOf(C, 0, H.Pcs[0]);
  ASSERT_TRUE(H.Cache.retire(A));
  ASSERT_TRUE(H.Cache.retire(C));
  // The retired bodies still resolve (a trap may be in flight), but
  // nothing is patched into them.
  EXPECT_EQ(H.Cache.owner(Direct.SrvWord), &A);
  EXPECT_FALSE(H.Disp.onExit(Direct, false, H.Cycles).Patched);
  EXPECT_FALSE(H.Disp.onExit(Ic, false, H.Cycles).Patched);
  EXPECT_FALSE(A.Chained[0]);
  EXPECT_EQ(H.Disp.stats().Chains, 0u);
  EXPECT_EQ(H.Disp.stats().IcMisses, 0u);
  EXPECT_EQ(H.Cycles, 0u);
}

TEST(DispatchUnitTest, IcSiteCountsMissesAndFillsOnlyTranslatedTargets) {
  GraphHarness H({Indirect, Indirect});
  dbt::Translation &A = *H.Blocks[0];
  ASSERT_EQ(A.IcSites.size(), 1u);
  constexpr uint32_t Untranslated = 0x7000;
  ASSERT_EQ(H.Cache.lookup(Untranslated), nullptr);

  dbt::Dispatch::Exit X = H.Disp.onExit(H.exitOf(A, 0, Untranslated),
                                        false, H.Cycles);
  EXPECT_FALSE(X.Patched);
  EXPECT_EQ(H.Disp.stats().IcMisses, 1u);
  EXPECT_EQ(H.Disp.stats().IcFills, 0u);
  EXPECT_FALSE(A.IcSites[0].Ways[0].Filled);

  X = H.Disp.onExit(H.exitOf(A, 0, H.Pcs[1]), false, H.Cycles);
  EXPECT_TRUE(X.Patched);
  EXPECT_FALSE(X.LoopHead);
  EXPECT_EQ(H.Disp.stats().IcMisses, 2u);
  EXPECT_EQ(H.Disp.stats().IcFills, 1u);
  EXPECT_EQ(H.Disp.stats().IcFillFails, 0u);
  EXPECT_TRUE(A.IcSites[0].Ways[0].Filled);
  EXPECT_EQ(A.IcSites[0].Ways[0].TargetGuestPc, H.Pcs[1]);
  EXPECT_EQ(H.Cycles,
            uint64_t(H.Cost.ChainPatchCycles) * dbt::IcWayWords);
  EXPECT_EQ(H.Disp.stats().Chains, 0u) << "an indirect exit never chains";

  // A run that is aborting counts and fills nothing more.
  EXPECT_FALSE(
      H.Disp.onExit(H.exitOf(A, 0, H.Pcs[0]), true, H.Cycles).Patched);
  EXPECT_EQ(H.Disp.stats().IcMisses, 2u);
}

// A full site is refilled by evicting a way.  When the eviction's
// guard-disable write does not stick, the fill fails before any way is
// written, and that failure counts once.
TEST(DispatchUnitTest, FailedVictimEvictionCountsOneFillFailure) {
  GraphHarness H({Indirect, Indirect, Indirect, Indirect});
  dbt::Translation &A = *H.Blocks[0];
  ASSERT_EQ(A.IcSites[0].Ways.size(), 2u);
  for (unsigned T : {1u, 2u})
    ASSERT_TRUE(
        H.Disp.onExit(H.exitOf(A, 0, H.Pcs[T]), false, H.Cycles).Patched);
  ASSERT_EQ(H.Disp.stats().IcFills, 2u);

  const uint32_t DisabledGuard = host::encodeHost(
      host::brInst(host::HostOp::Br, host::RegZero,
                   static_cast<int32_t>(dbt::IcWayWords) - 1));
  H.Cache.setPatchFault(
      [&](uint32_t, uint32_t &W) { return W != DisabledGuard; });
  dbt::Dispatch::Exit X =
      H.Disp.onExit(H.exitOf(A, 0, H.Pcs[3]), false, H.Cycles);
  EXPECT_TRUE(X.Patched) << "a failed fill still needs the verifier";
  EXPECT_EQ(H.Disp.stats().IcFillFails, 1u);
  EXPECT_EQ(H.Disp.stats().IcFills, 2u);
  EXPECT_EQ(H.Cache.stats().PatchFailures, 1u);
  EXPECT_TRUE(A.IcSites[0].Ways[0].Stale) << "the victim is quarantined";
  EXPECT_EQ(H.PatchAborts, 0u);
}

TEST(DispatchUnitTest, TracePrefersChainedDirectExit) {
  // Block 0 ends in a conditional branch: exit 0 falls through to
  // block 1, exit 1 is taken to block 2.
  guest::ProgramBuilder B("dispatch-branch");
  guest::ProgramBuilder::Label Taken = B.newLabel();
  uint32_t Pcs[3];
  Pcs[0] = B.codeAddress();
  B.cmpi(1, 0);
  B.jcc(guest::Cond::Eq, Taken);
  Pcs[1] = B.codeAddress();
  B.addi(1, 1);
  B.jmpr(2);
  B.bind(Taken);
  Pcs[2] = B.codeAddress();
  B.addi(1, 2);
  B.jmpr(2);
  DispatchHarness H(B.build());
  dbt::Translation &Head = H.install(Pcs[0]);
  H.install(Pcs[1]);
  H.install(Pcs[2]);
  ASSERT_EQ(Head.Rec->Exits.size(), 2u);
  ASSERT_EQ(Head.Rec->Exits[0].TargetGuestPc, Pcs[1]);

  std::optional<dbt::Dispatch::TracePlan> P = H.Disp.selectTrace(Pcs[0]);
  ASSERT_TRUE(P);
  EXPECT_EQ(H.pcsOf(*P), (std::vector<uint32_t>{Pcs[0], Pcs[1]}))
      << "no chain yet: the first direct exit";
  ASSERT_TRUE(H.exitTo(Head, Pcs[2]).Patched);
  P = H.Disp.selectTrace(Pcs[0]);
  ASSERT_TRUE(P);
  EXPECT_EQ(H.pcsOf(*P), (std::vector<uint32_t>{Pcs[0], Pcs[2]}))
      << "the chained (observed hot) exit wins";
}

TEST(DispatchUnitTest, TraceStopsAtIndirectExitRevisitAndBlockBound) {
  {
    GraphHarness H({1, Indirect});
    EXPECT_EQ(H.select(0), H.pcs({0, 1}));
  }
  {
    // 0 -> 1 -> 2 -> 1: the walk revisits block 1, not the head, so
    // there is no unroll.
    GraphHarness H({1, 2, 1});
    EXPECT_EQ(H.select(0), H.pcs({0, 1, 2}));
  }
  {
    // A ten-block ring is cut at TraceMaxBlocks.
    GraphHarness H({1, 2, 3, 4, 5, 6, 7, 8, 9, 0});
    ASSERT_EQ(dbt::Dispatch::TraceMaxBlocks, 8u);
    EXPECT_EQ(H.select(0), H.pcs({0, 1, 2, 3, 4, 5, 6, 7}));
  }
  {
    // The walk stops at a block that is not translated.
    std::vector<uint32_t> Pcs;
    guest::GuestImage Image = graphProgram({1, 2, 0}, Pcs);
    DispatchHarness H(Image);
    H.install(Pcs[0]);
    H.install(Pcs[1]);
    std::optional<dbt::Dispatch::TracePlan> P = H.Disp.selectTrace(Pcs[0]);
    ASSERT_TRUE(P);
    EXPECT_EQ(H.pcsOf(*P), (std::vector<uint32_t>{Pcs[0], Pcs[1]}));
  }
}

TEST(DispatchUnitTest, LoopClosingAtHeadUnrollsOnceWhenItFits) {
  {
    GraphHarness H({0}); // a self-loop: unrolled into a two-block trace
    EXPECT_EQ(H.select(0), H.pcs({0, 0}));
  }
  {
    GraphHarness H({1, 0});
    EXPECT_EQ(H.select(0), H.pcs({0, 1, 0, 1}));
  }
  {
    GraphHarness H({1, 2, 3, 0}); // 2 x 4 == TraceMaxBlocks still fits
    EXPECT_EQ(H.select(0), H.pcs({0, 1, 2, 3, 0, 1, 2, 3}));
  }
  {
    GraphHarness H({1, 2, 3, 4, 0}); // 2 x 5 does not
    EXPECT_EQ(H.select(0), H.pcs({0, 1, 2, 3, 4}));
  }
  {
    // From block 3 the walk enters the ring 0 -> 1 -> 2 -> 0, which
    // closes at block 0, not at the head: no unroll, though it fits.
    GraphHarness H({1, 2, 0, 0});
    EXPECT_EQ(H.select(3), H.pcs({3, 0, 1, 2}));
  }
}

TEST(DispatchUnitTest, NoTraceOfASingleBlockOrAtANonBlockHead) {
  GraphHarness H({Indirect, 0});
  EXPECT_TRUE(H.select(0).empty()) << "one block with an indirect exit";
  std::vector<uint32_t> Pcs;
  guest::GuestImage Image = graphProgram({1, 0}, Pcs);
  DispatchHarness Empty(Image);
  EXPECT_FALSE(Empty.Disp.selectTrace(Pcs[0])) << "no live head";
}

TEST(DispatchUnitTest, FormationStopsAtPerHeadCap) {
  GraphHarness H({1, 0, 3, 2});
  for (uint32_t I = 0; I != dbt::Dispatch::TraceFormsPerHead; ++I)
    EXPECT_EQ(H.select(0).size(), 4u) << "attempt " << I;
  EXPECT_TRUE(H.select(0).empty()) << "the head used its attempts";
  // Single-block walks are not attempts; another head has its own cap.
  EXPECT_EQ(H.select(2).size(), 4u);

  // An oversize trace sets the cap at once.
  std::optional<dbt::Dispatch::TracePlan> P = H.Disp.selectTrace(H.Pcs[1]);
  ASSERT_TRUE(P);
  H.Disp.placed(*P, nullptr, H.Cycles);
  EXPECT_TRUE(H.select(1).empty());
  EXPECT_EQ(H.select(3).size(), 4u);
}

TEST(DispatchUnitTest, PlacedTraceServesHeadAndTakesItsIncomingChains) {
  GraphHarness H({1, 0});
  dbt::Translation &A = *H.Blocks[0];
  dbt::Translation &B = *H.Blocks[1];
  ASSERT_TRUE(H.exitTo(A, H.Pcs[1]).Patched);
  uint32_t Backedge = B.exitWord(0);
  ASSERT_EQ(H.exitTo(B, H.Pcs[0]).LoopHead, H.Pcs[0]);

  std::optional<dbt::Dispatch::TracePlan> P = H.Disp.selectTrace(H.Pcs[0]);
  ASSERT_TRUE(P);
  EXPECT_EQ(P->Head, &A);
  EXPECT_EQ(P->Incoming, std::vector<uint32_t>{Backedge});
  dbt::Translation &Tr = H.Cache.add(H.Trans.translateTrace(
      P->Blocks,
      [&](uint32_t Pc, const guest::GuestInst &I) {
        return P->plan(Pc, H.normal(Pc, I));
      },
      1, H.opts()));
  H.Disp.formed(*P);
  H.Cache.install(Tr, 0);
  ASSERT_TRUE(H.Cache.retire(A));
  ASSERT_EQ(H.Code.word(Backedge),
            host::encodeHost(host::srvInst(host::SrvFunc::Exit)));
  uint64_t Before = H.Cycles;
  H.Disp.placed(*P, &Tr, H.Cycles);

  EXPECT_EQ(H.Cache.lookup(H.Pcs[0]), &Tr);
  EXPECT_EQ(H.Code.word(Backedge), *host::branchTo(Backedge, Tr.EntryWord));
  EXPECT_EQ(Tr.IncomingChains, std::vector<uint32_t>{Backedge});
  EXPECT_EQ(H.Cycles - Before, H.Cost.ChainPatchCycles);
  EXPECT_EQ(H.Disp.stats().TracesFormed, 1u);
  EXPECT_EQ(H.Disp.stats().TraceBlocksEmitted, 4u);
  EXPECT_TRUE(analysis::verifyCodeSpace(H.Code, H.Cache.verifierInput()).ok());

  // Its retirement is a de-optimization.
  H.Disp.retiring(Tr);
  EXPECT_EQ(H.Disp.stats().TraceDeopts, 1u);
  H.Disp.retiring(B);
  EXPECT_EQ(H.Disp.stats().TraceDeopts, 1u) << "a block is no trace";
}

TEST(DispatchUnitTest, TracePlanKeepsTheStrongerPlan) {
  dbt::Dispatch::TracePlan P;
  P.Recorded = {{0x100, dbt::MemPlan::Inline}, {0x104, dbt::MemPlan::Normal}};
  EXPECT_EQ(P.plan(0x100, dbt::MemPlan::Normal), dbt::MemPlan::Inline);
  EXPECT_EQ(P.plan(0x104, dbt::MemPlan::Inline), dbt::MemPlan::Inline);
  EXPECT_EQ(P.plan(0x104, dbt::MemPlan::Elide), dbt::MemPlan::Elide);
  EXPECT_EQ(P.plan(0x108, dbt::MemPlan::MultiVersion),
            dbt::MemPlan::MultiVersion);
}
