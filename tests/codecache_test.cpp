//===- tests/codecache_test.cpp - Code-cache management tests -------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for code-cache capacity flushes and Dynamo-style
/// flush-on-supersede (paper section IV-C contrasts DigitalBridge's
/// block-granularity invalidation with Dynamo's whole-cache flush).
/// Every configuration must preserve differential correctness.
///
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "TestUtil.h"

#include "dbt/TranslationService.h"
#include "host/CodeSpace.h"
#include "host/HostAssembler.h"
#include "host/HostMachine.h"
#include "mda/Policies.h"

#include <gtest/gtest.h>

using namespace mdabt;
using namespace mdabt::testutil;

namespace {

/// A program with many independently hot leaf functions plus one
/// late-onset MDA block — warm code a full flush must re-pay for.
guest::GuestImage manyWarmBlocksProgram(uint32_t Outer, uint32_t Onset,
                                        unsigned NumFuncs) {
  using namespace guest;
  ProgramBuilder B("many-warm");
  uint32_t Buf = B.dataReserve(4096, 8);
  uint32_t Slot = B.dataU32(Buf);
  std::vector<ProgramBuilder::Label> Funcs;
  for (unsigned F = 0; F != NumFuncs; ++F)
    Funcs.push_back(B.newLabel());

  B.movri(6, 0);
  ProgramBuilder::Label Loop = B.here();
  ProgramBuilder::Label Skip = B.newLabel();
  B.cmpi(6, static_cast<int32_t>(Onset));
  B.jcc(Cond::Ne, Skip);
  B.movri(3, static_cast<int32_t>(Slot));
  B.ldl(0, mem(3, 0));
  B.addi(0, 1);
  B.stl(mem(3, 0), 0);
  B.bind(Skip);
  B.movri(3, static_cast<int32_t>(Slot));
  B.ldl(0, mem(3, 0));
  B.movri(2, 0x42);
  B.stl(mem(0, 0), 2);
  B.stl(mem(0, 8), 2);
  B.ldl(2, mem(0, 0));
  B.chk(2);
  for (ProgramBuilder::Label F : Funcs)
    B.call(F);
  B.addi(6, 1);
  B.cmpi(6, static_cast<int32_t>(Outer));
  B.jcc(Cond::B, Loop);
  B.halt();

  for (unsigned F = 0; F != NumFuncs; ++F) {
    B.bind(Funcs[F]);
    uint32_t FBuf = B.dataReserve(256, 8);
    B.movri(0, static_cast<int32_t>(FBuf));
    B.movri(1, 0);
    ProgramBuilder::Label Inner = B.here();
    B.stl(memIdx(0, 1, 2, 0), 6);
    B.ldl(2, memIdx(0, 1, 2, 0));
    B.addi(1, 1);
    B.cmpi(1, 8);
    B.jcc(Cond::B, Inner);
    B.chk(2);
    B.ret();
  }
  return B.build();
}

/// Like manyWarmBlocksProgram, but the late-onset increment lives in an
/// out-of-line block that jumps back to the shared body.  The MDA sites
/// therefore belong to exactly one block and are never interpreted
/// misaligned, so a dynamic-profiling policy cannot learn them from the
/// onset path — the first misaligned execution must go through the
/// native trap machinery.
guest::GuestImage isolatedOnsetProgram(uint32_t Outer, uint32_t Onset,
                                       unsigned NumFuncs) {
  using namespace guest;
  ProgramBuilder B("isolated-onset");
  uint32_t Buf = B.dataReserve(4096, 8);
  uint32_t Slot = B.dataU32(Buf);
  std::vector<ProgramBuilder::Label> Funcs;
  for (unsigned F = 0; F != NumFuncs; ++F)
    Funcs.push_back(B.newLabel());
  ProgramBuilder::Label Inc = B.newLabel();

  B.movri(6, 0);
  ProgramBuilder::Label Loop = B.here();
  B.cmpi(6, static_cast<int32_t>(Onset));
  B.jcc(Cond::Eq, Inc);
  ProgramBuilder::Label Body = B.here();
  B.movri(3, static_cast<int32_t>(Slot));
  B.ldl(0, mem(3, 0));
  B.movri(2, 0x42);
  B.stl(mem(0, 0), 2);
  B.stl(mem(0, 8), 2);
  B.ldl(2, mem(0, 0));
  B.chk(2);
  for (ProgramBuilder::Label F : Funcs)
    B.call(F);
  B.addi(6, 1);
  B.cmpi(6, static_cast<int32_t>(Outer));
  B.jcc(Cond::B, Loop);
  B.halt();

  // Out-of-line onset block: aligned accesses only.
  B.bind(Inc);
  B.movri(3, static_cast<int32_t>(Slot));
  B.ldl(0, mem(3, 0));
  B.addi(0, 1);
  B.stl(mem(3, 0), 0);
  B.jmp(Body);

  for (unsigned F = 0; F != NumFuncs; ++F) {
    B.bind(Funcs[F]);
    uint32_t FBuf = B.dataReserve(256, 8);
    B.movri(0, static_cast<int32_t>(FBuf));
    B.movri(1, 0);
    ProgramBuilder::Label Inner = B.here();
    B.stl(memIdx(0, 1, 2, 0), 6);
    B.ldl(2, memIdx(0, 1, 2, 0));
    B.addi(1, 1);
    B.cmpi(1, 8);
    B.jcc(Cond::B, Inner);
    B.chk(2);
    B.ret();
  }
  return B.build();
}

} // namespace

TEST(CodeCacheTest, CapacityFlushPreservesCorrectness) {
  // Small cache + several hot blocks: every new install evicts the
  // world.  (A single-block program can never flush: capacity is
  // checked when a new block is installed.)
  guest::GuestImage Image = manyWarmBlocksProgram(300, 1000, 4);
  Oracle O = interpretOracle(Image);
  dbt::EngineConfig Config;
  Config.CodeCacheLimitWords = 64;
  mda::DpehPolicy Policy(10);
  dbt::Engine Engine(Image, Policy, Config);
  dbt::RunResult R = Engine.run();
  expectMatchesOracle(R, O, "tiny code cache");
  EXPECT_GE(R.Counters.get("dbt.flushes"), 1u);
}

TEST(CodeCacheTest, CapacityFlushRetranslatesWarmBlocks) {
  guest::GuestImage Image = manyWarmBlocksProgram(600, 1000, 6);
  Oracle O = interpretOracle(Image);
  dbt::EngineConfig Config;
  Config.CodeCacheLimitWords = 200;
  mda::DpehPolicy Policy(10);
  dbt::Engine Engine(Image, Policy, Config);
  dbt::RunResult R = Engine.run();
  expectMatchesOracle(R, O, "capacity flush, warm blocks");
  EXPECT_GE(R.Counters.get("dbt.flushes"), 1u);
  // More translations than distinct blocks: flush victims came back.
  mda::DpehPolicy Unlimited(10);
  dbt::Engine E2(Image, Unlimited);
  dbt::RunResult RU = E2.run();
  EXPECT_GT(R.Counters.get("dbt.translations"),
            RU.Counters.get("dbt.translations"));
}

TEST(CodeCacheTest, NoFlushWhenUnlimited) {
  guest::GuestImage Image = misalignedSumProgram(500);
  mda::DpehPolicy Policy(10);
  dbt::Engine Engine(Image, Policy);
  dbt::RunResult R = Engine.run();
  EXPECT_EQ(R.Counters.get("dbt.flushes"), 0u);
}

TEST(CodeCacheTest, FlushOnSupersedeIsDynamoStyle) {
  // Retranslation-triggering workload with many warm leaf functions:
  // with FlushOnSupersede the supersede becomes a whole-cache flush,
  // which must re-pay translation for the untouched warm blocks
  // (the paper's section IV-C contrast).
  guest::GuestImage Image = manyWarmBlocksProgram(1200, 400, 8);
  Oracle O = interpretOracle(Image);

  mda::DpehOptions Opts;
  Opts.RetranslateThreshold = 2;
  dbt::EngineConfig Dynamo;
  Dynamo.FlushOnSupersede = true;

  mda::DpehPolicy PolicyA(50, Opts);
  dbt::Engine EngineA(Image, PolicyA, Dynamo);
  dbt::RunResult Flushed = EngineA.run();
  expectMatchesOracle(Flushed, O, "dynamo-style flush");
  EXPECT_GE(Flushed.Counters.get("dbt.flushes"), 1u);

  mda::DpehPolicy PolicyB(50, Opts);
  dbt::Engine EngineB(Image, PolicyB);
  dbt::RunResult BlockGranular = EngineB.run();
  expectMatchesOracle(BlockGranular, O, "block-granularity invalidation");
  EXPECT_EQ(BlockGranular.Counters.get("dbt.flushes"), 0u);

  // Flushing everything re-pays translation for untouched blocks.
  EXPECT_GT(Flushed.Counters.get("dbt.translations"),
            BlockGranular.Counters.get("dbt.translations"));
}

TEST(CodeCacheTest, FlushedFuzzProgramsStayCorrect) {
  for (uint64_t Seed = 200; Seed != 212; ++Seed) {
    RandomProgram Gen(Seed);
    guest::GuestImage Image = Gen.build();
    Oracle O = interpretOracle(Image);
    dbt::EngineConfig Config;
    Config.CodeCacheLimitWords = 256;
    mda::DpehOptions Opts;
    Opts.RetranslateThreshold = 2;
    mda::DpehPolicy Policy(10, Opts);
    dbt::Engine Engine(Image, Policy, Config);
    dbt::RunResult R = Engine.run();
    expectMatchesOracle(
        R, O, ("flush fuzz seed " + std::to_string(Seed)).c_str());
  }
}

namespace {

/// One run under one producer of translations.
struct ProducerRow {
  const char *Name;
  dbt::RunResult R;
  bool Traces; ///< Superblocks on: the trace.* counters are registered
};

/// Run misalignedSumProgram(600) at cache limit \p LimitWords under
/// every producer of translations: demand blocks, superblock traces
/// (with inline caches), AOT units (Full and Hybrid), and the shared
/// translation service cold then warm.  Verify is on throughout and
/// every run must match the interpreter oracle.
std::vector<ProducerRow> runEveryProducer(uint32_t LimitWords) {
  guest::GuestImage Image = misalignedSumProgram(600);
  Oracle O = interpretOracle(Image);
  dbt::TranslationService Service;
  std::vector<ProducerRow> Rows;
  auto Run = [&](const char *Name, auto Configure) {
    dbt::EngineConfig Config;
    Config.CodeCacheLimitWords = LimitWords;
    Config.Verify = true;
    Configure(Config);
    mda::DpehPolicy Policy(10);
    dbt::Engine Engine(Image, Policy, Config);
    Rows.push_back({Name, Engine.run(), Config.Superblocks});
    expectMatchesOracle(Rows.back().R, O, Name);
  };
  auto Traces = [](dbt::EngineConfig &C) {
    C.Superblocks = true;
    C.InlineCaches = true;
  };
  Run("demand", [](dbt::EngineConfig &) {});
  Run("superblocks+ic", Traces);
  Run("aot full", [](dbt::EngineConfig &C) { C.Aot = dbt::AotMode::Full; });
  Run("aot hybrid",
      [](dbt::EngineConfig &C) { C.Aot = dbt::AotMode::Hybrid; });
  for (const char *Name : {"service cold", "service warm"})
    Run(Name, [&](dbt::EngineConfig &C) {
      Traces(C);
      C.Service = &Service;
    });
  return Rows;
}

} // namespace

TEST(CodeCacheTest, CapacitySmallerThanOneBlock) {
  // A limit smaller than a translated block used to mean that block
  // flushed the cache on every install without ever fitting.  The
  // hardened engine detects the oversized install and pins the block
  // interpret-only: the run stays correct, the block never occupies the
  // cache, and once pinned it is never translated again.
  guest::GuestImage Image = manyWarmBlocksProgram(300, 1000, 4);
  Oracle O = interpretOracle(Image);
  dbt::EngineConfig Config;
  Config.CodeCacheLimitWords = 8;
  mda::DpehPolicy Policy(10);
  dbt::Engine Engine(Image, Policy, Config);
  dbt::RunResult R = Engine.run();
  expectMatchesOracle(R, O, "cache smaller than one block");
  EXPECT_GT(R.Counters.get("harden.oversized_pins"), 0u);
  // Pin-once semantics: each oversized block is pinned exactly once, and
  // the pinned set accounts for every pin the run recorded.
  EXPECT_EQ(R.Counters.get("harden.oversized_pins"),
            R.Counters.get("harden.interp_only_blocks"));

  // Every producer contains its own oversized installs.  At 8 words
  // every block is oversized: each producer retires the install and
  // pins the block, exactly once.
  for (const ProducerRow &Row : runEveryProducer(8)) {
    const CounterBag &C = Row.R.Counters;
    EXPECT_GT(C.get("harden.oversized_pins"), 0u) << Row.Name;
    EXPECT_EQ(C.get("harden.oversized_pins"),
              C.get("harden.interp_only_blocks"))
        << Row.Name;
  }
  // At 40 words blocks fit but the loop's superblock does not: it is
  // formed once, retired at once, and formation stops at its head.
  for (const ProducerRow &Row : runEveryProducer(40)) {
    if (!Row.Traces)
      continue;
    const CounterBag &C = Row.R.Counters;
    EXPECT_EQ(C.get("trace.formed"), 1u) << Row.Name;
    EXPECT_EQ(C.get("trace.deopts"), 1u) << Row.Name;
  }
}

TEST(CodeCacheTest, FlushDuringSupersedeRetranslation) {
  // Capacity pressure and retranslation interleave: a capacity flush
  // can arrive while blocks are being superseded at their trap
  // threshold (the superseding install itself can trigger the flush).
  // Both invalidation styles must stay correct.  The isolated-onset
  // program keeps the MDA sites out of any interpreted block, so the
  // trap/supersede path genuinely fires even under constant flushing.
  guest::GuestImage Image = isolatedOnsetProgram(600, 200, 6);
  Oracle O = interpretOracle(Image);
  mda::DpehOptions Opts;
  Opts.RetranslateThreshold = 2;

  dbt::EngineConfig Config;
  Config.CodeCacheLimitWords = 200;
  mda::DpehPolicy PolicyA(10, Opts);
  dbt::Engine EngineA(Image, PolicyA, Config);
  dbt::RunResult R = EngineA.run();
  expectMatchesOracle(R, O, "capacity flush during retranslation");
  EXPECT_GE(R.Counters.get("dbt.fault_traps"), 1u);
  EXPECT_GE(R.Counters.get("dbt.flushes"), 1u);
  EXPECT_GE(R.Counters.get("dbt.supersedes"), 1u);

  dbt::EngineConfig Dynamo = Config;
  Dynamo.FlushOnSupersede = true;
  mda::DpehPolicy PolicyB(10, Opts);
  dbt::Engine EngineB(Image, PolicyB, Dynamo);
  dbt::RunResult RD = EngineB.run();
  expectMatchesOracle(RD, O, "dynamo flush during retranslation");
  EXPECT_GE(RD.Counters.get("dbt.supersedes"), 1u);
  EXPECT_GE(RD.Counters.get("dbt.flushes"), 1u);
}

TEST(CodeCacheTest, ClearEmptiesArena) {
  host::CodeSpace Code;
  Code.append(1);
  Code.append(2);
  EXPECT_EQ(Code.size(), 2u);
  Code.clear();
  EXPECT_EQ(Code.size(), 0u);
  EXPECT_EQ(Code.append(3), 0u);
}

//===----------------------------------------------------------------------===//
// Predecoded-view coherence: Decoded[i] == decodeHost(Words[i]) after
// every mutation path (the invariant documented in CodeSpace.h).
//===----------------------------------------------------------------------===//

namespace {

/// An opcode value outside every HostOp range (12..15 are unassigned).
constexpr uint32_t InvalidWord = 12u << 26;

void expectPredecodeCoherent(const host::CodeSpace &Code) {
  for (uint32_t I = 0; I != Code.size(); ++I) {
    host::HostInst Fresh;
    bool Ok = host::decodeHost(Code.word(I), Fresh);
    const host::CodeSpace::DecodedWord &D = Code.decodedWord(I);
    ASSERT_EQ(D.Valid, Ok) << "stale validity at word " << I;
    if (Ok)
      EXPECT_EQ(host::encodeHost(D.Inst), host::encodeHost(Fresh))
          << "stale instruction at word " << I;
  }
}

} // namespace

TEST(CodeCacheTest, PredecodeCoherentAfterAppendAndPatch) {
  host::CodeSpace Code;
  Code.append(host::encodeHost(host::opInstLit(host::HostOp::Addq, 1, 7, 2)));
  Code.append(host::encodeHost(host::memInst(host::HostOp::Ldl, 3, -8, 4)));
  Code.append(host::encodeHost(host::brInst(host::HostOp::Bne, 5, -2)));
  Code.append(host::encodeHost(host::srvInst(host::SrvFunc::Halt)));
  Code.append(InvalidWord); // undecodable words carry Valid = false
  expectPredecodeCoherent(Code);
  EXPECT_FALSE(Code.decodedWord(4).Valid);

  // Patching flips words between every format, including to and from
  // undecodable; the view must track each store.
  Code.patch(0, host::encodeHost(host::memInst(host::HostOp::LdqU, 3, 0, 4)));
  Code.patch(1, InvalidWord);
  Code.patch(4, host::encodeHost(host::brInst(host::HostOp::Br, 31, 3)));
  expectPredecodeCoherent(Code);
  EXPECT_FALSE(Code.decodedWord(1).Valid);
  EXPECT_TRUE(Code.decodedWord(4).Valid);
}

TEST(CodeCacheTest, PredecodeCoherentUnderTornAndDroppedWrites) {
  host::CodeSpace Code;
  uint32_t Original =
      host::encodeHost(host::opInstLit(host::HostOp::Addq, 1, 1, 1));
  Code.append(Original);
  Code.append(Original);

  // A torn write stores a different word than requested; the predecoded
  // view must follow the word actually stored, not the requested one.
  uint32_t Torn = host::encodeHost(host::memInst(host::HostOp::Stq, 2, 4, 3));
  Code.setPatchHook([&](uint32_t, uint32_t &Word) {
    Word = Torn;
    return true;
  });
  Code.patch(0, host::encodeHost(host::srvInst(host::SrvFunc::Exit)));
  EXPECT_EQ(Code.word(0), Torn);
  expectPredecodeCoherent(Code);

  // A dropped write leaves the old word; the view must not move either.
  Code.setPatchHook([](uint32_t, uint32_t &) { return false; });
  Code.patch(1, InvalidWord);
  EXPECT_EQ(Code.word(1), Original);
  expectPredecodeCoherent(Code);

  // Torn to an undecodable word: the entry must go invalid, because
  // executing it would run a stale instruction for a garbage word.
  Code.setPatchHook([&](uint32_t, uint32_t &Word) {
    Word = InvalidWord;
    return true;
  });
  Code.patch(1, Original);
  EXPECT_FALSE(Code.decodedWord(1).Valid);
  expectPredecodeCoherent(Code);
}

TEST(CodeCacheTest, PredecodeCoherentAcrossClear) {
  host::CodeSpace Code;
  Code.append(host::encodeHost(host::srvInst(host::SrvFunc::Halt)));
  Code.clear();
  Code.append(host::encodeHost(host::opInstLit(host::HostOp::Subq, 6, 1, 6)));
  expectPredecodeCoherent(Code);
  EXPECT_EQ(Code.decodedWord(0).Inst.Op, host::HostOp::Subq);
}

TEST(CodeCacheTest, PatchedWordExecutesOnRetry) {
  // The exception-handler path: a misaligned Ldl traps, the handler
  // patches the faulting word to the never-trapping LdqU and retries —
  // the patched word must execute on the very next fetch from the
  // predecoded view, and every later iteration must run it too.
  constexpr uint32_t Iters = 64;
  constexpr uint64_t Quad = 0x0123456789abcdefULL;
  host::CodeSpace Code;
  {
    host::HostAssembler Asm(Code);
    Asm.materialize32(1, Iters); // loop counter
    Asm.materialize32(2, 4097);  // misaligned address
    host::HostAssembler::Label Loop = Asm.newLabel();
    Asm.bind(Loop);
    Asm.mem(host::HostOp::Ldl, 3, 0, 2); // traps on first execution
    Asm.op(host::HostOp::Addq, 4, 3, 4);
    Asm.opl(host::HostOp::Subq, 1, 1, 1);
    Asm.bne(1, Loop);
    Asm.srv(host::SrvFunc::Halt);
  }
  guest::GuestMemory Mem;
  Mem.store(4096, 8, Quad); // the aligned quad LdqU reads for 4097
  MemoryHierarchy Hier;
  host::CostModel Cost;
  host::HostMachine Machine(Code, Mem, Hier, Cost);
  Machine.setFaultHandler([&](const host::FaultInfo &FI) {
    Code.patch(FI.HostPc,
               host::encodeHost(host::memInst(
                   host::HostOp::LdqU, FI.Inst.Ra, FI.Inst.Disp,
                   FI.Inst.Rb)));
    return host::FaultAction::Retry;
  });
  host::ExitInfo E = Machine.run(0);
  ASSERT_EQ(E.K, host::ExitInfo::Halt);
  expectPredecodeCoherent(Code);
  EXPECT_EQ(Machine.Faults, 1u); // patched after the first trap
  EXPECT_EQ(Machine.R[3], Quad);
  uint64_t Sum = 0;
  for (uint32_t I = 0; I != Iters; ++I)
    Sum += Quad;
  EXPECT_EQ(Machine.R[4], Sum);
}
