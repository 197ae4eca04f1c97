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
/// Every configuration must preserve differential correctness.  The
/// CodeCacheUnitTest suite drives dbt::CodeCache directly, without an
/// engine.
///
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "TestUtil.h"

#include "analysis/HostVerifier.h"
#include "dbt/CodeCache.h"
#include "dbt/TranslationCapture.h"
#include "dbt/TranslationService.h"
#include "dbt/Translator.h"
#include "host/CodeSpace.h"
#include "host/HostAssembler.h"
#include "host/HostMachine.h"
#include "mda/Policies.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <random>

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
// Execution-view coherence: View[i] == lowerHostWord(Words[i]) after
// every mutation path (the invariant documented in CodeSpace.h).
//===----------------------------------------------------------------------===//

namespace {

/// An opcode value outside every HostOp range (12..15 are unassigned).
constexpr uint32_t InvalidWord = 12u << 26;

bool executable(const host::CodeSpace &Code, uint32_t I) {
  return Code.exec(I).Op != host::ExecOp::Invalid;
}

void expectPredecodeCoherent(const host::CodeSpace &Code) {
  for (uint32_t I = 0; I != Code.size(); ++I) {
    host::HostInst Fresh;
    bool Ok = host::decodeHost(Code.word(I), Fresh);
    ASSERT_EQ(executable(Code, I), Ok) << "stale validity at word " << I;
    EXPECT_EQ(Code.exec(I), host::lowerHostWord(Code.word(I)))
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
  Code.append(InvalidWord); // undecodable words lower to Invalid
  expectPredecodeCoherent(Code);
  EXPECT_FALSE(executable(Code, 4));

  // The lowered fields: literal folded into the handler, R31 to the sink.
  EXPECT_EQ(Code.exec(0).Op, host::ExecOp::AddqL);
  EXPECT_EQ(Code.exec(0).Imm, 7);
  EXPECT_EQ(Code.exec(1).Op, host::ExecOp::Ldl);
  EXPECT_EQ(Code.exec(1).Dst, 3);
  EXPECT_EQ(Code.exec(1).SrcB, 4);
  EXPECT_EQ(Code.exec(1).Imm, -8);
  EXPECT_EQ(Code.exec(2).Imm, -2);
  EXPECT_EQ(Code.exec(3).Op, host::ExecOp::SrvHalt);
  Code.append(host::encodeHost(host::opInst(host::HostOp::Bis, 1, 2, 31)));
  EXPECT_EQ(Code.exec(5).Dst, host::RegSink);
  Code.truncate(5);

  // Patching flips words between every format, including to and from
  // undecodable; the view must track each store.
  Code.patch(0, host::encodeHost(host::memInst(host::HostOp::LdqU, 3, 0, 4)));
  Code.patch(1, InvalidWord);
  Code.patch(4, host::encodeHost(host::brInst(host::HostOp::Br, 31, 3)));
  expectPredecodeCoherent(Code);
  EXPECT_FALSE(executable(Code, 1));
  EXPECT_TRUE(executable(Code, 4));
}

TEST(CodeCacheTest, PredecodeCoherentUnderTornAndDroppedWrites) {
  host::CodeSpace Code;
  uint32_t Original =
      host::encodeHost(host::opInstLit(host::HostOp::Addq, 1, 1, 1));
  Code.append(Original);
  Code.append(Original);

  // A torn write stores a different word than requested; the execution
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
  EXPECT_FALSE(executable(Code, 1));
  expectPredecodeCoherent(Code);
}

TEST(CodeCacheTest, PredecodeCoherentAcrossTruncate) {
  host::CodeSpace Code;
  Code.append(host::encodeHost(host::opInstLit(host::HostOp::Addq, 1, 1, 1)));
  Code.append(host::encodeHost(host::srvInst(host::SrvFunc::Exit)));
  Code.append(InvalidWord);
  // An abandoned emission: the dropped tail's entries must go with it,
  // so a word appended at the same index is lowered afresh.
  Code.truncate(1);
  EXPECT_EQ(Code.size(), 1u);
  expectPredecodeCoherent(Code);
  EXPECT_EQ(Code.append(host::encodeHost(host::srvInst(host::SrvFunc::Halt))),
            1u);
  expectPredecodeCoherent(Code);
  EXPECT_EQ(Code.exec(1).Op, host::ExecOp::SrvHalt);
}

TEST(CodeCacheTest, PredecodeCoherentAcrossClear) {
  host::CodeSpace Code;
  Code.append(host::encodeHost(host::srvInst(host::SrvFunc::Halt)));
  Code.clear();
  Code.append(host::encodeHost(host::opInstLit(host::HostOp::Subq, 6, 1, 6)));
  expectPredecodeCoherent(Code);
  EXPECT_EQ(Code.exec(0).Op, host::ExecOp::SubqL);
}

namespace {

/// The lowering spelled out per format from decodeHost's fields: the
/// reference lowerHostWord's table must agree with.
host::ExecEntry referenceLowering(uint32_t Word) {
  using host::ExecOp;
  using host::HostOp;
  host::ExecEntry E;
  host::HostInst I;
  if (!host::decodeHost(Word, I))
    return E;
  auto Dest = [](uint8_t R) {
    return R == host::RegZero ? host::RegSink : R;
  };
  if (host::isMemFormat(I.Op)) {
    static const std::map<HostOp, ExecOp> Ops = {
        {HostOp::Lda, ExecOp::Lda},   {HostOp::Ldah, ExecOp::Lda},
        {HostOp::Ldbu, ExecOp::Ldbu}, {HostOp::Ldwu, ExecOp::Ldwu},
        {HostOp::Ldl, ExecOp::Ldl},   {HostOp::Ldq, ExecOp::Ldq},
        {HostOp::LdqU, ExecOp::LdqU}, {HostOp::Stb, ExecOp::Stb},
        {HostOp::Stw, ExecOp::Stw},   {HostOp::Stl, ExecOp::Stl},
        {HostOp::Stq, ExecOp::Stq},   {HostOp::StqU, ExecOp::StqU}};
    E.Op = Ops.at(I.Op);
    if (host::isHostStore(I.Op))
      E.SrcA = I.Ra;
    else
      E.Dst = Dest(I.Ra);
    E.SrcB = I.Rb;
    E.Imm = I.Op == HostOp::Ldah ? I.Disp * 65536 : I.Disp;
  } else if (host::isOperateFormat(I.Op)) {
    static const std::map<HostOp, ExecOp> Ops = {
#define MDABT_REF_OPERATE(N) {HostOp::N, ExecOp::N##R},
        MDABT_HOST_OPERATE_OPS(MDABT_REF_OPERATE)
#undef MDABT_REF_OPERATE
    };
    // 37..39 sit inside the operate range but name no instruction.
    auto It = Ops.find(I.Op);
    if (It == Ops.end())
      return E;
    E.Op = static_cast<ExecOp>(static_cast<unsigned>(It->second) +
                               (I.IsLit ? 1 : 0));
    E.Dst = Dest(I.Rc);
    E.SrcA = I.Ra;
    if (I.IsLit)
      E.Imm = I.Lit;
    else
      E.SrcB = I.Rb;
  } else if (host::isBranchFormat(I.Op)) {
    static const std::map<HostOp, ExecOp> Ops = {{HostOp::Br, ExecOp::Br},
                                                 {HostOp::Beq, ExecOp::Beq},
                                                 {HostOp::Bne, ExecOp::Bne},
                                                 {HostOp::Blt, ExecOp::Blt},
                                                 {HostOp::Bge, ExecOp::Bge}};
    E.Op = Ops.at(I.Op);
    E.SrcA = I.Ra;
    E.Imm = I.Disp;
  } else if (I.Disp == static_cast<int32_t>(host::SrvFunc::Exit)) {
    E.Op = ExecOp::SrvExit;
  } else if (I.Disp == static_cast<int32_t>(host::SrvFunc::Halt)) {
    E.Op = ExecOp::SrvHalt;
  }
  return E;
}

} // namespace

TEST(CodeCacheTest, LoweringReadsEveryWordAsDecodeHostDoes) {
  // Every opcode value, with random and all-ones/all-zero operand bits
  // (garbage in the bits a format ignores included).
  std::mt19937 Rng(7);
  for (uint32_t Op = 0; Op != 64; ++Op) {
    std::vector<uint32_t> Bits = {0, 0x3ffffff, 0x1000, 0x1f, 0x10000,
                                  0x8000, 0x100000, 1};
    for (int K = 0; K != 2000; ++K)
      Bits.push_back(Rng() & 0x3ffffff);
    for (uint32_t B : Bits) {
      uint32_t Word = Op << 26 | B;
      ASSERT_EQ(host::lowerHostWord(Word), referenceLowering(Word))
          << "word 0x" << std::hex << Word;
    }
  }
}

TEST(CodeCacheTest, PatchedWordExecutesOnRetry) {
  // The exception-handler path: a misaligned Ldl traps, the handler
  // patches the faulting word to the never-trapping LdqU and retries —
  // the patched word must execute on the very next fetch from the
  // execution view, and every later iteration must run it too.
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

//===----------------------------------------------------------------------===//
// CodeCache without an engine: translations the Translator emits for a
// four-block guest program, installed, chained and retired directly.
//===----------------------------------------------------------------------===//

namespace {

const uint32_t SrvExitWord =
    host::encodeHost(host::srvInst(host::SrvFunc::Exit));
const uint32_t IcDisabledGuard = host::encodeHost(
    host::brInst(host::HostOp::Br, host::RegZero,
                 static_cast<int32_t>(dbt::IcWayWords) - 1));

/// Four small blocks on one 64-byte watch page:
///   0: ldl r3, [r4]; jmp 1   (a trapping-capable load, a direct exit)
///   1: addi r1, 1; jmpr r2   (an indirect exit with inline-cache ways)
///   2: addi r1, 2; jmpr r2   (the same)
///   3: addi r1, 3; jmp 1     (a direct exit)
struct CacheHarness {
  CacheHarness()
      : Cache(Code, Mem, obs::Tracer(), /*PatchFailureLimit=*/0,
              [this] { ++PatchAborts; }) {
    guest::ProgramBuilder B("codecache-unit");
    guest::ProgramBuilder::Label One = B.newLabel();
    Pc[0] = B.codeAddress();
    B.ldl(3, guest::mem(4, 0));
    B.jmp(One);
    Pc[1] = B.codeAddress();
    B.bind(One);
    B.addi(1, 1);
    B.jmpr(2);
    Pc[2] = B.codeAddress();
    B.addi(1, 2);
    B.jmpr(2);
    Pc[3] = B.codeAddress();
    B.addi(1, 3);
    B.jmp(One);
    End = B.codeAddress();
    Mem.loadImage(B.build());
    Mem.setWriteWatcher([](uint32_t, unsigned) {});
  }

  /// Translate block \p I at the arena tail (every site Normal, two
  /// inline-cache ways per indirect exit) without installing it.
  dbt::Translation &translate(unsigned I) {
    dbt::TranslationOpts Opts;
    Opts.IcWays = 2;
    return Cache.add(Trans.translate(
        dbt::discoverBlock(Mem, Pc[I]),
        [](uint32_t, const guest::GuestInst &) { return dbt::MemPlan::Normal; },
        0, Opts));
  }

  dbt::Translation &place(dbt::Translation &T) {
    Cache.install(T, 0);
    Cache.map(T);
    return T;
  }

  dbt::Translation &install(unsigned I) { return place(translate(I)); }

  /// Chain \p Src's direct exit to \p Target; returns the exit word.
  uint32_t chain(dbt::Translation &Src, dbt::Translation &Target) {
    for (size_t I = 0; I != Src.Rec->Exits.size(); ++I) {
      const dbt::TranslationRecord::RelExit &X = Src.Rec->Exits[I];
      if (X.Direct && X.TargetGuestPc == Target.GuestPc) {
        EXPECT_TRUE(Cache.chain(Src.exitWord(I), Target));
        Src.Chained[I] = true;
        return Src.exitWord(I);
      }
    }
    ADD_FAILURE() << "no direct exit to " << Target.GuestPc;
    return 0;
  }

  guest::GuestMemory Mem;
  host::CodeSpace Code;
  dbt::Translator Trans{Code};
  uint32_t PatchAborts = 0;
  dbt::CodeCache Cache;
  uint32_t Pc[4] = {};
  uint32_t End = 0;
};

using Victims = std::vector<dbt::Translation *>;

} // namespace

TEST(CodeCacheUnitTest, RetireUnlinksChainsAndInlineCaches) {
  CacheHarness H;
  dbt::Translation &A = H.install(0);
  dbt::Translation &B = H.install(1);
  dbt::Translation &C = H.install(2);
  dbt::Translation &D = H.install(3);
  uint32_t FromA = H.chain(A, B);
  uint32_t FromD = H.chain(D, B);
  uint32_t Way = 0;
  ASSERT_EQ(H.Cache.fillIc(C, 0, B, Way), dbt::CodeCache::IcFill::Filled);
  ASSERT_NE(H.Code.word(FromA), SrvExitWord);
  ASSERT_NE(H.Code.word(Way), IcDisabledGuard);
  EXPECT_EQ(H.Cache.lookup(H.Pc[1]), &B);

  EXPECT_TRUE(H.Cache.retire(B));
  EXPECT_EQ(H.Code.word(FromA), SrvExitWord);
  EXPECT_EQ(H.Code.word(FromD), SrvExitWord);
  EXPECT_EQ(H.Code.word(Way), IcDisabledGuard);
  EXPECT_FALSE(C.IcSites[0].Ways[0].Filled);
  EXPECT_EQ(H.Cache.stats().IcEvictions, 1u);
  EXPECT_EQ(H.Cache.lookup(H.Pc[1]), nullptr);
  EXPECT_EQ(H.Cache.lookup(H.Pc[0]), &A);
  // The dead body stays resolvable (a trap may still be in flight from
  // it) until the arena is flushed.
  uint32_t BEntry = B.EntryWord;
  EXPECT_EQ(H.Cache.owner(BEntry), &B);
  EXPECT_EQ(H.PatchAborts, 0u);
  H.Cache.flush();
  EXPECT_EQ(H.Cache.owner(BEntry), nullptr);
}

TEST(CodeCacheUnitTest, DroppedUnchainIsQuarantinedAndReported) {
  CacheHarness H;
  dbt::Translation &A = H.install(0);
  dbt::Translation &B = H.install(1);
  uint32_t FromA = H.chain(A, B);
  uint32_t Chained = H.Code.word(FromA);
  // Every write of `srv Exit` is dropped; the rollback write is not.
  H.Code.setPatchHook(
      [](uint32_t, uint32_t &W) { return W != SrvExitWord; });

  EXPECT_FALSE(H.Cache.retire(B));
  EXPECT_TRUE(H.Cache.quarantined(FromA));
  EXPECT_EQ(H.Code.word(FromA), Chained); // rolled back, still intact
  EXPECT_EQ(H.Cache.stats().PatchFailures, 1u);
  EXPECT_EQ(H.PatchAborts, 0u); // the rollback stuck and no limit is set
  // The verifier excuses the quarantined word until the next flush.
  EXPECT_TRUE(analysis::verifyCodeSpace(H.Code, H.Cache.verifierInput()).ok());
  H.Cache.flush();
  EXPECT_FALSE(H.Cache.quarantined(FromA));
}

TEST(CodeCacheUnitTest, FlushEmptiesArenaAndWatches) {
  CacheHarness H;
  for (unsigned I = 0; I != 4; ++I)
    H.install(I);
  EXPECT_GT(H.Mem.watchedPages(), 0u);
  // A retired translation was unwatched already; flush must not unwatch
  // it twice.
  H.Cache.retire(*H.Cache.lookup(H.Pc[2]));
  H.Cache.flush();
  EXPECT_EQ(H.Code.size(), 0u);
  EXPECT_EQ(H.Cache.size(), 0u);
  EXPECT_EQ(H.Mem.watchedPages(), 0u);
  for (uint32_t Pc : H.Pc)
    EXPECT_EQ(H.Cache.lookup(Pc), nullptr);
}

TEST(CodeCacheUnitTest, OverlapQueryIsByteExactAndOrderedByEntry) {
  CacheHarness H;
  constexpr uint32_t Shift = guest::GuestMemory::WatchPageShift;
  ASSERT_EQ(H.Pc[0] >> Shift, (H.End - 1) >> Shift)
      << "the four blocks must share one watch page";
  dbt::Translation &B = H.translate(1);
  dbt::Translation &C = H.translate(2);
  dbt::Translation &A = H.translate(0);
  // Installed out of entry order, so the page index lists them so too.
  H.place(C);
  H.place(A);
  H.place(B);

  // A store inside block 1 hits only its translation: the neighbours
  // share the watch page but not the bytes.
  EXPECT_EQ(H.Cache.overlapping(H.Pc[1], 1), Victims{&B});
  // A store across the 1/2 boundary hits both, by entry word.
  EXPECT_EQ(H.Cache.overlapping(H.Pc[2] - 2, 4), (Victims{&B, &C}));
  EXPECT_TRUE(H.Cache.overlapping(H.End, 4).empty());
  // Retired translations are no longer victims.
  H.Cache.retire(B);
  EXPECT_EQ(H.Cache.overlapping(H.Pc[2] - 2, 4), Victims{&C});
}

TEST(CodeCacheUnitTest, VerifierInputOfChainedPairAndStubPasses) {
  CacheHarness H;
  dbt::Translation &A = H.install(0);
  dbt::Translation &B = H.install(1);
  H.chain(A, B);
  // Redirect block 0's load to an MDA stub, the way the exception
  // handler does.
  ASSERT_EQ(A.Rec->MemWordToGuestPc.size(), 1u);
  uint32_t Fault = A.EntryWord + A.Rec->MemWordToGuestPc[0].first;
  host::HostInst Load;
  ASSERT_TRUE(host::decodeHost(H.Code.word(Fault), Load));
  std::optional<dbt::Translator::StubInfo> S = H.Trans.emitStub(Load, Fault);
  ASSERT_TRUE(S);
  ASSERT_TRUE(
      H.Cache.patchVerified(Fault, *host::branchTo(Fault, S->Entry)));
  H.Cache.addStub(A, Fault, S->Entry, S->End, /*Adaptive=*/false);
  EXPECT_FALSE(A.siteAt(Fault));
  EXPECT_EQ(H.Cache.owner(S->Entry), &A);

  analysis::VerifierInput In = H.Cache.verifierInput();
  ASSERT_EQ(In.Blocks.size(), 2u);
  ASSERT_EQ(In.Blocks[0].Stubs.size(), 1u);
  analysis::VerifyReport R = analysis::verifyCodeSpace(H.Code, In);
  EXPECT_TRUE(R.ok()) << analysis::verifyIssueToString(R.Issues.front());
  // Without the stub region the patched branch lands nowhere live.
  In.Blocks[0].Stubs.clear();
  EXPECT_FALSE(analysis::verifyCodeSpace(H.Code, In).ok());
}

// A body retired while it still runs (a supersede from inside its own
// trap handler) stays owned until the next flush.  The copy installed
// from a service entry shares that entry's record and must keep
// answering the trap path's and the write barrier's lookups.
TEST(CodeCacheUnitTest, RetiredServedBodyKeepsAnsweringLookups) {
  guest::ProgramBuilder PB("codecache-lifetime");
  uint32_t LoadPc = PB.codeAddress();
  PB.ldl(3, guest::mem(4, 0));
  PB.stl(guest::mem(4, 8), 3);
  uint32_t HaltPc = PB.codeAddress();
  PB.halt();
  guest::GuestMemory Mem;
  Mem.loadImage(PB.build());
  Mem.setWriteWatcher([](uint32_t, unsigned) {});
  host::CodeSpace Code;
  dbt::Translator Trans(Code);
  dbt::CodeCache Cache(Code, Mem, obs::Tracer(), 0, [] {});
  dbt::TranslationService Svc;

  // Publish the block from a scratch arena, then install a copy of the
  // shared entry, as a second tenant would.
  dbt::GuestBlock Block = dbt::discoverBlock(Mem, LoadPc);
  dbt::Translator::PlanFn Plan = [](uint32_t, const guest::GuestInst &) {
    return dbt::MemPlan::Normal;
  };
  dbt::CacheKey Key = dbt::translationContentKey(Mem, &Block, 1, Plan,
                                                 dbt::TranslationOpts(), false);
  host::CodeSpace Scratch;
  dbt::Translator Producer(Scratch);
  std::optional<dbt::Translation> Produced;
  dbt::Served Got = dbt::acquireOrPublish(
      Svc, Key, [&]() -> const dbt::Translation & {
        Produced.emplace(Producer.translate(Block, Plan));
        return *Produced;
      });
  ASSERT_FALSE(Got.Hit);
  Produced.reset();
  Code.append(0); // a different base than the producer's
  dbt::Translation &T = Cache.instantiate(std::move(Got.Rec), 0);
  EXPECT_EQ(T.Rec, Svc.acquire(Key)) << "the copy shares the entry's record";
  Cache.install(T, 0);
  Cache.map(T);

  uint32_t LoadWord = 0, StoreWord = 0;
  for (uint32_t W = T.EntryWord; W != T.EndWord; ++W)
    if (std::optional<uint32_t> Pc = T.siteAt(W))
      (*Pc == LoadPc ? LoadWord : StoreWord) = W;
  ASSERT_NE(LoadWord, 0u);
  ASSERT_NE(StoreWord, 0u);
  std::optional<dbt::SmcResume> Want = T.resumeAt(StoreWord);
  ASSERT_TRUE(Want);
  // The store traps and is redirected to a stub.
  host::HostInst Store;
  ASSERT_TRUE(host::decodeHost(Code.word(StoreWord), Store));
  std::optional<dbt::Translator::StubInfo> S = Trans.emitStub(Store, StoreWord);
  ASSERT_TRUE(S);
  ASSERT_TRUE(Cache.patchVerified(StoreWord,
                                  *host::branchTo(StoreWord, S->Entry)));
  Cache.addStub(T, StoreWord, S->Entry, S->End, /*Adaptive=*/false);

  Cache.retire(T);

  EXPECT_EQ(Cache.owner(LoadWord), &T);
  EXPECT_EQ(T.siteAt(LoadWord), LoadPc);
  EXPECT_FALSE(T.siteAt(StoreWord));
  EXPECT_FALSE(T.resumeAt(LoadWord));
  for (uint32_t W : {StoreWord, S->Entry, S->End - 1}) {
    std::optional<dbt::SmcResume> R = T.resumeAt(W);
    ASSERT_TRUE(R) << W;
    EXPECT_EQ(R->EndWord, Want->EndWord);
    EXPECT_EQ(R->ResumePc, Want->ResumePc);
  }
  EXPECT_EQ(Want->ResumePc, HaltPc);
}
