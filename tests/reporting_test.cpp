//===- tests/reporting_test.cpp - Reporting / native-sim / dump tests -----==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "dbt/Disassembly.h"
#include "dbt/GuestBlock.h"
#include "dbt/Translator.h"
#include "guest/NativeSim.h"
#include "host/HostAssembler.h"
#include "reporting/Experiment.h"

#include <gtest/gtest.h>

using namespace mdabt;
using namespace mdabt::testutil;

TEST(NativeSimTest, CountsInstructionsAndRefs) {
  guest::ProgramBuilder B("t");
  uint32_t Buf = B.dataReserve(64, 8);
  B.movri(0, static_cast<int32_t>(Buf));
  B.movri(1, 7);
  B.stl(guest::mem(0, 0), 1);
  B.ldl(2, guest::mem(0, 0));
  B.chk(2);
  B.halt();
  guest::NativeRunResult R = guest::runNative(B.build());
  EXPECT_EQ(R.Instructions, 6u);
  EXPECT_EQ(R.MemoryRefs, 2u);
  EXPECT_EQ(R.Mdas, 0u);
  EXPECT_GT(R.Cycles, R.Instructions); // cold caches cost something
  EXPECT_EQ(R.Checksum, 7u);
}

TEST(NativeSimTest, MisalignedAccessesCostMore) {
  auto MakeProgram = [](int Bump) {
    guest::ProgramBuilder B("t");
    uint32_t Buf = B.dataReserve(64 * 1024 + 16, 8);
    B.movri(0, static_cast<int32_t>(Buf + Bump));
    B.movri(1, 0);
    guest::ProgramBuilder::Label Loop = B.here();
    B.stq(guest::memIdx(0, 1, 3, 0), 0);
    B.ldq(0, guest::memIdx(0, 1, 3, 0));
    B.addi(1, 1);
    B.cmpi(1, 4000);
    B.jcc(guest::Cond::B, Loop);
    B.halt();
    return B.build();
  };
  guest::NativeRunResult Aligned = guest::runNative(MakeProgram(0));
  guest::NativeRunResult Mis = guest::runNative(MakeProgram(1));
  EXPECT_EQ(Aligned.Mdas, 0u);
  EXPECT_EQ(Mis.Mdas, 8000u);
  EXPECT_EQ(Aligned.Instructions, Mis.Instructions);
  EXPECT_GT(Mis.Cycles, Aligned.Cycles);
}

TEST(NativeSimTest, ByteAccessesNeverMisalign) {
  guest::ProgramBuilder B("t");
  uint32_t Buf = B.dataReserve(64, 8);
  B.movri(0, static_cast<int32_t>(Buf + 3));
  B.movri(1, 0x41);
  B.stb(guest::mem(0, 0), 1);
  B.ldb(2, guest::mem(0, 0));
  B.halt();
  guest::NativeRunResult R = guest::runNative(B.build());
  EXPECT_EQ(R.Mdas, 0u);
}

TEST(ReportingTest, GainOver) {
  EXPECT_DOUBLE_EQ(reporting::gainOver(100, 90), 0.10);
  EXPECT_DOUBLE_EQ(reporting::gainOver(100, 110), -0.10);
  EXPECT_DOUBLE_EQ(reporting::gainOver(0, 50), 0.0);
}

TEST(ReportingTest, NormalizedSeriesGeomean) {
  reporting::NormalizedSeries S;
  S.Label = "x";
  S.Values = {1.0, 4.0};
  EXPECT_NEAR(S.geomean(), 2.0, 1e-12);
}

TEST(ReportingTest, CensusOfKnownProgram) {
  guest::GuestImage Image = misalignedSumProgram(100);
  reporting::CensusResult C = reporting::runCensus(Image);
  EXPECT_EQ(C.Mdas, 200u); // one store + one load per iteration
  EXPECT_EQ(C.Nmi, 2u);
  EXPECT_EQ(C.Refs, 200u);
  EXPECT_DOUBLE_EQ(C.Ratio, 1.0);
  EXPECT_EQ(C.Bias.Always, 2u);
}

TEST(ReportingTest, RunPolicyEndToEnd) {
  const workloads::BenchmarkInfo *Info =
      workloads::findBenchmark("470.lbm");
  ASSERT_NE(Info, nullptr);
  workloads::ScaleConfig Scale;
  Scale.TotalRefs = 40000;
  dbt::RunResult R = reporting::runPolicy(
      *Info, {mda::MechanismKind::Dpeh, 50, false, 0, false}, Scale);
  EXPECT_TRUE(R.completed()) << dbt::runErrorName(R.Error);
  EXPECT_GT(R.Cycles, 0u);
}

TEST(DisassemblyTest, DumpAnnotatesTranslation) {
  guest::ProgramBuilder B("t");
  uint32_t Buf = B.dataReserve(64, 8);
  B.movri(0, static_cast<int32_t>(Buf));
  B.ldl(1, guest::mem(0, 0));
  auto L = B.newLabel();
  B.jmp(L);
  B.bind(L);
  B.halt();
  guest::GuestImage Image = B.build();
  guest::GuestMemory Mem;
  Mem.loadImage(Image);
  dbt::GuestBlock Blk = dbt::discoverBlock(Mem, Image.Entry);
  host::CodeSpace Code;
  dbt::Translator Trans(Code);
  dbt::Translation T = Trans.translate(
      Blk, [](uint32_t, const guest::GuestInst &) {
        return dbt::MemPlan::Normal;
      });
  std::string Dump = dbt::dumpTranslation(T, Code);
  EXPECT_NE(Dump.find("may trap"), std::string::npos);
  EXPECT_NE(Dump.find("exit to guest"), std::string::npos);
  EXPECT_NE(Dump.find("ldl"), std::string::npos);
  EXPECT_NE(Dump.find("srv"), std::string::npos);
}

TEST(DisassemblyTest, MarksPatchedWords) {
  host::CodeSpace Code;
  {
    host::HostAssembler Asm(Code);
    Asm.mem(host::HostOp::Ldl, 1, 0, 2);
    Asm.srv(host::SrvFunc::Halt);
    Asm.finish();
  }
  auto R = std::make_shared<dbt::TranslationRecord>();
  R->GuestPc = 0x1000;
  R->Words.assign(Code.data(), Code.data() + Code.size());
  dbt::Translation T(R, 0, 0);
  T.patch(0, Code.size(), Code.size(), /*Adaptive=*/false);
  std::string Dump = dbt::dumpTranslation(T, Code);
  EXPECT_NE(Dump.find("patched by the exception handler"),
            std::string::npos);
}
