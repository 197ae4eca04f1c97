//===- tests/translator_test.cpp - Block translator correctness -----------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translates single guest blocks and executes them on the host machine,
/// comparing register/memory effects against the interpreter, across all
/// three memory-operation plans (Normal / Inline / MultiVersion).
///
//===----------------------------------------------------------------------===//

#include "dbt/GuestBlock.h"
#include "dbt/Translator.h"
#include "guest/Assembler.h"
#include "guest/Interpreter.h"
#include "host/HostAssembler.h"
#include "host/HostMachine.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace mdabt;
using namespace mdabt::dbt;

namespace {

/// Translate the block at the image entry under \p Plan, run both the
/// interpreter and the host machine from identical state, and compare
/// the final guest-visible state and the exit PC.
struct BlockHarness {
  explicit BlockHarness(const guest::GuestImage &Image, MemPlan Plan)
      : Plan(Plan) {
    InterpMem.loadImage(Image);
    HostMem.loadImage(Image);
    Cpu.reset(Image);
    Block = discoverBlock(InterpMem, Image.Entry);
  }

  void run() {
    // Interpreter side.
    guest::GuestCPU ICpu = Cpu;
    guest::Interpreter Interp(InterpMem);
    Interp.stepBlock(ICpu);

    // Translated side.
    host::CodeSpace Code;
    Translator Trans(Code);
    Translation T = Trans.translate(
        Block, [&](uint32_t, const guest::GuestInst &) { return Plan; });
    MemoryHierarchy Hier;
    host::CostModel Cost;
    host::HostMachine Machine(Code, HostMem, Hier, Cost);
    Machine.setFaultHandler([&](const host::FaultInfo &) {
      ++HostFaults;
      return host::FaultAction::Fixup;
    });
    for (unsigned I = 0; I != guest::NumGPR; ++I)
      Machine.R[hostGpr(I)] = Cpu.Gpr[I];
    for (unsigned I = 0; I != guest::NumQReg; ++I)
      Machine.R[hostQ(I)] = Cpu.Qreg[I];
    Machine.R[host::RegChecksum] = Cpu.Checksum;

    host::ExitInfo E = Machine.run(T.EntryWord);
    if (ICpu.Halted) {
      EXPECT_EQ(E.K, host::ExitInfo::Halt);
    } else {
      ASSERT_EQ(E.K, host::ExitInfo::Exit);
      EXPECT_EQ(E.GuestPc, ICpu.Pc) << "exit PC diverged";
    }
    for (unsigned I = 0; I != guest::NumGPR; ++I)
      EXPECT_EQ(static_cast<uint32_t>(Machine.R[hostGpr(I)]), ICpu.Gpr[I])
          << "GPR " << I;
    for (unsigned I = 0; I != guest::NumQReg; ++I)
      EXPECT_EQ(Machine.R[hostQ(I)], ICpu.Qreg[I]) << "Q" << I;
    EXPECT_EQ(Machine.R[host::RegChecksum], ICpu.Checksum) << "checksum";
    EXPECT_EQ(0, std::memcmp(InterpMem.data(), HostMem.data(),
                             InterpMem.size()))
        << "guest memory diverged";
  }

  MemPlan Plan;
  guest::GuestMemory InterpMem;
  guest::GuestMemory HostMem;
  guest::GuestCPU Cpu;
  GuestBlock Block;
  unsigned HostFaults = 0;
};

const MemPlan AllPlans[] = {MemPlan::Normal, MemPlan::Inline,
                            MemPlan::MultiVersion};

} // namespace

TEST(GuestBlockTest, DiscoversUpToTerminator) {
  guest::ProgramBuilder B("t");
  B.movri(0, 1);
  B.addi(0, 2);
  auto L = B.newLabel();
  B.jmp(L);
  B.bind(L);
  B.halt();
  guest::GuestImage Image = B.build();
  guest::GuestMemory Mem;
  Mem.loadImage(Image);
  GuestBlock Blk = discoverBlock(Mem, Image.Entry);
  ASSERT_EQ(Blk.size(), 3u);
  EXPECT_EQ(Blk.Insts.back().Op, guest::Opcode::Jmp);
  GuestBlock Tail = discoverBlock(Mem, Blk.Insts.back().branchTarget(
                                           Blk.InstPcs.back()));
  ASSERT_EQ(Tail.size(), 1u);
  EXPECT_EQ(Tail.Insts[0].Op, guest::Opcode::Halt);
}

TEST(TranslatorTest, StraightLineAlu) {
  for (MemPlan P : AllPlans) {
    guest::ProgramBuilder B("t");
    B.movri(0, 100);
    B.movri(1, 7);
    B.add(0, 1);
    B.muli(0, 3);
    B.subi(0, 21);    // 300
    B.movri(2, -1);
    B.xori(2, 0xff);  // 0xffffff00
    B.movri(3, 0x80000000);
    B.shri(3, 4);
    B.chk(0);
    B.halt();
    BlockHarness H(B.build(), P);
    H.run();
  }
}

TEST(TranslatorTest, ShiftVariants) {
  guest::ProgramBuilder B("t");
  B.movri(0, 0x80000001);
  B.movri(1, 33); // masked to 1
  B.movri(2, 0x80000001);
  B.shl(2, 1);
  B.movri(3, 0x80000001);
  B.shr(3, 1);
  B.movri(5, -64);
  B.sari(5, 3);
  B.movri(6, -64);
  B.movri(7, 2);
  B.sar(6, 7);
  B.halt();
  BlockHarness H(B.build(), MemPlan::Normal);
  H.run();
}

TEST(TranslatorTest, AlignedMemoryOps) {
  for (MemPlan P : AllPlans) {
    guest::ProgramBuilder B("t");
    uint32_t Buf = B.dataReserve(128, 8);
    B.movri(0, static_cast<int32_t>(Buf));
    B.movri(1, 0x11223344);
    B.stl(guest::mem(0, 0), 1);
    B.ldl(2, guest::mem(0, 0));
    B.stw(guest::mem(0, 8), 1);
    B.ldw(3, guest::mem(0, 8));
    B.stb(guest::mem(0, 12), 1);
    B.ldb(5, guest::mem(0, 12));
    B.qmovi(0, -7);
    B.stq(guest::mem(0, 16), 0);
    B.ldq(1, guest::mem(0, 16));
    B.qchk(1);
    B.halt();
    BlockHarness H(B.build(), P);
    H.run();
    EXPECT_EQ(H.HostFaults, 0u) << "aligned ops must not fault";
  }
}

TEST(TranslatorTest, MisalignedMemoryOpsInlinePlanAvoidsFaults) {
  guest::ProgramBuilder B("t");
  uint32_t Buf = B.dataReserve(128, 8);
  B.movri(0, static_cast<int32_t>(Buf + 1));
  B.movri(1, 0xdeadbeef);
  B.stl(guest::mem(0, 0), 1);
  B.ldl(2, guest::mem(0, 0));
  B.qmovi(0, 12345);
  B.stq(guest::mem(0, 8), 0);
  B.ldq(1, guest::mem(0, 8));
  B.stw(guest::mem(0, 20), 1);
  B.ldw(3, guest::mem(0, 20));
  B.halt();
  guest::GuestImage Image = B.build();
  {
    BlockHarness H(Image, MemPlan::Inline);
    H.run();
    EXPECT_EQ(H.HostFaults, 0u) << "inline MDA sequences never trap";
  }
  {
    BlockHarness H(Image, MemPlan::MultiVersion);
    H.run();
    EXPECT_EQ(H.HostFaults, 0u) << "multi-version code never traps";
  }
  {
    BlockHarness H(Image, MemPlan::Normal);
    H.run();
    EXPECT_EQ(H.HostFaults, 6u) << "normal plan faults on each MDA";
  }
}

TEST(TranslatorTest, AddressingModes) {
  for (MemPlan P : AllPlans) {
    guest::ProgramBuilder B("t");
    uint32_t Buf = B.dataReserve(4096, 8);
    B.movri(0, static_cast<int32_t>(Buf));
    B.movri(1, 5); // index
    B.movri(2, 0xabcd1234);
    B.stl(guest::memIdx(0, 1, 2, 8), 2);       // Buf + 20 + 8
    B.ldl(3, guest::mem(0, 28));
    B.stl(guest::memIdx(0, 1, 3, 1), 2);       // Buf + 40 + 1 (misaligned)
    B.ldl(5, guest::memIdx(0, 1, 3, 1));
    B.lea(6, guest::memIdx(0, 1, 1, -2));      // Buf + 10 - 2
    B.halt();
    BlockHarness H(B.build(), P);
    H.run();
  }
}

TEST(TranslatorTest, LargeDisplacements) {
  for (MemPlan P : AllPlans) {
    guest::ProgramBuilder B("t");
    uint32_t Buf = B.dataReserve(200000, 8);
    B.movri(0, static_cast<int32_t>(Buf));
    B.movri(1, 0x5a5a5a5a);
    B.stl(guest::mem(0, 100001), 1); // misaligned, disp32
    B.ldl(2, guest::mem(0, 100001));
    B.stq(guest::mem(0, 131072), 1); // aligned? Buf is 8-aligned, disp 2^17
    B.halt();
    BlockHarness H(B.build(), P);
    H.run();
  }
}

TEST(TranslatorTest, NegativeDisplacement) {
  for (MemPlan P : AllPlans) {
    guest::ProgramBuilder B("t");
    uint32_t Buf = B.dataReserve(64, 8);
    B.movri(0, static_cast<int32_t>(Buf + 32));
    B.movri(1, 42);
    B.stl(guest::mem(0, -13), 1); // misaligned negative disp
    B.ldl(2, guest::mem(0, -13));
    B.halt();
    BlockHarness H(B.build(), P);
    H.run();
  }
}

TEST(TranslatorTest, CompareAndBranchAllConditions) {
  const guest::Cond Conds[] = {guest::Cond::Eq, guest::Cond::Ne,
                               guest::Cond::Lt, guest::Cond::Ge,
                               guest::Cond::Le, guest::Cond::Gt,
                               guest::Cond::B,  guest::Cond::Ae};
  const int32_t Pairs[][2] = {{1, 2},  {2, 1},   {3, 3},
                              {-1, 1}, {1, -1},  {-5, -5},
                              {0, 0},  {INT32_MIN, INT32_MAX}};
  for (guest::Cond C : Conds) {
    for (const auto &P : Pairs) {
      guest::ProgramBuilder B("t");
      B.movri(0, P[0]);
      B.movri(1, P[1]);
      auto L = B.newLabel();
      B.cmp(0, 1);
      B.jcc(C, L);
      B.movri(2, 111);
      B.bind(L);
      B.halt();
      // Only translate the first block (up to the Jcc).
      BlockHarness H(B.build(), MemPlan::Normal);
      H.run();
    }
  }
}

TEST(TranslatorTest, CompareImmediateForms) {
  for (int32_t Imm : {0, 1, 255, 256, -1, 100000, INT32_MIN}) {
    guest::ProgramBuilder B("t");
    B.movri(0, 77);
    auto L = B.newLabel();
    B.cmpi(0, Imm);
    B.jcc(guest::Cond::Lt, L);
    B.movri(1, 1);
    B.bind(L);
    B.halt();
    BlockHarness H(B.build(), MemPlan::Normal);
    H.run();
  }
}

TEST(TranslatorTest, CallPushesReturnAddress) {
  guest::ProgramBuilder B("t");
  auto Fn = B.newLabel();
  B.movri(0, 5);
  B.call(Fn);
  B.bind(Fn);
  B.halt();
  BlockHarness H(B.build(), MemPlan::Normal);
  H.run();
}

TEST(TranslatorTest, RetPopsReturnAddress) {
  // Build a block that is just "ret", with the stack prepared.
  guest::ProgramBuilder B("t");
  B.ret();
  guest::GuestImage Image = B.build();
  // Prepare a return address on the stack in both memories via image
  // data?  Simpler: seed the stack via CPU + memory stores below.
  BlockHarness H(Image, MemPlan::Normal);
  H.Cpu.Gpr[guest::RegSP] = guest::layout::StackTop - 4;
  H.InterpMem.store(H.Cpu.Gpr[guest::RegSP], 4, 0x4000);
  H.HostMem.store(H.Cpu.Gpr[guest::RegSP], 4, 0x4000);
  H.run();
}

TEST(TranslatorTest, QRegisterOps) {
  guest::ProgramBuilder B("t");
  B.qmovi(0, -100000);
  B.qmovi(1, 300);
  B.qadd(0, 1);
  B.qaddi(0, 77);
  B.qaddi(0, -1000);
  B.movri(3, 0xdead);
  B.gtoq(2, 3);
  B.qxor(0, 2);
  B.qtog(5, 0);
  B.qchk(0);
  B.halt();
  BlockHarness H(B.build(), MemPlan::Normal);
  H.run();
}

TEST(TranslatorTest, MovriExtremes) {
  for (int32_t V : {0, 1, 0x7fff, 0x8000, -1, INT32_MAX, INT32_MIN,
                    0x12345678}) {
    guest::ProgramBuilder B("t");
    B.movri(0, V);
    B.chk(0);
    B.halt();
    BlockHarness H(B.build(), MemPlan::Normal);
    H.run();
  }
}

TEST(TranslatorTest, StubEmissionAndPatching) {
  // Manually exercise the exception handler's code path: emit a stub for
  // a faulting ldl and patch the site.
  host::CodeSpace Code;
  Translator Trans(Code);
  host::HostAssembler Asm(Code);
  uint32_t FaultW = Asm.mem(host::HostOp::Ldl, 3, 1, 2);
  Asm.srv(host::SrvFunc::Halt);
  Asm.finish();

  host::HostInst Faulting;
  ASSERT_TRUE(host::decodeHost(Code.word(FaultW), Faulting));
  std::optional<Translator::StubInfo> S = Trans.emitStub(Faulting, FaultW);
  ASSERT_TRUE(S);
  Code.patch(FaultW, *host::branchTo(FaultW, S->Entry));

  guest::GuestMemory Mem;
  Mem.store(0x1001, 4, 0xfeedf00d);
  MemoryHierarchy Hier;
  host::CostModel Cost;
  host::HostMachine Machine(Code, Mem, Hier, Cost);
  Machine.setFaultHandler([](const host::FaultInfo &) {
    ADD_FAILURE() << "patched code must not fault";
    return host::FaultAction::Halt;
  });
  Machine.R[2] = 0x1000;
  ASSERT_EQ(Machine.run(0).K, host::ExitInfo::Halt);
  EXPECT_EQ(Machine.R[3], 0xfeedf00du);
  EXPECT_EQ(Machine.Faults, 0u);
}

TEST(TranslatorTest, RecordsMemWordMapping) {
  guest::ProgramBuilder B("t");
  uint32_t Buf = B.dataReserve(64, 8);
  B.movri(0, static_cast<int32_t>(Buf));
  B.ldl(1, guest::mem(0, 0));  // trapping-capable
  B.ldb(2, guest::mem(0, 4));  // byte: never traps, not recorded
  B.stq(guest::mem(0, 8), 0);  // trapping-capable
  B.halt();
  guest::GuestImage Image = B.build();
  guest::GuestMemory Mem;
  Mem.loadImage(Image);
  GuestBlock Blk = discoverBlock(Mem, Image.Entry);
  host::CodeSpace Code;
  Translator Trans(Code);
  Translation T = Trans.translate(
      Blk, [](uint32_t, const guest::GuestInst &) { return MemPlan::Normal; });
  EXPECT_EQ(T.Rec->MemWordToGuestPc.size(), 2u);
  EXPECT_EQ(T.Rec->GuestInsts, Blk.size());
  EXPECT_GT(T.EndWord, T.EntryWord);
}
