//===- tests/host_machine_test.cpp - HAlpha simulator semantics -----------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//

#include "host/CodeSpace.h"
#include "host/HostAssembler.h"
#include "host/HostMachine.h"

#include <gtest/gtest.h>

using namespace mdabt;
using namespace mdabt::host;

namespace {

/// Harness: a code space, guest memory, hierarchy and machine.
struct MachineFixture {
  CodeSpace Code;
  guest::GuestMemory Mem;
  MemoryHierarchy Hier;
  CostModel Cost;
  HostMachine Machine{Code, Mem, Hier, Cost};

  /// Run from word 0; expects a clean Halt exit.
  void runToHalt() {
    ExitInfo E = Machine.run(0);
    ASSERT_EQ(E.K, ExitInfo::Halt);
  }
};

/// Every executed instruction is one L1I access, including the filter
/// hits run() skips and credits in bulk.
void expectFetchesAccounted(const MachineFixture &F) {
  EXPECT_EQ(F.Hier.L1I.hits() + F.Hier.L1I.misses(), F.Machine.Instructions);
}

/// Cycles added by an access that misses both L1 and L2.
uint64_t coldMiss(const MachineFixture &F) {
  return F.Hier.Costs.L2HitCycles + F.Hier.Costs.MemoryCycles;
}

} // namespace

TEST(HostMachineTest, OperateBasics) {
  MachineFixture F;
  HostAssembler Asm(F.Code);
  F.Machine.R[1] = 7;
  F.Machine.R[2] = 3;
  Asm.op(HostOp::Addq, 1, 2, 3);   // r3 = 10
  Asm.opl(HostOp::Mulq, 3, 6, 4);  // r4 = 60
  Asm.op(HostOp::Subq, 4, 1, 5);   // r5 = 53
  Asm.opl(HostOp::Xor, 5, 0xff, 6);
  Asm.srv(SrvFunc::Halt);
  Asm.finish();
  F.runToHalt();
  EXPECT_EQ(F.Machine.R[3], 10u);
  EXPECT_EQ(F.Machine.R[4], 60u);
  EXPECT_EQ(F.Machine.R[5], 53u);
  EXPECT_EQ(F.Machine.R[6], 53ULL ^ 0xff);
}

TEST(HostMachineTest, ZeroRegisterSemantics) {
  MachineFixture F;
  HostAssembler Asm(F.Code);
  Asm.opl(HostOp::Addq, 31, 5, 31); // write to r31 discarded
  Asm.op(HostOp::Addq, 31, 31, 1); // r1 = 0 + 0
  Asm.lda(2, 42, 31);              // r2 = 42
  Asm.srv(SrvFunc::Halt);
  Asm.finish();
  F.Machine.R[31] = 99; // must be ignored by reads
  F.runToHalt();
  EXPECT_EQ(F.Machine.reg(31), 0u);
  EXPECT_EQ(F.Machine.R[1], 0u);
  EXPECT_EQ(F.Machine.R[2], 42u);
}

TEST(HostMachineTest, ThirtyTwoBitOpsZeroExtend) {
  MachineFixture F;
  HostAssembler Asm(F.Code);
  F.Machine.R[1] = 0xffffffff;
  Asm.opl(HostOp::Addl, 1, 1, 2); // r2 = zext32(0x100000000) = 0
  Asm.opl(HostOp::Subl, 31, 1, 3); // r3 = zext32(0 - 1) = 0xffffffff
  F.Machine.R[4] = 0x10000;
  Asm.op(HostOp::Mull, 4, 4, 5); // r5 = zext32(2^32) = 0
  Asm.srv(SrvFunc::Halt);
  Asm.finish();
  F.runToHalt();
  EXPECT_EQ(F.Machine.R[2], 0u);
  EXPECT_EQ(F.Machine.R[3], 0xffffffffu);
  EXPECT_EQ(F.Machine.R[5], 0u);
}

TEST(HostMachineTest, CompareFamily) {
  MachineFixture F;
  HostAssembler Asm(F.Code);
  F.Machine.R[1] = 0xffffffff; // as signed32: -1; as u64: big
  F.Machine.R[2] = 1;
  Asm.op(HostOp::Cmplt32, 1, 2, 3);  // -1 < 1 -> 1
  Asm.op(HostOp::Cmpult, 1, 2, 4);   // big < 1 -> 0
  Asm.op(HostOp::Cmpeq, 1, 1, 5);    // 1
  Asm.op(HostOp::Cmple32, 2, 2, 6);  // 1
  Asm.op(HostOp::Cmplt, 1, 2, 7);    // u64 0xffffffff as s64 positive -> 0
  Asm.srv(SrvFunc::Halt);
  Asm.finish();
  F.runToHalt();
  EXPECT_EQ(F.Machine.R[3], 1u);
  EXPECT_EQ(F.Machine.R[4], 0u);
  EXPECT_EQ(F.Machine.R[5], 1u);
  EXPECT_EQ(F.Machine.R[6], 1u);
  EXPECT_EQ(F.Machine.R[7], 0u);
}

TEST(HostMachineTest, SextZext) {
  MachineFixture F;
  HostAssembler Asm(F.Code);
  F.Machine.R[1] = 0x80000000;
  Asm.op(HostOp::Sextl, 31, 1, 2); // r2 = 0xffffffff80000000
  Asm.op(HostOp::Zextl, 31, 2, 3); // r3 = 0x80000000
  Asm.srv(SrvFunc::Halt);
  Asm.finish();
  F.runToHalt();
  EXPECT_EQ(F.Machine.R[2], 0xffffffff80000000ULL);
  EXPECT_EQ(F.Machine.R[3], 0x80000000ULL);
}

TEST(HostMachineTest, LoadsAndStores) {
  MachineFixture F;
  HostAssembler Asm(F.Code);
  F.Machine.R[1] = 0x1000;
  F.Machine.R[2] = 0x1122334455667788ULL;
  Asm.mem(HostOp::Stq, 2, 0, 1);
  Asm.mem(HostOp::Ldl, 3, 0, 1);  // 0x55667788
  Asm.mem(HostOp::Ldwu, 4, 2, 1); // bytes 2-3 little endian: 0x5566
  Asm.mem(HostOp::Ldbu, 5, 7, 1); // 0x11
  Asm.mem(HostOp::Stb, 5, 8, 1);
  Asm.mem(HostOp::Ldq, 6, 0, 1);
  Asm.srv(SrvFunc::Halt);
  Asm.finish();
  F.runToHalt();
  EXPECT_EQ(F.Machine.R[3], 0x55667788u);
  EXPECT_EQ(F.Machine.R[4], 0x5566u);
  EXPECT_EQ(F.Machine.R[5], 0x11u);
  EXPECT_EQ(F.Machine.R[6], 0x1122334455667788ULL);
  EXPECT_EQ(F.Mem.load(0x1008, 1), 0x11u);
}

TEST(HostMachineTest, LdqUIgnoresLowBits) {
  MachineFixture F;
  F.Mem.store(0x1000, 8, 0xcafebabedeadbeefULL);
  HostAssembler Asm(F.Code);
  F.Machine.R[1] = 0x1003; // misaligned pointer
  Asm.mem(HostOp::LdqU, 2, 0, 1);
  Asm.mem(HostOp::LdqU, 3, 7, 1); // still within the same quadword? 0x100a & ~7 = 0x1008
  Asm.srv(SrvFunc::Halt);
  Asm.finish();
  F.runToHalt();
  EXPECT_EQ(F.Machine.R[2], 0xcafebabedeadbeefULL);
  EXPECT_EQ(F.Machine.R[3], F.Mem.load(0x1008, 8));
  EXPECT_EQ(F.Machine.Faults, 0u);
}

TEST(HostMachineTest, BranchesAndLoops) {
  MachineFixture F;
  HostAssembler Asm(F.Code);
  // r1 = 10; r2 = 0; loop: r2 += r1; r1 -= 1; bne r1, loop
  Asm.lda(1, 10, 31);
  Asm.lda(2, 0, 31);
  auto Loop = Asm.newLabel();
  Asm.bind(Loop);
  Asm.op(HostOp::Addq, 2, 1, 2);
  Asm.opl(HostOp::Subq, 1, 1, 1);
  Asm.bne(1, Loop);
  Asm.srv(SrvFunc::Halt);
  Asm.finish();
  F.runToHalt();
  EXPECT_EQ(F.Machine.R[2], 55u);
}

TEST(HostMachineTest, ConditionalBranchPredicates) {
  MachineFixture F;
  HostAssembler Asm(F.Code);
  F.Machine.R[1] = static_cast<uint64_t>(-5LL);
  auto L1 = Asm.newLabel();
  Asm.blt(1, L1); // taken: -5 < 0
  Asm.srv(SrvFunc::Exit); // must be skipped
  Asm.bind(L1);
  auto L2 = Asm.newLabel();
  Asm.bge(31, L2); // taken: 0 >= 0
  Asm.srv(SrvFunc::Exit);
  Asm.bind(L2);
  auto L3 = Asm.newLabel();
  Asm.beq(1, L3); // not taken
  Asm.srv(SrvFunc::Halt);
  Asm.bind(L3);
  Asm.srv(SrvFunc::Exit);
  Asm.finish();
  F.runToHalt();
}

TEST(HostMachineTest, ExitReportsGuestPcAndSrvWord) {
  MachineFixture F;
  HostAssembler Asm(F.Code);
  Asm.lda(RegExitPc, 0x1234, 31);
  uint32_t SrvW = Asm.srv(SrvFunc::Exit);
  Asm.finish();
  ExitInfo E = F.Machine.run(0);
  EXPECT_EQ(E.K, ExitInfo::Exit);
  EXPECT_EQ(E.GuestPc, 0x1234u);
  EXPECT_EQ(E.SrvWord, SrvW);
}

TEST(HostMachineTest, MisalignmentTrapFixup) {
  MachineFixture F;
  F.Mem.store(0x1001, 4, 0xdeadbeef); // prepare misaligned data
  HostAssembler Asm(F.Code);
  F.Machine.R[1] = 0x1001;
  Asm.mem(HostOp::Ldl, 2, 0, 1); // misaligned -> trap
  Asm.srv(SrvFunc::Halt);
  Asm.finish();
  std::vector<FaultInfo> Seen;
  F.Machine.setFaultHandler([&](const FaultInfo &FI) {
    Seen.push_back(FI);
    return FaultAction::Fixup;
  });
  F.runToHalt();
  ASSERT_EQ(Seen.size(), 1u);
  EXPECT_EQ(Seen[0].HostPc, 0u);
  EXPECT_EQ(Seen[0].Addr, 0x1001u);
  EXPECT_EQ(Seen[0].Inst.Op, HostOp::Ldl);
  EXPECT_EQ(F.Machine.R[2], 0xdeadbeefu);
  EXPECT_EQ(F.Machine.Faults, 1u);
  EXPECT_EQ(F.Machine.Fixups, 1u);
}

TEST(HostMachineTest, MisalignedStoreFixup) {
  MachineFixture F;
  HostAssembler Asm(F.Code);
  F.Machine.R[1] = 0x1002;
  F.Machine.R[2] = 0xa1b2c3d4e5f60718ULL;
  Asm.mem(HostOp::Stq, 2, 0, 1);
  Asm.srv(SrvFunc::Halt);
  Asm.finish();
  F.runToHalt(); // default handler = fixup
  EXPECT_EQ(F.Mem.load(0x1002, 8), 0xa1b2c3d4e5f60718ULL);
  EXPECT_EQ(F.Machine.Faults, 1u);
}

TEST(HostMachineTest, AlignedAccessDoesNotTrap) {
  MachineFixture F;
  HostAssembler Asm(F.Code);
  F.Machine.R[1] = 0x1000;
  Asm.mem(HostOp::Ldl, 2, 0, 1);
  Asm.mem(HostOp::Ldq, 3, 0, 1);
  Asm.mem(HostOp::Ldwu, 4, 2, 1);
  Asm.srv(SrvFunc::Halt);
  Asm.finish();
  F.runToHalt();
  EXPECT_EQ(F.Machine.Faults, 0u);
}

TEST(HostMachineTest, TrapChargesTrapCycles) {
  MachineFixture F;
  HostAssembler Asm(F.Code);
  F.Machine.R[1] = 0x1001;
  Asm.mem(HostOp::Ldl, 2, 0, 1);
  Asm.srv(SrvFunc::Halt);
  Asm.finish();
  F.runToHalt();
  EXPECT_GE(F.Machine.Cycles,
            static_cast<uint64_t>(F.Cost.TrapCycles +
                                  F.Cost.FixupExtraCycles));
}

TEST(HostMachineTest, RetryReexecutesPatchedWord) {
  MachineFixture F;
  HostAssembler Asm(F.Code);
  F.Machine.R[1] = 0x1001;
  uint32_t FaultW = Asm.mem(HostOp::Ldl, 2, 0, 1);
  Asm.srv(SrvFunc::Halt);
  Asm.finish();
  F.Mem.store(0x1001, 4, 0x12345678);
  F.Machine.setFaultHandler([&](const FaultInfo &FI) {
    // Patch the word into "lda r2, 7(r31)" and retry.
    EXPECT_EQ(FI.HostPc, FaultW);
    F.Code.patch(FaultW, encodeHost(memInst(HostOp::Lda, 2, 7, 31)));
    return FaultAction::Retry;
  });
  F.runToHalt();
  EXPECT_EQ(F.Machine.R[2], 7u);
  EXPECT_EQ(F.Machine.Faults, 1u);
  EXPECT_EQ(F.Machine.Fixups, 0u);
}

TEST(HostMachineTest, HandlerHaltAbandonsRun) {
  MachineFixture F;
  HostAssembler Asm(F.Code);
  F.Machine.R[1] = 0x1001;
  Asm.mem(HostOp::Stl, 2, 0, 1);
  Asm.srv(SrvFunc::Halt);
  Asm.finish();
  F.Machine.setFaultHandler(
      [](const FaultInfo &) { return FaultAction::Halt; });
  ExitInfo E = F.Machine.run(0);
  EXPECT_EQ(E.K, ExitInfo::Halt);
}

TEST(HostMachineTest, RunawayGuardTrips) {
  MachineFixture F;
  HostAssembler Asm(F.Code);
  auto L = Asm.newLabel();
  Asm.bind(L);
  Asm.br(L); // infinite loop
  Asm.finish();
  F.Machine.MaxInstsPerRun = 1000;
  ExitInfo E = F.Machine.run(0);
  EXPECT_EQ(E.K, ExitInfo::Limit);
  EXPECT_EQ(F.Machine.Instructions, 1000u); // the guard is exact
}

TEST(HostMachineTest, ShiftsUse64BitAmounts) {
  MachineFixture F;
  HostAssembler Asm(F.Code);
  F.Machine.R[1] = 1;
  Asm.opl(HostOp::Sll, 1, 40, 2); // r2 = 1 << 40
  Asm.opl(HostOp::Srl, 2, 8, 3);  // r3 = 1 << 32
  F.Machine.R[4] = 0x8000000000000000ULL;
  Asm.opl(HostOp::Sra, 4, 63, 5); // r5 = all ones
  Asm.srv(SrvFunc::Halt);
  Asm.finish();
  F.runToHalt();
  EXPECT_EQ(F.Machine.R[2], 1ULL << 40);
  EXPECT_EQ(F.Machine.R[3], 1ULL << 32);
  EXPECT_EQ(F.Machine.R[5], ~0ULL);
}

TEST(HostMachineTest, MaterializeHelpers) {
  const uint32_t Values[] = {0,          1,          0x7fff,     0x8000,
                             0xffff,     0x10000,    0x12345678, 0x7fffffff,
                             0x80000000, 0xdeadbeef, 0xffffffff};
  for (uint32_t V : Values) {
    MachineFixture F;
    HostAssembler Asm(F.Code);
    Asm.materialize32(1, V);
    Asm.materializeSext32(2, static_cast<int32_t>(V));
    Asm.srv(SrvFunc::Halt);
    Asm.finish();
    F.runToHalt();
    EXPECT_EQ(F.Machine.R[1], static_cast<uint64_t>(V)) << "value " << V;
    EXPECT_EQ(F.Machine.R[2],
              static_cast<uint64_t>(
                  static_cast<int64_t>(static_cast<int32_t>(V))))
        << "value " << V;
  }
}

TEST(HostMachineTest, LdahArithmetic) {
  MachineFixture F;
  HostAssembler Asm(F.Code);
  Asm.ldah(1, 2, 31);   // r1 = 0x20000
  Asm.ldah(2, -1, 31);  // r2 = -65536
  Asm.srv(SrvFunc::Halt);
  Asm.finish();
  F.runToHalt();
  EXPECT_EQ(F.Machine.R[1], 0x20000u);
  EXPECT_EQ(F.Machine.R[2], static_cast<uint64_t>(-65536LL));
}

//===----------------------------------------------------------------------===//
// The callout contract: run() keeps its counters in locals, writes them
// back before the fault handler, a watched store or an exit, and
// re-reads what a callout may change after it.
//===----------------------------------------------------------------------===//

TEST(HostMachineTest, FetchesAccountedOnStraightLineAcrossLines) {
  MachineFixture F;
  HostAssembler Asm(F.Code);
  for (int I = 0; I != 40; ++I) // 41 words: three 16-word L1I lines
    Asm.lda(1, I, 31);
  Asm.srv(SrvFunc::Halt);
  Asm.finish();
  F.runToHalt();
  EXPECT_EQ(F.Machine.Instructions, 41u);
  EXPECT_EQ(F.Hier.L1I.misses(), 3u);
  EXPECT_EQ(F.Hier.L1I.hits(), 38u);
  EXPECT_EQ(F.Machine.Cycles, 41 + 3 * coldMiss(F));
  expectFetchesAccounted(F);

  // A second run() starts with no pending hits and its lines cached.
  F.runToHalt();
  EXPECT_EQ(F.Machine.Instructions, 82u);
  EXPECT_EQ(F.Hier.L1I.misses(), 3u);
  expectFetchesAccounted(F);
}

TEST(HostMachineTest, FetchesAccountedOnBackwardBranchWithinALine) {
  MachineFixture F;
  HostAssembler Asm(F.Code);
  Asm.lda(1, 10, 31);
  auto Loop = Asm.newLabel();
  Asm.bind(Loop);
  Asm.opl(HostOp::Subq, 1, 1, 1);
  Asm.bne(1, Loop);
  Asm.srv(SrvFunc::Halt);
  Asm.finish();
  F.runToHalt();
  EXPECT_EQ(F.Machine.Instructions, 22u);
  EXPECT_EQ(F.Hier.L1I.misses(), 1u);
  EXPECT_EQ(F.Machine.Cycles, 22 + coldMiss(F));
  expectFetchesAccounted(F);
}

TEST(HostMachineTest, FetchesAccountedAcrossRetryAndFixup) {
  MachineFixture F;
  HostAssembler Asm(F.Code);
  F.Machine.R[1] = 0x1001;
  uint32_t RetryW = Asm.mem(HostOp::Ldl, 2, 0, 1); // patched, retried
  Asm.mem(HostOp::Ldl, 3, 0, 1);                   // fixed up
  Asm.srv(SrvFunc::Halt);
  Asm.finish();
  F.Machine.setFaultHandler([&](const FaultInfo &FI) {
    expectFetchesAccounted(F);
    if (FI.HostPc != RetryW)
      return FaultAction::Fixup;
    F.Code.patch(RetryW, encodeHost(memInst(HostOp::Lda, 2, 7, 31)));
    return FaultAction::Retry;
  });
  F.runToHalt();
  // The trapping ldl, its patched retry, the fixed-up ldl, the halt.
  EXPECT_EQ(F.Machine.Instructions, 4u);
  EXPECT_EQ(F.Machine.Faults, 2u);
  EXPECT_EQ(F.Machine.Fixups, 1u);
  EXPECT_EQ(F.Machine.R[2], 7u);
  expectFetchesAccounted(F);
}

TEST(HostMachineTest, FetchesAccountedAtStopAndLimit) {
  MachineFixture F;
  HostAssembler Asm(F.Code);
  F.Machine.R[1] = 0x1000;
  uint32_t StoreW = Asm.mem(HostOp::Stq, 31, 0, 1);
  auto Loop = Asm.newLabel();
  Asm.bind(Loop);
  Asm.br(Loop);
  Asm.finish();
  F.Mem.setWriteWatcher([&](uint32_t, unsigned) {
    expectFetchesAccounted(F);
    F.Machine.stopAt(StoreW + 1, 0x42);
  });
  F.Mem.watchRange(0x1000, 0x1008);
  ExitInfo E = F.Machine.run(0);
  EXPECT_EQ(E.K, ExitInfo::Stop);
  EXPECT_EQ(F.Machine.Instructions, 1u);
  expectFetchesAccounted(F);

  // The same store again, but the limit ends the loop first.
  F.Mem.setWriteWatcher([](uint32_t, unsigned) {});
  F.Machine.MaxInstsPerRun = 100;
  E = F.Machine.run(0);
  EXPECT_EQ(E.K, ExitInfo::Limit);
  EXPECT_EQ(F.Machine.Instructions, 101u);
  expectFetchesAccounted(F);
}

TEST(HostMachineTest, WatcherSeesExactCountersAndStopsOnNextWord) {
  MachineFixture F;
  HostAssembler Asm(F.Code);
  Asm.lda(1, 0x1000, 31);
  Asm.lda(2, 5, 31);
  uint32_t StoreW = Asm.mem(HostOp::Stq, 2, 0, 1);
  Asm.lda(3, 9, 31); // the stop word: must not execute
  Asm.srv(SrvFunc::Halt);
  Asm.finish();
  struct {
    uint32_t Word = 0;
    uint64_t Insts = 0, Cycles = 0, Stores = 0;
  } Seen;
  unsigned Calls = 0;
  F.Mem.setWriteWatcher([&](uint32_t, unsigned) {
    ++Calls;
    Seen = {F.Machine.currentWord(), F.Machine.Instructions, F.Machine.Cycles,
            F.Machine.Stores};
    F.Machine.stopAt(F.Machine.currentWord() + 1, 0x777);
  });
  F.Mem.watchRange(0x1000, 0x1008);
  ExitInfo E = F.Machine.run(0);
  ASSERT_EQ(Calls, 1u);
  EXPECT_EQ(Seen.Word, StoreW);
  EXPECT_EQ(Seen.Insts, 3u);
  EXPECT_EQ(Seen.Stores, 1u);
  // One cycle per instruction, one cold fetch (all three words share
  // an L1I line) and the store's cold data access.
  EXPECT_EQ(Seen.Cycles, 3 + 2 * coldMiss(F));
  EXPECT_EQ(E.K, ExitInfo::Stop);
  EXPECT_EQ(E.GuestPc, 0x777u);
  EXPECT_EQ(E.SrvWord, StoreW + 1);
  EXPECT_EQ(F.Machine.Instructions, 3u);
  EXPECT_EQ(F.Machine.Cycles, Seen.Cycles);
  EXPECT_EQ(F.Machine.R[3], 0u);
  EXPECT_EQ(F.Mem.load(0x1000, 8), 5u);
}

TEST(HostMachineTest, HandlerSeesTheTrappingInstructionCounted) {
  MachineFixture F;
  HostAssembler Asm(F.Code);
  F.Machine.R[1] = 0x1001;
  Asm.lda(2, 1, 31);
  uint32_t TrapW = Asm.mem(HostOp::Ldl, 3, 0, 1);
  Asm.srv(SrvFunc::Halt);
  Asm.finish();
  struct {
    uint32_t Word = 0;
    uint64_t Insts = 0, Cycles = 0;
  } Seen;
  F.Machine.setFaultHandler([&](const FaultInfo &) {
    Seen = {F.Machine.currentWord(), F.Machine.Instructions,
            F.Machine.Cycles};
    F.Machine.addCycles(F.Cost.PatchExtraCycles); // codegen work
    return FaultAction::Fixup;
  });
  F.runToHalt();
  EXPECT_EQ(Seen.Word, TrapW);
  EXPECT_EQ(Seen.Insts, 2u);
  EXPECT_EQ(Seen.Cycles, 2 + coldMiss(F) + F.Cost.TrapCycles);
  // After it: the handler's cycles, the fixup, its two data accesses
  // (one cold line) and the halt.
  EXPECT_EQ(F.Machine.Instructions, 3u);
  EXPECT_EQ(F.Machine.Cycles, 3 + coldMiss(F) + F.Cost.TrapCycles +
                                  F.Cost.PatchExtraCycles +
                                  F.Cost.FixupExtraCycles + coldMiss(F));
  EXPECT_EQ(F.Machine.R[3], 0u);
}

TEST(HostMachineTest, CalloutThatMovesTheArenaIsSafe) {
  // The fault handler emits a stub long enough to reallocate the arena
  // and redirects the trapping word to it; the watcher emits more code
  // on a store inside the stub.  Execution must follow the new arena.
  MachineFixture F;
  HostAssembler Asm(F.Code);
  F.Machine.R[1] = 0x1001;
  F.Machine.R[4] = 0x2000;
  uint32_t TrapW = Asm.mem(HostOp::Ldl, 2, 0, 1);
  uint32_t AfterW = Asm.opl(HostOp::Addq, 2, 1, 3);
  Asm.srv(SrvFunc::Halt);
  Asm.finish();
  constexpr uint32_t Nops = 4000;
  F.Machine.setFaultHandler([&](const FaultInfo &FI) {
    uint32_t Stub = F.Code.size();
    F.Code.append(encodeHost(memInst(HostOp::Lda, 2, 7, 31)));
    F.Code.append(encodeHost(memInst(HostOp::Stq, 2, 0, 4)));
    for (uint32_t I = 0; I != Nops; ++I)
      F.Code.append(encodeHost(opInst(HostOp::Bis, 31, 31, 31)));
    F.Code.append(*branchTo(F.Code.size(), AfterW));
    F.Code.patch(FI.HostPc, *branchTo(FI.HostPc, Stub));
    return FaultAction::Retry;
  });
  F.Mem.setWriteWatcher([&](uint32_t, unsigned) {
    for (uint32_t I = 0; I != Nops; ++I)
      F.Code.append(encodeHost(srvInst(SrvFunc::Halt)));
  });
  F.Mem.watchRange(0x2000, 0x2008);
  F.runToHalt();
  EXPECT_EQ(F.Machine.R[2], 7u);
  EXPECT_EQ(F.Machine.R[3], 8u);
  EXPECT_EQ(F.Mem.load(0x2000, 8), 7u);
  EXPECT_EQ(F.Machine.Faults, 1u);
  // Trap, branch to the stub, lda, stq, the nops, branch back, addq,
  // halt.
  EXPECT_EQ(F.Machine.Instructions, 1 + 1 + 2 + Nops + 1 + 1 + 1);
  EXPECT_EQ(F.Code.word(TrapW), *branchTo(TrapW, 3));
  expectFetchesAccounted(F);
}

TEST(HostMachineTest, StopAtFiresOnAnyWord) {
  // Arm the stop (from the watcher on word 0's store) at every later
  // word in turn, including a backward-branch target and the halt.
  MachineFixture F;
  HostAssembler Asm(F.Code);
  F.Machine.R[1] = 0x1000;
  Asm.mem(HostOp::Stq, 31, 0, 1);
  Asm.lda(2, 3, 31);
  auto Loop = Asm.newLabel();
  Asm.bind(Loop);
  Asm.opl(HostOp::Subq, 2, 1, 2);
  Asm.bne(2, Loop);
  Asm.lda(4, 1, 31);
  Asm.srv(SrvFunc::Halt);
  Asm.finish();
  // Instructions executed before control first reaches each word.
  const uint64_t Before[] = {0, 1, 2, 3, 8, 9};
  uint32_t Target = 0;
  F.Mem.setWriteWatcher(
      [&](uint32_t, unsigned) { F.Machine.stopAt(Target, 0x100 + Target); });
  F.Mem.watchRange(0x1000, 0x1008);
  for (Target = 1; Target != F.Code.size(); ++Target) {
    uint64_t Start = F.Machine.Instructions;
    ExitInfo E = F.Machine.run(0);
    EXPECT_EQ(E.K, ExitInfo::Stop) << "stop at word " << Target;
    EXPECT_EQ(E.SrvWord, Target);
    EXPECT_EQ(E.GuestPc, 0x100 + Target);
    EXPECT_EQ(F.Machine.Instructions - Start, Before[Target])
        << "stop at word " << Target;
    EXPECT_EQ(F.Machine.currentWord(), Target);
  }
  expectFetchesAccounted(F);
}

TEST(HostMachineTest, ZeroRegisterAsLoadDestinationAndToolkitSource) {
  MachineFixture F;
  constexpr uint64_t V = 0x1122334455667788ULL;
  F.Mem.store(0x1000, 8, 0xfeedfacecafebeefULL);
  HostAssembler Asm(F.Code);
  F.Machine.R[1] = 0x1000;
  F.Machine.R[5] = V;
  for (unsigned R = 2; R != 13; ++R)
    if (R != 5)
      F.Machine.R[R] = 0xbad;
  Asm.op(HostOp::Bis, 5, 5, 31);      // a write to R31 is discarded
  Asm.mem(HostOp::Ldq, 31, 0, 1);     // counted, value discarded
  Asm.mem(HostOp::LdqU, 31, 3, 1);    // likewise
  Asm.op(HostOp::Extql, 5, 31, 2);    // shift 0: r5
  Asm.op(HostOp::Extqh, 5, 31, 3);    // shift 0: 0
  Asm.op(HostOp::Insql, 5, 31, 4);    // shift 0: r5
  Asm.op(HostOp::Mskwl, 5, 31, 6);    // clears the low word
  Asm.op(HostOp::Mskqh, 31, 5, 7);    // A = 0
  Asm.opl(HostOp::Extll, 31, 2, 8);   // A = 0
  Asm.opl(HostOp::Inswl, 31, 1, 9);   // A = 0
  Asm.opl(HostOp::Msklh, 31, 3, 10);  // A = 0
  Asm.opl(HostOp::Extll, 5, 2, 11);   // bytes 2..5 of r5
  Asm.opl(HostOp::Mskqh, 5, 0, 12);   // shift 0: r5
  Asm.srv(SrvFunc::Halt);
  Asm.finish();
  F.Machine.R[31] = 99; // run() zeroes it
  F.runToHalt();
  EXPECT_EQ(F.Machine.Loads, 2u);
  EXPECT_EQ(F.Machine.reg(31), 0u);
  EXPECT_EQ(F.Machine.R[31], 0u);
  EXPECT_EQ(F.Machine.R[2], V);
  EXPECT_EQ(F.Machine.R[3], 0u);
  EXPECT_EQ(F.Machine.R[4], V);
  EXPECT_EQ(F.Machine.R[6], V & ~0xffffULL);
  EXPECT_EQ(F.Machine.R[7], 0u);
  EXPECT_EQ(F.Machine.R[8], 0u);
  EXPECT_EQ(F.Machine.R[9], 0u);
  EXPECT_EQ(F.Machine.R[10], 0u);
  EXPECT_EQ(F.Machine.R[11], 0x33445566u);
  EXPECT_EQ(F.Machine.R[12], V);
}
