//===- tests/mda_sequences_test.cpp - MDA code sequence properties --------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests for DESIGN.md invariant 2: for every access size, every
/// byte offset within (and across) quadword boundaries, load and store,
/// the MDA code sequence (a) produces bit-identical results to a plain
/// unaligned access, and (b) never raises a misalignment trap.
///
//===----------------------------------------------------------------------===//

#include "host/CodeSpace.h"
#include "host/HostAssembler.h"
#include "host/HostMachine.h"
#include "host/MdaSequences.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

using namespace mdabt;
using namespace mdabt::host;

namespace {

struct SeqParam {
  unsigned Size;
  uint32_t Offset; ///< base-address byte offset within a 16-byte window
  int32_t Disp;    ///< displacement fed to the sequence
};

class MdaSequenceTest : public ::testing::TestWithParam<SeqParam> {};

constexpr uint32_t Base = 0x2000;

uint64_t patternAt(RNG &R) { return R.next(); }

} // namespace

TEST_P(MdaSequenceTest, LoadMatchesUnalignedLoad) {
  SeqParam P = GetParam();
  CodeSpace Code;
  guest::GuestMemory Mem;
  MemoryHierarchy Hier;
  CostModel Cost;
  HostMachine Machine(Code, Mem, Hier, Cost);
  Machine.setFaultHandler([](const FaultInfo &) {
    ADD_FAILURE() << "MDA load sequence raised a misalignment trap";
    return FaultAction::Halt;
  });

  RNG R(P.Size * 1000 + P.Offset * 10 + static_cast<uint32_t>(P.Disp));
  // Fill a window with a random pattern.
  for (uint32_t A = Base - 32; A < Base + 64; A += 8)
    Mem.store(A, 8, patternAt(R));

  HostAssembler Asm(Code);
  emitMdaLoad(Asm, P.Size, /*Ra=*/1, /*Rb=*/2, P.Disp);
  Asm.srv(SrvFunc::Halt);
  Asm.finish();

  uint32_t Addr = Base + P.Offset;
  Machine.R[2] = Addr;
  ASSERT_EQ(Machine.run(0).K, ExitInfo::Halt);
  uint64_t Expected = Mem.load(Addr + P.Disp, P.Size);
  EXPECT_EQ(Machine.R[1], Expected)
      << "size=" << P.Size << " offset=" << P.Offset << " disp=" << P.Disp;
  EXPECT_EQ(Machine.Faults, 0u);
}

TEST_P(MdaSequenceTest, StoreMatchesUnalignedStore) {
  SeqParam P = GetParam();
  CodeSpace Code;
  guest::GuestMemory Mem;
  MemoryHierarchy Hier;
  CostModel Cost;
  HostMachine Machine(Code, Mem, Hier, Cost);
  Machine.setFaultHandler([](const FaultInfo &) {
    ADD_FAILURE() << "MDA store sequence raised a misalignment trap";
    return FaultAction::Halt;
  });

  RNG R(P.Size * 7777 + P.Offset * 13 + static_cast<uint32_t>(P.Disp));
  std::vector<uint64_t> Window;
  for (uint32_t A = Base - 32; A < Base + 64; A += 8) {
    uint64_t V = patternAt(R);
    Window.push_back(V);
    Mem.store(A, 8, V);
  }
  uint64_t Value = patternAt(R);

  HostAssembler Asm(Code);
  emitMdaStore(Asm, P.Size, /*Rv=*/1, /*Rb=*/2, P.Disp);
  Asm.srv(SrvFunc::Halt);
  Asm.finish();

  uint32_t Addr = Base + P.Offset;
  Machine.R[1] = Value;
  Machine.R[2] = Addr;
  ASSERT_EQ(Machine.run(0).K, ExitInfo::Halt);
  EXPECT_EQ(Machine.Faults, 0u);

  // Reference: apply the store to a scratch copy and compare the whole
  // window (the sequence must not disturb neighbouring bytes).
  guest::GuestMemory Ref;
  {
    size_t Idx = 0;
    for (uint32_t A = Base - 32; A < Base + 64; A += 8)
      Ref.store(A, 8, Window[Idx++]);
  }
  Ref.store(Addr + P.Disp, P.Size, Value);
  for (uint32_t A = Base - 32; A < Base + 64; ++A)
    ASSERT_EQ(Mem.load(A, 1), Ref.load(A, 1))
        << "byte " << A << " size=" << P.Size << " offset=" << P.Offset
        << " disp=" << P.Disp;
  // Also check around the target when the displacement lands outside the
  // patterned window.
  uint32_t Target = Addr + static_cast<uint32_t>(P.Disp);
  for (uint32_t A = Target - 8; A < Target + 16; ++A)
    ASSERT_EQ(Mem.load(A, 1), Ref.load(A, 1)) << "target byte " << A;
  // The value register must be preserved.
  EXPECT_EQ(Machine.R[1], Value);
}

namespace {

std::vector<SeqParam> allParams() {
  std::vector<SeqParam> Params;
  for (unsigned Size : {2u, 4u, 8u})
    for (uint32_t Offset = 0; Offset != 16; ++Offset)
      for (int32_t Disp : {0, 1, 3, 8, -3, 100, 32000})
        Params.push_back({Size, Offset, Disp});
  return Params;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(AllSizesOffsetsDisps, MdaSequenceTest,
                         ::testing::ValuesIn(allParams()),
                         [](const ::testing::TestParamInfo<SeqParam> &I) {
                           // Appended piece by piece: GCC 12 warns
                           // (-Wrestrict) on `"m" + std::string&&`.
                           std::string Name = "s";
                           Name.append(std::to_string(I.param.Size))
                               .append("_o")
                               .append(std::to_string(I.param.Offset))
                               .append(I.param.Disp < 0 ? "_dm" : "_d")
                               .append(std::to_string(I.param.Disp < 0
                                                          ? -I.param.Disp
                                                          : I.param.Disp));
                           return Name;
                         });

TEST(MdaSequenceLengthTest, MatchesEmittedLength) {
  CodeSpace Code;
  {
    HostAssembler Asm(Code);
    emitMdaLoad(Asm, 4, 1, 2, 0);
    Asm.finish();
  }
  EXPECT_EQ(Code.size(), mdaLoadLength());
  uint32_t Before = Code.size();
  {
    HostAssembler Asm(Code);
    emitMdaStore(Asm, 8, 1, 2, 0);
    Asm.finish();
  }
  EXPECT_EQ(Code.size() - Before, mdaStoreLength());
}

TEST(MdaSequenceTestAliases, LoadDestinationMayAliasBase) {
  // Ra == Rb: the paper's Fig. 2 example loads into the base register's
  // mapped destination; the sequence must read the base before writing.
  CodeSpace Code;
  guest::GuestMemory Mem;
  MemoryHierarchy Hier;
  CostModel Cost;
  HostMachine Machine(Code, Mem, Hier, Cost);
  Mem.store(0x3001, 4, 0xfeedface);
  HostAssembler Asm(Code);
  emitMdaLoad(Asm, 4, /*Ra=*/5, /*Rb=*/5, 0);
  Asm.srv(SrvFunc::Halt);
  Asm.finish();
  Machine.R[5] = 0x3001;
  ASSERT_EQ(Machine.run(0).K, ExitInfo::Halt);
  EXPECT_EQ(Machine.R[5], 0xfeedfaceu);
}

TEST(MdaSequenceTestAliases, SequencesAreAlignedOnAlignedAddresses) {
  // A patched instruction's address may later become aligned; the
  // sequence must still produce the right value (paper section IV-D).
  CodeSpace Code;
  guest::GuestMemory Mem;
  MemoryHierarchy Hier;
  CostModel Cost;
  HostMachine Machine(Code, Mem, Hier, Cost);
  Mem.store(0x4000, 8, 0x0123456789abcdefULL);
  HostAssembler Asm(Code);
  emitMdaLoad(Asm, 8, 1, 2, 0);
  Asm.srv(SrvFunc::Halt);
  Asm.finish();
  Machine.R[2] = 0x4000; // aligned
  ASSERT_EQ(Machine.run(0).K, ExitInfo::Halt);
  EXPECT_EQ(Machine.R[1], 0x0123456789abcdefULL);
  EXPECT_EQ(Machine.Faults, 0u);
}
