//===- tests/analysis_test.cpp - Alignment analysis + verifier tests ------===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the congruence lattice (join/transfer corners and the
/// verdict rule), whole-program analysis verdicts on hand-built guest
/// programs, a differential property test over the random-program
/// corpus (no provably-aligned op ever misaligns at runtime, no
/// provably-misaligned op ever runs aligned), engine equivalence with
/// the analysis enabled, and structural checks of the host code-cache
/// verifier.
///
//===----------------------------------------------------------------------===//

#include "analysis/AlignmentAnalysis.h"
#include "analysis/HostVerifier.h"
#include "dbt/Engine.h"
#include "guest/Assembler.h"
#include "guest/Interpreter.h"
#include "guest/MdaCensus.h"
#include "host/HostAssembler.h"
#include "host/MdaSequences.h"
#include "mda/PolicyFactory.h"

#include "RandomProgram.h"

#include <gtest/gtest.h>

using namespace mdabt;
using analysis::AbsVal;
using analysis::AlignVerdict;

namespace {

AbsVal exact(uint32_t V) { return AbsVal::exact(V); }
AbsVal cong(uint32_t M, uint32_t R) { return AbsVal::congruent(M, R); }

//===----------------------------------------------------------------------===//
// Lattice: join
//===----------------------------------------------------------------------===//

TEST(AlignLattice, JoinIdentities) {
  EXPECT_EQ(analysis::join(AbsVal::bottom(), exact(12)), exact(12));
  EXPECT_EQ(analysis::join(exact(12), AbsVal::bottom()), exact(12));
  EXPECT_EQ(analysis::join(AbsVal::top(), cong(8, 3)), AbsVal::top());
  EXPECT_EQ(analysis::join(exact(12), exact(12)), exact(12));
}

TEST(AlignLattice, JoinExactsDegradeToCongruence) {
  // Agree mod 8.
  EXPECT_EQ(analysis::join(exact(8), exact(16)), cong(8, 0));
  EXPECT_EQ(analysis::join(exact(4), exact(12)), cong(8, 4));
  // Agree only mod 4 / mod 2.
  EXPECT_EQ(analysis::join(exact(4), exact(8)), cong(4, 0));
  EXPECT_EQ(analysis::join(exact(2), exact(4)), cong(2, 0));
  // No common residue at all.
  EXPECT_EQ(analysis::join(exact(1), exact(2)), AbsVal::top());
}

TEST(AlignLattice, JoinCongruences) {
  // Coarser modulus wins.
  EXPECT_EQ(analysis::join(cong(8, 0), cong(4, 0)), cong(4, 0));
  // Same modulus, different residue: drop to where they agree.
  EXPECT_EQ(analysis::join(cong(8, 1), cong(8, 5)), cong(4, 1));
  EXPECT_EQ(analysis::join(cong(2, 0), cong(2, 1)), AbsVal::top());
  // Exact against congruence.
  EXPECT_EQ(analysis::join(exact(9), cong(8, 1)), cong(8, 1));
}

//===----------------------------------------------------------------------===//
// Lattice: transfer functions
//===----------------------------------------------------------------------===//

TEST(AlignLattice, AddSub) {
  EXPECT_EQ(analysis::absAdd(exact(3), exact(5)), exact(8));
  // 32-bit wrap preserves both the fold and the congruence (8 | 2^32).
  EXPECT_EQ(analysis::absAdd(exact(0xffffffffu), exact(1)), exact(0));
  EXPECT_EQ(analysis::absAdd(cong(8, 1), exact(3)), cong(8, 4));
  EXPECT_EQ(analysis::absAdd(cong(4, 1), cong(8, 2)), cong(4, 3));
  EXPECT_EQ(analysis::absAdd(AbsVal::top(), exact(1)), AbsVal::top());
  EXPECT_EQ(analysis::absSub(cong(8, 1), exact(2)), cong(8, 7));
  EXPECT_EQ(analysis::absSub(exact(5), exact(7)), exact(0xfffffffeu));
}

TEST(AlignLattice, Mul) {
  EXPECT_EQ(analysis::absMul(exact(6), exact(7)), exact(42));
  // Multiplying by 4 sharpens a mod-2 fact to mod-8.
  EXPECT_EQ(analysis::absMul(cong(2, 1), exact(4)), cong(8, 4));
  // Any value times 8 is 0 mod 8.
  EXPECT_EQ(analysis::absMul(AbsVal::top(), exact(8)), cong(8, 0));
  EXPECT_EQ(analysis::absMul(AbsVal::top(), exact(0)), exact(0));
  EXPECT_EQ(analysis::absMul(AbsVal::top(), AbsVal::top()), AbsVal::top());
}

TEST(AlignLattice, AndOrXor) {
  EXPECT_EQ(analysis::absAnd(exact(0xff), exact(0x0f)), exact(0x0f));
  // Masking the low bits to zero aligns any value.
  EXPECT_EQ(analysis::absAnd(AbsVal::top(), exact(0xfffffff8u)),
            cong(8, 0));
  EXPECT_EQ(analysis::absAnd(AbsVal::top(), cong(4, 0)), cong(4, 0));
  EXPECT_EQ(analysis::absOr(cong(8, 0), cong(8, 1)), cong(8, 1));
  EXPECT_EQ(analysis::absXor(cong(4, 1), cong(8, 2)), cong(4, 3));
  EXPECT_EQ(analysis::absXor(AbsVal::top(), exact(1)), AbsVal::top());
}

TEST(AlignLattice, Shifts) {
  EXPECT_EQ(analysis::absShl(exact(3), exact(2)), exact(12));
  // Shifting anything left by >= 3 makes it 0 mod 8.
  EXPECT_EQ(analysis::absShl(AbsVal::top(), exact(3)), cong(8, 0));
  EXPECT_EQ(analysis::absShl(cong(2, 1), exact(1)), cong(4, 2));
  // Right shifts destroy low-bit knowledge.
  EXPECT_EQ(analysis::absShr(AbsVal::top(), exact(1)), AbsVal::top());
  EXPECT_EQ(analysis::absShr(exact(8), exact(2)), exact(2));
  EXPECT_EQ(analysis::absSar(exact(0x80000000u), exact(31)),
            exact(0xffffffffu));
}

TEST(AlignLattice, VerdictRule) {
  EXPECT_EQ(analysis::verdictOf(exact(4), 4), AlignVerdict::Aligned);
  EXPECT_EQ(analysis::verdictOf(exact(6), 4), AlignVerdict::Misaligned);
  EXPECT_EQ(analysis::verdictOf(cong(8, 0), 8), AlignVerdict::Aligned);
  EXPECT_EQ(analysis::verdictOf(cong(4, 2), 4), AlignVerdict::Misaligned);
  // Mod 2 with residue 1 cannot be 4-aligned (4-aligned => even).
  EXPECT_EQ(analysis::verdictOf(cong(2, 1), 4), AlignVerdict::Misaligned);
  // Mod 2 residue 0 says nothing about 4-alignment.
  EXPECT_EQ(analysis::verdictOf(cong(2, 0), 4), AlignVerdict::Unknown);
  EXPECT_EQ(analysis::verdictOf(AbsVal::top(), 4), AlignVerdict::Unknown);
  // Byte accesses never misalign; report Unknown, never a proof.
  EXPECT_EQ(analysis::verdictOf(exact(5), 1), AlignVerdict::Unknown);
}

//===----------------------------------------------------------------------===//
// Whole-program verdicts
//===----------------------------------------------------------------------===//

/// The only site of \p Ana, asserted unique.
const analysis::SiteInfo &onlySite(const analysis::AnalysisResult &Ana) {
  EXPECT_EQ(Ana.Sites.size(), 1u);
  return Ana.Sites.begin()->second;
}

TEST(AlignAnalysis, AlignedStrideLoopIsProvablyAligned) {
  guest::ProgramBuilder B("aligned-loop");
  uint32_t Buf = B.dataReserve(256, 8);
  B.movri(0, static_cast<int32_t>(Buf));
  B.movri(1, 0);
  guest::ProgramBuilder::Label Top = B.here();
  B.ldl(2, guest::memIdx(0, 1, 0, 0));
  B.addi(1, 4);
  B.cmpi(1, 64);
  B.jcc(guest::Cond::Lt, Top);
  B.halt();

  analysis::AnalysisResult Ana = analysis::analyzeAlignment(B.build());
  EXPECT_FALSE(Ana.Poisoned);
  const analysis::SiteInfo &S = onlySite(Ana);
  EXPECT_EQ(S.Verdict, AlignVerdict::Aligned);
  EXPECT_EQ(S.Size, 4u);
  EXPECT_EQ(Ana.NumAligned, 1u);
}

TEST(AlignAnalysis, ConstantOffBaseIsProvablyMisaligned) {
  guest::ProgramBuilder B("mis");
  uint32_t Buf = B.dataReserve(64, 8);
  B.movri(0, static_cast<int32_t>(Buf + 1));
  B.movri(2, 7);
  B.stl(guest::mem(0, 0), 2);
  B.halt();

  analysis::AnalysisResult Ana = analysis::analyzeAlignment(B.build());
  EXPECT_FALSE(Ana.Poisoned);
  const analysis::SiteInfo &S = onlySite(Ana);
  EXPECT_EQ(S.Verdict, AlignVerdict::Misaligned);
  EXPECT_TRUE(S.IsStore);
  EXPECT_EQ(Ana.NumMisaligned, 1u);
}

TEST(AlignAnalysis, RuntimeLoadedBaseIsUnknown) {
  guest::ProgramBuilder B("slot");
  uint32_t Buf = B.dataReserve(64, 8);
  uint32_t Slot = B.dataU32(Buf + 1);
  B.movri(0, static_cast<int32_t>(Slot));
  B.ldl(1, guest::mem(0, 0)); // provably aligned (the slot itself)
  B.ldl(2, guest::mem(1, 0)); // through the loaded value: unknown
  B.halt();

  analysis::AnalysisResult Ana = analysis::analyzeAlignment(B.build());
  EXPECT_FALSE(Ana.Poisoned);
  ASSERT_EQ(Ana.Sites.size(), 2u);
  EXPECT_EQ(Ana.NumAligned, 1u);
  EXPECT_EQ(Ana.NumUnknown, 1u);
}

TEST(AlignAnalysis, CallReturnFlowsThroughFunctions) {
  guest::ProgramBuilder B("callret");
  uint32_t Buf = B.dataReserve(64, 8);
  guest::ProgramBuilder::Label F = B.newLabel();
  B.movri(0, static_cast<int32_t>(Buf));
  B.call(F);
  B.halt();
  B.bind(F);
  B.stl(guest::mem(0, 4), 0);
  B.ret();

  analysis::AnalysisResult Ana = analysis::analyzeAlignment(B.build());
  EXPECT_FALSE(Ana.Poisoned);
  const analysis::SiteInfo &S = onlySite(Ana);
  EXPECT_EQ(S.Verdict, AlignVerdict::Aligned);
  EXPECT_GE(Ana.Blocks, 2u);
}

TEST(AlignAnalysis, NonConstantIndirectJumpPoisons) {
  guest::ProgramBuilder B("poison");
  uint32_t Slot = B.dataU32(0x1000);
  B.movri(0, static_cast<int32_t>(Slot));
  B.ldl(1, guest::mem(0, 0));
  B.jmpr(1);
  B.halt();

  analysis::AnalysisResult Ana = analysis::analyzeAlignment(B.build());
  EXPECT_TRUE(Ana.Poisoned);
  // A poisoned result must claim nothing.
  EXPECT_TRUE(Ana.Sites.empty());
  EXPECT_EQ(Ana.NumAligned, 0u);
  EXPECT_EQ(Ana.NumMisaligned, 0u);
}

//===----------------------------------------------------------------------===//
// Differential property: verdicts vs observed execution
//===----------------------------------------------------------------------===//

/// Records, per static instruction, how often it ran aligned and
/// misaligned — the ground truth the verdicts are checked against.
struct AlignRecorder : guest::InterpObserver {
  struct Obs {
    uint64_t Aligned = 0;
    uint64_t Mis = 0;
  };
  std::unordered_map<uint32_t, Obs> Sites;
  void onMemAccess(uint32_t InstPc, uint32_t Addr, unsigned Size,
                   bool /*IsStore*/) override {
    Obs &O = Sites[InstPc];
    if (guest::isMisaligned(Addr, Size))
      ++O.Mis;
    else
      ++O.Aligned;
  }
};

TEST(AlignAnalysisProperty, VerdictsNeverContradictExecution) {
  for (uint64_t Seed = 1; Seed <= 80; ++Seed) {
    guest::GuestImage Image = testutil::RandomProgram(Seed).build();
    analysis::AnalysisResult Ana = analysis::analyzeAlignment(Image);

    guest::GuestMemory Mem;
    Mem.loadImage(Image);
    guest::GuestCPU Cpu;
    Cpu.reset(Image);
    AlignRecorder Rec;
    guest::Interpreter Interp(Mem);
    Interp.setObserver(&Rec);
    Interp.run(Cpu);

    for (const auto &KV : Rec.Sites) {
      auto It = Ana.Sites.find(KV.first);
      if (It == Ana.Sites.end())
        continue;
      if (It->second.Verdict == AlignVerdict::Aligned) {
        EXPECT_EQ(KV.second.Mis, 0u)
            << "seed " << Seed << " pc 0x" << std::hex << KV.first
            << ": provably-aligned site misaligned at runtime";
      }
      if (It->second.Verdict == AlignVerdict::Misaligned) {
        EXPECT_EQ(KV.second.Aligned, 0u)
            << "seed " << Seed << " pc 0x" << std::hex << KV.first
            << ": provably-misaligned site ran aligned";
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Engine integration: analysis on vs off
//===----------------------------------------------------------------------===//

TEST(AlignAnalysisEngine, AnalysisPreservesArchitecturalState) {
  using mda::MechanismKind;
  const mda::PolicySpec Specs[] = {
      {MechanismKind::ExceptionHandling, 50, false, 0, false},
      {MechanismKind::Dpeh, 50, false, 0, false},
  };
  for (uint64_t Seed : {3u, 7u, 11u, 19u}) {
    guest::GuestImage Image = testutil::RandomProgram(Seed).build();
    for (const mda::PolicySpec &Spec : Specs) {
      dbt::RunResult Off, On;
      {
        std::unique_ptr<dbt::MdaPolicy> P = mda::makePolicy(Spec, &Image);
        Off = dbt::Engine(Image, *P).run();
      }
      {
        std::unique_ptr<dbt::MdaPolicy> P = mda::makePolicy(Spec, &Image);
        dbt::EngineConfig Config;
        Config.Analysis = true;
        Config.Verify = true; // and the verifier must stay quiet
        On = dbt::Engine(Image, *P, Config).run();
      }
      ASSERT_TRUE(Off.completed());
      ASSERT_TRUE(On.completed()) << dbt::runErrorName(On.Error);
      EXPECT_EQ(On.Checksum, Off.Checksum) << "seed " << Seed;
      EXPECT_EQ(On.MemoryHash, Off.MemoryHash) << "seed " << Seed;
      // Soundness implies the analysis can only remove trap exposure.
      EXPECT_LE(On.Counters.get("dbt.fault_traps"),
                Off.Counters.get("dbt.fault_traps"));
      EXPECT_GT(On.Counters.get("verify.passes"), 0u);
      EXPECT_EQ(On.Counters.get("verify.issues"), 0u);
    }
  }
}

//===----------------------------------------------------------------------===//
// Host code-cache verifier
//===----------------------------------------------------------------------===//

TEST(HostVerifier, CleanRegionPasses) {
  host::CodeSpace Code;
  host::HostAssembler Asm(Code);
  Asm.opl(host::HostOp::Addl, 1, 4, 2);
  Asm.mov(2, 3);
  uint32_t Exit = Asm.emit(host::srvInst(host::SrvFunc::Exit));
  Asm.finish();

  analysis::VerifierInput In;
  In.Blocks.push_back({0, Code.size(), {}, {}, {Exit}});
  analysis::VerifyReport R = analysis::verifyCodeSpace(Code, In);
  EXPECT_TRUE(R.ok()) << (R.Issues.empty()
                              ? ""
                              : analysis::verifyIssueToString(R.Issues[0]));
  EXPECT_GT(R.WordsChecked, 0u);
}

TEST(HostVerifier, BranchOutsideLiveRegionsFlagged) {
  host::CodeSpace Code;
  host::HostAssembler Asm(Code);
  Code.append(*host::branchTo(Asm.pos(), 100)); // way past the arena end
  uint32_t Exit = Asm.emit(host::srvInst(host::SrvFunc::Exit));
  Asm.finish();

  analysis::VerifierInput In;
  In.Blocks.push_back({0, Code.size(), {}, {}, {Exit}});
  analysis::VerifyReport R = analysis::verifyCodeSpace(Code, In);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Issues[0].Kind, analysis::VerifyIssueKind::BranchTargetBad);
}

TEST(HostVerifier, TornWordInLiveRegionFlagged) {
  host::CodeSpace Code;
  host::HostAssembler Asm(Code);
  Asm.opl(host::HostOp::Addl, 1, 4, 2);
  uint32_t Victim = Asm.mov(2, 3);
  uint32_t Exit = Asm.emit(host::srvInst(host::SrvFunc::Exit));
  Asm.finish();
  Code.patch(Victim, 12u << 26); // torn write: invalid opcode

  analysis::VerifierInput In;
  In.Blocks.push_back({0, Code.size(), {}, {}, {Exit}});
  analysis::VerifyReport R = analysis::verifyCodeSpace(Code, In);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Issues[0].Kind, analysis::VerifyIssueKind::Undecodable);
  EXPECT_EQ(R.Issues[0].Word, Victim);
}

TEST(HostVerifier, CorruptedMdaSequenceFlagged) {
  host::CodeSpace Code;
  host::HostAssembler Asm(Code);
  uint32_t SeqStart = Code.size();
  host::emitMdaLoad(Asm, 4, /*Ra=*/5, /*Rb=*/6, /*Disp=*/2);
  uint32_t Exit = Asm.emit(host::srvInst(host::SrvFunc::Exit));
  Asm.finish();
  // Clobber the middle of the sequence with a harmless-looking mov:
  // every word still decodes, but the shape is no longer the canonical
  // unaligned-load expansion.
  Code.patch(SeqStart + 2, Code.word(Exit - 1));

  analysis::VerifierInput In;
  In.Blocks.push_back({0, Code.size(), {}, {}, {Exit}});
  analysis::VerifyReport R = analysis::verifyCodeSpace(Code, In);
  ASSERT_FALSE(R.ok());
  bool SawMda = false;
  for (const analysis::VerifyIssue &I : R.Issues)
    SawMda |= I.Kind == analysis::VerifyIssueKind::MdaSequenceMalformed;
  EXPECT_TRUE(SawMda);
}

TEST(HostVerifier, BogusExitSiteFlagged) {
  host::CodeSpace Code;
  host::HostAssembler Asm(Code);
  uint32_t NotAnExit = Asm.mov(2, 3);
  Asm.emit(host::srvInst(host::SrvFunc::Exit));
  Asm.finish();

  analysis::VerifierInput In;
  In.Blocks.push_back({0, Code.size(), {}, {}, {NotAnExit}});
  analysis::VerifyReport R = analysis::verifyCodeSpace(Code, In);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Issues[0].Kind, analysis::VerifyIssueKind::ExitSiteBad);
}

} // namespace
