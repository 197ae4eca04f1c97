//===- tests/engine_test.cpp - End-to-end engine + policy tests -----------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// DESIGN.md invariants 1 and 3: every policy reproduces the
/// interpreter's observable final state exactly (differential testing),
/// and patching policies trap at most once per static instruction.  Also
/// covers chaining, rearrangement, retranslation and multi-version
/// behaviour at the engine level.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "mda/Policies.h"
#include "mda/PolicyFactory.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

using namespace mdabt;
using namespace mdabt::testutil;

namespace {

/// All mechanism configurations the paper evaluates.
std::vector<mda::PolicySpec> allSpecs() {
  using mda::MechanismKind;
  std::vector<mda::PolicySpec> Specs;
  Specs.push_back({MechanismKind::Direct, 0, false, 0, false});
  Specs.push_back({MechanismKind::StaticProfiling, 0, false, 0, false});
  for (uint32_t Th : {10u, 50u, 500u})
    Specs.push_back({MechanismKind::DynamicProfiling, Th, false, 0, false});
  Specs.push_back({MechanismKind::ExceptionHandling, 50, false, 0, false});
  Specs.push_back({MechanismKind::ExceptionHandling, 50, true, 0, false});
  Specs.push_back({MechanismKind::Dpeh, 50, false, 0, false});
  Specs.push_back({MechanismKind::Dpeh, 50, false, 4, false});
  Specs.push_back({MechanismKind::Dpeh, 50, false, 0, true});
  Specs.push_back({MechanismKind::Dpeh, 50, false, 4, true});
  return Specs;
}

dbt::RunResult runUnder(const guest::GuestImage &Image,
                        const mda::PolicySpec &Spec,
                        const guest::GuestImage *Train = nullptr) {
  std::unique_ptr<dbt::MdaPolicy> Policy = mda::makePolicy(Spec, Train);
  dbt::Engine Engine(Image, *Policy);
  return Engine.run();
}

class AllPoliciesTest : public ::testing::TestWithParam<mda::PolicySpec> {};

} // namespace

TEST_P(AllPoliciesTest, MisalignedSumMatchesOracle) {
  guest::GuestImage Image = misalignedSumProgram(600);
  Oracle O = interpretOracle(Image);
  dbt::RunResult R = runUnder(Image, GetParam(), &Image);
  expectMatchesOracle(R, O, mda::policySpecName(GetParam()).c_str());
}

TEST_P(AllPoliciesTest, LateOnsetMatchesOracle) {
  guest::GuestImage Image = lateOnsetProgram(800, 400);
  Oracle O = interpretOracle(Image);
  dbt::RunResult R = runUnder(Image, GetParam(), &Image);
  expectMatchesOracle(R, O, mda::policySpecName(GetParam()).c_str());
}

TEST_P(AllPoliciesTest, CallHeavyProgramMatchesOracle) {
  using namespace guest;
  ProgramBuilder B("callheavy");
  uint32_t Buf = B.dataReserve(256, 8);
  auto Fn = B.newLabel();
  B.movri(0, static_cast<int32_t>(Buf + 3)); // misaligned
  B.movri(6, 0);                             // counter
  ProgramBuilder::Label Loop = B.here();
  B.call(Fn);
  B.addi(6, 1);
  B.cmpi(6, 200);
  B.jcc(Cond::B, Loop);
  B.halt();
  B.bind(Fn);
  B.stl(mem(0, 0), 6);
  B.ldl(2, mem(0, 0));
  B.chk(2);
  B.ret();
  GuestImage Image = B.build();
  Oracle O = interpretOracle(Image);
  dbt::RunResult R = runUnder(Image, GetParam(), &Image);
  expectMatchesOracle(R, O, mda::policySpecName(GetParam()).c_str());
}

INSTANTIATE_TEST_SUITE_P(
    EveryMechanism, AllPoliciesTest, ::testing::ValuesIn(allSpecs()),
    [](const ::testing::TestParamInfo<mda::PolicySpec> &I) {
      std::string Name = mda::policySpecName(I.param);
      for (char &C : Name)
        if (C == '@' || C == '+')
          C = '_';
      return Name;
    });

TEST(EngineTest, DirectMethodNeverTraps) {
  guest::GuestImage Image = misalignedSumProgram(500);
  dbt::RunResult R = runUnder(
      Image, {mda::MechanismKind::Direct, 0, false, 0, false});
  EXPECT_EQ(R.Counters.get("dbt.fault_traps"), 0u);
  // QEMU-style: no interpretation phase at all.
  EXPECT_EQ(R.Counters.get("interp.insts"), 0u);
}

TEST(EngineTest, ExceptionHandlingTrapsOncePerInstruction) {
  // The loop performs 2 misaligned ops x 600 iterations, but EH patches
  // each on its first trap: exactly 2 traps (DESIGN.md invariant 3).
  guest::GuestImage Image = misalignedSumProgram(600);
  dbt::RunResult R = runUnder(
      Image, {mda::MechanismKind::ExceptionHandling, 50, false, 0, false});
  EXPECT_EQ(R.Counters.get("dbt.fault_traps"), 2u);
  EXPECT_EQ(R.Counters.get("dbt.patches"), 2u);
  EXPECT_EQ(R.Counters.get("dbt.fixups"), 0u);
}

TEST(EngineTest, DynamicProfilingTrapsOnEveryResidualMda) {
  // Late onset at iteration 400 with threshold 50: the block is
  // translated (aligned) before the MDAs start; each of the remaining
  // iterations takes 2 traps (store + load), emulated via fixup.
  guest::GuestImage Image = lateOnsetProgram(800, 400);
  dbt::RunResult R = runUnder(
      Image, {mda::MechanismKind::DynamicProfiling, 50, false, 0, false});
  uint64_t Traps = R.Counters.get("dbt.fault_traps");
  // Iterations 401..799 trap twice each.  Iteration 400 flows through
  // the bump block, whose (overlapping) translation unit is cold and
  // therefore interpreted: its two MDAs never reach the hardware.
  EXPECT_EQ(Traps, 2u * (800 - 401));
  EXPECT_EQ(R.Counters.get("dbt.fixups"), Traps);
  EXPECT_EQ(R.Counters.get("dbt.patches"), 0u);
}

TEST(EngineTest, DpehPatchesResidualMdasOnce) {
  guest::GuestImage Image = lateOnsetProgram(800, 400);
  dbt::RunResult R = runUnder(
      Image, {mda::MechanismKind::Dpeh, 50, false, 0, false});
  // The two late-onset sites trap once each and get patched.
  EXPECT_EQ(R.Counters.get("dbt.fault_traps"), 2u);
  EXPECT_EQ(R.Counters.get("dbt.patches"), 2u);
}

TEST(EngineTest, DpehProfilingAvoidsTrapsForStableMdas) {
  // Stable misalignment is visible during the heating phase, so DPEH
  // inlines the sequences at translation time: zero traps.
  guest::GuestImage Image = misalignedSumProgram(600);
  dbt::RunResult R = runUnder(
      Image, {mda::MechanismKind::Dpeh, 50, false, 0, false});
  EXPECT_EQ(R.Counters.get("dbt.fault_traps"), 0u);
}

TEST(EngineTest, StaticProfilingUsesTrainProfile) {
  guest::GuestImage Image = misalignedSumProgram(600);
  // Train == ref here, so the profile covers everything: no traps.
  dbt::RunResult R = runUnder(
      Image, {mda::MechanismKind::StaticProfiling, 0, false, 0, false},
      &Image);
  EXPECT_EQ(R.Counters.get("dbt.fault_traps"), 0u);
}

TEST(EngineTest, StaticProfilingMissesRefOnlyMdas) {
  // Train input: onset beyond the loop bound -> never misaligned.
  guest::GuestImage Train = lateOnsetProgram(800, 1000000);
  guest::GuestImage Ref = lateOnsetProgram(800, 0);
  dbt::RunResult R = runUnder(
      Ref, {mda::MechanismKind::StaticProfiling, 0, false, 0, false},
      &Train);
  // Every REF MDA becomes a trap + fixup.
  EXPECT_EQ(R.Counters.get("dbt.fault_traps"), 2u * 800);
  EXPECT_EQ(R.Counters.get("dbt.fixups"), 2u * 800);
}

TEST(EngineTest, RearrangementSupersedesBlocks) {
  guest::GuestImage Image = lateOnsetProgram(800, 400);
  dbt::RunResult Plain = runUnder(
      Image, {mda::MechanismKind::ExceptionHandling, 50, false, 0, false});
  dbt::RunResult Rearr = runUnder(
      Image, {mda::MechanismKind::ExceptionHandling, 50, true, 0, false});
  EXPECT_EQ(Plain.Counters.get("dbt.supersedes"), 0u);
  EXPECT_GT(Rearr.Counters.get("dbt.supersedes"), 0u);
  EXPECT_EQ(Rearr.Checksum, Plain.Checksum);
}

TEST(EngineTest, RetranslationTriggersAtThreshold) {
  // A block with 5 late-onset MDA instructions: at threshold 4 the 4th
  // trap invalidates and retranslates the block; the 5th instruction is
  // then inlined, so it never traps.
  using namespace guest;
  ProgramBuilder B("multi-mda");
  uint32_t Buf = B.dataReserve(256, 8);
  uint32_t Slot = B.dataU32(Buf);
  B.movri(6, 0);
  ProgramBuilder::Label Loop = B.here();
  ProgramBuilder::Label Skip = B.newLabel();
  B.cmpi(6, 300);
  B.jcc(Cond::Ne, Skip);
  B.movri(3, static_cast<int32_t>(Slot));
  B.ldl(0, mem(3, 0));
  B.addi(0, 1);
  B.stl(mem(3, 0), 0);
  B.bind(Skip);
  B.movri(3, static_cast<int32_t>(Slot));
  B.ldl(0, mem(3, 0));
  B.movri(2, 7);
  B.stl(mem(0, 0), 2);
  B.stl(mem(0, 8), 2);
  B.stl(mem(0, 16), 2);
  B.stl(mem(0, 24), 2);
  B.stl(mem(0, 32), 2);
  B.chk(0);
  B.addi(6, 1);
  B.cmpi(6, 600);
  B.jcc(Cond::B, Loop);
  B.halt();
  GuestImage Image = B.build();
  Oracle O = interpretOracle(Image);

  dbt::RunResult NoRetrans = runUnder(
      Image, {mda::MechanismKind::Dpeh, 50, false, 0, false});
  dbt::RunResult Retrans = runUnder(
      Image, {mda::MechanismKind::Dpeh, 50, false, 4, false});
  expectMatchesOracle(Retrans, O, "dpeh+retrans");
  EXPECT_EQ(NoRetrans.Counters.get("dbt.fault_traps"), 5u);
  EXPECT_EQ(NoRetrans.Counters.get("dbt.supersedes"), 0u);
  // Retranslation fires at the 4th trap; the still-running old
  // incarnation takes one more trap for site 5.  The superseding
  // translation already knows all five sites (the onset iteration flowed
  // through the cold bump block and was interpreted into the profile),
  // so the new incarnation is fully inline and never traps.
  EXPECT_EQ(Retrans.Counters.get("dbt.fault_traps"), 5u);
  EXPECT_EQ(Retrans.Counters.get("dbt.supersedes"), 1u);
}

TEST(EngineTest, MultiVersionHandlesMixedAlignment) {
  // A site alternating aligned/misaligned every iteration: with
  // multi-version code DPEH emits the check-and-select form and never
  // traps; without it, the profile marks the site as MDA and inlines
  // the sequence (also no traps) — both must match the oracle.
  using namespace guest;
  ProgramBuilder B("mixed");
  uint32_t Buf = B.dataReserve(4096, 8);
  B.movri(0, static_cast<int32_t>(Buf));
  B.movri(1, 0);
  ProgramBuilder::Label Loop = B.here();
  B.movrr(5, 1);
  B.andi(5, 1);   // bump = i & 1
  B.movrr(3, 0);
  B.add(3, 5);    // base + bump
  B.stl(memIdx(3, 1, 2, 0), 1);
  B.ldl(2, memIdx(3, 1, 2, 0));
  B.chk(2);
  B.addi(1, 1);
  B.cmpi(1, 400);
  B.jcc(Cond::B, Loop);
  B.halt();
  GuestImage Image = B.build();
  Oracle O = interpretOracle(Image);

  dbt::RunResult Mv = runUnder(
      Image, {mda::MechanismKind::Dpeh, 50, false, 0, true});
  dbt::RunResult Plain = runUnder(
      Image, {mda::MechanismKind::Dpeh, 50, false, 0, false});
  expectMatchesOracle(Mv, O, "dpeh+mv");
  expectMatchesOracle(Plain, O, "dpeh");
  EXPECT_EQ(Mv.Counters.get("dbt.fault_traps"), 0u);
  EXPECT_EQ(Plain.Counters.get("dbt.fault_traps"), 0u);
}

TEST(EngineTest, ChainingReducesMonitorDispatches) {
  guest::GuestImage Image = misalignedSumProgram(2000);
  mda::PolicySpec Spec{mda::MechanismKind::Dpeh, 50, false, 0, false};
  dbt::EngineConfig NoChain;
  NoChain.EnableChaining = false;
  std::unique_ptr<dbt::MdaPolicy> P1 = mda::makePolicy(Spec);
  dbt::Engine E1(Image, *P1);
  dbt::RunResult Chained = E1.run();
  std::unique_ptr<dbt::MdaPolicy> P2 = mda::makePolicy(Spec);
  dbt::Engine E2(Image, *P2, NoChain);
  dbt::RunResult Unchained = E2.run();
  EXPECT_EQ(Chained.Checksum, Unchained.Checksum);
  EXPECT_GT(Chained.Counters.get("dbt.chains"), 0u);
  EXPECT_EQ(Unchained.Counters.get("dbt.chains"), 0u);
  EXPECT_LT(Chained.Counters.get("dbt.native_entries"),
            Unchained.Counters.get("dbt.native_entries"));
}

TEST(EngineTest, CycleBreakdownSumsToTotal) {
  guest::GuestImage Image = misalignedSumProgram(300);
  dbt::RunResult R = runUnder(
      Image, {mda::MechanismKind::Dpeh, 50, false, 0, false});
  uint64_t Sum = R.Counters.get("cycles.native") +
                 R.Counters.get("cycles.interp") +
                 R.Counters.get("cycles.translate") +
                 R.Counters.get("cycles.monitor") +
                 R.Counters.get("cycles.chain");
  EXPECT_EQ(R.Cycles, Sum);
  EXPECT_EQ(R.Cycles, R.Counters.get("cycles.total"));
}

TEST(EngineTest, DirectCostExceedsDpehOnAlignedCode) {
  // A fully aligned hot loop: the direct method pays the MDA-sequence
  // instruction overhead for nothing (the paper's core observation about
  // QEMU).
  using namespace guest;
  ProgramBuilder B("aligned-loop");
  uint32_t Buf = B.dataReserve(8192, 8);
  B.movri(0, static_cast<int32_t>(Buf));
  B.movri(1, 0);
  ProgramBuilder::Label Loop = B.here();
  B.stl(memIdx(0, 1, 2, 0), 1);
  B.ldl(2, memIdx(0, 1, 2, 0));
  B.addi(1, 1);
  B.cmpi(1, 2000);
  B.jcc(Cond::B, Loop);
  B.chk(2);
  B.halt();
  GuestImage Image = B.build();
  dbt::RunResult Direct = runUnder(
      Image, {mda::MechanismKind::Direct, 0, false, 0, false});
  dbt::RunResult Dpeh = runUnder(
      Image, {mda::MechanismKind::Dpeh, 50, false, 0, false});
  EXPECT_GT(Direct.Counters.get("cycles.native"),
            Dpeh.Counters.get("cycles.native"));
}

TEST(EngineTest, HeatingThresholdControlsInterpretation) {
  guest::GuestImage Image = misalignedSumProgram(1000);
  dbt::RunResult Th10 = runUnder(
      Image, {mda::MechanismKind::DynamicProfiling, 10, false, 0, false});
  dbt::RunResult Th500 = runUnder(
      Image, {mda::MechanismKind::DynamicProfiling, 500, false, 0, false});
  EXPECT_LT(Th10.Counters.get("interp.insts"),
            Th500.Counters.get("interp.insts"));
}

TEST(EngineTest, RunErrorNamesRoundTripExhaustively) {
  // Every enumerator has a distinct, stable wire name.  The
  // static_assert pins NumRunErrors to the enum's actual extent, so
  // adding an enumerator without growing the table (and the name
  // switch, which has no default and trips -Wswitch) fails loudly at
  // compile time, and the soak/bench error tables can index by value.
  static_assert(static_cast<size_t>(dbt::RunError::BudgetChurn) + 1 ==
                    dbt::NumRunErrors,
                "NumRunErrors out of sync with the RunError enum");
  std::set<std::string> Seen;
  for (size_t I = 0; I != dbt::NumRunErrors; ++I) {
    std::string Name =
        dbt::runErrorName(static_cast<dbt::RunError>(I));
    EXPECT_FALSE(Name.empty()) << "enumerator " << I;
    EXPECT_NE(Name, "unknown") << "enumerator " << I;
    EXPECT_TRUE(Seen.insert(Name).second)
        << "duplicate name '" << Name << "' at enumerator " << I;
  }
  EXPECT_STREQ(
      dbt::runErrorName(static_cast<dbt::RunError>(dbt::NumRunErrors)),
      "unknown");
}

TEST(EngineTest, EngineRefusesSecondRun) {
  // The one-shot guard is a hard runtime error in every build mode
  // (not an assert): a second run would silently reuse policy state
  // already specialized by the first.
  guest::GuestImage Image = misalignedSumProgram(10);
  mda::DirectPolicy Policy;
  dbt::Engine E(Image, Policy);
  E.run();
  EXPECT_DEATH(E.run(), "exactly one run");
}

TEST(EngineTest, RuntimeRegionStaysGuestMemoryWithoutAdaptiveStubs) {
  // The adaptive stub's revert mailbox and counter cells live in the
  // BT-runtime region at layout::RuntimeBase.  Until the first adaptive
  // stub claims it, that region is ordinary guest memory: the monitor
  // must not consume the mailbox word as a revert request, and the end
  // of the run must not zero it.
  using namespace guest;
  ProgramBuilder B("runtime-region");
  B.movri(3, static_cast<int32_t>(layout::RuntimeBase));
  B.movri(2, 0x11223344);
  B.stl(mem(3, 0), 2); // the mailbox word
  B.stl(mem(3, 4), 2); // the pad before the first counter cell
  B.movri(1, 0);
  ProgramBuilder::Label Loop = B.here();
  B.ldl(0, mem(3, 0));
  B.chk(0);
  B.addi(1, 1);
  B.cmpi(1, 200);
  B.jcc(Cond::B, Loop);
  B.ldl(0, mem(3, 0)); // read back after the loop's native exit
  B.chk(0);
  B.halt();
  GuestImage Image = B.build();
  Oracle O = interpretOracle(Image);

  using mda::MechanismKind;
  for (MechanismKind K : {MechanismKind::Direct,
                          MechanismKind::ExceptionHandling,
                          MechanismKind::Dpeh}) {
    mda::PolicySpec Spec{K, K == MechanismKind::Direct ? 0u : 50u, false, 0,
                         false};
    std::unique_ptr<dbt::MdaPolicy> Policy = mda::makePolicy(Spec);
    dbt::EngineConfig Config;
    Config.Verify = true;
    dbt::Engine Engine(Image, *Policy, Config);
    dbt::RunResult R = Engine.run();
    expectMatchesOracle(R, O, mda::policySpecName(Spec).c_str());
    EXPECT_EQ(R.Counters.get("dbt.reverts"), 0u);
  }
}
