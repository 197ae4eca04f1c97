//===- tests/smc_test.cpp - Guest-code coherence & governance tests -------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hostile-guest hardening surface: self-modifying guests must stay
/// byte-identical to the interpreter oracle under every MDA policy with
/// the alignment analysis and the structural verifier on — including
/// when superblocks fuse the patcher with the code it patches (the
/// episode-stop path), when an Elide verdict's proof lives in rewritten
/// bytes (verdict revocation), and when the guest is an unbounded
/// retranslation-churn adversary (typed budget aborts and the per-block
/// interp-only pin).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "mda/PolicyFactory.h"
#include "obs/TraceSink.h"
#include "workloads/Hostile.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace mdabt;
using namespace mdabt::testutil;

namespace {

/// The five mechanism families of the paper's evaluation.
std::vector<mda::PolicySpec> smcSpecs() {
  using mda::MechanismKind;
  return {
      {MechanismKind::Direct, 0, false, 0, false},
      {MechanismKind::StaticProfiling, 0, false, 0, false},
      {MechanismKind::DynamicProfiling, 50, false, 0, false},
      {MechanismKind::ExceptionHandling, 50, true, 0, false},
      {MechanismKind::Dpeh, 50, false, 4, false},
  };
}

/// Coherence runs keep the analysis (whose verdicts SMC can stale) and
/// the verifier (invariant 8: no live translation over dirtied bytes)
/// on; Verify turns any structural slip into a typed abort that
/// expectMatchesOracle reports instead of silent corruption.
dbt::EngineConfig smcConfig() {
  dbt::EngineConfig Config;
  Config.Analysis = true;
  Config.Verify = true;
  return Config;
}

/// smcConfig plus every hot-dispatch mechanism: superblocks are the
/// adversarial case (they can fuse the patcher with the patched code
/// into one translation) and inline caches add the retirement surface
/// invalidation must clear.
dbt::EngineConfig smcAllDispatch() {
  dbt::EngineConfig Config = smcConfig();
  Config.HashDispatch = true;
  Config.InlineCaches = true;
  Config.Superblocks = true;
  return Config;
}

dbt::RunResult runSmc(const guest::GuestImage &Image,
                      const mda::PolicySpec &Spec,
                      const dbt::EngineConfig &Config) {
  std::unique_ptr<dbt::MdaPolicy> Policy = mda::makePolicy(Spec, &Image);
  dbt::Engine Engine(Image, *Policy, Config);
  return Engine.run();
}

class SmcPoliciesTest : public ::testing::TestWithParam<mda::PolicySpec> {};

} // namespace

TEST_P(SmcPoliciesTest, HostileCatalogMatchesOracle) {
  for (const workloads::HostileProgram &P : workloads::hostileCatalog()) {
    Oracle O = interpretOracle(P.Image);
    dbt::RunResult R = runSmc(P.Image, GetParam(), smcConfig());
    expectMatchesOracle(R, O, P.Name.c_str());
    EXPECT_EQ(R.Counters.get("verify.issues"), 0u) << P.Name;
  }
}

TEST_P(SmcPoliciesTest, HostileCatalogMatchesOracleUnderAllDispatch) {
  // Regression for the fused patcher/patchee hazard: before the
  // episode-stop machinery, smc.churn under superblocks kept executing
  // the stale inlined copy of the block it had just rewritten and
  // diverged in checksum only.
  for (const workloads::HostileProgram &P : workloads::hostileCatalog()) {
    Oracle O = interpretOracle(P.Image);
    dbt::RunResult R = runSmc(P.Image, GetParam(), smcAllDispatch());
    expectMatchesOracle(R, O, P.Name.c_str());
    EXPECT_EQ(R.Counters.get("verify.issues"), 0u) << P.Name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SmcPoliciesTest,
                         ::testing::ValuesIn(smcSpecs()));

TEST(SmcTest, EpisodeStopEngagesWhenPatcherAndPatcheeFuse) {
  // Under superblocks the churn guest's patch store executes from
  // inside the very trace it invalidates; coherence then requires the
  // machine-level episode stop, not just quarantine-before-dispatch.
  guest::GuestImage Image = workloads::smcChurnProgram(3, 250);
  Oracle O = interpretOracle(Image);
  dbt::RunResult R =
      runSmc(Image, {mda::MechanismKind::Direct, 0, false, 0, false},
             smcAllDispatch());
  expectMatchesOracle(R, O, "smc.churn superblocks");
  EXPECT_GT(R.Counters.get("smc.episode_stops"), 0u);
  EXPECT_GT(R.Counters.get("smc.invalidations"), 0u);
}

TEST(SmcTest, PhaseShiftRevokesStaleElideVerdict) {
  // smc.phase's worker is provably aligned through another block's
  // movri constant; rewriting that constant must demote the Elide (the
  // proof's bytes changed) and the re-planned code must then handle
  // the now-misaligned accesses — all while staying byte-identical.
  guest::GuestImage Image = workloads::smcPhaseProgram(400, 200);
  Oracle O = interpretOracle(Image);
  dbt::RunResult R =
      runSmc(Image, {mda::MechanismKind::Direct, 0, false, 0, false},
             smcConfig());
  expectMatchesOracle(R, O, "smc.phase");
  EXPECT_GE(R.Counters.get("smc.reanalyses"), 1u);
  EXPECT_GE(R.Counters.get("smc.verdicts_revoked"), 1u);
}

TEST(SmcTest, TranslationBudgetAbortsTyped) {
  guest::GuestImage Image = workloads::smcChurnProgram(4, 4000);
  dbt::EngineConfig Config = smcConfig();
  Config.Budget.MaxTranslations = 64;
  dbt::RunResult R = runSmc(
      Image, {mda::MechanismKind::Direct, 0, false, 0, false}, Config);
  EXPECT_EQ(R.Error, dbt::RunError::BudgetTranslations);
}

TEST(SmcTest, CodeBytesBudgetBoundsEmissionAcrossFlushes) {
  guest::GuestImage Image = workloads::smcChurnProgram(4, 4000);
  dbt::EngineConfig Config = smcConfig();
  Config.Budget.MaxCodeBytes = 32768;
  dbt::RunResult R = runSmc(
      Image, {mda::MechanismKind::Direct, 0, false, 0, false}, Config);
  EXPECT_EQ(R.Error, dbt::RunError::BudgetCodeBytes);
  // The ceiling is checked after each translation/stub, so emission may
  // overshoot by at most one translation's worth of code — bounded, the
  // whole point against a flush-and-refill adversary.
  EXPECT_LE(R.Counters.get("budget.code_bytes_emitted"),
            Config.Budget.MaxCodeBytes + 4096);
}

TEST(SmcTest, ChurnBudgetAbortsTyped) {
  guest::GuestImage Image = workloads::smcChurnProgram(4, 4000);
  dbt::EngineConfig Config = smcConfig();
  Config.Budget.MaxChurn = 128;
  dbt::RunResult R = runSmc(
      Image, {mda::MechanismKind::Direct, 0, false, 0, false}, Config);
  EXPECT_EQ(R.Error, dbt::RunError::BudgetChurn);
}

TEST(SmcTest, ChurnPinDegradesInsteadOfAborting) {
  // The per-block pin is containment, not abort: rewritten-too-often
  // blocks drop to the interpreter (where SMC is free) and the run
  // still completes byte-identically.
  guest::GuestImage Image = workloads::smcChurnProgram(3, 250);
  Oracle O = interpretOracle(Image);
  dbt::EngineConfig Config = smcConfig();
  Config.Budget.SmcChurnPinLimit = 4;
  dbt::RunResult R = runSmc(
      Image, {mda::MechanismKind::Direct, 0, false, 0, false}, Config);
  expectMatchesOracle(R, O, "smc.churn pinned");
  EXPECT_GT(R.Counters.get("smc.churn_pins"), 0u);
}

namespace {

/// A loop whose one block rewrites its own later bytes after it may
/// have been superseded from inside its own trap handler:
///
///   Loop: ebp = Buf + ((esi + 56) >> 8)   ; misaligned from esi == 200
///         ldl  eax, [ebp]                 ; traps once misaligned
///         movri ebx, Imm
///         stl  [ebx], esi                 ; rewrites the movri below
///         movri edx, <Imm>                ; must read the fresh value
///         chk  edx; chk eax
///         esi += 1; loop while esi < Iters
///
/// Under exception handling with rearrangement, the first misaligned
/// trap patches the load to a stub and retires the block while it keeps
/// running; its store into its own bytes must still stop the episode.
guest::GuestImage selfPatchAfterTrapProgram(uint32_t Iters) {
  using namespace guest;
  constexpr uint8_t Eax = 0, Edx = 2, Ebx = 3, Ebp = 5, Esi = 6;
  ProgramBuilder B("smc.self-after-trap");
  uint32_t Buf = B.dataReserve(32, 8);
  // Bytes from the loop head to the patched movri's imm32 ([op][reg]
  // [imm32], imm at +2), measured on a throwaway builder.
  auto Prefix = [&](ProgramBuilder &P, uint32_t Imm) {
    P.movrr(Ebp, Esi);
    P.addi(Ebp, 56);
    P.shri(Ebp, 8);
    P.addi(Ebp, static_cast<int32_t>(Buf));
    P.ldl(Eax, mem(Ebp, 0));
    P.movri(Ebx, static_cast<int32_t>(Imm));
    P.stl(mem(Ebx, 0), Esi);
  };
  ProgramBuilder Probe("probe");
  uint32_t Probe0 = Probe.codeAddress();
  Prefix(Probe, 0);
  uint32_t ImmOffset = Probe.codeAddress() - Probe0 + 2;

  B.movri(Esi, 0);
  // Align the imm32 so the patch is a plain aligned store.
  while ((B.codeAddress() + ImmOffset) % 4 != 0)
    B.nop();
  ProgramBuilder::Label Loop = B.here();
  uint32_t Imm = B.codeAddress() + ImmOffset;
  Prefix(B, Imm);
  B.movri(Edx, 0);
  B.chk(Edx);
  B.chk(Eax);
  B.addi(Esi, 1);
  B.cmpi(Esi, static_cast<int32_t>(Iters));
  B.jcc(Cond::B, Loop);
  B.halt();
  return B.build();
}

} // namespace

TEST(SmcTest, RetiredRunningBlockStopsOnStoreIntoItsOwnBytes) {
  // The rearranging exception handler supersedes the block from inside
  // its own trap, so the body that then stores into its own movri is
  // already retired: only its own guest ranges, not the live victims,
  // can tell that the episode must stop.
  guest::GuestImage Image = selfPatchAfterTrapProgram(400);
  Oracle O = interpretOracle(Image);
  for (bool Verify : {true, false}) {
    dbt::EngineConfig Config = smcConfig();
    Config.Verify = Verify;
    dbt::RunResult R = runSmc(
        Image, {mda::MechanismKind::ExceptionHandling, 50, true, 0, false},
        Config);
    expectMatchesOracle(R, O, Verify ? "eh+rearrange verify"
                                     : "eh+rearrange");
    EXPECT_GT(R.Counters.get("dbt.supersedes"), 0u);
  }
}

namespace {

/// Keeps the write barrier's and the re-analysis's events, in order.
class CoherenceEvents final : public obs::TraceSink {
public:
  void emit(const obs::TraceEvent &E) override {
    using K = obs::TraceEventKind;
    switch (E.Kind) {
    case K::SmcStore:
    case K::SmcEpisodeStop:
    case K::SmcInvalidate:
    case K::BlockInvalidated:
    case K::SmcChurnPin:
    case K::SmcReanalysis:
    case K::SmcVerdictRevoked:
      Events.push_back(E);
      break;
    default:
      break;
    }
  }
  std::vector<obs::TraceEvent> Events;
};

struct BarrierCounts {
  uint64_t Stores = 0, Invalidations = 0, Pins = 0, Reanalyses = 0,
           Revoked = 0;
};

/// Parse \p E as a sequence of the two coherence transactions:
///   SmcStore (SmcEpisodeStop)? (SmcInvalidate BlockInvalidated
///            (SmcChurnPin)?)*
///   SmcReanalysis SmcVerdictRevoked* BlockInvalidated*
/// where each retirement names the block its barrier event named.
BarrierCounts parseCoherenceTrace(const std::vector<obs::TraceEvent> &E) {
  using K = obs::TraceEventKind;
  BarrierCounts C;
  size_t I = 0, N = E.size();
  auto At = [&](K Kind) { return I < N && E[I].Kind == Kind; };
  while (I < N) {
    if (At(K::SmcStore)) {
      ++I;
      ++C.Stores;
      if (At(K::SmcEpisodeStop))
        ++I;
      while (At(K::SmcInvalidate)) {
        uint32_t Pc = E[I++].BlockPc;
        ++C.Invalidations;
        EXPECT_TRUE(At(K::BlockInvalidated)) << "event " << I;
        if (!At(K::BlockInvalidated))
          return C;
        EXPECT_EQ(E[I++].BlockPc, Pc);
        if (At(K::SmcChurnPin)) {
          EXPECT_EQ(E[I++].BlockPc, Pc);
          ++C.Pins;
        }
      }
    } else if (At(K::SmcReanalysis)) {
      ++I;
      ++C.Reanalyses;
      std::vector<uint32_t> Revoked, Retired;
      while (At(K::SmcVerdictRevoked))
        Revoked.push_back(E[I++].BlockPc);
      for (size_t R = 0; R != Revoked.size() && At(K::BlockInvalidated); ++R)
        Retired.push_back(E[I++].BlockPc);
      std::sort(Revoked.begin(), Revoked.end());
      std::sort(Retired.begin(), Retired.end());
      EXPECT_EQ(Retired, Revoked) << "event " << I;
      C.Revoked += Revoked.size();
    } else {
      ADD_FAILURE() << "coherence event " << I << " (kind "
                    << static_cast<int>(E[I].Kind)
                    << ") outside a barrier or re-analysis";
      return C;
    }
  }
  return C;
}

} // namespace

TEST(SmcTest, BarrierAndReanalysisEmitEventsInTransactionOrder) {
  {
    guest::GuestImage Image = workloads::smcPhaseProgram(400, 200);
    CoherenceEvents Sink;
    dbt::EngineConfig Config = smcConfig();
    Config.Trace = &Sink;
    dbt::RunResult R = runSmc(
        Image, {mda::MechanismKind::Direct, 0, false, 0, false}, Config);
    EXPECT_TRUE(R.completed());
    BarrierCounts C = parseCoherenceTrace(Sink.Events);
    EXPECT_EQ(C.Stores, R.Counters.get("smc.stores"));
    EXPECT_EQ(C.Invalidations, R.Counters.get("smc.invalidations"));
    EXPECT_EQ(C.Reanalyses, R.Counters.get("smc.reanalyses"));
    EXPECT_EQ(C.Revoked, R.Counters.get("smc.verdicts_revoked"));
    EXPECT_GE(C.Revoked, 1u);
  }
  {
    guest::GuestImage Image = workloads::smcChurnProgram(3, 250);
    CoherenceEvents Sink;
    dbt::EngineConfig Config = smcConfig();
    Config.Budget.SmcChurnPinLimit = 4;
    Config.Trace = &Sink;
    dbt::RunResult R = runSmc(
        Image, {mda::MechanismKind::Direct, 0, false, 0, false}, Config);
    EXPECT_TRUE(R.completed());
    BarrierCounts C = parseCoherenceTrace(Sink.Events);
    EXPECT_EQ(C.Stores, R.Counters.get("smc.stores"));
    EXPECT_EQ(C.Invalidations, R.Counters.get("smc.invalidations"));
    EXPECT_EQ(C.Pins, R.Counters.get("smc.churn_pins"));
    EXPECT_GT(C.Pins, 0u);
    EXPECT_GE(C.Reanalyses, 1u);
  }
}
