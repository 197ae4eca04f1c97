//===- tests/faultpath_test.cpp - The trap path without an engine ---------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The FaultPathUnitTest suite drives dbt::FaultPath directly, over a
/// CodeCache holding one translated block and a scripted policy, without
/// an engine: stale-delivery classes, the verified stub redirect, the
/// adaptive stub's claim on the BT-runtime region and its revert, the
/// watchdog's degradation ladder, the pin ledger, and the out-of-range
/// fallback for a stub too far from its fault word.
///
//===----------------------------------------------------------------------===//

#include "analysis/HostVerifier.h"
#include "dbt/CodeCache.h"
#include "dbt/Coherence.h"
#include "dbt/FaultPath.h"
#include "dbt/Translator.h"
#include "guest/Assembler.h"
#include "guest/GuestImage.h"
#include "host/HostAssembler.h"
#include "obs/TraceSink.h"

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <vector>

using namespace mdabt;

namespace {

using dbt::FaultPath;
using host::FaultAction;
constexpr uint32_t Mailbox = guest::layout::RuntimeBase;
constexpr uint32_t FirstCell = guest::layout::RuntimeBase + 8;

/// Answers every trap with a fixed decision and records escalations.
class ScriptedPolicy final : public dbt::MdaPolicy {
public:
  const char *name() const override { return "scripted"; }
  uint32_t hotThreshold() const override { return 0; }
  dbt::MemPlan planMemoryOp(uint32_t, const guest::GuestInst &) override {
    return dbt::MemPlan::Normal;
  }
  dbt::FaultDecision onFault(uint32_t, uint32_t, uint32_t) override {
    return Decision;
  }
  void onWatchdogEscalation(uint32_t BlockPc, uint32_t InstPc,
                            uint32_t Rung) override {
    Escalations.push_back({BlockPc, InstPc, Rung});
  }

  dbt::FaultDecision Decision;
  std::vector<std::array<uint32_t, 3>> Escalations;
};

/// One block with two trapping-capable sites, translated and installed:
///   ldl r3, [r4]; stl [r4+8], r3; jmp Next
struct FaultHarness {
  explicit FaultHarness(uint32_t MaxWatchdogTrips = 256)
      : Cache(Code, Mem, obs::Tracer(), /*PatchFailureLimit=*/0,
              [this] { ++PatchAborts; }),
        Faults(Code, Mem, Cache, Policy, obs::Tracer(&Events, nullptr),
               MaxWatchdogTrips) {
    guest::ProgramBuilder B("faultpath-unit");
    guest::ProgramBuilder::Label Next = B.newLabel();
    BlockPc = LoadPc = B.codeAddress();
    B.ldl(3, guest::mem(4, 0));
    StorePc = B.codeAddress();
    B.stl(guest::mem(4, 8), 3);
    B.jmp(Next);
    B.bind(Next);
    B.addi(1, 1);
    B.halt();
    Mem.loadImage(B.build());
    Mem.setWriteWatcher([](uint32_t, unsigned) {});
    T = &Cache.add(Trans.translate(
        dbt::discoverBlock(Mem, BlockPc),
        [](uint32_t, const guest::GuestInst &) { return dbt::MemPlan::Normal; }));
    Cache.install(*T, 0);
    Cache.map(*T);
    for (uint32_t W = T->EntryWord; W != T->EndWord; ++W)
      if (std::optional<uint32_t> Pc = T->siteAt(W))
        (*Pc == LoadPc ? LoadWord : StoreWord) = W;
    ExitWord = T->exitWord(0);
  }

  /// A delivery for the instruction currently at \p Word.
  host::FaultInfo faultAt(uint32_t Word) const {
    host::FaultInfo F;
    F.HostPc = Word;
    F.Addr = 0x1001;
    EXPECT_TRUE(host::decodeHost(Code.word(Word), F.Inst));
    return F;
  }

  /// TrapSpurious classes emitted so far, in order.
  std::vector<uint64_t> spuriousClasses() const {
    std::vector<uint64_t> Classes;
    for (const obs::TraceEvent &E : Events.snapshot())
      if (E.Kind == obs::TraceEventKind::TrapSpurious)
        Classes.push_back(E.B);
    return Classes;
  }

  /// Feed the watchdog WatchdogTrapK + 1 traps at \p Word with no
  /// progress in between; only the last one must storm.
  void storm(uint32_t Word) {
    for (uint32_t I = 0; I != FaultPath::WatchdogTrapK; ++I)
      EXPECT_FALSE(Faults.storming(Word, 100));
    EXPECT_TRUE(Faults.storming(Word, 100));
  }

  guest::GuestMemory Mem;
  host::CodeSpace Code;
  dbt::Translator Trans{Code};
  ScriptedPolicy Policy;
  obs::RingBufferTraceSink Events{256};
  uint32_t PatchAborts = 0;
  dbt::CodeCache Cache;
  FaultPath Faults;
  dbt::Translation *T = nullptr;
  uint32_t BlockPc = 0, LoadPc = 0, StorePc = 0;
  uint32_t LoadWord = 0, StoreWord = 0, ExitWord = 0;
};

/// The branch-range boundary: the greatest stub entry word whose return
/// branch still reaches FaultWord + 1, for a stub of \p StubWords words.
uint32_t lastEntryInRange(uint32_t FaultWord, uint32_t StubWords) {
  return FaultWord + 1 + (1u << 20) - StubWords;
}

} // namespace

TEST(FaultPathUnitTest, StaleDeliveriesAreClassified) {
  FaultHarness H;
  H.Policy.Decision.PatchStub = true;
  // Class 0, the word no longer holds the faulting instruction: a
  // delivery that names the load's word with the store's encoding, and
  // one past the arena's end.
  host::FaultInfo Changed = H.faultAt(H.LoadWord);
  Changed.Inst = H.faultAt(H.StoreWord).Inst;
  EXPECT_EQ(H.Faults.deliver(Changed).Action, FaultAction::Retry);
  host::FaultInfo Past = H.faultAt(H.LoadWord);
  Past.HostPc = H.Code.size();
  EXPECT_EQ(H.Faults.deliver(Past).Action, FaultAction::Retry);
  // Class 1, no live owner: a matching word outside every region is
  // emulated so the guest still progresses.
  uint32_t Orphan =
      host::HostAssembler(H.Code).mem(host::HostOp::Ldl, 3, 0, 4);
  dbt::FaultPath::Delivery D = H.Faults.deliver(H.faultAt(Orphan));
  EXPECT_EQ(D.Action, FaultAction::Fixup);
  EXPECT_EQ(D.Patched, nullptr);
  // Class 2, an owned word that is not a memory site.
  EXPECT_EQ(H.Faults.deliver(H.faultAt(H.ExitWord)).Action,
            FaultAction::Retry);

  EXPECT_EQ(H.spuriousClasses(), (std::vector<uint64_t>{0, 0, 1, 2}));
  EXPECT_EQ(H.Faults.stats().SpuriousTraps, 4u);
  EXPECT_EQ(H.Faults.stats().Patches, 0u);
  EXPECT_EQ(H.T->FaultCount, 0u); // no stale delivery reached the policy
}

TEST(FaultPathUnitTest, RedirectReadsBackAsBranchToAndRepeatIsStale) {
  FaultHarness H;
  H.Policy.Decision.PatchStub = true;
  H.Policy.Decision.Supersede = true;
  host::FaultInfo F = H.faultAt(H.LoadWord);
  uint32_t StubEntry = H.Code.size();

  dbt::FaultPath::Delivery D = H.Faults.deliver(F);
  EXPECT_EQ(D.Action, FaultAction::Retry);
  EXPECT_EQ(D.Patched, H.T);
  EXPECT_EQ(D.InstPc, H.LoadPc);
  EXPECT_EQ(D.StubEntry, StubEntry);
  EXPECT_TRUE(D.Supersede);
  std::optional<uint32_t> Br = host::branchTo(H.LoadWord, StubEntry);
  ASSERT_TRUE(Br);
  EXPECT_EQ(H.Code.word(H.LoadWord), *Br);
  EXPECT_EQ(H.Cache.owner(StubEntry), H.T);
  EXPECT_FALSE(H.T->siteAt(H.LoadWord));
  ASSERT_EQ(H.T->Patches.size(), 1u);
  EXPECT_EQ(H.T->Patches[0].Word, H.LoadWord);
  ASSERT_TRUE(H.Faults.lastPatch());
  EXPECT_EQ(H.Faults.lastPatch()->HostPc, H.LoadWord);

  // The same exception delivered again (duplicate or replay) finds the
  // branch, not the load: stale, and nothing is patched twice.
  uint32_t Size = H.Code.size();
  D = H.Faults.deliver(F);
  EXPECT_EQ(D.Action, FaultAction::Retry);
  EXPECT_EQ(D.Patched, nullptr);
  EXPECT_EQ(H.Code.size(), Size);
  EXPECT_EQ(H.spuriousClasses(), std::vector<uint64_t>{0});
  EXPECT_EQ(H.Faults.stats().Patches, 1u);
  EXPECT_EQ(H.PatchAborts, 0u);
}

TEST(FaultPathUnitTest, AdaptiveStubClaimsRuntimeAndRevertRestoresWord) {
  FaultHarness H;
  H.Policy.Decision.PatchStub = true;
  H.Policy.Decision.AdaptiveStub = true;
  H.Policy.Decision.RevertThreshold = 4;
  host::FaultInfo F = H.faultAt(H.LoadWord);
  uint32_t Original = H.Code.word(H.LoadWord);
  H.Mem.store(FirstCell, 4, 0xdeadbeef);

  ASSERT_EQ(H.Faults.deliver(F).Patched, H.T);
  EXPECT_NE(H.Code.word(H.LoadWord), Original);
  EXPECT_EQ(H.Mem.load(FirstCell, 4), 0u); // the claimed counter cell

  // The stub posts FaultWord + 1 once the access turns aligned.
  H.Mem.store(Mailbox, 4, H.LoadWord + 1);
  EXPECT_TRUE(H.Faults.pollRevert());
  EXPECT_EQ(H.Code.word(H.LoadWord), Original);
  EXPECT_EQ(H.T->siteAt(H.LoadWord), H.LoadPc);
  EXPECT_EQ(H.Mem.load(Mailbox, 4), 0u);
  EXPECT_EQ(H.Faults.stats().Reverts, 1u);
  EXPECT_FALSE(H.Faults.pollRevert()); // consumed

  // The restored load traps afresh and takes the next cell (the Fig. 8
  // adaptivity loop); the end-of-run scrub clears every claimed cell.
  ASSERT_EQ(H.Faults.deliver(F).Patched, H.T);
  H.Mem.store(FirstCell + 4, 4, 7);
  H.Mem.store(FirstCell + 8, 4, 9); // past the last claimed cell
  H.Faults.scrubRuntime();
  EXPECT_EQ(H.Mem.load(FirstCell + 4, 4), 0u);
  EXPECT_EQ(H.Mem.load(FirstCell + 8, 4), 9u);
}

// The revert reads the original word and the guest PC from the record,
// so only an unreverted adaptive patch is revertible: a post left over
// for a word since reverted and re-patched with a plain stub must leave
// the plain stub in place.
TEST(FaultPathUnitTest, StalePostAfterPlainRepatchIsIgnored) {
  FaultHarness H;
  H.Policy.Decision.PatchStub = true;
  H.Policy.Decision.AdaptiveStub = true;
  H.Policy.Decision.RevertThreshold = 4;
  uint32_t Original = H.Code.word(H.LoadWord);
  ASSERT_EQ(H.Faults.deliver(H.faultAt(H.LoadWord)).Patched, H.T);
  H.Mem.store(Mailbox, 4, H.LoadWord + 1);
  ASSERT_TRUE(H.Faults.pollRevert());
  ASSERT_EQ(H.Code.word(H.LoadWord), Original);
  std::vector<obs::TraceEvent> Reverted;
  for (const obs::TraceEvent &E : H.Events.snapshot())
    if (E.Kind == obs::TraceEventKind::StubReverted)
      Reverted.push_back(E);
  ASSERT_EQ(Reverted.size(), 1u);
  EXPECT_EQ(Reverted[0].GuestPc, H.LoadPc);
  EXPECT_EQ(Reverted[0].BlockPc, H.BlockPc);
  EXPECT_EQ(Reverted[0].A, H.LoadWord);

  // The load traps again and is re-patched with a plain stub.
  H.Policy.Decision.AdaptiveStub = false;
  ASSERT_EQ(H.Faults.deliver(H.faultAt(H.LoadWord)).Patched, H.T);
  uint32_t Plain = H.Code.word(H.LoadWord);
  ASSERT_NE(Plain, Original);

  H.Mem.store(Mailbox, 4, H.LoadWord + 1); // stale
  EXPECT_FALSE(H.Faults.pollRevert());
  EXPECT_EQ(H.Mem.load(Mailbox, 4), 0u); // consumed all the same
  EXPECT_EQ(H.Code.word(H.LoadWord), Plain);
  EXPECT_FALSE(H.T->siteAt(H.LoadWord));
  EXPECT_EQ(H.Faults.stats().Reverts, 1u);
  EXPECT_TRUE(analysis::verifyCodeSpace(H.Code, H.Cache.verifierInput()).ok());
}

TEST(FaultPathUnitTest, MailboxIsGuestMemoryWithoutAdaptiveStub) {
  FaultHarness H;
  H.Policy.Decision.PatchStub = true; // plain stubs only
  ASSERT_EQ(H.Faults.deliver(H.faultAt(H.LoadWord)).Patched, H.T);
  uint32_t Redirect = H.Code.word(H.LoadWord);
  // A guest value that reads exactly like a revert request for the
  // patched word.
  H.Mem.store(Mailbox, 4, H.LoadWord + 1);
  H.Mem.store(Mailbox + 4, 4, 0x11223344);

  EXPECT_FALSE(H.Faults.pollRevert());
  EXPECT_EQ(H.Mem.load(Mailbox, 4), H.LoadWord + 1);
  EXPECT_EQ(H.Code.word(H.LoadWord), Redirect);
  H.Faults.scrubRuntime();
  EXPECT_EQ(H.Mem.load(Mailbox, 4), H.LoadWord + 1);
  EXPECT_EQ(H.Mem.load(Mailbox + 4, 4), 0x11223344u);
}

TEST(FaultPathUnitTest, WatchdogClimbsTheLadderThenStorms) {
  FaultHarness H(/*MaxWatchdogTrips=*/3);
  host::FaultInfo F = H.faultAt(H.LoadWord);
  // Progress between traps (more than the re-executed word) never
  // storms.
  for (uint64_t Insts = 0; Insts != 40; Insts += 2)
    EXPECT_FALSE(H.Faults.storming(F.HostPc, Insts));

  // Rung 1: rearrangement with the storming site force-inlined.
  H.storm(F.HostPc);
  FaultPath::Escalation E = H.Faults.escalate(F);
  EXPECT_FALSE(E.Storm);
  EXPECT_EQ(E.Block, H.T);
  EXPECT_EQ(E.Rung, 1u);
  EXPECT_TRUE(H.Faults.forcedInline(H.LoadPc));
  EXPECT_FALSE(H.Faults.forcedInline(H.StorePc));
  // Rung 2: retranslation with every site force-inlined.
  H.storm(F.HostPc);
  E = H.Faults.escalate(F);
  EXPECT_EQ(E.Rung, 2u);
  EXPECT_TRUE(H.Faults.forcedInline(H.StorePc));
  EXPECT_FALSE(H.Faults.pinned(H.BlockPc));
  // Rung 3: the block is pinned interpret-only.
  H.storm(F.HostPc);
  E = H.Faults.escalate(F);
  EXPECT_EQ(E.Rung, 3u);
  EXPECT_TRUE(H.Faults.pinned(H.BlockPc));
  using Call = std::array<uint32_t, 3>;
  EXPECT_EQ(H.Policy.Escalations,
            (std::vector<Call>{{H.BlockPc, H.LoadPc, 1},
                               {H.BlockPc, H.LoadPc, 2},
                               {H.BlockPc, 0, 3}}));
  // Past MaxWatchdogTrips the run is a trap storm.
  H.storm(F.HostPc);
  EXPECT_TRUE(H.Faults.escalate(F).Storm);

  const FaultPath::Stats &S = H.Faults.stats();
  EXPECT_EQ(S.WatchdogTrips, 4u);
  EXPECT_EQ(S.LadderRearranges, 1u);
  EXPECT_EQ(S.LadderRetranslations, 1u);
  EXPECT_EQ(S.LadderInterpPins, 1u);
  EXPECT_EQ(H.Policy.Escalations.size(), 3u);
}

TEST(FaultPathUnitTest, EscalationWithoutOwnerIsSpurious) {
  FaultHarness H;
  uint32_t Orphan =
      host::HostAssembler(H.Code).mem(host::HostOp::Ldl, 3, 0, 4);
  FaultPath::Escalation E = H.Faults.escalate(H.faultAt(Orphan));
  EXPECT_FALSE(E.Storm);
  EXPECT_EQ(E.Block, nullptr);
  EXPECT_EQ(H.spuriousClasses(), std::vector<uint64_t>{3});
  EXPECT_TRUE(H.Policy.Escalations.empty());
}

TEST(FaultPathUnitTest, EachPinReasonBumpsOnlyItsCounters) {
  struct Row {
    FaultPath::Pin Why;
    uint64_t Ladder, Oversized, Churn;
  };
  for (Row R : {Row{FaultPath::Pin::TranslateRetries, 1, 0, 0},
                Row{FaultPath::Pin::Oversize, 0, 1, 0},
                Row{FaultPath::Pin::SmcChurn, 1, 0, 1},
                Row{FaultPath::Pin::Ladder, 1, 0, 0}}) {
    FaultHarness H;
    H.Faults.pin(0x1234, R.Why);
    EXPECT_TRUE(H.Faults.pinned(0x1234));
    EXPECT_EQ(H.Faults.pinnedBlocks(), 1u);
    const FaultPath::Stats &S = H.Faults.stats();
    EXPECT_EQ(S.LadderInterpPins, R.Ladder);
    EXPECT_EQ(S.OversizedPins, R.Oversized);
    EXPECT_EQ(S.SmcChurnPins, R.Churn);
  }
  // Translation failures pin at the retry limit; a success forgives.
  FaultHarness H;
  for (uint32_t I = 1; I != FaultPath::TranslateRetryLimit; ++I)
    EXPECT_EQ(H.Faults.translateFailed(0x40), I);
  EXPECT_FALSE(H.Faults.pinned(0x40));
  H.Faults.translated(0x40);
  EXPECT_EQ(H.Faults.translateFailed(0x40), 1u);
  for (uint32_t I = 2; I <= FaultPath::TranslateRetryLimit; ++I)
    H.Faults.translateFailed(0x40);
  EXPECT_TRUE(H.Faults.pinned(0x40));
  EXPECT_EQ(H.Faults.stats().LadderInterpPins, 1u);

  // SMC churn pins exactly at the limit, once, and moves only the churn
  // and interpret-only counters; a limit of 0 never pins.
  constexpr uint32_t Limit = 3;
  FaultHarness C;
  for (uint32_t I = 1; I != Limit; ++I)
    C.Faults.smcInvalidated(0x80, Limit);
  EXPECT_FALSE(C.Faults.pinned(0x80));
  C.Faults.smcInvalidated(0x80, Limit);
  EXPECT_TRUE(C.Faults.pinned(0x80));
  C.Faults.smcInvalidated(0x80, Limit); // already pinned: not pinned again
  const FaultPath::Stats &S = C.Faults.stats();
  EXPECT_EQ(S.SmcChurnPins, 1u);
  EXPECT_EQ(S.LadderInterpPins, 1u);
  EXPECT_EQ(S.OversizedPins, 0u);
  EXPECT_EQ(S.Patches + S.Reverts + S.SpuriousTraps + S.StubDowngrades +
                S.WatchdogTrips + S.LadderRearranges + S.LadderRetranslations,
            0u);
  std::vector<obs::TraceEvent> Pins;
  for (const obs::TraceEvent &E : C.Events.snapshot())
    if (E.Kind == obs::TraceEventKind::SmcChurnPin)
      Pins.push_back(E);
  ASSERT_EQ(Pins.size(), 1u);
  EXPECT_EQ(Pins[0].BlockPc, 0x80u);
  EXPECT_EQ(Pins[0].A, Limit);
  EXPECT_FALSE(C.Faults.pinned(0x84)); // per block
  FaultHarness Off;
  for (uint32_t I = 0; I != 64; ++I)
    Off.Faults.smcInvalidated(0x80, 0);
  EXPECT_FALSE(Off.Faults.pinned(0x80));
  EXPECT_EQ(Off.Faults.stats().LadderInterpPins, 0u);
}

TEST(FaultPathUnitTest, StubOutOfBranchRangeIsEmulated) {
  // The size of the stub for the harness's load, wherever it lands.
  host::FaultInfo Probe;
  uint32_t StubWords = 0;
  {
    FaultHarness H;
    Probe = H.faultAt(H.LoadWord);
    host::CodeSpace Scratch;
    std::optional<dbt::Translator::StubInfo> S =
        dbt::Translator(Scratch).emitStub(Probe.Inst, 0);
    ASSERT_TRUE(S);
    StubWords = S->End - S->Entry;
  }
  const uint32_t Nop = host::encodeHost(
      host::opInst(host::HostOp::Bis, host::RegZero, host::RegZero,
                   host::RegZero));
  for (bool TooFar : {false, true}) {
    SCOPED_TRACE(TooFar ? "one word past the range" : "last entry in range");
    FaultHarness H;
    H.Policy.Decision.PatchStub = true;
    H.Policy.Decision.AdaptiveStub = TooFar; // an unused claim stays unmade
    H.Mem.store(Mailbox, 4, H.LoadWord + 1);
    uint32_t Entry = lastEntryInRange(H.LoadWord, StubWords) + TooFar;
    while (H.Code.size() < Entry)
      H.Code.append(Nop); // the arena tail the stub would land on
    uint32_t Original = H.Code.word(H.LoadWord);

    dbt::FaultPath::Delivery D = H.Faults.deliver(H.faultAt(H.LoadWord));
    if (!TooFar) {
      EXPECT_EQ(D.Action, FaultAction::Retry);
      EXPECT_EQ(D.Patched, H.T);
      EXPECT_EQ(H.Code.size(), Entry + StubWords);
      continue;
    }
    // Nothing emitted, nothing patched, nothing claimed: this access is
    // emulated, as the monitor does for an out-of-range chain.
    EXPECT_EQ(D.Action, FaultAction::Fixup);
    EXPECT_EQ(D.Patched, nullptr);
    EXPECT_EQ(H.Code.size(), Entry);
    EXPECT_EQ(H.Code.word(H.LoadWord), Original);
    EXPECT_EQ(H.Faults.stats().Patches, 0u);
    EXPECT_FALSE(H.Faults.lastPatch());
    EXPECT_FALSE(H.Faults.pollRevert());
    EXPECT_EQ(H.Mem.load(Mailbox, 4), H.LoadWord + 1);
  }
}

namespace {

/// The guest PC the trap path resolves for the instruction now at
/// \p Word, probed with a delivery the policy declines to patch: the
/// TrapTaken event names the site, a class-2 spurious delivery means the
/// word is no memory site (any more).
std::optional<uint32_t> probeSite(FaultHarness &H, uint32_t Word) {
  bool Patch = H.Policy.Decision.PatchStub;
  H.Policy.Decision.PatchStub = false;
  size_t Seen = H.Events.snapshot().size();
  H.Faults.deliver(H.faultAt(Word));
  H.Policy.Decision.PatchStub = Patch;
  std::vector<obs::TraceEvent> New = H.Events.snapshot();
  for (size_t I = Seen; I != New.size(); ++I) {
    if (New[I].Kind == obs::TraceEventKind::TrapTaken)
      return New[I].GuestPc;
    if (New[I].Kind == obs::TraceEventKind::TrapSpurious) {
      EXPECT_EQ(New[I].B, 2u);
    }
  }
  return std::nullopt;
}

/// The Reverted flag of each of the block's patch records, in order.
std::vector<bool> revertedFlags(const FaultHarness &H) {
  analysis::VerifierInput In = H.Cache.verifierInput();
  EXPECT_EQ(In.Blocks.size(), 1u);
  std::vector<bool> Flags;
  for (const analysis::VerifierPatch &P : In.Blocks.at(0).Patches) {
    EXPECT_EQ(P.Word, H.LoadWord);
    Flags.push_back(P.Reverted);
  }
  return Flags;
}

} // namespace

TEST(FaultPathUnitTest, StoreFromStubStopsAtPatchedWordsResumePoint) {
  FaultHarness H;
  H.Policy.Decision.PatchStub = true;
  dbt::Coherence Coh(H.Cache, H.Mem, obs::Tracer(), H.BlockPc, 0);
  // Where a store from the body word itself stops the episode.
  dbt::Coherence::Store Want = Coh.store(H.BlockPc, 4, H.StoreWord);
  ASSERT_TRUE(Want.Stop);

  dbt::FaultPath::Delivery D = H.Faults.deliver(H.faultAt(H.StoreWord));
  ASSERT_EQ(D.Patched, H.T);
  uint32_t StubEnd = H.Code.size();
  ASSERT_GT(StubEnd, D.StubEntry);
  // Every word of the stub stops exactly where the word it replaces
  // would: the store now executes out of the stub.
  for (uint32_t W = D.StubEntry; W != StubEnd; ++W) {
    dbt::Coherence::Store S = Coh.store(H.BlockPc, 4, W);
    ASSERT_TRUE(S.Stop) << W;
    EXPECT_EQ(S.Stop->EndWord, Want.Stop->EndWord) << W;
    EXPECT_EQ(S.Stop->ResumePc, Want.Stop->ResumePc) << W;
    EXPECT_FALSE(S.Unstoppable);
  }
  // A load's stub has no resume point to inherit.
  D = H.Faults.deliver(H.faultAt(H.LoadWord));
  ASSERT_EQ(D.Patched, H.T);
  EXPECT_TRUE(Coh.store(H.BlockPc, 4, D.StubEntry).Unstoppable);
}

TEST(FaultPathUnitTest, SiteLookupFollowsPatchRevertAndRepatch) {
  FaultHarness H;
  H.Policy.Decision.PatchStub = true;
  H.Policy.Decision.AdaptiveStub = true;
  H.Policy.Decision.RevertThreshold = 4;
  EXPECT_EQ(probeSite(H, H.LoadWord), H.LoadPc);
  EXPECT_TRUE(revertedFlags(H).empty());

  ASSERT_EQ(H.Faults.deliver(H.faultAt(H.LoadWord)).Patched, H.T);
  EXPECT_EQ(probeSite(H, H.LoadWord), std::nullopt);
  EXPECT_EQ(revertedFlags(H), std::vector<bool>{false});

  H.Mem.store(Mailbox, 4, H.LoadWord + 1);
  ASSERT_TRUE(H.Faults.pollRevert());
  EXPECT_EQ(probeSite(H, H.LoadWord), H.LoadPc);
  EXPECT_EQ(revertedFlags(H), std::vector<bool>{true});

  // A re-patch leaves a second record for the same word; both read as
  // patched, and both as reverted after the next revert.
  dbt::FaultPath::Delivery D = H.Faults.deliver(H.faultAt(H.LoadWord));
  ASSERT_EQ(D.Patched, H.T);
  EXPECT_EQ(D.InstPc, H.LoadPc);
  EXPECT_EQ(probeSite(H, H.LoadWord), std::nullopt);
  EXPECT_EQ(revertedFlags(H), (std::vector<bool>{false, false}));
  EXPECT_TRUE(analysis::verifyCodeSpace(H.Code, H.Cache.verifierInput()).ok());

  H.Mem.store(Mailbox, 4, H.LoadWord + 1);
  ASSERT_TRUE(H.Faults.pollRevert());
  EXPECT_EQ(probeSite(H, H.LoadWord), H.LoadPc);
  EXPECT_EQ(revertedFlags(H), (std::vector<bool>{true, true}));
  EXPECT_TRUE(analysis::verifyCodeSpace(H.Code, H.Cache.verifierInput()).ok());
  // The store site was never touched.
  EXPECT_EQ(probeSite(H, H.StoreWord), H.StorePc);
}

TEST(FaultPathUnitTest, RungTwoForceInlinesOnlyUnpatchedSites) {
  for (bool Revert : {false, true}) {
    SCOPED_TRACE(Revert ? "patched, then reverted" : "patched");
    FaultHarness H;
    H.Policy.Decision.PatchStub = true;
    H.Policy.Decision.AdaptiveStub = true;
    H.Policy.Decision.RevertThreshold = 4;
    ASSERT_EQ(H.Faults.deliver(H.faultAt(H.LoadWord)).Patched, H.T);
    if (Revert) {
      H.Mem.store(Mailbox, 4, H.LoadWord + 1);
      ASSERT_TRUE(H.Faults.pollRevert());
    }
    // A storm at a word of the block that is no memory site goes
    // straight to rung 2: every site the block still traps at is
    // force-inlined, and a patched one no longer traps.
    H.storm(H.ExitWord);
    FaultPath::Escalation E = H.Faults.escalate(H.faultAt(H.ExitWord));
    EXPECT_EQ(E.Block, H.T);
    EXPECT_EQ(E.Rung, 2u);
    EXPECT_TRUE(H.Faults.forcedInline(H.StorePc));
    EXPECT_EQ(H.Faults.forcedInline(H.LoadPc), Revert);
  }
}
