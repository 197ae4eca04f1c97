//===- tests/coherence_test.cpp - Guest-code coherence without an engine --==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CoherenceUnitTest suite drives dbt::Coherence directly, over a
/// CodeCache holding Translator-built blocks, without an engine: the
/// store epoch and byte-exact dirty epochs, the barrier's victims, its
/// episode-stop decisions (live and retired running translations), lazy
/// re-analysis, and Elide revocation.
///
//===----------------------------------------------------------------------===//

#include "dbt/CodeCache.h"
#include "dbt/Coherence.h"
#include "dbt/GuestBlock.h"
#include "dbt/Translator.h"
#include "guest/Assembler.h"
#include "guest/GuestImage.h"
#include "obs/TraceSink.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

using namespace mdabt;

namespace {

using dbt::Coherence;
using dbt::MemPlan;
using Victims = std::vector<dbt::Translation *>;

/// Three blocks, reachable in order from the entry, on one watch page:
///   0: movri r5, Buf; ldl r3, [r5]; ldl r6, [r5+8]; jmp 1
///   1: ldl r1, [r6]; ldl r2, [r6+4]; jmp 2
///   2: ldl r1, [r6+8]; stl [r5+12], r1; halt
/// Block 0's sites are provably aligned; every site through r6 (loaded
/// from memory) is Unknown to the alignment analysis.
guest::GuestImage threeBlocks(uint32_t Pc[3], uint32_t Site[3],
                              uint32_t &End) {
  guest::ProgramBuilder B("coherence-unit");
  uint32_t Buf = B.dataReserve(32, 8);
  guest::ProgramBuilder::Label One = B.newLabel(), Two = B.newLabel();
  Pc[0] = B.codeAddress();
  B.movri(5, static_cast<int32_t>(Buf));
  B.ldl(3, guest::mem(5, 0));
  B.ldl(6, guest::mem(5, 8));
  B.jmp(One);
  B.bind(One);
  Pc[1] = Site[0] = B.codeAddress();
  B.ldl(1, guest::mem(6, 0));
  Site[1] = B.codeAddress();
  B.ldl(2, guest::mem(6, 4));
  B.jmp(Two);
  B.bind(Two);
  Pc[2] = Site[2] = B.codeAddress();
  B.ldl(1, guest::mem(6, 8));
  B.stl(guest::mem(5, 12), 1);
  B.halt();
  End = B.codeAddress();
  return B.build();
}

struct CoherenceHarness {
  explicit CoherenceHarness(bool Analyze = true)
      : Image(threeBlocks(Pc, Site, End)),
        Cache(Code, Mem, obs::Tracer(), /*PatchFailureLimit=*/0, [] {}),
        Coh(Cache, Mem, obs::Tracer(&Events, nullptr), Image.Entry,
            Image.StackTop) {
    Mem.loadImage(Image);
    // The write barrier, as the engine wires it (interpreter stores).
    Mem.setWriteWatcher([this](uint32_t Addr, unsigned Size) {
      Coh.store(Addr, Size, std::nullopt);
    });
    if (Analyze)
      Coh.analyze(/*TraceVerdicts=*/false);
  }

  /// Translate and install block \p I with every site planned \p Plan.
  dbt::Translation &install(unsigned I, MemPlan Plan = MemPlan::Normal) {
    dbt::Translation &T = Cache.add(Trans.translate(
        dbt::discoverBlock(Mem, Pc[I]),
        [Plan](uint32_t, const guest::GuestInst &) { return Plan; }));
    Cache.install(T, Coh.epoch());
    Cache.map(T);
    return T;
  }

  /// Events of kind \p K emitted so far.
  std::vector<obs::TraceEvent> events(obs::TraceEventKind K) const {
    std::vector<obs::TraceEvent> Out;
    for (const obs::TraceEvent &E : Events.snapshot())
      if (E.Kind == K)
        Out.push_back(E);
    return Out;
  }

  uint32_t Pc[3] = {};
  uint32_t Site[3] = {};
  uint32_t End = 0;
  guest::GuestImage Image;
  guest::GuestMemory Mem;
  host::CodeSpace Code;
  dbt::Translator Trans{Code};
  obs::RingBufferTraceSink Events{1024};
  dbt::CodeCache Cache;
  Coherence Coh;
};

/// A host word of \p T that performs a guest store.
uint32_t storeWord(const dbt::Translation &T) {
  for (uint32_t W = T.EntryWord; W != T.EndWord; ++W)
    if (T.resumeAt(W))
      return W;
  ADD_FAILURE() << "no store word";
  return 0;
}

} // namespace

TEST(CoherenceUnitTest, EpochCountsBarrierStoresAndStampsBytesExactly) {
  CoherenceHarness H;
  H.install(0);
  EXPECT_EQ(H.Coh.epoch(), 0u);
  // A store to an unwatched page never reaches the barrier.
  H.Mem.store(H.Image.StackTop - 64, 4, 7);
  EXPECT_EQ(H.Coh.epoch(), 0u);
  EXPECT_TRUE(H.Coh.dirtyEpochs().empty());

  H.Mem.store(H.Pc[0] + 1, 2, 0);
  EXPECT_EQ(H.Coh.epoch(), 1u);
  H.Mem.store(H.Pc[0] + 2, 4, 0);
  EXPECT_EQ(H.Coh.epoch(), 2u);
  const auto &Dirty = H.Coh.dirtyEpochs();
  EXPECT_EQ(Dirty.size(), 5u);
  EXPECT_EQ(Dirty.count(H.Pc[0]), 0u);
  EXPECT_EQ(Dirty.at(H.Pc[0] + 1), 1u);
  for (uint32_t B = H.Pc[0] + 2; B != H.Pc[0] + 6; ++B)
    EXPECT_EQ(Dirty.at(B), 2u) << B; // the later store wins
  EXPECT_EQ(Dirty.count(H.Pc[0] + 6), 0u);
  EXPECT_EQ(H.events(obs::TraceEventKind::SmcStore).size(), 2u);
}

TEST(CoherenceUnitTest, VictimsAreByteExactAndInEntryOrder) {
  CoherenceHarness H;
  constexpr uint32_t Shift = guest::GuestMemory::WatchPageShift;
  ASSERT_EQ(H.Pc[0] >> Shift, (H.End - 1) >> Shift)
      << "the three blocks must share one watch page";
  dbt::Translation &A = H.install(0);
  dbt::Translation &B = H.install(1);
  dbt::Translation &C = H.install(2);

  // A neighbour that only shares the page is not a victim, up to the
  // last byte before it.
  EXPECT_EQ(H.Coh.store(H.Pc[1], 1, std::nullopt).Victims, Victims{&B});
  EXPECT_EQ(H.Coh.store(H.Pc[1] - 1, 1, std::nullopt).Victims, Victims{&A});
  // A store across two blocks reports both, by entry word.
  EXPECT_EQ(H.Coh.store(H.Pc[2] - 2, 4, std::nullopt).Victims,
            (Victims{&B, &C}));
  EXPECT_EQ(H.Coh.store(H.Pc[1] - 2, 8, std::nullopt).Victims,
            (Victims{&A, &B}));
  EXPECT_TRUE(H.Coh.store(H.End, 4, std::nullopt).Victims.empty());
  EXPECT_EQ(H.Coh.stats().Invalidations, 6u);
  // Retired translations are no longer victims.
  H.Cache.retire(B);
  EXPECT_EQ(H.Coh.store(H.Pc[2] - 2, 4, std::nullopt).Victims, Victims{&C});
}

TEST(CoherenceUnitTest, StopDecisions) {
  CoherenceHarness H;
  dbt::Translation &Other = H.install(1);
  dbt::Translation &T = H.install(2);
  uint32_t Word = storeWord(T);
  std::optional<dbt::SmcResume> Resume = T.resumeAt(Word);
  ASSERT_TRUE(Resume);
  dbt::SmcResume Want = *Resume;

  // A live running block that stores into its own bytes stops.
  Coherence::Store S = H.Coh.store(H.Pc[2], 4, Word);
  ASSERT_TRUE(S.Stop);
  EXPECT_EQ(S.Stop->EndWord, Want.EndWord);
  EXPECT_EQ(S.Stop->ResumePc, Want.ResumePc);
  EXPECT_FALSE(S.Unstoppable);
  EXPECT_EQ(S.Victims, Victims{&T});

  // So does the same store from the same body once it is retired (a
  // supersede from inside its own trap handler): it is no victim, but
  // it is still running over the bytes it rewrote.
  H.Cache.retire(T);
  S = H.Coh.store(H.Pc[2], 4, Word);
  ASSERT_TRUE(S.Stop);
  EXPECT_EQ(S.Stop->EndWord, Want.EndWord);
  EXPECT_TRUE(S.Victims.empty());
  EXPECT_EQ(H.Coh.stats().EpisodeStops, 2u);
  std::vector<obs::TraceEvent> Stops =
      H.events(obs::TraceEventKind::SmcEpisodeStop);
  ASSERT_EQ(Stops.size(), 2u);
  EXPECT_EQ(Stops[1].GuestPc, Want.ResumePc);
  EXPECT_EQ(Stops[1].BlockPc, H.Pc[2]);
  EXPECT_EQ(Stops[1].A, Word);
  EXPECT_EQ(Stops[1].B, Want.EndWord);

  // A store into another block's bytes does not stop the running one.
  S = H.Coh.store(H.Pc[1], 4, Word);
  EXPECT_FALSE(S.Stop);
  EXPECT_FALSE(S.Unstoppable);
  EXPECT_EQ(S.Victims, Victims{&Other});

  // A running word without resume metadata is reported, not stopped.
  dbt::Translation &Live = H.install(2);
  ASSERT_FALSE(Live.resumeAt(Live.EntryWord));
  S = H.Coh.store(H.Pc[2], 4, Live.EntryWord);
  EXPECT_FALSE(S.Stop);
  EXPECT_TRUE(S.Unstoppable);
  H.Cache.retire(Live);

  // An interpreter store never stops anything.
  dbt::Translation &Again = H.install(2);
  S = H.Coh.store(H.Pc[2], 4, std::nullopt);
  EXPECT_FALSE(S.Stop);
  EXPECT_FALSE(S.Unstoppable);
  EXPECT_EQ(S.Victims, Victims{&Again});
  EXPECT_EQ(H.Coh.stats().EpisodeStops, 2u);
}

TEST(CoherenceUnitTest, ReanalysisRunsOncePerBurstAndNeverWhenOff) {
  CoherenceHarness H;
  ASSERT_NE(H.Coh.analysis(), nullptr);
  EXPECT_FALSE(H.Coh.reanalyze()); // nothing changed yet
  H.Coh.store(H.Pc[0], 4, std::nullopt);
  H.Coh.store(H.Pc[1], 4, std::nullopt);
  H.Coh.store(H.Pc[2], 1, std::nullopt);
  EXPECT_TRUE(H.Coh.reanalyze());
  EXPECT_FALSE(H.Coh.reanalyze()); // the burst was absorbed
  EXPECT_EQ(H.Coh.stats().Reanalyses, 1u);
  EXPECT_EQ(H.events(obs::TraceEventKind::SmcReanalysis).size(), 1u);
  H.Coh.store(H.Pc[0], 4, std::nullopt);
  EXPECT_TRUE(H.Coh.reanalyze());
  EXPECT_EQ(H.Coh.stats().Reanalyses, 2u);

  CoherenceHarness Off(/*Analyze=*/false);
  EXPECT_EQ(Off.Coh.analysis(), nullptr);
  Off.Coh.store(Off.Pc[0], 4, std::nullopt);
  EXPECT_FALSE(Off.Coh.reanalyze());
  EXPECT_EQ(Off.Coh.stats().Reanalyses, 0u);
  EXPECT_EQ(Off.Coh.epoch(), 1u); // the epoch still counts the store
  EXPECT_EQ(Off.Coh.verdict(Off.Pc[0], guest::GuestInst()),
            analysis::AlignVerdict::Unknown);
}

TEST(CoherenceUnitTest, RevocationReportsEachUnprovenTranslationOnce) {
  CoherenceHarness H;
  // Every site planned Elide: block 0's proofs hold, blocks 1 and 2
  // elide sites the analysis cannot prove.
  dbt::Translation &Proven = H.install(0, MemPlan::Elide);
  dbt::Translation &B = H.install(1, MemPlan::Elide);
  dbt::Translation &C = H.install(2, MemPlan::Elide);
  ASSERT_EQ(B.Rec->PlanByPc.size(), 2u);
  H.Coh.store(H.End, 4, std::nullopt); // stale the analysis
  std::optional<Victims> Revoked = H.Coh.reanalyze();
  ASSERT_TRUE(Revoked);
  EXPECT_EQ(*Revoked, (Victims{&B, &C}));
  EXPECT_TRUE(Proven.Valid);
  EXPECT_EQ(H.Coh.stats().VerdictsRevoked, 2u);
  std::vector<obs::TraceEvent> E =
      H.events(obs::TraceEventKind::SmcVerdictRevoked);
  ASSERT_EQ(E.size(), 2u);
  // One event per translation, naming its lowest unproven site.
  EXPECT_EQ(E[0].GuestPc, H.Site[0]);
  EXPECT_EQ(E[0].BlockPc, H.Pc[1]);
  EXPECT_EQ(E[1].GuestPc, H.Site[2]);
  EXPECT_EQ(E[1].BlockPc, H.Pc[2]);
  // Revocation reports; retiring is the owner's call.  A retired
  // translation is not reported again.
  H.Cache.retire(B);
  H.Coh.store(H.End, 4, std::nullopt);
  Revoked = H.Coh.reanalyze();
  ASSERT_TRUE(Revoked);
  EXPECT_EQ(*Revoked, Victims{&C});
}
