//===- tests/serving_test.cpp - Shared translation cache tests ------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-tenant serving layer (docs/SERVING.md): concurrent runs
/// sharing one TranslationService must each stay byte-identical to an
/// isolated-engine oracle — including hostile self-modifying tenants in
/// the mix and with the structural verifier on — must hold no shared
/// record once they end, and must reject a truncated or bit-flipped disk
/// artifact whole rather than ever executing from it.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "dbt/TranslationService.h"
#include "mda/PolicyFactory.h"
#include "workloads/Hostile.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <thread>
#include <vector>

using namespace mdabt;
using namespace mdabt::testutil;

namespace {

/// \p T as the immutable shared record the cache holds.
std::shared_ptr<const dbt::TranslationRecord> record(dbt::TranslationRecord T) {
  return std::make_shared<const dbt::TranslationRecord>(std::move(T));
}

/// A serving run: Verify on (any structural slip is a typed abort, not
/// silent corruption) plus the full dispatch surface so cached entries
/// carry exits, IC sites and superblock metadata.
dbt::EngineConfig servingConfig(dbt::TranslationService *Service) {
  dbt::EngineConfig Config;
  Config.Verify = true;
  Config.HashDispatch = true;
  Config.InlineCaches = true;
  Config.Superblocks = true;
  Config.Service = Service;
  return Config;
}

dbt::RunResult runWith(const guest::GuestImage &Image,
                       const mda::PolicySpec &Spec,
                       const dbt::EngineConfig &Config) {
  std::unique_ptr<dbt::MdaPolicy> Policy = mda::makePolicy(Spec, &Image);
  dbt::Engine Engine(Image, *Policy, Config);
  return Engine.run();
}

/// A loop calling several hot leaf functions, each doing misaligned
/// traffic from its own slot.  Enough distinct warm blocks that a small
/// CodeCacheLimitWords forces mid-run capacity flushes.
guest::GuestImage manyHotFuncsProgram(uint32_t Outer, unsigned NumFuncs) {
  using namespace guest;
  ProgramBuilder B("many-hot-funcs");
  uint32_t Buf = B.dataReserve(64, 8);
  std::vector<ProgramBuilder::Label> Funcs;
  for (unsigned F = 0; F != NumFuncs; ++F)
    Funcs.push_back(B.newLabel());
  B.movri(6, 0);
  ProgramBuilder::Label Loop = B.here();
  for (ProgramBuilder::Label F : Funcs)
    B.call(F);
  B.addi(6, 1);
  B.cmpi(6, static_cast<int32_t>(Outer));
  B.jcc(Cond::B, Loop);
  B.halt();
  for (unsigned F = 0; F != NumFuncs; ++F) {
    B.bind(Funcs[F]);
    B.movri(0, static_cast<int32_t>(Buf + F)); // misaligned for F > 0
    B.stl(mem(0, 1), 6);
    B.ldl(2, mem(0, 1));
    B.chk(2);
    B.ret();
  }
  return B.build();
}

mda::PolicySpec ehSpec() {
  return {mda::MechanismKind::ExceptionHandling, 50, true, 0, false};
}
mda::PolicySpec dpehSpec() {
  return {mda::MechanismKind::Dpeh, 50, false, 4, false};
}

/// Every architecturally observable field of two runs must agree.
void expectSameRun(const dbt::RunResult &A, const dbt::RunResult &B,
                   const char *What) {
  EXPECT_EQ(A.Error, B.Error) << What;
  EXPECT_EQ(A.Checksum, B.Checksum) << What;
  EXPECT_EQ(A.MemoryHash, B.MemoryHash) << What;
  for (unsigned I = 0; I != guest::NumGPR; ++I)
    EXPECT_EQ(A.FinalCpu.Gpr[I], B.FinalCpu.Gpr[I]) << What << " gpr " << I;
}

} // namespace

// -- cache key ---------------------------------------------------------------

TEST(CacheKeyTest, ContentSensitivity) {
  const uint8_t A[] = {1, 2, 3, 4};
  const uint8_t B[] = {1, 2, 3, 5};
  dbt::CacheKey KA = dbt::cacheKeyFromBytes(A, sizeof(A));
  dbt::CacheKey KB = dbt::cacheKeyFromBytes(B, sizeof(B));
  EXPECT_EQ(KA, dbt::cacheKeyFromBytes(A, sizeof(A)));
  EXPECT_NE(KA, KB);
  // Prefix is not the whole: length matters.
  EXPECT_NE(KA, dbt::cacheKeyFromBytes(A, sizeof(A) - 1));
  // The two 64-bit streams are independent: flipping one byte moves
  // both halves.
  EXPECT_NE(KA.Lo, KB.Lo);
  EXPECT_NE(KA.Hi, KB.Hi);
}

// -- hit / miss / pointer lifecycle ------------------------------------------

TEST(SharedCacheTest, HitMissPointerLifecycle) {
  dbt::TranslationService Cache;
  dbt::TranslationRecord T;
  T.GuestPc = 0x1000;
  T.Words = {1, 2, 3};
  dbt::CacheKey Key = dbt::cacheKeyFromBytes(
      reinterpret_cast<const uint8_t *>("block-a"), 7);

  EXPECT_FALSE(Cache.acquire(Key)); // cold miss
  EXPECT_EQ(Cache.misses(), 1u);

  auto Published = Cache.publish(Key, record(T));
  ASSERT_TRUE(Published);
  EXPECT_EQ(Cache.entries(), 1u);
  EXPECT_EQ(Cache.inserts(), 1u);
  EXPECT_EQ(Published.use_count(), 2); // the entry and this copy

  auto Hit = Cache.acquire(Key);
  EXPECT_EQ(Hit, Published); // one shared record, not a copy
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Hit->GuestPc, 0x1000u);
  EXPECT_EQ(Hit.use_count(), 3);

  // Dropping the callers' copies leaves the entry resident.
  Published.reset();
  Hit.reset();
  EXPECT_EQ(Cache.entries(), 1u);
  EXPECT_EQ(Cache.acquire(Key).use_count(), 2);
  EXPECT_EQ(Cache.hits(), 2u);
  EXPECT_EQ(Cache.misses(), 1u);
}

TEST(SharedCacheTest, FirstWriterWinsOnKeyRace) {
  dbt::TranslationService Cache;
  dbt::CacheKey Key = dbt::cacheKeyFromBytes(
      reinterpret_cast<const uint8_t *>("dup"), 3);
  dbt::TranslationRecord A;
  A.GuestPc = 1;
  A.Words = {42};
  dbt::TranslationRecord B;
  B.GuestPc = 2;
  B.Words = {43};
  auto RA = Cache.publish(Key, record(A));
  auto RB = Cache.publish(Key, record(B));
  EXPECT_EQ(Cache.entries(), 1u);
  EXPECT_EQ(Cache.inserts(), 1u);
  EXPECT_EQ(RB->GuestPc, 1u); // the loser gets the winner's record
  EXPECT_EQ(RB, RA);
}

// -- engine integration ------------------------------------------------------

TEST(ServingTest, ColdRunIdenticalToIsolatedEngine) {
  guest::GuestImage Image = misalignedSumProgram(4000);
  Oracle O = interpretOracle(Image);

  dbt::EngineConfig Isolated = servingConfig(nullptr);
  dbt::RunResult RIso = runWith(Image, ehSpec(), Isolated);
  expectMatchesOracle(RIso, O, "isolated");

  dbt::TranslationService Service;
  dbt::RunResult RCold = runWith(Image, ehSpec(), servingConfig(&Service));
  expectMatchesOracle(RCold, O, "cold serving");
  expectSameRun(RIso, RCold, "cold vs isolated");
  // A cold run misses on every translation and pays full translation
  // price, so even the modeled cycle total matches the isolated engine.
  EXPECT_EQ(RIso.Cycles, RCold.Cycles);
  EXPECT_EQ(RCold.Counters.get("cache.hits"), 0u);
  EXPECT_EQ(RCold.Counters.get("cache.misses"),
            Service.inserts());
}

TEST(ServingTest, WarmRunHitsEverythingAndSkipsTranslation) {
  guest::GuestImage Image = misalignedSumProgram(4000);
  Oracle O = interpretOracle(Image);
  dbt::TranslationService Service;

  dbt::RunResult RCold = runWith(Image, ehSpec(), servingConfig(&Service));
  dbt::RunResult RWarm = runWith(Image, ehSpec(), servingConfig(&Service));
  expectMatchesOracle(RWarm, O, "warm serving");
  expectSameRun(RCold, RWarm, "warm vs cold");

  // Deterministic replay: the second run re-derives the same keys, so
  // every translation is a hit and no re-translation happens at all.
  EXPECT_EQ(RWarm.Counters.get("cache.misses"), 0u);
  EXPECT_GT(RWarm.Counters.get("cache.hits"), 0u);
  EXPECT_EQ(RWarm.Counters.get("cache.hits"),
            RCold.Counters.get("cache.misses"));
  // Hits are priced CacheInstallCyclesPerInst instead of the full
  // translation cost: warm modeled translate-cycles must shrink.
  EXPECT_LT(RWarm.Counters.get("cycles.translate"),
            RCold.Counters.get("cycles.translate"));
}

TEST(ServingTest, CapacityFlushReinstallsCachedCopiesAtNewBases) {
  // A tight arena forces mid-run flushes; post-flush re-installs hit
  // the cache and land at different arena bases than the published
  // copy, exercising whole-range relocation under the verifier.
  guest::GuestImage Image = manyHotFuncsProgram(1500, 6);
  Oracle O = interpretOracle(Image);
  dbt::TranslationService Service;
  dbt::EngineConfig Config = servingConfig(&Service);
  Config.CodeCacheLimitWords = 200;
  dbt::RunResult R = runWith(Image, ehSpec(), Config);
  expectMatchesOracle(R, O, "capacity-flush serving");
  EXPECT_GT(R.Counters.get("dbt.flushes"), 0u);
  EXPECT_GT(R.Counters.get("cache.hits"), 0u);

  dbt::EngineConfig Isolated = Config;
  Isolated.Service = nullptr;
  expectSameRun(R, runWith(Image, ehSpec(), Isolated),
                "capacity-flush vs isolated");
}

TEST(ServingTest, HostileSmcTenantsMatchOracleAndCannotPoison) {
  // Hostile tenants rewrite their own code: the rewritten bytes key
  // differently, so they can only miss — the benign tenant sharing the
  // cache must stay byte-identical to its oracle.
  dbt::TranslationService Service;
  guest::GuestImage Benign = misalignedSumProgram(4000);
  Oracle BenignO = interpretOracle(Benign);

  for (const workloads::HostileProgram &P : workloads::hostileCatalog()) {
    Oracle O = interpretOracle(P.Image);
    dbt::EngineConfig Config = servingConfig(&Service);
    Config.Analysis = true;
    dbt::RunResult R = runWith(P.Image, dpehSpec(), Config);
    expectMatchesOracle(R, O, P.Name.c_str());
  }
  dbt::RunResult R = runWith(Benign, dpehSpec(), servingConfig(&Service));
  expectMatchesOracle(R, BenignO, "benign tenant after hostile runs");
}

TEST(ServingTest, ConcurrentMixedTenantsByteIdenticalToOracles) {
  // N threads × mixed benign + self-modifying guests against ONE shared
  // cache, Verify on.  Every run must reproduce its isolated oracle
  // exactly.
  struct Tenant {
    guest::GuestImage Image;
    mda::PolicySpec Spec;
    dbt::RunResult Expected;
  };
  std::vector<Tenant> Tenants;
  for (uint32_t Iters : {2000u, 3000u, 4000u})
    Tenants.push_back({misalignedSumProgram(Iters), ehSpec(), {}});
  for (const workloads::HostileProgram &P : workloads::hostileCatalog())
    Tenants.push_back({P.Image, dpehSpec(), {}});
  for (Tenant &T : Tenants) {
    dbt::EngineConfig Config = servingConfig(nullptr);
    Config.Analysis = true;
    T.Expected = runWith(T.Image, T.Spec, Config);
  }

  dbt::TranslationService Service;
  constexpr unsigned NumThreads = 8;
  constexpr unsigned RoundsPerThread = 3;
  std::vector<std::vector<dbt::RunResult>> Got(NumThreads);
  std::vector<std::thread> Threads;
  for (unsigned TI = 0; TI != NumThreads; ++TI) {
    Threads.emplace_back([&, TI] {
      for (unsigned R = 0; R != RoundsPerThread; ++R) {
        const Tenant &T = Tenants[(TI + R) % Tenants.size()];
        dbt::EngineConfig Config = servingConfig(&Service);
        Config.Analysis = true;
        Got[TI].push_back(runWith(T.Image, T.Spec, Config));
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  for (unsigned TI = 0; TI != NumThreads; ++TI)
    for (unsigned R = 0; R != RoundsPerThread; ++R)
      expectSameRun(Got[TI][R], Tenants[(TI + R) % Tenants.size()].Expected,
                    "concurrent tenant");
  EXPECT_GT(Service.hits(), 0u);
}

// -- disk persistence --------------------------------------------------------

namespace {

const char *ArtifactPath = "serving_test_cache.bin";

/// Populate a service by running a benchmark through it.
void warmService(dbt::TranslationService &Service) {
  guest::GuestImage Image = misalignedSumProgram(4000);
  runWith(Image, ehSpec(), servingConfig(&Service));
  ASSERT_GT(Service.entries(), 0u);
}

std::vector<uint8_t> slurp(const char *Path) {
  std::FILE *F = std::fopen(Path, "rb");
  EXPECT_NE(F, nullptr);
  std::vector<uint8_t> Bytes;
  uint8_t Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Bytes.insert(Bytes.end(), Buf, Buf + N);
  std::fclose(F);
  return Bytes;
}

void spit(const char *Path, const std::vector<uint8_t> &Bytes) {
  std::FILE *F = std::fopen(Path, "wb");
  ASSERT_NE(F, nullptr);
  // An empty vector's data() may be null, which fwrite must not get.
  if (!Bytes.empty()) {
    ASSERT_EQ(std::fwrite(Bytes.data(), 1, Bytes.size(), F), Bytes.size());
  }
  std::fclose(F);
}

} // namespace

// Records are shared immutably between the service and every run's live
// copies, AOT units included, so once the runs end the entry is the only
// holder left: whatever a run flushed, retired or staled, it kept no
// record alive and took none away.
TEST(ServingTest, EndedRunsLeaveTheEntryTheOnlyHolder) {
  dbt::TranslationService Service;
  dbt::EngineConfig Config = servingConfig(&Service);
  Config.CodeCacheLimitWords = 200; // capacity flushes mid-run
  Config.Aot = dbt::AotMode::Hybrid;
  guest::GuestImage Image = manyHotFuncsProgram(1500, 6);
  for (int Round = 0; Round != 2; ++Round) // cold, then all hits
    expectMatchesOracle(runWith(Image, ehSpec(), Config),
                        interpretOracle(Image), "served run");
  for (const workloads::HostileProgram &P : workloads::hostileCatalog())
    runWith(P.Image, dpehSpec(), servingConfig(&Service));

  // The artifact's first entry starts with its key, after the 32-byte
  // header (magic, version, count, payload size, checksum).
  ASSERT_TRUE(Service.save(ArtifactPath));
  std::vector<uint8_t> Bytes = slurp(ArtifactPath);
  std::remove(ArtifactPath);
  ASSERT_GE(Bytes.size(), 48u);
  auto U64At = [&](size_t At) {
    uint64_t V = 0;
    for (int I = 7; I >= 0; --I)
      V = V << 8 | Bytes[At + I];
    return V;
  };
  dbt::CacheKey Key{U64At(32), U64At(40)};
  std::shared_ptr<const dbt::TranslationRecord> Rec = Service.acquire(Key);
  ASSERT_TRUE(Rec) << "the first saved key is resident";
  EXPECT_EQ(Rec.use_count(), 2) << "the service entry plus this copy";
}

TEST(ServingPersistTest, DiskWarmedStartPerformsNoRetranslation) {
  dbt::TranslationService Producer;
  warmService(Producer);
  std::string Err;
  ASSERT_TRUE(Producer.save(ArtifactPath, &Err)) << Err;

  dbt::TranslationService Consumer;
  uint64_t Before = Consumer.entries();
  ASSERT_TRUE(Consumer.load(ArtifactPath, nullptr, &Err)) << Err;
  EXPECT_EQ(Consumer.entries() - Before, Producer.entries());

  guest::GuestImage Image = misalignedSumProgram(4000);
  Oracle O = interpretOracle(Image);
  dbt::RunResult R = runWith(Image, ehSpec(), servingConfig(&Consumer));
  expectMatchesOracle(R, O, "disk-warmed");
  // The whole point of persistence: a warm fleet start re-translates
  // nothing for a known image.
  EXPECT_EQ(R.Counters.get("cache.misses"), 0u);
  EXPECT_GT(R.Counters.get("cache.hits"), 0u);
  std::remove(ArtifactPath);
}

TEST(ServingPersistTest, SaveIsDeterministic) {
  dbt::TranslationService A;
  dbt::TranslationService B;
  warmService(A);
  warmService(B);
  ASSERT_TRUE(A.save(ArtifactPath));
  std::vector<uint8_t> BytesA = slurp(ArtifactPath);
  ASSERT_TRUE(B.save(ArtifactPath));
  EXPECT_EQ(BytesA, slurp(ArtifactPath));
  std::remove(ArtifactPath);
}

TEST(ServingPersistTest, CorruptArtifactsAreRejectedWhole) {
  dbt::TranslationService Producer;
  warmService(Producer);
  ASSERT_TRUE(Producer.save(ArtifactPath));
  const std::vector<uint8_t> Good = slurp(ArtifactPath);
  ASSERT_GT(Good.size(), 64u);

  auto ExpectRejected = [&](const std::vector<uint8_t> &Bytes,
                            const char *What) {
    spit(ArtifactPath, Bytes);
    dbt::TranslationService Victim;
    std::string Err;
    EXPECT_FALSE(Victim.load(ArtifactPath, nullptr, &Err)) << What;
    EXPECT_FALSE(Err.empty()) << What;
    // Atomic rejection: nothing was merged, so nothing corrupt can
    // ever be executed.
    EXPECT_EQ(Victim.entries(), 0u) << What;
  };

  // Truncation (header survives, payload short).
  std::vector<uint8_t> Truncated(Good.begin(), Good.end() - 9);
  ExpectRejected(Truncated, "truncated");
  // Single bit flip deep in the payload.
  std::vector<uint8_t> Flipped = Good;
  Flipped[Good.size() / 2] ^= 0x10;
  ExpectRejected(Flipped, "bit-flipped payload");
  // Bit flip in the header's entry count.
  std::vector<uint8_t> BadCount = Good;
  BadCount[8] ^= 0x01;
  ExpectRejected(BadCount, "corrupt entry count");
  // Wrong magic.
  std::vector<uint8_t> BadMagic = Good;
  BadMagic[0] ^= 0xff;
  ExpectRejected(BadMagic, "bad magic");
  // Unsupported future version.
  std::vector<uint8_t> BadVersion = Good;
  BadVersion[4] = 0x7f;
  ExpectRejected(BadVersion, "bad version");
  // Empty file.
  ExpectRejected({}, "empty file");

  // The pristine artifact still loads after all that.
  spit(ArtifactPath, Good);
  dbt::TranslationService Ok;
  EXPECT_TRUE(Ok.load(ArtifactPath));
  EXPECT_EQ(Ok.entries(), Producer.entries());
  std::remove(ArtifactPath);
}

// A save() of a hand-built entry passes every checksum, so the per-entry
// bounds are all that keeps metadata no translator emits away from the
// install path.
TEST(ServingPersistTest, OutOfRangeMetadataIsRejectedWhole) {
  auto Load = [](const dbt::TranslationRecord &T, std::string &Err) {
    dbt::TranslationService Producer;
    Producer.publish(dbt::CacheKey{1, 2}, record(T));
    EXPECT_TRUE(Producer.save(ArtifactPath));
    dbt::TranslationService Victim;
    bool Ok = Victim.load(ArtifactPath, nullptr, &Err);
    EXPECT_EQ(Victim.entries(), Ok ? 1u : 0u);
    return Ok;
  };
  dbt::TranslationRecord Base;
  Base.GuestPc = 0x1000;
  Base.Words.assign(16, 0);
  std::string Err;

  // An inline-cache way must fit inside the entry's words: a begin of
  // 0xFFFFFFFF would wrap a naive end check and put the way at the word
  // before the entry, inside the previous translation.
  dbt::TranslationRecord WrappedWay = Base;
  WrappedWay.IcSites.push_back({0, {0xFFFFFFFFu}});
  EXPECT_FALSE(Load(WrappedWay, Err));
  EXPECT_EQ(Err, "malformed entry");
  // A guest range must end inside the guest address space, or installing
  // the entry would watch pages past the write-watch table.
  dbt::TranslationRecord FarRange = Base;
  FarRange.GuestRanges.push_back({0x1000, 0xFFFFFFF0u});
  EXPECT_FALSE(Load(FarRange, Err));
  EXPECT_EQ(Err, "malformed entry");

  // The boundaries themselves stay valid.
  dbt::TranslationRecord Edge = Base;
  Edge.IcSites.push_back({0, {16 - dbt::IcWayWords}});
  Edge.GuestRanges.push_back({0x1000, guest::layout::MemorySize});
  Err.clear();
  EXPECT_TRUE(Load(Edge, Err)) << Err;
  std::remove(ArtifactPath);
}
