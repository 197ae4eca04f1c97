//===- tests/memhash_test.cpp - Memory hash and page-map tests ------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-of-run memory hash is the differential-testing contract: an
/// engine run's RunResult::MemoryHash must equal the interpreter oracle's
/// byte-serial FNV-1a over all of guest memory.  dbt::fnv1a skips
/// all-zero chunks and dbt::memoryHash skips pages GuestMemory's
/// "may be non-zero" map leaves unmarked; every test here compares both
/// against a plain byte-serial reference, so the fast paths must be
/// bit-identical, and checks the map's invariant directly.  The
/// GuestMemoryTest cases check the lazily zeroed storage beneath them:
/// a fresh memory reads zero, and constructing one costs no resident
/// memory until it is written.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "host/CodeSpace.h"
#include "host/HostAssembler.h"
#include "host/HostMachine.h"
#include "mda/PolicyFactory.h"
#include "workloads/SpecPrograms.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include <unistd.h>

using namespace mdabt;
using namespace mdabt::testutil;

namespace {

/// Byte-serial FNV-1a, written out independently of the library.
uint64_t referenceFnv1a(const uint8_t *Bytes, size_t Size) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (size_t I = 0; I != Size; ++I) {
    H ^= Bytes[I];
    H *= 0x100000001b3ULL;
  }
  return H;
}

uint64_t referenceHash(const guest::GuestMemory &Mem) {
  return referenceFnv1a(Mem.data(), Mem.size());
}

/// The page map's invariant: an unmarked page holds only zeros.
void expectUnmarkedPagesZero(const guest::GuestMemory &Mem) {
  for (uint32_t P = 0; P != Mem.dirtyPageCount(); ++P) {
    if (Mem.pageDirty(P))
      continue;
    for (uint32_t A = P << guest::GuestMemory::DirtyPageShift,
                  E = Mem.pageEnd(P);
         A != E; ++A)
      ASSERT_EQ(Mem.data()[A], 0) << "unmarked page " << P << " byte " << A;
  }
}

/// Random buffer in which each byte is non-zero with probability
/// \p Density.
std::vector<uint8_t> randomBuffer(std::mt19937 &Rng, size_t Size,
                                  double Density) {
  std::bernoulli_distribution NonZero(Density);
  std::uniform_int_distribution<int> Byte(1, 255);
  std::vector<uint8_t> Buf(Size, 0);
  for (uint8_t &B : Buf)
    if (NonZero(Rng))
      B = static_cast<uint8_t>(Byte(Rng));
  return Buf;
}

/// The process's resident set in bytes, or -1 if /proc/self/statm
/// cannot be read.
long long residentBytes() {
  std::ifstream Statm("/proc/self/statm");
  long long TotalPages = 0, ResidentPages = 0;
  if (!(Statm >> TotalPages >> ResidentPages))
    return -1;
  return ResidentPages * sysconf(_SC_PAGESIZE);
}

/// The six mechanism columns: five MDA policies plus hybrid AOT.
struct Column {
  const char *Name;
  mda::PolicySpec Spec;
  dbt::AotMode Aot;
};

std::vector<Column> sixColumns() {
  using mda::MechanismKind;
  return {
      {"direct", {MechanismKind::Direct, 0, false, 0, false},
       dbt::AotMode::Off},
      {"static", {MechanismKind::StaticProfiling, 0, false, 0, false},
       dbt::AotMode::Off},
      {"dynprof", {MechanismKind::DynamicProfiling, 50, false, 0, false},
       dbt::AotMode::Off},
      {"eh", {MechanismKind::ExceptionHandling, 50, false, 0, false},
       dbt::AotMode::Off},
      {"dpeh", {MechanismKind::Dpeh, 50, false, 0, false}, dbt::AotMode::Off},
      {"aot-hybrid", {MechanismKind::Dpeh, 50, false, 0, false},
       dbt::AotMode::Hybrid},
  };
}

} // namespace

TEST(Fnv1aTest, KnownVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(dbt::fnv1a(nullptr, 0), 0xcbf29ce484222325ULL);
  const uint8_t A[] = {'a'};
  EXPECT_EQ(dbt::fnv1a(A, 1), 0xaf63dc4c8601ec8cULL);
  const uint8_t Foobar[] = {'f', 'o', 'o', 'b', 'a', 'r'};
  EXPECT_EQ(dbt::fnv1a(Foobar, 6), 0x85944171f73967e8ULL);
}

TEST(Fnv1aTest, MatchesByteSerialReference) {
  std::mt19937 Rng(1234);
  const size_t Lengths[] = {0,   1,   7,   63,   64,   65,   127,
                            128, 129, 640, 1000, 4095, 4096, 4097};
  const double Densities[] = {0.0, 0.001, 0.02, 0.3, 1.0};
  for (size_t Len : Lengths)
    for (double D : Densities) {
      // Eight spare bytes so every start offset 0..7 can be tried: the
      // chunk loop must not depend on the pointer's alignment.
      std::vector<uint8_t> Buf = randomBuffer(Rng, Len + 8, D);
      for (size_t Off = 0; Off != 8; ++Off)
        EXPECT_EQ(dbt::fnv1a(Buf.data() + Off, Len),
                  referenceFnv1a(Buf.data() + Off, Len))
            << "len " << Len << " density " << D << " offset " << Off;
    }
}

TEST(Fnv1aTest, IsolatedNonZeroByteAtEveryChunkPosition) {
  // A single non-zero byte anywhere in or around a zero chunk.
  std::vector<uint8_t> Buf(3 * 64 + 5, 0);
  for (size_t I = 0; I != Buf.size(); ++I) {
    Buf[I] = 0x5a;
    EXPECT_EQ(dbt::fnv1a(Buf.data(), Buf.size()),
              referenceFnv1a(Buf.data(), Buf.size()))
        << "non-zero byte at " << I;
    Buf[I] = 0;
  }
}

TEST(MemoryHashTest, FreshMemory) {
  guest::GuestMemory Mem;
  EXPECT_EQ(dbt::memoryHash(Mem), referenceHash(Mem));
  for (uint32_t P = 0; P != Mem.dirtyPageCount(); ++P)
    EXPECT_FALSE(Mem.pageDirty(P));
}

TEST(MemoryHashTest, AfterLoadImage) {
  guest::GuestImage Image = misalignedSumProgram(600);
  guest::GuestMemory Mem;
  Mem.loadImage(Image);
  EXPECT_EQ(dbt::memoryHash(Mem), referenceHash(Mem));
  EXPECT_TRUE(
      Mem.pageDirty(Image.CodeBase >> guest::GuestMemory::DirtyPageShift));
  expectUnmarkedPagesZero(Mem);
}

TEST(MemoryHashTest, ReloadZeroesEverythingEarlierWritesTouched) {
  guest::GuestImage Image = misalignedSumProgram(600);
  guest::GuestMemory Fresh;
  Fresh.loadImage(Image);

  guest::GuestMemory Reused;
  Reused.loadImage(lateOnsetProgram(800, 400));
  Reused.store(guest::layout::StackTop - 8, 8, 0x0123456789abcdefULL);
  Reused.store(guest::layout::RuntimeBase + 3, 4, 0xdeadbeef);
  Reused.loadImage(Image);
  EXPECT_EQ(0, std::memcmp(Reused.data(), Fresh.data(), Fresh.size()));
  EXPECT_EQ(dbt::memoryHash(Reused), referenceHash(Fresh));
  expectUnmarkedPagesZero(Reused);
}

TEST(MemoryHashTest, AfterInterpreterStores) {
  for (const guest::GuestImage &Image :
       {misalignedSumProgram(600), lateOnsetProgram(800, 400)}) {
    guest::GuestMemory Mem;
    Mem.loadImage(Image);
    guest::GuestCPU Cpu;
    Cpu.reset(Image);
    guest::Interpreter Interp(Mem);
    Interp.run(Cpu, 10'000'000);
    ASSERT_TRUE(Cpu.Halted) << Image.Name;
    EXPECT_EQ(dbt::memoryHash(Mem), referenceHash(Mem)) << Image.Name;
    expectUnmarkedPagesZero(Mem);
  }
}

TEST(MemoryHashTest, AfterHostStores) {
  host::CodeSpace Code;
  guest::GuestMemory Mem;
  MemoryHierarchy Hier;
  host::CostModel Cost;
  host::HostMachine Machine{Code, Mem, Hier, Cost};
  host::HostAssembler Asm(Code);
  Machine.R[1] = 0x5000;
  Machine.R[2] = 0x1122334455667788ULL;
  Machine.R[3] = 0x9abc00;
  Asm.mem(host::HostOp::Stq, 2, 0, 1);
  Asm.mem(host::HostOp::Stb, 2, 0x1ff8, 1);
  Asm.mem(host::HostOp::Stl, 3, 0x3ffc, 1);
  Asm.srv(host::SrvFunc::Halt);
  Asm.finish();
  ASSERT_EQ(Machine.run(0).K, host::ExitInfo::Halt);
  EXPECT_EQ(Mem.load(0x5000, 8), 0x1122334455667788ULL);
  EXPECT_EQ(dbt::memoryHash(Mem), referenceHash(Mem));
  expectUnmarkedPagesZero(Mem);
}

TEST(MemoryHashTest, StraddlingStoreMarksSecondPage) {
  // An 8-byte store across a 4 KiB boundary whose only non-zero byte
  // lands in the second page.
  constexpr uint32_t Page = guest::GuestMemory::DirtyPageBytes;
  guest::GuestMemory Mem;
  uint32_t Addr = 5 * Page - 4;
  Mem.store(Addr, 8, 0x000000ff00000000ULL);
  EXPECT_EQ(Mem.load(5 * Page, 1), 0xffu);
  EXPECT_TRUE(Mem.pageDirty(5));
  EXPECT_EQ(dbt::memoryHash(Mem), referenceHash(Mem));
  expectUnmarkedPagesZero(Mem);
}

TEST(MemoryHashTest, StoreWatchedPredictsTheWatcher) {
  // storeWatched must be true exactly when store() invokes the watcher:
  // the host machine relies on it to write its counters back first.
  constexpr uint32_t WPage = guest::GuestMemory::WatchPageBytes;
  guest::GuestMemory Mem;
  unsigned Fired = 0;
  Mem.setWriteWatcher([&](uint32_t, unsigned) { ++Fired; });
  auto Check = [&](uint32_t Addr, unsigned Size) {
    bool Predicted = Mem.storeWatched(Addr, Size);
    unsigned Before = Fired;
    Mem.store(Addr, Size, 0x0102030405060708ULL);
    EXPECT_EQ(Predicted, Fired != Before)
        << "store of " << Size << " at " << Addr;
    return Predicted;
  };
  // Nothing watched: no store is.
  EXPECT_FALSE(Check(10 * WPage, 8));

  // Watch only page 11.  A store that straddles pages 10 and 11 is
  // watched through its last byte alone; one ending on page 10 is not.
  Mem.watchRange(11 * WPage, 12 * WPage);
  EXPECT_TRUE(Check(11 * WPage - 4, 8));
  EXPECT_FALSE(Check(11 * WPage - 8, 8));
  EXPECT_TRUE(Check(11 * WPage, 1));
  EXPECT_TRUE(Check(12 * WPage - 1, 1));
  EXPECT_FALSE(Check(12 * WPage, 4));
  // Straddling out of the watched page: watched through its first byte.
  EXPECT_TRUE(Check(12 * WPage - 2, 4));

  // Unwatched again: the page map is back to empty.
  Mem.unwatchRange(11 * WPage, 12 * WPage);
  EXPECT_FALSE(Check(11 * WPage - 4, 8));
  EXPECT_FALSE(Check(11 * WPage, 1));
  EXPECT_EQ(Fired, 4u);
}

TEST(MemoryHashTest, RezeroedPage) {
  guest::GuestMemory Mem;
  uint64_t Zero = referenceHash(Mem);
  Mem.store(0x20000, 4, 0xcafef00d);
  EXPECT_NE(dbt::memoryHash(Mem), Zero);
  Mem.store(0x20000, 4, 0);
  EXPECT_EQ(dbt::memoryHash(Mem), Zero);

  Mem.store(guest::layout::RuntimeBase + 16, 8, ~0ULL);
  Mem.zeroRange(guest::layout::RuntimeBase, guest::layout::RuntimeBase + 64);
  EXPECT_EQ(dbt::memoryHash(Mem), Zero);
  expectUnmarkedPagesZero(Mem);
}

TEST(MemoryHashTest, SizeNotAPageMultiple) {
  // 2.5 pages plus a few bytes: the last page is partial.
  constexpr uint32_t Size = 2 * guest::GuestMemory::DirtyPageBytes + 2051;
  guest::GuestMemory Mem(Size);
  EXPECT_EQ(Mem.dirtyPageCount(), 3u);
  EXPECT_EQ(Mem.pageEnd(2), Size);
  EXPECT_EQ(dbt::memoryHash(Mem), referenceHash(Mem));
  Mem.store(Size - 1, 1, 0x7f);
  EXPECT_EQ(dbt::memoryHash(Mem), referenceHash(Mem));
  Mem.store(Size - 1, 1, 0);
  Mem.store(100, 2, 0xbeef);
  EXPECT_EQ(dbt::memoryHash(Mem), referenceHash(Mem));
  guest::GuestImage Empty;
  Empty.CodeBase = 0;
  Empty.DataBase = 0;
  Mem.loadImage(Empty);
  std::vector<uint8_t> Zeros(Size, 0);
  EXPECT_EQ(dbt::memoryHash(Mem), referenceFnv1a(Zeros.data(), Size));
  expectUnmarkedPagesZero(Mem);
}

TEST(MemoryHashTest, RandomStoresKeepInvariant) {
  // Random stores of every width, many of them zero, on a small memory
  // whose size is not a page multiple.
  constexpr uint32_t Size = 9 * guest::GuestMemory::DirtyPageBytes + 777;
  guest::GuestMemory Mem(Size);
  std::mt19937 Rng(99);
  const unsigned Widths[] = {1, 2, 4, 8};
  std::uniform_int_distribution<uint32_t> Pick(0, 3);
  std::bernoulli_distribution ZeroValue(0.4);
  for (unsigned Round = 0; Round != 20; ++Round) {
    for (unsigned I = 0; I != 50; ++I) {
      unsigned W = Widths[Pick(Rng)];
      uint32_t Addr =
          std::uniform_int_distribution<uint32_t>(0, Size - W)(Rng);
      uint64_t V = ZeroValue(Rng) ? 0 : (uint64_t(Rng()) << 32 | Rng());
      Mem.store(Addr, W, V);
    }
    ASSERT_EQ(dbt::memoryHash(Mem), referenceHash(Mem)) << "round " << Round;
    expectUnmarkedPagesZero(Mem);
  }
}

// A memory owns its mapping; a copy would unmap it twice.
static_assert(!std::is_copy_constructible_v<guest::GuestMemory>);

TEST(GuestMemoryTest, FreshMemoryReadsZero) {
  constexpr uint32_t Page = guest::GuestMemory::DirtyPageBytes;
  guest::GuestMemory Default;
  EXPECT_EQ(Default.size(), guest::layout::MemorySize);
  guest::GuestMemory Partial(9 * Page + 777);
  for (const guest::GuestMemory *Mem : {&Default, &Partial}) {
    uint32_t Size = Mem->size();
    EXPECT_EQ(Mem->load(0, 1), 0u) << "size " << Size;
    for (uint32_t A = Page; A < Size; A += Page)
      ASSERT_EQ(Mem->load(A, 1), 0u) << "size " << Size << " byte " << A;
    EXPECT_EQ(Mem->load(Size - 1, 1), 0u) << "size " << Size;
  }
}

TEST(GuestMemoryTest, ConstructionTouchesOnlyStoredPages) {
  // Eight 16 MiB memories with one byte stored in each: a zero-filled
  // allocation would grow the resident set by at least 128 MiB.
  long long Before = residentBytes();
  if (Before < 0)
    GTEST_SKIP() << "/proc/self/statm is unreadable";
  std::vector<std::unique_ptr<guest::GuestMemory>> Mems;
  for (unsigned I = 0; I != 8; ++I) {
    Mems.push_back(std::make_unique<guest::GuestMemory>());
    Mems.back()->store(guest::layout::StackTop - 1, 1, I + 1);
  }
  long long Growth = residentBytes() - Before;
  EXPECT_LT(Growth, 8ll << 20) << "resident set grew by " << Growth
                               << " bytes";
  for (unsigned I = 0; I != 8; ++I)
    EXPECT_EQ(Mems[I]->load(guest::layout::StackTop - 1, 1), I + 1);
}

TEST(MemoryHashTest, EngineRunsMatchFullRangeOracleUnderEveryColumn) {
  workloads::ScaleConfig Scale;
  Scale.TotalRefs = 120000;
  std::vector<guest::GuestImage> Images = {misalignedSumProgram(600),
                                           lateOnsetProgram(800, 400)};
  for (const char *Name : {"410.bwaves", "252.eon"}) {
    const workloads::BenchmarkInfo *Info = workloads::findBenchmark(Name);
    ASSERT_NE(Info, nullptr);
    Images.push_back(
        workloads::buildBenchmark(*Info, workloads::InputKind::Ref, Scale));
  }
  for (const guest::GuestImage &Image : Images) {
    // interpretOracle hashes with full-range fnv1a, independent of the
    // page map.
    Oracle O = interpretOracle(Image);
    for (const Column &C : sixColumns()) {
      std::unique_ptr<dbt::MdaPolicy> Policy = mda::makePolicy(C.Spec, &Image);
      dbt::EngineConfig Config;
      Config.Verify = true;
      Config.Aot = C.Aot;
      dbt::RunResult R = dbt::Engine(Image, *Policy, Config).run();
      std::string What = Image.Name + " / " + C.Name;
      expectMatchesOracle(R, O, What.c_str());
    }
  }
}
