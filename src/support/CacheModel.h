//===- support/CacheModel.h - Set-associative cache simulation -*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small set-associative cache simulator with LRU replacement, used to
/// model the paper's Alpha ES40 memory hierarchy (64 KB 2-way split L1,
/// 2 MB direct-mapped unified L2) for both the host machine simulator and
/// the guest-native runs of Figure 1.  Only hit/miss accounting is modeled;
/// contents are irrelevant to the experiments.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_SUPPORT_CACHEMODEL_H
#define MDABT_SUPPORT_CACHEMODEL_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mdabt {

/// Geometry of one cache level.
struct CacheGeometry {
  uint32_t SizeBytes;
  uint32_t Ways;
  uint32_t LineBytes;
};

/// One cache level with LRU replacement.
class Cache {
public:
  explicit Cache(CacheGeometry G) : Geo(G) {
    assert(G.LineBytes != 0 && (G.LineBytes & (G.LineBytes - 1)) == 0 &&
           "line size must be a power of two");
    assert(G.Ways != 0 && "cache needs at least one way");
    NumSets = G.SizeBytes / (G.LineBytes * G.Ways);
    assert(NumSets != 0 && (NumSets & (NumSets - 1)) == 0 &&
           "set count must be a nonzero power of two");
    LineShift = 0;
    for (uint32_t L = G.LineBytes; L > 1; L >>= 1)
      ++LineShift;
    Tags.assign(static_cast<size_t>(NumSets) * G.Ways, ~0ULL);
    Age.assign(Tags.size(), 0);
  }

  /// Access the line containing \p Addr.  Returns true on hit; on a miss
  /// the line is filled (LRU victim evicted).
  ///
  /// Fast path: a one-entry filter on the most recently accessed line.
  /// LastLine is by definition the line of the previous access(), which
  /// is resident (it was hit or filled then) and can only be evicted by
  /// a miss in its set — and any such access would itself have updated
  /// LastLine first, so a filter hit is always a true hit.  Skipping the
  /// Age/Clock update is equally safe: re-touching the line that is
  /// already its set's most-recent cannot change the LRU *ordering*
  /// within any set (ordering only changes when a different line of the
  /// set is touched, which takes the slow path), so hit/miss sequences —
  /// and therefore every modeled cycle count — are bit-identical to the
  /// unfiltered model.  Straight-line code fetches hit this filter ~15
  /// times per 64-byte line.
  bool access(uint64_t Addr) {
    uint64_t Line = Addr >> LineShift;
    if (Line == LastLine) {
      ++Hits;
      return true;
    }
    LastLine = Line;
    uint32_t Set = static_cast<uint32_t>(Line) & (NumSets - 1);
    size_t Base = static_cast<size_t>(Set) * Geo.Ways;
    ++Clock;
    for (uint32_t W = 0; W != Geo.Ways; ++W) {
      if (Tags[Base + W] == Line) {
        Age[Base + W] = Clock;
        ++Hits;
        return true;
      }
    }
    // Miss: evict LRU way.
    uint32_t Victim = 0;
    for (uint32_t W = 1; W != Geo.Ways; ++W)
      if (Age[Base + W] < Age[Base + Victim])
        Victim = W;
    Tags[Base + Victim] = Line;
    Age[Base + Victim] = Clock;
    ++Misses;
    return false;
  }

  /// Count \p N accesses the caller skipped because each would have hit
  /// the one-entry filter (the line of the previous access()).  A filter
  /// hit changes nothing but Hits, so crediting them in bulk leaves the
  /// cache in exactly the state the N calls would have.  The caller must
  /// know that no other access intervened since the one whose line the
  /// skipped accesses share.
  void creditFilterHits(uint64_t N) { Hits += N; }

  void reset() {
    for (uint64_t &T : Tags)
      T = ~0ULL;
    for (uint64_t &A : Age)
      A = 0;
    Hits = Misses = 0;
    Clock = 0;
    LastLine = ~0ULL;
  }

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }
  const CacheGeometry &geometry() const { return Geo; }

private:
  CacheGeometry Geo;
  uint32_t NumSets = 0;
  uint32_t LineShift = 0;
  std::vector<uint64_t> Tags;
  std::vector<uint64_t> Age;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Clock = 0;
  /// Most recently accessed line (one-entry hit filter); ~0 = none.
  /// Guest/host addresses are < 2^33, so the sentinel never collides
  /// with a real line number.
  uint64_t LastLine = ~0ULL;
};

/// The paper's machine: split 64 KB 2-way L1 caches and a 2 MB
/// direct-mapped unified L2 (paper section V-A).  Returns the cycle
/// penalty for an access (0 on L1 hit).
class MemoryHierarchy {
public:
  struct Penalties {
    uint32_t L2HitCycles = 14;
    uint32_t MemoryCycles = 180;
  };

  MemoryHierarchy()
      : L1I({64 * 1024, 2, 64}), L1D({64 * 1024, 2, 64}),
        L2({2 * 1024 * 1024, 1, 64}) {}

  MemoryHierarchy(CacheGeometry GI, CacheGeometry GD, CacheGeometry GL2,
                  Penalties P)
      : L1I(GI), L1D(GD), L2(GL2), Costs(P) {}

  /// Instruction fetch at \p Addr; returns added cycles.
  uint32_t fetch(uint64_t Addr) {
    if (L1I.access(Addr))
      return 0;
    return L2.access(Addr) ? Costs.L2HitCycles
                           : Costs.L2HitCycles + Costs.MemoryCycles;
  }

  /// Data access at \p Addr; returns added cycles.
  uint32_t data(uint64_t Addr) {
    if (L1D.access(Addr))
      return 0;
    return L2.access(Addr) ? Costs.L2HitCycles
                           : Costs.L2HitCycles + Costs.MemoryCycles;
  }

  void reset() {
    L1I.reset();
    L1D.reset();
    L2.reset();
  }

  Cache L1I;
  Cache L1D;
  Cache L2;
  Penalties Costs;
};

} // namespace mdabt

#endif // MDABT_SUPPORT_CACHEMODEL_H
