//===- dbt/TranslationService.h - Shared translation serving ---*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process-wide serving layer: TranslationService, the sharded,
/// refcounted translation cache shared by concurrent ExecutionContexts
/// (docs/SERVING.md).
///
/// Entries are keyed by a content hash over everything that determines
/// the translator's emission for one block or superblock: the guest
/// bytes of every constituent block, the per-site MemPlan sequence the
/// requesting run would use (policy decisions, analysis verdicts and
/// ladder overrides all fold into the plans), and the block-level
/// translation options (multi-version, inline-cache ways).  A hit
/// therefore reproduces *exactly* the host words a fresh translation
/// would emit — per-run architectural results are byte-identical to an
/// isolated engine by construction — and a hostile guest that rewrites
/// its code changes the key, so it can only ever miss, never poison
/// another tenant's entry.
///
/// An entry holds the translator's own TranslationRecord.  Its words are
/// position-independent (all translator-internal control flow is
/// label-relative; exits materialize guest PCs as data) and its metadata
/// is entry-relative, so a run installs a hit by appending the words at
/// its own arena tail and pointing a Translation header at the shared
/// record.  Runs mutate only their private words (chains, stubs,
/// inline-cache fills); the record stays pristine.
///
/// Leases are the cross-tenant safety mechanism: a run acquires a lease
/// per installed translation and releases it when the translation
/// leaves service (invalidate/flush) or the run ends.  Eviction only
/// ever considers unleased entries, so SMC invalidation or a flush
/// storm in one run can never retire an entry another run still holds.
///
/// The cache serializes to a versioned, checksummed artifact
/// (save/load) so a warm fleet start performs no re-translation of
/// known images; a truncated or bit-flipped artifact is rejected whole.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_DBT_TRANSLATIONSERVICE_H
#define MDABT_DBT_TRANSLATIONSERVICE_H

#include "dbt/Translation.h"
#include "obs/TraceSink.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mdabt {
namespace dbt {

/// 128-bit content key of one cached translation (two independent
/// FNV-1a streams over the same key material; see cacheKeyFromBytes).
struct CacheKey {
  uint64_t Lo = 0;
  uint64_t Hi = 0;

  bool operator==(const CacheKey &O) const {
    return Lo == O.Lo && Hi == O.Hi;
  }
  bool operator!=(const CacheKey &O) const { return !(*this == O); }
};

/// Hash the serialized key material (guest bytes + plans + options)
/// into a CacheKey.
CacheKey cacheKeyFromBytes(const uint8_t *Bytes, size_t Size);

namespace detail {
/// One shard-resident entry.  Lease count is atomic so release never
/// takes the shard lock.
struct CacheEntry {
  CacheKey Key;
  std::shared_ptr<const TranslationRecord> T;
  std::atomic<uint64_t> Leases{0};
  uint64_t Seq = 0; ///< insertion order within the shard (FIFO evict)
};
} // namespace detail

/// RAII lease on one cache entry.  While any lease is live the entry
/// cannot be evicted; destruction (or release()) decrements the count.
/// Movable, not copyable.
class TranslationLease {
public:
  TranslationLease() = default;
  TranslationLease(TranslationLease &&O) noexcept : E(std::move(O.E)) {}
  TranslationLease &operator=(TranslationLease &&O) noexcept;
  TranslationLease(const TranslationLease &) = delete;
  TranslationLease &operator=(const TranslationLease &) = delete;
  ~TranslationLease();

  explicit operator bool() const { return E != nullptr; }
  /// The leased translation.  A copy of the pointer keeps the record
  /// alive after the lease is released and the entry evicted.
  const std::shared_ptr<const TranslationRecord> &get() const {
    return E->T;
  }
  /// Drop the lease early (idempotent).
  void release();

private:
  friend class TranslationService;
  explicit TranslationLease(std::shared_ptr<detail::CacheEntry> E)
      : E(std::move(E)) {}
  std::shared_ptr<detail::CacheEntry> E;
};

/// The sharded, refcounted translation cache: the single object an
/// EngineConfig points at (EngineConfig::Service).  All methods are
/// thread-safe; each shard has its own mutex.  A key picks its shard by
/// CacheKey::Lo, and a lookup is a linear scan of that shard's entry
/// vector comparing the full 128-bit key.  Must outlive every engine
/// using it.
class TranslationService {
public:
  struct Config {
    /// Lock shards (clamped to 1..64).
    uint32_t Shards = 8;
    /// Entry-count capacity; 0 = unbounded.  On overflow the inserting
    /// shard evicts its oldest *unleased* entries (leased entries are
    /// never evicted, so capacity may be exceeded transiently while
    /// every entry is leased).
    uint64_t MaxEntries = 0;
  };

  TranslationService() : TranslationService(Config{8, 0}) {}
  explicit TranslationService(Config C);

  /// Look up \p Key; on a hit returns a live lease (and counts a hit),
  /// on a miss returns an empty lease (and counts a miss).
  TranslationLease acquire(const CacheKey &Key);

  /// Publish a freshly translated entry and lease it.  If another run
  /// raced us to the same key, the first writer wins and its entry is
  /// leased instead (the loser's record is not inserted — both are
  /// byte-identical by construction of the key).  \p Evicted, when
  /// non-null, receives the number of entries evicted to make room.
  TranslationLease publish(const CacheKey &Key,
                           std::shared_ptr<const TranslationRecord> T,
                           uint64_t *Evicted = nullptr);

  // -- stats (monotonic process-lifetime counters) ---------------------
  uint64_t hits() const { return StatHits.load(); }
  uint64_t misses() const { return StatMisses.load(); }
  uint64_t inserts() const { return StatInserts.load(); }
  uint64_t evictions() const { return StatEvictions.load(); }
  /// Entries currently resident (takes every shard lock).
  uint64_t entries() const;
  /// Sum of live lease counts over resident entries (takes every shard
  /// lock).  Zero once every run has released its translations.
  uint64_t liveLeases() const;
  /// Approximate resident payload bytes (takes every shard lock).
  uint64_t footprintBytes() const;

  // -- disk persistence -------------------------------------------------
  /// Serialize every resident entry to \p Path as a versioned,
  /// checksummed artifact.  Deterministic: entries are written in key
  /// order.  Returns false (with \p Err set) on I/O failure.
  bool save(const std::string &Path, std::string *Err = nullptr) const;
  /// Load an artifact produced by save() and merge its entries
  /// (first-writer-wins against resident entries).  The whole file is
  /// validated first — magic, version, payload checksum, and per-entry
  /// structural bounds — and rejected atomically on any mismatch: a
  /// truncated or bit-flipped artifact changes nothing and returns
  /// false with \p Err describing the defect.  On success emits one
  /// `cache.load` event (A = entries merged, B = resident cache
  /// footprint in bytes after the merge) into \p Sink when provided.
  bool load(const std::string &Path, obs::TraceSink *Sink = nullptr,
            std::string *Err = nullptr);

  /// On-disk format version written by save().  Version 2 appended the
  /// per-entry fused-site records (TranslationRecord::RelFusedSite).
  static constexpr uint32_t FormatVersion = 2;

private:
  struct Shard {
    mutable std::mutex M;
    std::vector<std::shared_ptr<detail::CacheEntry>> Entries;
    uint64_t NextSeq = 0;
  };

  Shard &shardFor(const CacheKey &Key) {
    return Shards[Key.Lo % Shards.size()];
  }
  /// Insert under the shard lock; returns the resident entry (existing
  /// one on a key race) and bumps \p Evicted per eviction.
  std::shared_ptr<detail::CacheEntry>
  insertLocked(Shard &S, const CacheKey &Key,
               std::shared_ptr<const TranslationRecord> T, uint64_t &Evicted);

  /// Sum \p F over every resident entry, each shard under its lock.
  template <typename Fn> uint64_t sumEntries(Fn F) const;

  std::vector<Shard> Shards;
  uint64_t PerShardCap = 0; ///< ceil(MaxEntries / Shards), 0 = unbounded
  std::atomic<uint64_t> StatHits{0};
  std::atomic<uint64_t> StatMisses{0};
  std::atomic<uint64_t> StatInserts{0};
  std::atomic<uint64_t> StatEvictions{0};
};

} // namespace dbt
} // namespace mdabt

#endif // MDABT_DBT_TRANSLATIONSERVICE_H
