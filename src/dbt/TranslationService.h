//===- dbt/TranslationService.h - Shared translation serving ---*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process-wide serving layer: TranslationService, the sharded,
/// append-only translation cache shared by concurrent ExecutionContexts
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
/// The map is append-only: a translation is a deterministic function of
/// its key, so an entry is never replaced or evicted.  Records are
/// shared immutably (`std::shared_ptr<const TranslationRecord>`), so
/// the live copies in every run, the AOT units and the entry own the
/// record together, and whatever one run retires or flushes leaves the
/// others untouched.
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

#include <array>
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

/// The sharded, append-only translation cache: the single object an
/// EngineConfig points at (EngineConfig::Service).  All methods are
/// thread-safe; each shard has its own mutex.  A key picks its shard by
/// CacheKey::Lo, and a lookup is a linear scan of that shard's entry
/// vector comparing the full 128-bit key.  Must outlive every engine
/// using it.
class TranslationService {
public:
  using Record = std::shared_ptr<const TranslationRecord>;

  /// Look up \p Key; on a hit returns the resident record (and counts a
  /// hit), on a miss returns null (and counts a miss).
  Record acquire(const CacheKey &Key);

  /// Publish a freshly translated record under \p Key and return the
  /// resident one.  If another run raced us to the same key, the first
  /// writer wins and its record is returned instead (the loser's record
  /// is not inserted — both are byte-identical by construction of the
  /// key).
  Record publish(const CacheKey &Key, Record T);

  // -- stats (monotonic process-lifetime counters) ---------------------
  uint64_t hits() const { return StatHits.load(); }
  uint64_t misses() const { return StatMisses.load(); }
  uint64_t inserts() const { return StatInserts.load(); }
  /// Entries currently resident (takes every shard lock).
  uint64_t entries() const;
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
  static constexpr size_t NumShards = 8;

  struct Entry {
    CacheKey Key;
    Record T;
  };
  struct Shard {
    mutable std::mutex M;
    std::vector<Entry> Entries;
  };

  Shard &shardFor(const CacheKey &Key) { return Shards[Key.Lo % NumShards]; }

  /// Sum \p F over every resident entry, each shard under its lock.
  template <typename Fn> uint64_t sumEntries(Fn F) const;

  std::array<Shard, NumShards> Shards;
  std::atomic<uint64_t> StatHits{0};
  std::atomic<uint64_t> StatMisses{0};
  std::atomic<uint64_t> StatInserts{0};
};

} // namespace dbt
} // namespace mdabt

#endif // MDABT_DBT_TRANSLATIONSERVICE_H
