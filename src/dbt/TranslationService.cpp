//===- dbt/TranslationService.cpp -----------------------------------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//

#include "dbt/TranslationService.h"

#include "dbt/Engine.h"
#include "dbt/FusionRules.h"
#include "guest/GuestImage.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

using namespace mdabt;
using namespace mdabt::dbt;

CacheKey mdabt::dbt::cacheKeyFromBytes(const uint8_t *Bytes, size_t Size) {
  CacheKey K;
  K.Lo = fnv1a(Bytes, Size);
  // Second stream: same FNV prime, different basis plus a finalizing
  // xor-shift per byte, so the two words are independent enough that a
  // collision requires both 64-bit streams to collide at once.
  uint64_t H = 0x84222325cbf29ce4ULL;
  for (size_t I = 0; I != Size; ++I) {
    H ^= Bytes[I];
    H *= 0x100000001b3ULL;
    H ^= H >> 29;
  }
  K.Hi = H;
  return K;
}

size_t TranslationRecord::footprintBytes() const {
  size_t N = sizeof(*this);
  N += Words.size() * sizeof(uint32_t);
  N += Exits.size() * sizeof(RelExit);
  N += MemWordToGuestPc.size() * sizeof(std::pair<uint32_t, uint32_t>);
  N += StoreResume.size() * sizeof(RelResume);
  N += PlanByPc.size() * sizeof(std::pair<uint32_t, MemPlan>);
  for (const RelIcSite &S : IcSites)
    N += sizeof(RelIcSite) + S.WayBegins.size() * sizeof(uint32_t);
  N += Constituents.size() * sizeof(uint32_t);
  N += GuestRanges.size() * sizeof(std::pair<uint32_t, uint32_t>);
  N += FusedSites.size() * sizeof(RelFusedSite);
  return N;
}

// -- TranslationService ------------------------------------------------------

TranslationService::Record TranslationService::acquire(const CacheKey &Key) {
  Shard &S = shardFor(Key);
  std::lock_guard<std::mutex> Lock(S.M);
  for (const Entry &E : S.Entries) {
    if (E.Key == Key) {
      StatHits.fetch_add(1, std::memory_order_relaxed);
      return E.T;
    }
  }
  StatMisses.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

TranslationService::Record TranslationService::publish(const CacheKey &Key,
                                                       Record T) {
  Shard &S = shardFor(Key);
  std::lock_guard<std::mutex> Lock(S.M);
  // First writer wins: a racing publisher of the same key gets the
  // resident record (the records are byte-identical by key design).
  for (const Entry &E : S.Entries)
    if (E.Key == Key)
      return E.T;
  S.Entries.push_back({Key, T});
  StatInserts.fetch_add(1, std::memory_order_relaxed);
  return T;
}

template <typename Fn> uint64_t TranslationService::sumEntries(Fn F) const {
  uint64_t N = 0;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    for (const Entry &E : S.Entries)
      N += F(E);
  }
  return N;
}

uint64_t TranslationService::entries() const {
  return sumEntries([](const Entry &) { return 1; });
}

uint64_t TranslationService::footprintBytes() const {
  return sumEntries([](const Entry &E) { return E.T->footprintBytes(); });
}

// -- disk persistence --------------------------------------------------------

namespace {

constexpr uint32_t ArtifactMagic = 0x4354444d; // "MDTC"

void put8(std::vector<uint8_t> &B, uint8_t V) { B.push_back(V); }
void put32(std::vector<uint8_t> &B, uint32_t V) {
  for (int S = 0; S != 32; S += 8)
    B.push_back(static_cast<uint8_t>(V >> S));
}
void put64(std::vector<uint8_t> &B, uint64_t V) {
  for (int S = 0; S != 64; S += 8)
    B.push_back(static_cast<uint8_t>(V >> S));
}

/// Bounds-checked little-endian reader over a loaded artifact.
struct Cursor {
  const uint8_t *P;
  size_t N;
  size_t At = 0;
  bool Bad = false;

  uint8_t u8() {
    if (At + 1 > N) {
      Bad = true;
      return 0;
    }
    return P[At++];
  }
  uint32_t u32() {
    if (At + 4 > N) {
      Bad = true;
      return 0;
    }
    uint32_t V = 0;
    for (int S = 0; S != 32; S += 8)
      V |= static_cast<uint32_t>(P[At++]) << S;
    return V;
  }
  uint64_t u64() {
    if (At + 8 > N) {
      Bad = true;
      return 0;
    }
    uint64_t V = 0;
    for (int S = 0; S != 64; S += 8)
      V |= static_cast<uint64_t>(P[At++]) << S;
    return V;
  }
};

/// Upper bound on any per-entry element count: generous for real
/// translations, small enough that a corrupt length cannot drive an
/// allocation bomb before the checksum is even checked.
constexpr uint32_t MaxElems = 1u << 22;

void serializeEntry(std::vector<uint8_t> &B, const CacheKey &Key,
                    const TranslationRecord &T) {
  put64(B, Key.Lo);
  put64(B, Key.Hi);
  put32(B, T.GuestPc);
  put32(B, T.GuestInsts);
  put8(B, T.IsTrace ? 1 : 0);
  put32(B, static_cast<uint32_t>(T.Words.size()));
  for (uint32_t W : T.Words)
    put32(B, W);
  put32(B, static_cast<uint32_t>(T.Exits.size()));
  for (const TranslationRecord::RelExit &E : T.Exits) {
    put32(B, E.Word);
    put32(B, E.TargetGuestPc);
    put8(B, E.Direct ? 1 : 0);
  }
  put32(B, static_cast<uint32_t>(T.MemWordToGuestPc.size()));
  for (const auto &M : T.MemWordToGuestPc) {
    put32(B, M.first);
    put32(B, M.second);
  }
  put32(B, static_cast<uint32_t>(T.StoreResume.size()));
  for (const TranslationRecord::RelResume &R : T.StoreResume) {
    put32(B, R.Word);
    put32(B, R.EndWord);
    put32(B, R.ResumePc);
  }
  put32(B, static_cast<uint32_t>(T.PlanByPc.size()));
  for (const auto &P : T.PlanByPc) {
    put32(B, P.first);
    put8(B, static_cast<uint8_t>(P.second));
  }
  put32(B, static_cast<uint32_t>(T.IcSites.size()));
  for (const TranslationRecord::RelIcSite &S : T.IcSites) {
    put32(B, S.SrvWord);
    put32(B, static_cast<uint32_t>(S.WayBegins.size()));
    for (uint32_t W : S.WayBegins)
      put32(B, W);
  }
  put32(B, static_cast<uint32_t>(T.Constituents.size()));
  for (uint32_t C : T.Constituents)
    put32(B, C);
  put32(B, static_cast<uint32_t>(T.GuestRanges.size()));
  for (const auto &R : T.GuestRanges) {
    put32(B, R.first);
    put32(B, R.second);
  }
  put32(B, static_cast<uint32_t>(T.FusedSites.size()));
  for (const TranslationRecord::RelFusedSite &F : T.FusedSites) {
    put8(B, F.Rule);
    put8(B, F.GuestLen);
    put32(B, F.Begin);
    put32(B, F.End);
    put32(B, F.GuestPc);
    put32(B, F.SavedWords);
  }
}

/// Parse one entry; returns false on a structural defect (truncated
/// stream, implausible counts, metadata outside the word range, guest
/// ranges outside the guest address space).
bool parseEntry(Cursor &C, CacheKey &Key, TranslationRecord &T) {
  Key.Lo = C.u64();
  Key.Hi = C.u64();
  T.GuestPc = C.u32();
  T.GuestInsts = C.u32();
  uint8_t IsTrace = C.u8();
  if (IsTrace > 1)
    return false;
  T.IsTrace = IsTrace != 0;
  uint32_t NWords = C.u32();
  if (C.Bad || NWords == 0 || NWords > MaxElems)
    return false;
  T.Words.reserve(NWords);
  for (uint32_t I = 0; I != NWords; ++I)
    T.Words.push_back(C.u32());
  auto RelOk = [NWords](uint32_t W) { return W < NWords; };
  uint32_t NExits = C.u32();
  if (C.Bad || NExits > MaxElems)
    return false;
  for (uint32_t I = 0; I != NExits; ++I) {
    TranslationRecord::RelExit E;
    E.Word = C.u32();
    E.TargetGuestPc = C.u32();
    uint8_t Direct = C.u8();
    if (!RelOk(E.Word) || Direct > 1)
      return false;
    E.Direct = Direct != 0;
    T.Exits.push_back(E);
  }
  uint32_t NMem = C.u32();
  if (C.Bad || NMem > MaxElems)
    return false;
  for (uint32_t I = 0; I != NMem; ++I) {
    uint32_t W = C.u32();
    uint32_t Pc = C.u32();
    if (!RelOk(W))
      return false;
    T.MemWordToGuestPc.push_back({W, Pc});
  }
  uint32_t NResume = C.u32();
  if (C.Bad || NResume > MaxElems)
    return false;
  for (uint32_t I = 0; I != NResume; ++I) {
    TranslationRecord::RelResume R;
    R.Word = C.u32();
    R.EndWord = C.u32();
    R.ResumePc = C.u32();
    if (!RelOk(R.Word) || R.EndWord > NWords)
      return false;
    T.StoreResume.push_back(R);
  }
  uint32_t NPlans = C.u32();
  if (C.Bad || NPlans > MaxElems)
    return false;
  for (uint32_t I = 0; I != NPlans; ++I) {
    uint32_t Pc = C.u32();
    uint8_t Plan = C.u8();
    if (Plan > static_cast<uint8_t>(MemPlan::Elide))
      return false;
    T.PlanByPc.push_back({Pc, static_cast<MemPlan>(Plan)});
  }
  uint32_t NSites = C.u32();
  if (C.Bad || NSites > MaxElems)
    return false;
  for (uint32_t I = 0; I != NSites; ++I) {
    TranslationRecord::RelIcSite S;
    S.SrvWord = C.u32();
    uint32_t NWays = C.u32();
    if (C.Bad || !RelOk(S.SrvWord) || NWays > 4)
      return false;
    for (uint32_t W = 0; W != NWays; ++W) {
      uint32_t B = C.u32();
      // Written so it cannot wrap: a way must lie inside the entry's
      // words, or a fill would patch the translation before it.
      if (B > NWords || NWords - B < IcWayWords)
        return false;
      S.WayBegins.push_back(B);
    }
    T.IcSites.push_back(std::move(S));
  }
  uint32_t NConst = C.u32();
  if (C.Bad || NConst > MaxElems)
    return false;
  for (uint32_t I = 0; I != NConst; ++I)
    T.Constituents.push_back(C.u32());
  uint32_t NRanges = C.u32();
  if (C.Bad || NRanges > MaxElems)
    return false;
  for (uint32_t I = 0; I != NRanges; ++I) {
    uint32_t Lo = C.u32();
    uint32_t HiB = C.u32();
    // Install watches every range: an end past the guest address space
    // would index past the write-watch page table.
    if (Lo >= HiB || HiB > guest::layout::MemorySize)
      return false;
    T.GuestRanges.push_back({Lo, HiB});
  }
  uint32_t NFused = C.u32();
  if (C.Bad || NFused > MaxElems)
    return false;
  for (uint32_t I = 0; I != NFused; ++I) {
    TranslationRecord::RelFusedSite F;
    F.Rule = C.u8();
    F.GuestLen = C.u8();
    F.Begin = C.u32();
    F.End = C.u32();
    F.GuestPc = C.u32();
    F.SavedWords = C.u32();
    if (F.Rule >= NumFusionRules || F.Begin >= F.End || F.End > NWords)
      return false;
    T.FusedSites.push_back(F);
  }
  return !C.Bad;
}

bool fail(std::string *Err, const char *Msg) {
  if (Err)
    *Err = Msg;
  return false;
}

} // namespace

bool TranslationService::save(const std::string &Path,
                              std::string *Err) const {
  // Snapshot every shard in key order so the artifact is deterministic
  // regardless of insertion interleaving.
  std::vector<Entry> All;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    All.insert(All.end(), S.Entries.begin(), S.Entries.end());
  }
  std::sort(All.begin(), All.end(), [](const Entry &A, const Entry &B) {
    return A.Key.Hi != B.Key.Hi ? A.Key.Hi < B.Key.Hi : A.Key.Lo < B.Key.Lo;
  });
  std::vector<uint8_t> Payload;
  for (const Entry &E : All)
    serializeEntry(Payload, E.Key, *E.T);
  std::vector<uint8_t> File;
  put32(File, ArtifactMagic);
  put32(File, FormatVersion);
  put64(File, All.size());
  put64(File, Payload.size());
  put64(File, fnv1a(Payload.data(), Payload.size()));
  File.insert(File.end(), Payload.begin(), Payload.end());
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return fail(Err, "cannot open artifact for writing");
  size_t Written = std::fwrite(File.data(), 1, File.size(), F);
  bool Ok = std::fclose(F) == 0 && Written == File.size();
  if (!Ok)
    return fail(Err, "short write");
  return true;
}

bool TranslationService::load(const std::string &Path, obs::TraceSink *Sink,
                              std::string *Err) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return fail(Err, "cannot open artifact");
  std::vector<uint8_t> File;
  uint8_t Buf[65536];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    File.insert(File.end(), Buf, Buf + N);
  std::fclose(F);
  Cursor C{File.data(), File.size()};
  uint32_t Magic = C.u32();
  uint32_t Version = C.u32();
  uint64_t Count = C.u64();
  uint64_t PayloadBytes = C.u64();
  uint64_t Sum = C.u64();
  if (C.Bad || Magic != ArtifactMagic)
    return fail(Err, "bad magic");
  if (Version != FormatVersion)
    return fail(Err, "unsupported version");
  if (File.size() - C.At != PayloadBytes)
    return fail(Err, "truncated artifact");
  if (fnv1a(File.data() + C.At, PayloadBytes) != Sum)
    return fail(Err, "payload checksum mismatch");
  // Parse and validate everything before touching the cache: a corrupt
  // artifact must be rejected whole, never half-merged.
  std::vector<std::pair<CacheKey, Record>> Parsed;
  Parsed.reserve(static_cast<size_t>(std::min<uint64_t>(Count, 65536)));
  for (uint64_t I = 0; I != Count; ++I) {
    CacheKey Key;
    TranslationRecord T;
    if (!parseEntry(C, Key, T))
      return fail(Err, "malformed entry");
    Parsed.emplace_back(Key,
                        std::make_shared<const TranslationRecord>(std::move(T)));
  }
  if (C.At != C.N)
    return fail(Err, "trailing bytes after last entry");
  for (auto &KV : Parsed)
    publish(KV.first, std::move(KV.second));
  if (Sink) {
    obs::TraceEvent E;
    E.Kind = obs::TraceEventKind::CacheLoad;
    E.A = Count;
    E.B = footprintBytes();
    Sink->emit(E);
  }
  return true;
}
