//===- dbt/Engine.cpp -----------------------------------------------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Engine's shared leaf utilities: fnv1a, memoryHash, and the RunError
/// and AotMode names.  Engine::run lives in ExecutionContext.cpp, next
/// to the per-run state it builds (see docs/SERVING.md for the
/// serving-architecture split).
///
//===----------------------------------------------------------------------===//

#include "dbt/Engine.h"

#include "guest/GuestMemory.h"

#include <cstring>

using namespace mdabt;
using namespace mdabt::dbt;

namespace {

constexpr uint64_t FnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t FnvPrime = 0x100000001b3ULL;

/// FnvPrime^N mod 2^64.  FNV-1a turns a zero byte into `H *= FnvPrime`,
/// so this is the whole effect of a run of N zero bytes.
constexpr uint64_t primePow(uint64_t N) {
  uint64_t R = 1;
  for (uint64_t B = FnvPrime; N != 0; N >>= 1, B *= B)
    if (N & 1)
      R *= B;
  return R;
}

constexpr size_t ChunkBytes = 64;
constexpr uint64_t ChunkMul = primePow(ChunkBytes);

/// Continue FNV-1a state \p H over [Bytes, Bytes + Size), multiplying
/// all-zero chunks through in one step.
uint64_t fnv1aFold(uint64_t H, const uint8_t *Bytes, size_t Size) {
  size_t I = 0;
  for (; Size - I >= ChunkBytes; I += ChunkBytes) {
    uint64_t Words[ChunkBytes / 8];
    std::memcpy(Words, Bytes + I, ChunkBytes);
    uint64_t Any = 0;
    for (uint64_t W : Words)
      Any |= W;
    if (Any == 0) {
      H *= ChunkMul;
      continue;
    }
    for (size_t J = I; J != I + ChunkBytes; ++J) {
      H ^= Bytes[J];
      H *= FnvPrime;
    }
  }
  for (; I != Size; ++I) {
    H ^= Bytes[I];
    H *= FnvPrime;
  }
  return H;
}

} // namespace

uint64_t mdabt::dbt::fnv1a(const uint8_t *Bytes, size_t Size) {
  return fnv1aFold(FnvOffset, Bytes, Size);
}

uint64_t mdabt::dbt::memoryHash(const guest::GuestMemory &Mem) {
  using guest::GuestMemory;
  constexpr uint64_t PageMul = primePow(GuestMemory::DirtyPageBytes);
  uint64_t H = FnvOffset;
  for (uint32_t P = 0, E = Mem.dirtyPageCount(); P != E; ++P) {
    uint32_t Begin = P << GuestMemory::DirtyPageShift;
    uint32_t Len = Mem.pageEnd(P) - Begin;
    if (Mem.pageDirty(P))
      H = fnv1aFold(H, Mem.data() + Begin, Len);
    else
      H *= Len == GuestMemory::DirtyPageBytes ? PageMul : primePow(Len);
  }
  return H;
}

const char *mdabt::dbt::runErrorName(RunError E) {
  switch (E) {
  case RunError::None:
    return "none";
  case RunError::MonitorStepLimit:
    return "monitor-step-limit";
  case RunError::TrapStorm:
    return "trap-storm";
  case RunError::PatchFailed:
    return "patch-failed";
  case RunError::TranslationFailed:
    return "translation-failed";
  case RunError::CacheThrash:
    return "cache-thrash";
  case RunError::VerifyFailed:
    return "verify-failed";
  case RunError::BudgetTranslations:
    return "budget-translations";
  case RunError::BudgetCodeBytes:
    return "budget-code-bytes";
  case RunError::BudgetChurn:
    return "budget-churn";
  }
  return "unknown";
}

const char *mdabt::dbt::aotModeName(AotMode M) {
  switch (M) {
  case AotMode::Off:
    return "off";
  case AotMode::Full:
    return "full";
  case AotMode::Hybrid:
    return "hybrid";
  }
  return "unknown";
}

MdaPolicy::~MdaPolicy() = default;

Engine::Engine(const guest::GuestImage &Image, MdaPolicy &Policy,
               EngineConfig Config)
    : Image(Image), Policy(Policy), Config(Config) {}
