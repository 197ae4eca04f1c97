//===- guest/GuestMemory.cpp - Lazily zeroed guest storage ---------------===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place that maps memory from the OS.  A GuestMemory's bytes
/// and its watch counters share one private anonymous mapping, which the
/// kernel zeroes page by page on first touch.  A heap block would not
/// do: once a 16 MiB block is freed, glibc raises its mmap threshold and
/// serves later ones from resident heap that must be memset again.
///
//===----------------------------------------------------------------------===//

#include "guest/GuestMemory.h"

#include <new>
#include <sys/mman.h>

using namespace mdabt::guest;

namespace {

/// Offset of the watch counters: the guest bytes rounded up to a whole
/// DirtyPageBytes page, so counters never share a page with guest data.
size_t watchOffset(uint32_t Size) {
  constexpr size_t Mask = GuestMemory::DirtyPageBytes - 1;
  return (static_cast<size_t>(Size) + Mask) & ~Mask;
}

size_t mappingBytes(uint32_t Size) {
  size_t WatchPages =
      (static_cast<size_t>(Size) + GuestMemory::WatchPageBytes - 1) >>
      GuestMemory::WatchPageShift;
  return watchOffset(Size) + WatchPages * sizeof(uint32_t);
}

} // namespace

GuestMemory::GuestMemory(uint32_t Size) : ByteCount(Size) {
  assert(Size != 0 && Size <= layout::MemorySize &&
         "guest memory empty or larger than layout");
  void *Map = mmap(nullptr, mappingBytes(Size), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Map == MAP_FAILED)
    throw std::bad_alloc();
#ifdef MADV_NOHUGEPAGE
  // Where transparent huge pages are on for every mapping, the first
  // touch would zero 2 MiB instead of 4 KiB.  Advisory: failure is fine.
  madvise(Map, mappingBytes(Size), MADV_NOHUGEPAGE);
#endif
  Bytes = static_cast<uint8_t *>(Map);
  Watch = reinterpret_cast<uint32_t *>(Bytes + watchOffset(Size));
}

GuestMemory::~GuestMemory() { munmap(Bytes, mappingBytes(ByteCount)); }
