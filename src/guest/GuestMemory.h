//===- guest/GuestMemory.h - Flat guest address space ----------*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The guest process's flat memory.  Both the interpreter and the host
/// machine simulator (running translated code) operate on this object —
/// translated code addresses the migrated process image directly, exactly
/// as in DigitalBridge/FX!32 where guest data lives at its original
/// addresses.
///
/// All accessors permit misaligned addresses; *whether* a misaligned
/// access traps is a property of the executing machine (the host
/// simulator), not of the memory.
///
/// The memory also hosts the DBT's self-modifying-code write barrier:
/// the engine registers the guest byte ranges backing live translations
/// (watchRange/unwatchRange, bookkept as per-64-byte-page reference
/// counts), and every store whose page is watched invokes the watcher
/// callback — the software analogue of write-protecting code pages in a
/// real translator.  Unwatched stores pay exactly one integer compare.
///
/// The bytes live in one private anonymous mapping that the OS zeroes
/// on first touch (GuestMemory.cpp, the only file that maps memory), so
/// constructing a 16 MiB memory costs a system call, not a 16 MiB fill,
/// and a run pays page faults only for the pages it touches.  The watch
/// counters share that mapping, after the bytes.  A memory owns its
/// mapping, so it cannot be copied.
///
/// Beside it sits a "may be non-zero" map at 4 KiB granularity
/// (DirtyPageShift).  Its invariant: every byte of an unmarked page is
/// zero.  loadImage marks the pages it copies the image into and every
/// store() marks the first and last page it touches; the only other
/// writes are loadImage's and zeroRange's zero-fills, which cannot break
/// the invariant.  There is no mutable data() accessor, so a write that
/// bypassed the map would not compile.  dbt::memoryHash relies on the
/// invariant to hash a 16 MiB memory in time proportional to the pages
/// a run touched, and loadImage relies on it to re-zero only those; with
/// the lazily zeroed mapping, allocation is proportional to them too.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_GUEST_GUESTMEMORY_H
#define MDABT_GUEST_GUESTMEMORY_H

#include "guest/GuestImage.h"

#include <array>
#include <cassert>
#include <cstring>
#include <functional>

namespace mdabt {
namespace guest {

/// Flat, byte-addressable guest memory.
class GuestMemory {
public:
  /// Log2 of the write-watch page size.  64 bytes keeps the watch map
  /// fine enough that unrelated translations rarely share a page, while
  /// one page still covers a typical guest basic block.
  static constexpr uint32_t WatchPageShift = 6;
  static constexpr uint32_t WatchPageBytes = 1u << WatchPageShift;

  /// Invoked for every store that lands in a watched page, after the
  /// bytes have been written.  The callback may read memory and adjust
  /// watches but must not store through this GuestMemory.
  using WriteWatcher = std::function<void(uint32_t Addr, unsigned Size)>;

  /// Log2 of the "may be non-zero" page size (see the file comment).
  static constexpr uint32_t DirtyPageShift = 12;
  static constexpr uint32_t DirtyPageBytes = 1u << DirtyPageShift;

  /// \p Size is non-zero and at most the guest address space,
  /// layout::MemorySize.  Every byte reads zero.  Throws std::bad_alloc
  /// if the storage cannot be mapped.
  explicit GuestMemory(uint32_t Size = layout::MemorySize);
  ~GuestMemory();
  GuestMemory(const GuestMemory &) = delete;
  GuestMemory &operator=(const GuestMemory &) = delete;

  /// Zero memory and copy the image's code and data segments in.  Only
  /// pages marked by earlier writes need zeroing; unmarked ones already
  /// are.
  void loadImage(const GuestImage &Image) {
    for (uint32_t P = 0, E = dirtyPageCount(); P != E; ++P)
      if (Dirty[P]) {
        uint32_t Begin = P << DirtyPageShift;
        std::memset(Bytes + Begin, 0, pageEnd(P) - Begin);
        Dirty[P] = 0;
      }
    copyIn(Image.CodeBase, Image.Code.data(), Image.Code.size());
    copyIn(Image.DataBase, Image.Data.data(), Image.Data.size());
  }

  /// Load \p Size (1/2/4/8) bytes at \p Addr, zero-extended.
  uint64_t load(uint32_t Addr, unsigned Size) const {
    assert(inRange(Addr, Size) && "guest load out of range");
    uint64_t V = 0;
    std::memcpy(&V, Bytes + Addr, Size);
    return V;
  }

  /// Store the low \p Size bytes of \p Value at \p Addr.
  void store(uint32_t Addr, unsigned Size, uint64_t Value) {
    assert(inRange(Addr, Size) && "guest store out of range");
    std::memcpy(Bytes + Addr, &Value, Size);
    Dirty[Addr >> DirtyPageShift] = 1;
    Dirty[(Addr + Size - 1) >> DirtyPageShift] = 1;
    if (storeWatched(Addr, Size))
      Watcher(Addr, Size);
  }

  /// True if store(\p Addr, \p Size) will invoke the watcher: its first
  /// or last byte lands on a watched page.  The host machine asks before
  /// a store so that its counters are exact when the watcher runs.
  bool storeWatched(uint32_t Addr, unsigned Size) const {
    return WatchedPages != 0 &&
           (Watch[Addr >> WatchPageShift] != 0 ||
            Watch[(Addr + Size - 1) >> WatchPageShift] != 0);
  }

  // -- write-watch (SMC barrier) ----------------------------------------

  /// Install the barrier callback.  One watcher per memory; installing
  /// while ranges are watched is allowed (the new watcher takes over).
  void setWriteWatcher(WriteWatcher W) { Watcher = std::move(W); }

  /// Watch the half-open byte range [Begin, End): stores touching any
  /// page it covers invoke the watcher.  Ranges nest — each watchRange
  /// must be paired with one unwatchRange of the same range.
  void watchRange(uint32_t Begin, uint32_t End) {
    if (Begin >= End)
      return;
    assert(Watcher && "watchRange without a write watcher installed");
    assert(End <= ByteCount && "watchRange out of range");
    for (uint32_t P = Begin >> WatchPageShift,
                  Last = (End - 1) >> WatchPageShift;
         P <= Last; ++P)
      if (Watch[P]++ == 0)
        ++WatchedPages;
  }

  /// Undo one prior watchRange(Begin, End).
  void unwatchRange(uint32_t Begin, uint32_t End) {
    if (Begin >= End)
      return;
    for (uint32_t P = Begin >> WatchPageShift,
                  Last = (End - 1) >> WatchPageShift;
         P <= Last; ++P) {
      assert(Watch[P] != 0 && "unwatchRange without a matching watchRange");
      if (--Watch[P] == 0)
        --WatchedPages;
    }
  }

  /// Number of distinct pages currently under watch.
  uint32_t watchedPages() const { return WatchedPages; }

  /// Zero the half-open byte range [Begin, End).  Zeroing keeps the
  /// page-map invariant, so no page changes state.
  void zeroRange(uint32_t Begin, uint32_t End) {
    assert(Begin <= End && End <= ByteCount && "zeroRange out of range");
    std::memset(Bytes + Begin, 0, End - Begin);
  }

  // -- "may be non-zero" page map ---------------------------------------

  /// Number of DirtyPageBytes pages; the last one is partial when size()
  /// is not a multiple of DirtyPageBytes.
  uint32_t dirtyPageCount() const {
    return (size() + DirtyPageBytes - 1) >> DirtyPageShift;
  }

  /// False only if every byte of page \p Page is zero.
  bool pageDirty(uint32_t Page) const { return Dirty[Page] != 0; }

  /// One past the last byte of page \p Page.
  uint32_t pageEnd(uint32_t Page) const {
    uint64_t End = (static_cast<uint64_t>(Page) + 1) << DirtyPageShift;
    return End < ByteCount ? static_cast<uint32_t>(End) : ByteCount;
  }

  /// Read-only view of the bytes.  Writes go through store(), loadImage()
  /// or zeroRange(), which keep the page-map invariant.
  const uint8_t *data() const { return Bytes; }
  uint32_t size() const { return ByteCount; }

  bool inRange(uint32_t Addr, unsigned Size) const {
    return static_cast<uint64_t>(Addr) + Size <= ByteCount;
  }

private:
  /// Copy \p Size bytes to \p Addr and mark the pages they cover.
  void copyIn(uint32_t Addr, const uint8_t *Src, size_t Size) {
    if (Size == 0)
      return;
    assert(inRange(Addr, static_cast<unsigned>(Size)) &&
           "image segment out of range");
    std::memcpy(Bytes + Addr, Src, Size);
    for (uint32_t P = Addr >> DirtyPageShift,
                  Last = static_cast<uint32_t>((Addr + Size - 1) >>
                                               DirtyPageShift);
         P <= Last; ++P)
      Dirty[P] = 1;
  }

  /// The guest bytes, at the start of the mapping.
  uint8_t *Bytes = nullptr;
  uint32_t ByteCount;
  /// The "may be non-zero" map: one byte per DirtyPageBytes page, 0 only
  /// if the whole page is zero.  Not in the lazily zeroed mapping:
  /// loadImage and dbt::memoryHash scan all of it, so its 4 KiB would be
  /// touched by every run anyway.
  static constexpr uint32_t MaxDirtyPages =
      (layout::MemorySize + DirtyPageBytes - 1) >> DirtyPageShift;
  std::array<uint8_t, MaxDirtyPages> Dirty{};
  /// Per-page count of watched ranges covering the page, in the mapping
  /// after the bytes: zero until a watchRange first touches it, so
  /// watch-free runs pay nothing.
  uint32_t *Watch = nullptr;
  uint32_t WatchedPages = 0;
  WriteWatcher Watcher;
};

} // namespace guest
} // namespace mdabt

#endif // MDABT_GUEST_GUESTMEMORY_H
