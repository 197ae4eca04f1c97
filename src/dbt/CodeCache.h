//===- dbt/CodeCache.h - The per-run code cache ----------------*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-run code cache: the single owner of the indices that describe
/// the live translations in one run's CodeSpace and the host words that
/// point at them.  Every mechanism the paper compares is a mutation of
/// these indices — patch a stub in (Fig. 5), retire and rearrange
/// (Fig. 6), retire and retranslate (Fig. 7) — and every such mutation
/// goes through this class:
///
///  * the translation store and the guest-PC block map (`lookup`);
///  * the host-word region map of bodies and exception stubs (`owner`);
///  * the write-barrier index of live translations per guest watch page,
///    together with the GuestMemory watches it holds; Coherence asks it
///    for each barrier store's victims (`overlapping`);
///  * the quarantine of host words whose unlink patch did not stick;
///  * when verification is on, the verifier's view of all of the above
///    (`verifierInput`), kept current as it mutates, and the journal of
///    what changed since the last verifier pass (`verify`).
///
/// The cache decides nothing: which block to translate, when to retire
/// one, what a failure costs and whether the run survives it are the
/// ExecutionContext's calls.  The cache performs the mutation, keeps the
/// indices consistent, and reports what did not stick.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_DBT_CODECACHE_H
#define MDABT_DBT_CODECACHE_H

#include "analysis/HostVerifier.h"
#include "dbt/Translation.h"
#include "guest/GuestMemory.h"
#include "host/CodeSpace.h"
#include "obs/TraceSink.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace mdabt {
namespace dbt {

/// The translations of one run and every index over them.
class CodeCache {
public:
  /// Mutation outcomes the owner accounts for.
  struct Stats {
    uint64_t PatchRepairs = 0;  ///< patches that stuck only on a retry
    uint64_t PatchFailures = 0; ///< patches abandoned and rolled back
    uint64_t IcEvictions = 0;   ///< inline-cache ways taken out of service
  };

  /// Outcome of one inline-cache fill attempt (fillIc).
  enum class IcFill {
    Skipped, ///< no usable way, or the target is out of branch range
    Failed,  ///< a patch did not stick; no way branches to the target
    Filled,  ///< the way now branches to the target
  };

  /// \p Code is the run's arena and \p Mem the guest memory whose
  /// write watches track live translations.  A verified patch that
  /// leaves the run unable to continue — the failure count passed
  /// \p PatchFailureLimit (0 = unlimited), or a rollback did not stick —
  /// calls \p OnPatchFailed.  \p Verified keeps the verifier's input and
  /// journal; without it, verifierInput and verify may not be called.
  CodeCache(host::CodeSpace &Code, guest::GuestMemory &Mem,
            obs::Tracer Trace, uint32_t PatchFailureLimit,
            std::function<void()> OnPatchFailed, bool Verified = true);

  // -- producing entries ---------------------------------------------------

  /// Take ownership of a translation the Translator just emitted at the
  /// arena tail.
  Translation &add(Translation T) {
    Store.push_back(std::move(T));
    return Store.back();
  }
  /// Copy \p R's words to the arena tail and take ownership of a new
  /// live copy of it there.
  Translation &instantiate(std::shared_ptr<const TranslationRecord> R,
                           uint32_t Generation);

  // -- registering ---------------------------------------------------------

  /// Register \p T's host words and watch its guest ranges; \p Epoch is
  /// the guest-store epoch it is born at (Coherence::epoch).  Paired
  /// with retire or flush.
  void install(Translation &T, uint64_t Epoch);
  /// Point the block map at \p T: the next dispatch of its guest PC
  /// enters it.
  void map(Translation &T) { BlockMap[T.GuestPc] = &T; }
  /// Register the exception stub [Entry, End) that \p T's body word
  /// \p Word now branches to; \p Adaptive if the stub may ask for the
  /// original word back (paper Fig. 8).
  void addStub(Translation &T, uint32_t Word, uint32_t Entry, uint32_t End,
               bool Adaptive);

  // -- queries -------------------------------------------------------------

  /// The live translation serving \p GuestPc, or null.
  Translation *lookup(uint32_t GuestPc) const {
    auto It = BlockMap.find(GuestPc);
    return It != BlockMap.end() && It->second->Valid ? It->second : nullptr;
  }
  /// The translation whose body or stub holds host word \p Word — live
  /// or retired, until the next flush — or null.
  Translation *owner(uint32_t Word) const {
    auto It = Regions.upper_bound(Word);
    if (It == Regions.begin() || Word >= std::prev(It)->second.first)
      return nullptr;
    return std::prev(It)->second.second;
  }
  /// True if \p Word is quarantined (an unlink that did not stick).
  bool quarantined(uint32_t Word) const {
    return In.ExemptWords.count(Word) != 0;
  }
  /// Live translations whose compiled guest bytes overlap the store
  /// [Addr, Addr + Size), ordered by entry word.  A neighbour that only
  /// shares a watch page is not included.
  std::vector<Translation *> overlapping(uint32_t Addr, uint32_t Size) const;
  /// Visit every live translation in install order.
  template <typename Fn> void forEachLive(Fn F) {
    for (Translation &T : Store)
      if (T.Valid)
        F(T);
  }
  /// Translations held since the last flush, retired ones included.
  size_t size() const { return Store.size(); }
  /// The verifier's view of the cache: live blocks sorted by entry,
  /// their stubs, quarantined words and the guest-side inputs.
  const analysis::VerifierInput &verifierInput() const {
    assert(Verified && "verifier input kept only when verification is on");
    return In;
  }
  const Stats &stats() const { return S; }

  // -- verification --------------------------------------------------------

  /// The guest-side verifier inputs: dirtied guest bytes (check 8) and
  /// the statically reachable ranges (check 10); null disables either.
  void setGuestInputs(
      const std::unordered_map<uint32_t, uint64_t> *DirtyEpoch,
      const std::vector<analysis::VerifierRegion> *Reachable) {
    In.GuestDirtyEpoch = DirtyEpoch;
    In.ReachableRanges = Reachable;
  }
  /// Journal the barrier store [Addr, Addr + Size) at store epoch
  /// \p Epoch (check 8 covers the bytes stored to since the last pass).
  void noteGuestStore(uint32_t Addr, uint32_t Size, uint64_t Epoch) {
    if (Verified)
      Journal.store(Addr, Addr + Size, Epoch);
  }
  /// One verifier pass: the per-run pass over what changed since the
  /// last pass (analysis::verifyChanges), or with \p Full the full sweep.
  /// Either vouches for the whole arena afterwards.
  analysis::VerifyReport verify(bool Full);

  /// Sort \p V by entry word: a deterministic retirement order (entry
  /// words are unique between flushes).
  static void sortByEntry(std::vector<Translation *> &V) {
    std::sort(V.begin(), V.end(), [](const Translation *A,
                                     const Translation *B) {
      return A->EntryWord < B->EntryWord;
    });
  }

  // -- mutations -----------------------------------------------------------

  /// Write \p Desired into code word \p Word and verify it by read-back,
  /// repairing a dropped or torn write a bounded number of times.  On
  /// persistent failure the previous content is restored (a torn word
  /// must never become executable) and false is returned.
  bool patchVerified(uint32_t Word, uint32_t Desired);
  /// Fault hook (chaos injection) applied to patchVerified's writes
  /// only: translator-internal backpatches are never read back, so
  /// injecting there would model a hazard the patch path does not have.
  void setPatchFault(host::CodeSpace::PatchHook Fault);
  /// Redirect the exit word \p Word to \p Target's entry and record the
  /// link for unchaining.  False if out of branch range or the patch did
  /// not stick; the word then keeps exiting through the monitor.
  bool chain(uint32_t Word, Translation &Target);
  /// Fill (or evict and refill) a way of inline-cache site \p Site of
  /// \p Owner with \p Target.  \p WayBegin receives the filled way.  A
  /// failed fill leaves its way disabled (or quarantined, if the evicted
  /// way could not be disabled).
  IcFill fillIc(Translation &Owner, uint32_t Site, Translation &Target,
                uint32_t &WayBegin);
  /// Take \p T out of service: unmap it from the write barrier, restore
  /// every incoming chain to `srv Exit`, and retire every inline-cache
  /// way that targets it.  Its body stays owned (and `owner` resolves
  /// it) until the next flush.  False if an unlink patch did not stick:
  /// the word is then quarantined and may still branch into the dead
  /// body.
  bool retire(Translation &T);
  /// Restore the original word of \p T's patched site \p Word (an
  /// adaptive stub asked for it, paper Fig. 8).  False if the patch did
  /// not stick; the stub then stays in place.
  bool revert(Translation &T, uint32_t Word);
  /// Drop every translation, index and the arena itself.  Only legal
  /// when no translated code is running.
  void flush();

private:
  /// Verified patch of \p Word; when it does not stick, quarantine
  /// \p Suspect, the word left holding a branch toward dead code.
  bool patchOrQuarantine(uint32_t Word, uint32_t Desired, uint32_t Suspect) {
    if (patchVerified(Word, Desired))
      return true;
    In.ExemptWords.insert(Suspect);
    return false;
  }
  /// Take way \p Way of \p Owner's inline-cache site \p Site out of
  /// service — to refill it, or because its target was \p Retired — by
  /// disabling its guard and scrubbing its final branch.  False if the
  /// guard could not be disabled (the way is then quarantined).
  bool evictIcWay(Translation &Owner, uint32_t Site, uint32_t Way,
                  bool Retired);
  void untrack(Translation &T);
  /// The verifier's description of live translation \p T.
  analysis::VerifierBlock describe(const Translation &T) const;
  /// The verifier block of the live translation entered at \p Entry, or
  /// null.
  analysis::VerifierBlock *block(uint32_t Entry);
  /// Re-describe \p T after a change to its stubs or inline caches.
  void refresh(const Translation &T) {
    if (!Verified)
      return;
    if (analysis::VerifierBlock *B = block(T.EntryWord))
      *B = describe(T);
  }
  /// Add or remove one live region of the verifier's index.
  void addLive(uint32_t Begin, uint32_t End);
  void dropLive(uint32_t Begin);

  host::CodeSpace &Code;
  guest::GuestMemory &Mem;
  obs::Tracer Trace;
  uint32_t PatchFailureLimit;
  std::function<void()> OnPatchFailed;
  Stats S;
  /// True while patchVerified writes: the only writes the fault hook sees.
  bool Armed = false;

  std::deque<Translation> Store;
  std::unordered_map<uint32_t, Translation *> BlockMap;
  /// Host-word region -> owning translation (bodies and stubs).
  std::map<uint32_t, std::pair<uint32_t, Translation *>> Regions;
  /// Live translations per guest watch page (GuestMemory::
  /// WatchPageShift): the write barrier's victim index.
  std::unordered_map<uint32_t, std::vector<Translation *>> TrackedByPage;
  /// Keep In's blocks and live regions and the Journal.
  bool Verified;
  /// The verifier's view.  Its ExemptWords are kept in every mode: the
  /// exit and inline-cache words whose unlink patch did not stick,
  /// excused from the liveness checks until the next flush.
  analysis::VerifierInput In;
  /// What changed since the last verifier pass.
  analysis::VerifierJournal Journal;
};

} // namespace dbt
} // namespace mdabt

#endif // MDABT_DBT_CODECACHE_H
