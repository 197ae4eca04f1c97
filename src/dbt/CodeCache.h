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
///  * the quarantine of host words whose unlink patch did not stick.
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
    uint64_t IcFills = 0;       ///< inline-cache ways filled
    uint64_t IcFillFails = 0;   ///< fill patches that did not stick
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
  /// calls \p OnPatchFailed.
  CodeCache(host::CodeSpace &Code, guest::GuestMemory &Mem,
            obs::Tracer Trace, uint32_t PatchFailureLimit,
            std::function<void()> OnPatchFailed);

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
               bool Adaptive) {
    T.patch(Word, Entry, End, Adaptive);
    Regions[Entry] = {End, &T};
  }

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
    return StaleChainWords.count(Word) != 0;
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
  /// The verifier's view of the cache (blocks, stubs, quarantined
  /// words); the caller adds the guest-side inputs.
  analysis::VerifierInput verifierInput() const;
  const Stats &stats() const { return S; }

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
  /// Drop every translation, index and the arena itself.  Only legal
  /// when no translated code is running.
  void flush();

private:
  /// Verified patch of \p Word; when it does not stick, quarantine
  /// \p Suspect, the word left holding a branch toward dead code.
  bool patchOrQuarantine(uint32_t Word, uint32_t Desired, uint32_t Suspect) {
    if (patchVerified(Word, Desired))
      return true;
    StaleChainWords.insert(Suspect);
    return false;
  }
  /// Take way \p Way of \p Owner's inline-cache site \p Site out of
  /// service — to refill it, or because its target was \p Retired — by
  /// disabling its guard and scrubbing its final branch.  False if the
  /// guard could not be disabled (the way is then quarantined).
  bool evictIcWay(Translation &Owner, uint32_t Site, uint32_t Way,
                  bool Retired);
  void untrack(Translation &T);

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
  /// Exit and inline-cache words whose unlink patch did not stick:
  /// excused from the verifier's liveness checks until the next flush.
  std::unordered_set<uint32_t> StaleChainWords;
  /// Live translations per guest watch page (GuestMemory::
  /// WatchPageShift): the write barrier's victim index.
  std::unordered_map<uint32_t, std::vector<Translation *>> TrackedByPage;
};

} // namespace dbt
} // namespace mdabt

#endif // MDABT_DBT_CODECACHE_H
