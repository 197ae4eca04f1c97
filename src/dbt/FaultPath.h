//===- dbt/FaultPath.h - The per-run trap path ------------------*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-run trap path: the single owner of everything between a
/// misalignment trap and the guest's next instruction, and of the
/// degradation ledger that decides which code stays interpreted.
///
///  * stale-delivery validation (a duplicate, replayed or flushed
///    delivery must not patch the wrong word);
///  * MDA stub emission and the verified redirect of the faulting word
///    (paper Fig. 5);
///  * the adaptive-revert runtime (Fig. 8, right): the mailbox and
///    counter cells in the BT-runtime region and the revert poll;
///  * the record of the last patched fault, replayed by the spurious-trap
///    injection;
///  * the trap-storm watchdog and its three-rung degradation ladder —
///    rearrangement with the storming site force-inlined, retranslation
///    with every site force-inlined, interpret-only pin;
///  * the degradation ledger: interpret-only pins, force-inlined sites,
///    ladder rungs, per-block translation failures and per-block SMC
///    invalidations (the churn pin).
///
/// The fault path decides nothing about the run.  It reports what it did
/// — patched block T (and whether the policy asked to supersede it),
/// escalated block T to rung R, reverted a word — and the
/// ExecutionContext accounts for it: cycles, budgets, the verifier,
/// retire/supersede and the RunError.  The mirror image of CodeCache,
/// which performs the code mutations this class asks for.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_DBT_FAULTPATH_H
#define MDABT_DBT_FAULTPATH_H

// CodeCache.h brings the arena, guest memory, the tracer and the
// standard containers this class is built over.
#include "dbt/CodeCache.h"
#include "dbt/Policy.h"
#include "dbt/Translator.h"
#include "guest/GuestImage.h"
#include "host/HostMachine.h"

#include <optional>

namespace mdabt {
namespace dbt {

/// The trap path and degradation ledger of one run.
class FaultPath {
public:
  /// Consecutive no-progress traps at one host word before the
  /// degradation ladder engages (the trap-storm watchdog).
  static constexpr uint32_t WatchdogTrapK = 8;
  /// Failed translation attempts for one block before it is pinned
  /// interpret-only.
  static constexpr uint32_t TranslateRetryLimit = 4;

  /// Why a block is pinned interpret-only: TranslateRetryLimit failed
  /// attempts, a body bigger than the whole code cache, rewritten too
  /// often (BudgetConfig::SmcChurnPinLimit), or the watchdog's rung 3.
  enum class Pin { TranslateRetries, Oversize, SmcChurn, Ladder };

  /// What the trap path did, for the owner's counters.
  struct Stats {
    uint64_t Patches = 0;        ///< fault words redirected to a stub
    uint64_t Reverts = 0;        ///< adaptive stubs patched back out
    uint64_t SpuriousTraps = 0;  ///< stale deliveries rejected
    uint64_t StubDowngrades = 0; ///< adaptive stubs emitted plain
    uint64_t WatchdogTrips = 0;
    uint64_t LadderRearranges = 0;
    uint64_t LadderRetranslations = 0;
    uint64_t LadderInterpPins = 0; ///< Pin::Ladder, TranslateRetries, SmcChurn
    uint64_t OversizedPins = 0;    ///< Pin::Oversize
    uint64_t SmcChurnPins = 0;     ///< Pin::SmcChurn
  };

  /// What one delivery did.
  struct Delivery {
    host::FaultAction Action = host::FaultAction::Retry;
    /// The block whose faulting word now branches to a stub; null when
    /// nothing was patched (stale delivery, emulation, failed redirect).
    Translation *Patched = nullptr;
    uint32_t InstPc = 0;    ///< the patched guest instruction
    uint32_t StubEntry = 0; ///< the stub's first word
    bool Supersede = false; ///< the policy asked to retire Patched
  };

  /// What one watchdog escalation did.  The owner emulates the access
  /// unless Storm is set.
  struct Escalation {
    /// Past the trip limit: the run halts with RunError::TrapStorm.
    bool Storm = false;
    /// The escalated block; null when no translation owns the word.
    Translation *Block = nullptr;
    /// 1 or 2: supersede Block (its sites are now force-inlined);
    /// 3: retire Block, which is pinned interpret-only.
    uint32_t Rung = 0;
  };

  /// Traps arrive from \p Code's words; \p Mem holds the BT-runtime
  /// region; redirects and reverts are verified patches through
  /// \p Cache; \p Policy decides each delivery; past
  /// \p MaxWatchdogTrips escalations the run is a trap storm.
  FaultPath(host::CodeSpace &Code, guest::GuestMemory &Mem, CodeCache &Cache,
            MdaPolicy &Policy, obs::Tracer Trace, uint32_t MaxWatchdogTrips);

  // -- the trap path -------------------------------------------------------

  /// Feed the watchdog one trap at host word \p Word, taken with the
  /// machine at \p Insts retired host instructions.  True when it is the
  /// (WatchdogTrapK + 1)-th consecutive trap there with no progress in
  /// between (Fixup always advances, so a delta above 1 means the guest
  /// is moving): time to escalate() instead of deliver().
  bool storming(uint32_t Word, uint64_t Insts);
  /// Handle one (possibly stale or injected) delivery of \p F: validate
  /// it against the current cache contents, consult the policy, and emit
  /// and redirect to an MDA stub if it asks.
  Delivery deliver(const host::FaultInfo &F);
  /// Climb one rung of the degradation ladder for the block owning
  /// \p F's word.
  Escalation escalate(const host::FaultInfo &F);
  /// Apply a revert request posted by an adaptive stub: restore the
  /// original memory instruction.  It may trap (and be re-patched)
  /// later — the adaptivity loop of paper Fig. 8.  True if a word was
  /// reverted.  Until the first adaptive stub claims the runtime region,
  /// it is guest memory and is left alone.
  bool pollRevert();
  /// Zero the claimed runtime cells, which are not guest-visible state,
  /// so the memory hash is comparable with an interpreter run.
  void scrubRuntime();
  /// The most recently patched fault, which a spurious-trap injection
  /// re-delivers (it must be rejected as stale).
  const std::optional<host::FaultInfo> &lastPatch() const {
    return LastPatch;
  }

  // -- the degradation ledger ----------------------------------------------

  /// True if block \p Pc is never translated again.
  bool pinned(uint32_t Pc) const { return InterpOnly.count(Pc) != 0; }
  /// True if the memory site at \p Pc is planned Inline whatever the
  /// policy says (ladder rungs 1-2).
  bool forcedInline(uint32_t Pc) const { return ForceInline.count(Pc) != 0; }
  /// Pin block \p Pc interpret-only for reason \p Why.
  void pin(uint32_t Pc, Pin Why);
  /// Record a failed translation of block \p Pc, pinning it at
  /// TranslateRetryLimit; returns the attempt number.
  uint32_t translateFailed(uint32_t Pc);
  /// A store rewrote (and retired) a translation of block \p Pc: pin it
  /// at the \p Limit-th such store (BudgetConfig::SmcChurnPinLimit; 0
  /// never pins).
  void smcInvalidated(uint32_t Pc, uint32_t Limit);
  /// A translation headed at \p Pc succeeded: its failures are forgiven.
  void translated(uint32_t Pc) { TranslateFailsAt.erase(Pc); }
  size_t pinnedBlocks() const { return InterpOnly.size(); }

  const Stats &stats() const { return S; }

private:
  /// The translation owning host word \p Word (live or retired) and the
  /// guest PC of the memory site there, if the word is one.
  std::pair<Translation *, std::optional<uint32_t>> site(uint32_t Word) const;
  /// Reject a stale delivery at \p Word (TrapSpurious class 0-3).
  void spurious(uint32_t BlockPc, uint32_t Word, uint32_t Class);
  /// True once an adaptive stub has claimed the runtime region.
  bool claimed() const { return NextCounterCell != FirstCounterCell; }

  /// The revert mailbox and the first counter cell (paper Fig. 8).
  static constexpr uint32_t MailboxAddr = guest::layout::RuntimeBase;
  static constexpr uint32_t FirstCounterCell = guest::layout::RuntimeBase + 8;

  host::CodeSpace &Code;
  guest::GuestMemory &Mem;
  CodeCache &Cache;
  MdaPolicy &Policy;
  obs::Tracer Trace;
  uint32_t MaxWatchdogTrips;
  Translator Stubs;
  Stats S;

  uint32_t NextCounterCell = FirstCounterCell;
  std::optional<host::FaultInfo> LastPatch;

  /// Watchdog state.
  uint32_t LastTrapWord = ~0u;
  uint64_t LastTrapInsts = 0;
  uint32_t ConsecutiveTraps = 0;

  std::unordered_set<uint32_t> InterpOnly;  ///< block PCs never translated
  std::unordered_set<uint32_t> ForceInline; ///< inst PCs forced Inline
  std::unordered_map<uint32_t, uint32_t> LadderRungOf; ///< block -> rung
  std::unordered_map<uint32_t, uint32_t> TranslateFailsAt;
  std::unordered_map<uint32_t, uint32_t> SmcInvalsAt;
};

} // namespace dbt
} // namespace mdabt

#endif // MDABT_DBT_FAULTPATH_H
