//===- dbt/Translator.h - GX86 -> HAlpha block translator ------*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translates one guest basic block into host code at the tail of the
/// code cache.  The per-memory-operation strategy (normal op / inline
/// MDA sequence / multi-version code) is supplied by the active policy
/// through a plan callback, which is the paper's entire design space.
///
/// Also emits the out-of-line MDA stubs the misalignment exception
/// handler patches in (paper Fig. 5): the stub re-performs the faulting
/// access with the unaligned-access toolkit and branches back to the
/// instruction after the patch site.  The adaptive stub of Fig. 8
/// (right) is the same stub behind a revert probe.
///
/// Register conventions are documented in host/HostISA.h.  Guest state
/// lives in host registers across blocks; compare-and-branch pairs are
/// fused (the GX86 structural rule guarantees adjacency).
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_DBT_TRANSLATOR_H
#define MDABT_DBT_TRANSLATOR_H

#include "dbt/GuestBlock.h"
#include "dbt/Translation.h"
#include "host/CodeSpace.h"
#include "host/HostEncoding.h"

#include <functional>
#include <optional>

namespace mdabt {
namespace dbt {

/// Host register holding guest GPR \p Reg.
inline uint8_t hostGpr(unsigned Reg) {
  return static_cast<uint8_t>(host::RegGprBase + Reg);
}

/// Host register holding guest Q register \p Reg.
inline uint8_t hostQ(unsigned Reg) {
  return static_cast<uint8_t>(host::RegQBase + Reg);
}

/// The block translator.
class Translator {
public:
  /// Chooses the plan for the memory instruction at a guest PC.
  using PlanFn =
      std::function<MemPlan(uint32_t InstPc, const guest::GuestInst &)>;

  explicit Translator(host::CodeSpace &Code) : Code(Code) {}

  /// Translate \p Block at the arena tail, building its shared record.
  /// \p Generation tags retranslations (0 for the first translation of
  /// a block).
  Translation translate(const GuestBlock &Block, const PlanFn &Plan,
                        uint32_t Generation = 0,
                        const TranslationOpts &Opts = TranslationOpts());

  /// Re-emit \p Blocks (>= 2, head first) as one straight-line
  /// superblock at the arena tail (EngineConfig::Superblocks).  On-trace
  /// control flow falls through between constituents; off-trace edges
  /// branch to shared side-exit stubs (one chainable Srv Exit per unique
  /// target).  \p Plan must reproduce each site's original MDA treatment
  /// (the engine replays TranslationRecord::PlanByPc), so the trace is
  /// architecturally identical to running its constituents.
  Translation translateTrace(const std::vector<GuestBlock> &Blocks,
                             const PlanFn &Plan, uint32_t Generation,
                             const TranslationOpts &Opts);

  /// An out-of-line MDA stub emitted by the exception handler.
  struct StubInfo {
    uint32_t Entry = 0;
    uint32_t End = 0;
  };

  /// The instrumented prologue of the *adaptive* MDA stub (paper Fig. 8,
  /// right side): it counts consecutive executions at an aligned address
  /// in the runtime cell \p CounterAddr and, once the count reaches
  /// \p Threshold (1..255), posts FaultWord + 1 into the runtime mailbox
  /// at \p MailboxAddr, asking the monitor to patch the original memory
  /// instruction back in.  This is the "truly adaptive" method the paper
  /// analyzes (and concludes is rarely worth its ~10 instructions of
  /// bookkeeping — reproduced by the ablation bench).
  struct AdaptiveProbe {
    uint32_t CounterAddr = 0;
    uint32_t MailboxAddr = 0;
    uint32_t Threshold = 0;
  };

  /// Emit the MDA stub for the faulting memory instruction \p Faulting
  /// located at \p FaultWord, ending with a branch back to
  /// FaultWord + 1; with \p Probe, the adaptive prologue runs first.
  /// Does not patch the fault site itself.  Nullopt, with nothing left
  /// in the arena, when the return branch would be out of branch range
  /// (host::branchTo): the caller emulates the access instead.
  std::optional<StubInfo> emitStub(const host::HostInst &Faulting,
                                   uint32_t FaultWord,
                                   const AdaptiveProbe *Probe = nullptr);

private:
  /// Copy the words emitted since \p Entry into \p R, sort its plans by
  /// PC, and wrap it in the first live copy.
  Translation seal(TranslationRecord R, uint32_t Entry, uint32_t Generation);

  host::CodeSpace &Code;
};

} // namespace dbt
} // namespace mdabt

#endif // MDABT_DBT_TRANSLATOR_H
