//===- host/HostMachine.h - HAlpha machine simulator -----------*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes translated host code out of a CodeSpace against the guest's
/// memory image, with cycle accounting (1 cycle/instruction + cache
/// penalties) and — the crux of the paper — *misalignment traps*: a
/// naturally-aligned memory opcode applied to a misaligned address
/// suspends execution, charges the trap cost, and calls the registered
/// fault handler, which stands in for the OS delivering the misalignment
/// exception to the BT runtime (paper Fig. 4, right side).
///
/// run() is one direct-threaded loop over CodeSpace's execution view
/// (one handler per opcode and operand form, see ExecOp).  It keeps
/// Instructions, Cycles, Loads, Stores, the current word and the L1I
/// filter hits it skipped in locals and writes them back only at a
/// *callout* — the fault handler, a store the guest memory reports will
/// invoke its write watcher, or any exit — so at every callout they are
/// exact, and after one it re-reads everything the callout may have
/// changed (cycles, the armed stop, the view, which may have moved).
///
/// The handler chooses one of three outcomes:
///  - Retry: it patched the code cache (exception-handling method); the
///    machine re-executes at the same PC, now hitting the patched branch;
///  - Fixup: emulate-and-continue (what profiling-based methods do for
///    every residual MDA): the machine performs the access in software
///    and resumes after the instruction;
///  - Halt: abandon execution (tests only).
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_HOST_HOSTMACHINE_H
#define MDABT_HOST_HOSTMACHINE_H

#include "guest/GuestMemory.h"
#include "host/CodeSpace.h"
#include "host/CostModel.h"
#include "host/HostEncoding.h"
#include "support/CacheModel.h"

#include <cstdint>
#include <functional>

namespace mdabt {
namespace host {

/// What the fault handler decided.
enum class FaultAction {
  Retry, ///< code was patched; re-execute the same word
  Fixup, ///< emulate the access in the handler and continue
  Halt,  ///< abandon the run
};

/// Delivered to the fault handler on a misalignment trap.
struct FaultInfo {
  uint32_t HostPc = 0; ///< word index of the faulting instruction
  uint64_t Addr = 0;   ///< the misaligned data address
  HostInst Inst;       ///< the decoded faulting instruction
};

/// Why run() returned.
struct ExitInfo {
  enum Kind {
    Exit,  ///< Srv Exit: back to the monitor, next guest PC captured
    Halt,  ///< Srv Halt or handler said Halt
    Limit, ///< instruction budget exhausted (runaway guard)
    /// Armed episode stop reached (stopAt): the BT runtime asked to
    /// end the run before executing the stop word — used when a guest
    /// store invalidated the running translation (SMC) and execution
    /// must resume via fresh dispatch.  GuestPc holds the resume PC.
    Stop,
  };
  Kind K = Halt;
  uint32_t GuestPc = 0; ///< valid for Kind::Exit
  /// Word index of the Srv instruction that ended the run (valid for
  /// Exit); the monitor uses it to chain the exit site to its target.
  uint32_t SrvWord = 0;
};

/// The host machine.
class HostMachine {
public:
  using FaultHandler = std::function<FaultAction(const FaultInfo &)>;

  HostMachine(CodeSpace &Code, guest::GuestMemory &Mem,
              MemoryHierarchy &Hier, const CostModel &Cost)
      : Code(Code), Mem(Mem), Hier(Hier), Cost(Cost) {}

  void setFaultHandler(FaultHandler H) { Handler = std::move(H); }

  /// Execute starting at word index \p EntryWord until a service exit.
  ExitInfo run(uint32_t EntryWord);

  /// Register file.  R31 reads as zero: run() zeroes R[31] on entry and
  /// after every callout, and every write the code makes to R31 lands in
  /// the write-only sink R[RegSink] instead.
  uint64_t R[NumRegs + 1] = {};

  uint64_t reg(unsigned Idx) const {
    return Idx == RegZero ? 0 : R[Idx];
  }
  void setReg(unsigned Idx, uint64_t V) {
    if (Idx != RegZero)
      R[Idx] = V;
  }

  /// Charge extra cycles (used by fault handlers for codegen work).
  void addCycles(uint64_t N) { Cycles += N; }

  /// Word being executed right now, exact inside the fault handler and
  /// the write watcher (and, after run() returns, the word it stopped
  /// at).  The engine's SMC write barrier consults it from inside a
  /// store's watcher callback to detect a store issued by the running
  /// translation itself.
  uint32_t currentWord() const { return CurWord; }

  /// Arm a one-shot episode stop: when control reaches \p Word, run()
  /// returns ExitInfo::Stop carrying \p ResumePc *before* executing
  /// that word.  Cleared at every run() entry and when it fires; armed
  /// from a callout, it applies from the next word on.
  void stopAt(uint32_t Word, uint32_t ResumePc) {
    StopArmed = true;
    StopWord = Word;
    StopResumePc = ResumePc;
  }

  // Accounting: exact at every callout and after run() returns.
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;
  uint64_t Loads = 0;
  uint64_t Stores = 0;
  uint64_t Faults = 0;
  uint64_t Fixups = 0;
  /// Runaway guard: one run() may not exceed this many instructions.
  uint64_t MaxInstsPerRun = 1ULL << 33;

private:
  enum class TrapResult { Retry, Next, Halt };

  /// The misalignment trap at word \p Pc (data address \p Addr): charge
  /// it, call the fault handler and carry out its decision.  Runs with
  /// the counters written back.
  TrapResult trap(uint32_t Pc, uint64_t Addr);

  uint32_t CurWord = 0;
  bool StopArmed = false;
  uint32_t StopWord = 0;
  uint32_t StopResumePc = 0;

  CodeSpace &Code;
  guest::GuestMemory &Mem;
  MemoryHierarchy &Hier;
  const CostModel &Cost;
  FaultHandler Handler;
};

} // namespace host
} // namespace mdabt

#endif // MDABT_HOST_HOSTMACHINE_H
