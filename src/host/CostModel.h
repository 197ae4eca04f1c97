//===- host/CostModel.h - DBT cycle cost parameters ------------*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every cycle cost the experiments depend on, in one struct.  Defaults
/// follow DESIGN.md section 5; the trap cost of ~1000 cycles is the
/// paper's own figure (section II, citing the FX!32 studies [15][16]).
///
/// These modeled cycles are also the unit of the run's virtual clock:
/// RunResult::Cycles and the VirtualTime stamp on every trace event
/// (docs/TELEMETRY.md) are sums of the per-phase cycle accounts this
/// struct prices, so changing a cost here shifts reported runtimes and
/// trace timestamps coherently.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_HOST_COSTMODEL_H
#define MDABT_HOST_COSTMODEL_H

#include <cstdint>

namespace mdabt {
namespace host {

/// Cycle costs charged by the host machine and the DBT runtime.
struct CostModel {
  /// Kernel entry/exit + signal delivery for one misalignment trap.
  uint32_t TrapCycles = 1000;
  /// Extra work when the handler emulates the access and resumes
  /// (non-patching policies: the access is re-emulated on every trap).
  uint32_t FixupExtraCycles = 150;
  /// Extra work when the handler generates an MDA code sequence and
  /// patches the offending instruction (paid once per instruction).
  uint32_t PatchExtraCycles = 320;
  /// Interpreter cost per guest instruction (phase-1 execution; a fast
  /// threaded interpreter runs at ~20 host cycles per guest
  /// instruction).
  uint32_t InterpCyclesPerInst = 20;
  /// Additional interpreter cost per guest memory reference (software
  /// alignment handling in the interpreter).
  uint32_t InterpMemExtraCycles = 4;
  /// Translation cost per guest instruction translated.  Also the price
  /// of re-emitting a block for rearrangement or retranslation.
  uint32_t TranslateCyclesPerInst = 160;
  /// Monitor dispatch: map lookup + enter/leave translated code.
  uint32_t MonitorDispatchCycles = 60;
  /// Patching one chain link between translated blocks.
  uint32_t ChainPatchCycles = 20;
  /// Monitor dispatch priced as a hash-table hit (EngineConfig::
  /// HashDispatch): one probe plus the indirect jump into translated
  /// code, charged instead of MonitorDispatchCycles.  Misses are not
  /// priced on either path — the failed lookup is folded into the
  /// interpretation/translation episode it starts.
  uint32_t DispatchTableHitCycles = 15;
  /// Installing one guest instruction's worth of host words from the
  /// shared translation cache (EngineConfig::Service) on a cache hit:
  /// a word copy plus metadata rebasing, replacing the full
  /// TranslateCyclesPerInst re-translation price.
  uint32_t CacheInstallCyclesPerInst = 12;
  /// A guest store into a page backing live translations: real DBTs
  /// write-protect translated guest code, so every such store costs a
  /// page-protection trap plus the coherence bookkeeping it triggers.
  /// Priced like a misalignment trap (kernel entry/exit dominates both).
  uint32_t SmcWriteTrapCycles = 1000;
};

} // namespace host
} // namespace mdabt

#endif // MDABT_HOST_COSTMODEL_H
