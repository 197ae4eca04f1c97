//===- host/HostAssembler.h - Label-based HAlpha emitter -------*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits HAlpha words directly into a CodeSpace, with labels/fixups for
/// local branches and helpers for materializing 32-bit constants through
/// lda/ldah pairs.  Used by the translator, the MDA sequence emitter and
/// the misalignment exception handler.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_HOST_HOSTASSEMBLER_H
#define MDABT_HOST_HOSTASSEMBLER_H

#include "host/CodeSpace.h"
#include "host/HostEncoding.h"

#include <cstdint>
#include <vector>

namespace mdabt {
namespace host {

/// Streams instructions into the tail of a CodeSpace.
class HostAssembler {
public:
  using Label = uint32_t;

  explicit HostAssembler(CodeSpace &Code) : Code(Code) {}
  ~HostAssembler() { finish(); }

  /// Word index the next instruction will occupy.
  uint32_t pos() const { return Code.size(); }

  Label newLabel();
  void bind(Label L);

  /// Emit a raw instruction; returns its word index.
  uint32_t emit(const HostInst &Inst) { return Code.append(encodeHost(Inst)); }

  // Memory format.
  uint32_t lda(uint8_t Ra, int32_t Disp, uint8_t Rb) {
    return emit(memInst(HostOp::Lda, Ra, Disp, Rb));
  }
  uint32_t ldah(uint8_t Ra, int32_t Disp, uint8_t Rb) {
    return emit(memInst(HostOp::Ldah, Ra, Disp, Rb));
  }
  uint32_t mem(HostOp Op, uint8_t Ra, int32_t Disp, uint8_t Rb) {
    return emit(memInst(Op, Ra, Disp, Rb));
  }

  // Operate format (register and literal forms).
  uint32_t op(HostOp Op, uint8_t Ra, uint8_t Rb, uint8_t Rc) {
    return emit(opInst(Op, Ra, Rb, Rc));
  }
  uint32_t opl(HostOp Op, uint8_t Ra, uint8_t Lit, uint8_t Rc) {
    return emit(opInstLit(Op, Ra, Lit, Rc));
  }
  /// Register-to-register move (bis ra, ra, rc).
  uint32_t mov(uint8_t Src, uint8_t Dst) {
    return op(HostOp::Bis, Src, Src, Dst);
  }

  // Branch format, through labels.
  uint32_t br(Label L) { return emitBranch(HostOp::Br, RegZero, L); }
  uint32_t beq(uint8_t Ra, Label L) { return emitBranch(HostOp::Beq, Ra, L); }
  uint32_t bne(uint8_t Ra, Label L) { return emitBranch(HostOp::Bne, Ra, L); }
  uint32_t blt(uint8_t Ra, Label L) { return emitBranch(HostOp::Blt, Ra, L); }
  uint32_t bge(uint8_t Ra, Label L) { return emitBranch(HostOp::Bge, Ra, L); }

  uint32_t srv(SrvFunc Func) { return emit(srvInst(Func)); }

  /// Load a 32-bit constant into \p Reg, zero-extended (GPR invariant).
  void materialize32(uint8_t Reg, uint32_t Value);
  /// Load sext64(int32 Value) into \p Reg (Q-register semantics).
  void materializeSext32(uint8_t Reg, int32_t Value);

  /// Resolve all label fixups.  Called automatically by the destructor;
  /// may be called explicitly (idempotent).  Asserts on unbound labels
  /// that have uses.
  void finish();

private:
  uint32_t emitBranch(HostOp Op, uint8_t Ra, Label L);

  CodeSpace &Code;
  static constexpr uint32_t Unbound = ~0u;
  std::vector<uint32_t> Labels;
  struct Fixup {
    uint32_t Word;
    Label Target;
  };
  std::vector<Fixup> Fixups;
};

} // namespace host
} // namespace mdabt

#endif // MDABT_HOST_HOSTASSEMBLER_H
