//===- host/HostEncoding.h - HAlpha word encoder / decoder -----*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixed 32-bit instruction words, Alpha style:
///
///   memory  : [op:6][ra:5][rb:5][disp:16 signed]
///   operate : [op:6][ra:5][rb:5][0:3][L=0:1][0:7][rc:5]   register form
///             [op:6][ra:5][lit:8][L=1:1][0:7][rc:5]        literal form
///   branch  : [op:6][ra:5][disp:21 signed, in words]
///   service : [op:6][0:5][0:5][func:16]
///
/// The exception handler decodes the *word in the code cache* to learn
/// the base register and displacement of a faulting memory operation —
/// exactly what the paper's handler does on Alpha — so the encoding must
/// round-trip everything the translator emits.  Tests sweep the space.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_HOST_HOSTENCODING_H
#define MDABT_HOST_HOSTENCODING_H

#include "host/HostISA.h"

#include <cstdint>
#include <optional>
#include <string>

namespace mdabt {
namespace host {

/// A decoded HAlpha instruction.
struct HostInst {
  HostOp Op = HostOp::Lda;
  uint8_t Ra = 0;
  uint8_t Rb = 0;
  uint8_t Rc = 0;
  bool IsLit = false; ///< operate form uses an 8-bit literal as operand B
  uint8_t Lit = 0;
  int32_t Disp = 0; ///< disp16 (memory/service) or disp21 (branch, words)
};

/// Encode to a 32-bit word.  Asserts on field overflow.
uint32_t encodeHost(const HostInst &Inst);

/// Decode a 32-bit word.  Returns false for an invalid opcode.
bool decodeHost(uint32_t Word, HostInst &Inst);

// Construction helpers used by the assembler and the exception handler.
HostInst memInst(HostOp Op, uint8_t Ra, int32_t Disp, uint8_t Rb);
HostInst opInst(HostOp Op, uint8_t Ra, uint8_t Rb, uint8_t Rc);
HostInst opInstLit(HostOp Op, uint8_t Ra, uint8_t Lit, uint8_t Rc);
HostInst brInst(HostOp Op, uint8_t Ra, int32_t DispWords);
HostInst srvInst(SrvFunc Func);

/// The `br` word that, placed at word \p From, jumps to word \p To: a
/// chained exit, an inline-cache way's final branch, an MDA stub
/// redirect or its return.  Nullopt when the displacement does not fit
/// the 21-bit branch field; every such patch then falls back to a path
/// that needs no branch (the monitor, or emulating the access).
std::optional<uint32_t> branchTo(uint32_t From, uint32_t To);

/// Disassemble for diagnostics; \p WordIndex renders branch targets.
std::string disassembleHost(const HostInst &Inst, uint32_t WordIndex);

} // namespace host
} // namespace mdabt

#endif // MDABT_HOST_HOSTENCODING_H
