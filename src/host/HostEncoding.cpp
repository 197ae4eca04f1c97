//===- host/HostEncoding.cpp ----------------------------------------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//

#include "host/HostEncoding.h"

#include "support/Format.h"

#include <cassert>

using namespace mdabt;
using namespace mdabt::host;

namespace {

bool isValidOp(uint8_t Raw) {
  HostOp Op = static_cast<HostOp>(Raw);
  return isMemFormat(Op) || isOperateFormat(Op) || isBranchFormat(Op) ||
         Op == HostOp::Srv;
}

} // namespace

uint32_t mdabt::host::encodeHost(const HostInst &I) {
  uint32_t Word = static_cast<uint32_t>(I.Op) << 26;
  assert(I.Ra < NumRegs && I.Rb < NumRegs && I.Rc < NumRegs &&
         "register out of range");
  if (isMemFormat(I.Op)) {
    assert(I.Disp >= -32768 && I.Disp <= 32767 && "disp16 out of range");
    Word |= static_cast<uint32_t>(I.Ra) << 21;
    Word |= static_cast<uint32_t>(I.Rb) << 16;
    Word |= static_cast<uint32_t>(I.Disp) & 0xffff;
    return Word;
  }
  if (isOperateFormat(I.Op)) {
    Word |= static_cast<uint32_t>(I.Ra) << 21;
    if (I.IsLit) {
      Word |= static_cast<uint32_t>(I.Lit) << 13;
      Word |= 1u << 12;
    } else {
      Word |= static_cast<uint32_t>(I.Rb) << 16;
    }
    Word |= I.Rc;
    return Word;
  }
  if (isBranchFormat(I.Op)) {
    assert(I.Disp >= -(1 << 20) && I.Disp < (1 << 20) &&
           "disp21 out of range");
    Word |= static_cast<uint32_t>(I.Ra) << 21;
    Word |= static_cast<uint32_t>(I.Disp) & 0x1fffff;
    return Word;
  }
  assert(I.Op == HostOp::Srv && "unknown host format");
  Word |= static_cast<uint32_t>(I.Disp) & 0xffff;
  return Word;
}

bool mdabt::host::decodeHost(uint32_t Word, HostInst &I) {
  uint8_t Raw = static_cast<uint8_t>(Word >> 26);
  if (!isValidOp(Raw))
    return false;
  I = HostInst();
  I.Op = static_cast<HostOp>(Raw);
  if (isMemFormat(I.Op)) {
    I.Ra = Word >> 21 & 31;
    I.Rb = Word >> 16 & 31;
    I.Disp = static_cast<int16_t>(Word & 0xffff);
    return true;
  }
  if (isOperateFormat(I.Op)) {
    I.Ra = Word >> 21 & 31;
    I.IsLit = (Word >> 12 & 1) != 0;
    if (I.IsLit)
      I.Lit = Word >> 13 & 0xff;
    else
      I.Rb = Word >> 16 & 31;
    I.Rc = Word & 31;
    return true;
  }
  if (isBranchFormat(I.Op)) {
    I.Ra = Word >> 21 & 31;
    uint32_t D = Word & 0x1fffff;
    // Sign-extend 21 bits.
    I.Disp = static_cast<int32_t>(D << 11) >> 11;
    return true;
  }
  I.Disp = static_cast<int32_t>(Word & 0xffff);
  return true;
}

HostInst mdabt::host::memInst(HostOp Op, uint8_t Ra, int32_t Disp,
                              uint8_t Rb) {
  assert(isMemFormat(Op) && "not a memory-format opcode");
  HostInst I;
  I.Op = Op;
  I.Ra = Ra;
  I.Rb = Rb;
  I.Disp = Disp;
  return I;
}

HostInst mdabt::host::opInst(HostOp Op, uint8_t Ra, uint8_t Rb, uint8_t Rc) {
  assert(isOperateFormat(Op) && "not an operate-format opcode");
  HostInst I;
  I.Op = Op;
  I.Ra = Ra;
  I.Rb = Rb;
  I.Rc = Rc;
  return I;
}

HostInst mdabt::host::opInstLit(HostOp Op, uint8_t Ra, uint8_t Lit,
                                uint8_t Rc) {
  assert(isOperateFormat(Op) && "not an operate-format opcode");
  HostInst I;
  I.Op = Op;
  I.Ra = Ra;
  I.IsLit = true;
  I.Lit = Lit;
  I.Rc = Rc;
  return I;
}

HostInst mdabt::host::brInst(HostOp Op, uint8_t Ra, int32_t DispWords) {
  assert(isBranchFormat(Op) && "not a branch-format opcode");
  HostInst I;
  I.Op = Op;
  I.Ra = Ra;
  I.Disp = DispWords;
  return I;
}

std::optional<uint32_t> mdabt::host::branchTo(uint32_t From, uint32_t To) {
  int64_t Disp = static_cast<int64_t>(To) - (static_cast<int64_t>(From) + 1);
  if (Disp < -(1 << 20) || Disp >= (1 << 20))
    return std::nullopt;
  return encodeHost(brInst(HostOp::Br, RegZero, static_cast<int32_t>(Disp)));
}

HostInst mdabt::host::srvInst(SrvFunc Func) {
  HostInst I;
  I.Op = HostOp::Srv;
  I.Disp = static_cast<int32_t>(Func);
  return I;
}

const char *mdabt::host::hostOpName(HostOp Op) {
  switch (Op) {
  case HostOp::Lda:
    return "lda";
  case HostOp::Ldah:
    return "ldah";
  case HostOp::Ldbu:
    return "ldbu";
  case HostOp::Ldwu:
    return "ldwu";
  case HostOp::Ldl:
    return "ldl";
  case HostOp::Ldq:
    return "ldq";
  case HostOp::LdqU:
    return "ldq_u";
  case HostOp::Stb:
    return "stb";
  case HostOp::Stw:
    return "stw";
  case HostOp::Stl:
    return "stl";
  case HostOp::Stq:
    return "stq";
  case HostOp::StqU:
    return "stq_u";
  case HostOp::Addq:
    return "addq";
  case HostOp::Subq:
    return "subq";
  case HostOp::Addl:
    return "addl";
  case HostOp::Subl:
    return "subl";
  case HostOp::Mull:
    return "mull";
  case HostOp::Mulq:
    return "mulq";
  case HostOp::And:
    return "and";
  case HostOp::Bis:
    return "bis";
  case HostOp::Xor:
    return "xor";
  case HostOp::Sll:
    return "sll";
  case HostOp::Srl:
    return "srl";
  case HostOp::Sra:
    return "sra";
  case HostOp::Cmpeq:
    return "cmpeq";
  case HostOp::Cmpult:
    return "cmpult";
  case HostOp::Cmpule:
    return "cmpule";
  case HostOp::Cmplt:
    return "cmplt";
  case HostOp::Cmple:
    return "cmple";
  case HostOp::Cmplt32:
    return "cmplt32";
  case HostOp::Cmple32:
    return "cmple32";
  case HostOp::Sextl:
    return "sextl";
  case HostOp::Zextl:
    return "zextl";
  case HostOp::Extwl:
    return "extwl";
  case HostOp::Extwh:
    return "extwh";
  case HostOp::Extll:
    return "extll";
  case HostOp::Extlh:
    return "extlh";
  case HostOp::Extql:
    return "extql";
  case HostOp::Extqh:
    return "extqh";
  case HostOp::Inswl:
    return "inswl";
  case HostOp::Inswh:
    return "inswh";
  case HostOp::Insll:
    return "insll";
  case HostOp::Inslh:
    return "inslh";
  case HostOp::Insql:
    return "insql";
  case HostOp::Insqh:
    return "insqh";
  case HostOp::Mskwl:
    return "mskwl";
  case HostOp::Mskwh:
    return "mskwh";
  case HostOp::Mskll:
    return "mskll";
  case HostOp::Msklh:
    return "msklh";
  case HostOp::Mskql:
    return "mskql";
  case HostOp::Mskqh:
    return "mskqh";
  case HostOp::Br:
    return "br";
  case HostOp::Beq:
    return "beq";
  case HostOp::Bne:
    return "bne";
  case HostOp::Blt:
    return "blt";
  case HostOp::Bge:
    return "bge";
  case HostOp::Srv:
    return "srv";
  }
  return "<bad>";
}

std::string mdabt::host::disassembleHost(const HostInst &I,
                                         uint32_t WordIndex) {
  const char *Name = hostOpName(I.Op);
  if (isMemFormat(I.Op))
    return format("%s r%u, %d(r%u)", Name, I.Ra, I.Disp, I.Rb);
  if (isOperateFormat(I.Op)) {
    if (I.IsLit)
      return format("%s r%u, #%u, r%u", Name, I.Ra, I.Lit, I.Rc);
    return format("%s r%u, r%u, r%u", Name, I.Ra, I.Rb, I.Rc);
  }
  if (isBranchFormat(I.Op)) {
    uint32_t Target = WordIndex + 1 + static_cast<uint32_t>(I.Disp);
    if (I.Op == HostOp::Br)
      return format("br @%u", Target);
    return format("%s r%u, @%u", Name, I.Ra, Target);
  }
  return format("srv #%d", I.Disp);
}
