//===- host/HostMachine.cpp -----------------------------------------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//

#include "host/HostMachine.h"

#include <cassert>

using namespace mdabt;
using namespace mdabt::host;

namespace {

uint64_t sizeMask(unsigned Size) {
  return Size == 8 ? ~0ULL : (1ULL << (Size * 8)) - 1;
}

/// Size in bytes manipulated by an ext/ins/msk opcode.
unsigned fieldSize(HostOp Op) {
  switch (Op) {
  case HostOp::Extwl:
  case HostOp::Extwh:
  case HostOp::Inswl:
  case HostOp::Inswh:
  case HostOp::Mskwl:
  case HostOp::Mskwh:
    return 2;
  case HostOp::Extll:
  case HostOp::Extlh:
  case HostOp::Insll:
  case HostOp::Inslh:
  case HostOp::Mskll:
  case HostOp::Msklh:
    return 4;
  default:
    return 8;
  }
}

uint64_t zext32(uint64_t V) { return V & 0xffffffffULL; }

uint64_t sext32(uint64_t V) {
  return static_cast<uint64_t>(
      static_cast<int64_t>(static_cast<int32_t>(V)));
}

} // namespace

ExitInfo HostMachine::run(uint32_t EntryWord) {
  uint32_t Pc = EntryWord;
  uint64_t Executed = 0;
  StopArmed = false; // a stop armed last episode must not fire now

  for (;;) {
    CurWord = Pc;
    if (StopArmed && Pc == StopWord) {
      // Episode stop (stopAt): return before executing the stop word.
      StopArmed = false;
      return {ExitInfo::Stop, StopResumePc, Pc};
    }
    if (Executed >= MaxInstsPerRun)
      return {ExitInfo::Limit, 0};
    ++Executed;
    ++Instructions;
    Cycles += 1 + Hier.fetch(Code.byteAddr(Pc));

    // Fetch the predecoded instruction.  Copied by value: the fault
    // handler below may emit stubs (growing the arena and relocating
    // its storage) or patch this very word while we still consult I.
    const CodeSpace::DecodedWord &D = Code.decodedWord(Pc);
    assert(D.Valid && "executing an undecodable host word");
    HostInst I = D.Inst;

    if (isMemFormat(I.Op)) {
      uint64_t Addr = reg(I.Rb) + static_cast<int64_t>(I.Disp);
      unsigned Align = alignmentOf(I.Op);
      if (accessesMemory(I.Op) && (Addr & (Align - 1)) != 0) {
        // Misalignment trap.
        ++Faults;
        Cycles += Cost.TrapCycles;
        FaultAction A =
            Handler ? Handler(FaultInfo{Pc, Addr, I}) : FaultAction::Fixup;
        if (A == FaultAction::Retry)
          continue; // re-execute the (now patched) word
        if (A == FaultAction::Halt)
          return {ExitInfo::Halt, 0};
        // Fixup: the handler emulates the unaligned access in software.
        ++Fixups;
        Cycles += Cost.FixupExtraCycles;
        unsigned Size = hostAccessSize(I.Op);
        assert(Mem.inRange(static_cast<uint32_t>(Addr), Size) &&
               "fixup access out of guest memory");
        Cycles += Hier.data(Addr);
        Cycles += Hier.data(Addr + Size - 1);
        if (isHostLoad(I.Op))
          setReg(I.Ra, Mem.load(static_cast<uint32_t>(Addr), Size));
        else
          Mem.store(static_cast<uint32_t>(Addr), Size, reg(I.Ra));
        ++Pc;
        continue;
      }

      switch (I.Op) {
      case HostOp::Lda:
        setReg(I.Ra, Addr);
        break;
      case HostOp::Ldah:
        setReg(I.Ra, reg(I.Rb) + (static_cast<int64_t>(I.Disp) << 16));
        break;
      case HostOp::Ldbu:
      case HostOp::Ldwu:
      case HostOp::Ldl:
      case HostOp::Ldq: {
        unsigned Size = hostAccessSize(I.Op);
        assert(Mem.inRange(static_cast<uint32_t>(Addr), Size) &&
               "host load out of guest memory");
        ++Loads;
        Cycles += Hier.data(Addr);
        setReg(I.Ra, Mem.load(static_cast<uint32_t>(Addr), Size));
        break;
      }
      case HostOp::LdqU: {
        uint64_t A = Addr & ~7ULL;
        assert(Mem.inRange(static_cast<uint32_t>(A), 8) &&
               "ldq_u out of guest memory");
        ++Loads;
        Cycles += Hier.data(A);
        setReg(I.Ra, Mem.load(static_cast<uint32_t>(A), 8));
        break;
      }
      case HostOp::Stb:
      case HostOp::Stw:
      case HostOp::Stl:
      case HostOp::Stq: {
        unsigned Size = hostAccessSize(I.Op);
        assert(Mem.inRange(static_cast<uint32_t>(Addr), Size) &&
               "host store out of guest memory");
        ++Stores;
        Cycles += Hier.data(Addr);
        Mem.store(static_cast<uint32_t>(Addr), Size, reg(I.Ra));
        break;
      }
      case HostOp::StqU: {
        uint64_t A = Addr & ~7ULL;
        assert(Mem.inRange(static_cast<uint32_t>(A), 8) &&
               "stq_u out of guest memory");
        ++Stores;
        Cycles += Hier.data(A);
        Mem.store(static_cast<uint32_t>(A), 8, reg(I.Ra));
        break;
      }
      default:
        assert(false && "unhandled memory opcode");
      }
      ++Pc;
      continue;
    }

    if (isOperateFormat(I.Op)) {
      uint64_t A = reg(I.Ra);
      uint64_t B = operandB(I);
      uint64_t V = 0;
      switch (I.Op) {
      case HostOp::Addq:
        V = A + B;
        break;
      case HostOp::Subq:
        V = A - B;
        break;
      case HostOp::Addl:
        V = zext32(A + B);
        break;
      case HostOp::Subl:
        V = zext32(A - B);
        break;
      case HostOp::Mull:
        V = zext32(A * B);
        break;
      case HostOp::Mulq:
        V = A * B;
        break;
      case HostOp::And:
        V = A & B;
        break;
      case HostOp::Bis:
        V = A | B;
        break;
      case HostOp::Xor:
        V = A ^ B;
        break;
      case HostOp::Sll:
        V = A << (B & 63);
        break;
      case HostOp::Srl:
        V = A >> (B & 63);
        break;
      case HostOp::Sra:
        V = static_cast<uint64_t>(static_cast<int64_t>(A) >> (B & 63));
        break;
      case HostOp::Cmpeq:
        V = A == B;
        break;
      case HostOp::Cmpult:
        V = A < B;
        break;
      case HostOp::Cmpule:
        V = A <= B;
        break;
      case HostOp::Cmplt:
        V = static_cast<int64_t>(A) < static_cast<int64_t>(B);
        break;
      case HostOp::Cmple:
        V = static_cast<int64_t>(A) <= static_cast<int64_t>(B);
        break;
      case HostOp::Cmplt32:
        V = static_cast<int32_t>(A) < static_cast<int32_t>(B);
        break;
      case HostOp::Cmple32:
        V = static_cast<int32_t>(A) <= static_cast<int32_t>(B);
        break;
      case HostOp::Sextl:
        V = sext32(B);
        break;
      case HostOp::Zextl:
        V = zext32(B);
        break;
      default: {
        // The unaligned-access toolkit.
        unsigned Size = fieldSize(I.Op);
        unsigned Sh = B & 7;
        uint64_t Mask = sizeMask(Size);
        switch (I.Op) {
        case HostOp::Extwl:
        case HostOp::Extll:
        case HostOp::Extql:
          V = (A >> (8 * Sh)) & Mask;
          break;
        case HostOp::Extwh:
        case HostOp::Extlh:
        case HostOp::Extqh:
          V = Sh == 0 ? 0 : (A << (8 * (8 - Sh))) & Mask;
          break;
        case HostOp::Inswl:
        case HostOp::Insll:
        case HostOp::Insql:
          V = (A & Mask) << (8 * Sh);
          break;
        case HostOp::Inswh:
        case HostOp::Inslh:
        case HostOp::Insqh:
          V = Sh == 0 ? 0 : (A & Mask) >> (8 * (8 - Sh));
          break;
        case HostOp::Mskwl:
        case HostOp::Mskll:
        case HostOp::Mskql:
          V = A & ~(Mask << (8 * Sh));
          break;
        case HostOp::Mskwh:
        case HostOp::Msklh:
        case HostOp::Mskqh:
          V = Sh == 0 ? A : A & ~(Mask >> (8 * (8 - Sh)));
          break;
        default:
          assert(false && "unhandled operate opcode");
        }
        break;
      }
      }
      setReg(I.Rc, V);
      ++Pc;
      continue;
    }

    if (isBranchFormat(I.Op)) {
      bool Taken = false;
      int64_t A = static_cast<int64_t>(reg(I.Ra));
      switch (I.Op) {
      case HostOp::Br:
        Taken = true;
        break;
      case HostOp::Beq:
        Taken = A == 0;
        break;
      case HostOp::Bne:
        Taken = A != 0;
        break;
      case HostOp::Blt:
        Taken = A < 0;
        break;
      case HostOp::Bge:
        Taken = A >= 0;
        break;
      default:
        assert(false && "unhandled branch opcode");
      }
      Pc = Pc + 1 + (Taken ? static_cast<uint32_t>(I.Disp) : 0);
      continue;
    }

    assert(I.Op == HostOp::Srv && "unhandled host opcode");
    switch (static_cast<SrvFunc>(I.Disp)) {
    case SrvFunc::Exit:
      return {ExitInfo::Exit, static_cast<uint32_t>(reg(RegExitPc)), Pc};
    case SrvFunc::Halt:
      return {ExitInfo::Halt, 0, Pc};
    }
    assert(false && "unknown service function");
  }
}
