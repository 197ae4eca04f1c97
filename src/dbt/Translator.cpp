//===- dbt/Translator.cpp -------------------------------------------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//

#include "dbt/Translator.h"

#include "dbt/FusionRules.h"
#include "host/HostAssembler.h"
#include "host/MdaSequences.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <unordered_map>

using namespace mdabt;
using namespace mdabt::dbt;
using namespace mdabt::host;

namespace {

/// Host memory opcode implementing a guest memory opcode.
HostOp hostMemOp(guest::Opcode Op) {
  switch (Op) {
  case guest::Opcode::Ldb:
    return HostOp::Ldbu;
  case guest::Opcode::Ldw:
    return HostOp::Ldwu;
  case guest::Opcode::Ldl:
    return HostOp::Ldl;
  case guest::Opcode::Ldq:
    return HostOp::Ldq;
  case guest::Opcode::Stb:
    return HostOp::Stb;
  case guest::Opcode::Stw:
    return HostOp::Stw;
  case guest::Opcode::Stl:
    return HostOp::Stl;
  case guest::Opcode::Stq:
    return HostOp::Stq;
  default:
    assert(false && "not a guest memory opcode");
    return HostOp::Ldl;
  }
}

/// Compare opcode + branch-on-nonzero flag for a guest condition.
struct CondLowering {
  HostOp CmpOp;
  bool BranchIfTrue; ///< branch when the compare result is nonzero
};

CondLowering lowerCond(guest::Cond C) {
  switch (C) {
  case guest::Cond::Eq:
    return {HostOp::Cmpeq, true};
  case guest::Cond::Ne:
    return {HostOp::Cmpeq, false};
  case guest::Cond::Lt:
    return {HostOp::Cmplt32, true};
  case guest::Cond::Ge:
    return {HostOp::Cmplt32, false};
  case guest::Cond::Le:
    return {HostOp::Cmple32, true};
  case guest::Cond::Gt:
    return {HostOp::Cmple32, false};
  case guest::Cond::B:
    return {HostOp::Cmpult, true};
  case guest::Cond::Ae:
    return {HostOp::Cmpult, false};
  }
  assert(false && "bad condition");
  return {HostOp::Cmpeq, true};
}

/// Emit `Dst = Dst <op> Imm` choosing the literal form when possible.
void emitAluImm(HostAssembler &Asm, HostOp Op, uint8_t Dst, int32_t Imm) {
  if (Imm >= 0 && Imm <= 255) {
    Asm.opl(Op, Dst, static_cast<uint8_t>(Imm), Dst);
    return;
  }
  Asm.materialize32(RegScratch1, static_cast<uint32_t>(Imm));
  Asm.op(Op, Dst, RegScratch1, Dst);
}

/// Largest displacement the translator leaves on a memory operand so
/// that Disp + 7 still fits disp16 (required by the MDA sequences and
/// by exception-handler stub generation).
constexpr int32_t MaxMemDisp = 32767 - 8;

/// Materialize the effective address so that a single (Base, Disp)
/// memory operand expresses it.  May emit address arithmetic into the
/// scratch registers.  Guest addresses wrap at 2^32, hence Addl.
struct AddrOperand {
  uint8_t Base;
  int32_t Disp;
};

AddrOperand computeAddress(HostAssembler &Asm, const guest::GuestInst &I) {
  uint8_t Base = hostGpr(I.Reg2);
  int32_t Disp = I.Disp;
  if (I.HasIndex) {
    uint8_t Idx = hostGpr(I.IndexReg);
    if (I.Scale != 0) {
      Asm.opl(HostOp::Sll, Idx, I.Scale, RegScratch0);
      Asm.op(HostOp::Addl, Base, RegScratch0, RegScratch0);
    } else {
      Asm.op(HostOp::Addl, Base, Idx, RegScratch0);
    }
    Base = RegScratch0;
  }
  if (Disp < -32768 || Disp > MaxMemDisp) {
    Asm.materialize32(RegScratch1, static_cast<uint32_t>(Disp));
    Asm.op(HostOp::Addl, Base, RegScratch1, RegScratch0);
    Base = RegScratch0;
    Disp = 0;
  }
  return {Base, Disp};
}

/// The multi-version alignment check (paper Fig. 8, left): leave the
/// low bits of the access address of \p A in RegMvT1.  When the
/// displacement is a multiple of the access size it cannot change
/// alignment, so the check tests the base register directly (the
/// paper's "and Raddr, #3, Rtemp" form).
void emitAlignCheck(HostAssembler &Asm, const AddrOperand &A, unsigned Size) {
  uint8_t CheckReg = A.Base;
  if (A.Disp % static_cast<int32_t>(Size) != 0) {
    Asm.lda(RegMvT0, A.Disp, A.Base);
    CheckReg = RegMvT0;
  }
  Asm.opl(HostOp::And, CheckReg, static_cast<uint8_t>(Size - 1), RegMvT1);
}

/// How multi-version plans are rendered in the range being emitted:
/// per-instruction (Fig. 8 left), or one of the two block-granularity
/// copies (plain ops in the aligned copy — still exception-handler
/// guarded — and inline sequences in the misaligned copy).
enum class MvMode { PerInst, Plain, Sequences };

/// Emits the body of one guest block into the translation being built.
/// Shared between plain block translation (Translator::translate) and
/// superblock re-emission (Translator::translateTrace); in trace mode
/// (Continues == true) control flow that stays on the trace falls
/// through to the next constituent and off-trace edges branch to shared
/// side-exit labels instead of materializing an exit inline.
struct BodyEmitter {
  BodyEmitter(HostAssembler &Asm, TranslationRecord &R, uint32_t Base,
              const GuestBlock &Block, const Translator::PlanFn &Plan,
              unsigned IcWays, uint32_t FusionMask)
      : Asm(Asm), R(R), Base(Base), Block(Block), Plan(Plan),
        IcWays(IcWays), Matcher(FusionMask) {}

  HostAssembler &Asm;
  /// The record being built; its word numbers are relative to Base, the
  /// translation's entry word.
  TranslationRecord &R;
  uint32_t Base;
  const GuestBlock &Block;
  const Translator::PlanFn &Plan;
  /// Inline-cache ways to emit before each indirect exit (0 = none).
  unsigned IcWays;
  /// Enabled peephole fusion rules (dbt/FusionRules.h).
  FusionMatcher Matcher;
  /// Raw policy-intent plans memoized per instruction index.  Fusion
  /// matching peeks at plans ahead of emission; the memo keeps the
  /// planning chain (analysis verdicts, policy state, the engine's
  /// elide counters) consulted exactly once per site.  Only populated
  /// when fusion is enabled, so the fusion-off translator consults the
  /// chain exactly as it always has.
  std::unordered_map<size_t, MemPlan> PlanMemo;
  /// Trace mode: this block is a non-last trace constituent and
  /// execution reaching NextPc must fall through into the next one.
  bool Continues = false;
  uint32_t NextPc = 0;
  /// Off-trace exit labels, shared across the trace's constituents so
  /// each unique target gets exactly one side-exit stub.
  std::map<uint32_t, HostAssembler::Label> *SideLabels = nullptr;

  /// Label for the off-trace side exit to guest PC \p Pc.
  HostAssembler::Label side(uint32_t Pc) {
    assert(SideLabels && "side exit outside trace mode");
    auto It = SideLabels->find(Pc);
    if (It != SideLabels->end())
      return It->second;
    HostAssembler::Label L = Asm.newLabel();
    SideLabels->emplace(Pc, L);
    return L;
  }

  /// Direct exit to \p TargetPc.  In trace mode an on-trace target
  /// falls through and an off-trace target branches to its side exit;
  /// otherwise the exit (materialize + Srv) is emitted inline.
  void emitExit(uint32_t TargetPc) {
    if (Continues) {
      if (TargetPc != NextPc)
        Asm.br(side(TargetPc));
      return;
    }
    Asm.materialize32(RegExitPc, TargetPc);
    uint32_t W = Asm.srv(SrvFunc::Exit);
    R.Exits.push_back({W - Base, TargetPc, /*Direct=*/true});
  }

  /// Indirect exit: RegExitPc already holds the target.  When IcWays is
  /// nonzero, a disabled inline cache (see IcWayWords) is emitted ahead
  /// of the fallback Srv Exit for the monitor to fill.
  void emitIndirectExit() {
    TranslationRecord::RelIcSite Site;
    for (unsigned N = 0; N != IcWays; ++N) {
      Site.WayBegins.push_back(
          Asm.emit(brInst(HostOp::Br, RegZero,
                          static_cast<int32_t>(IcWayWords) - 1)) -
          Base);
      for (uint32_t K = 1; K != IcWayWords; ++K)
        Asm.op(HostOp::Bis, RegZero, RegZero, RegZero); // nop filler
    }
    uint32_t W = Asm.srv(SrvFunc::Exit);
    R.Exits.push_back({W - Base, 0, /*Direct=*/false});
    if (IcWays != 0) {
      Site.SrvWord = W - Base;
      R.IcSites.push_back(std::move(Site));
    }
  }

  /// Register host word \p W as a trapping-capable memory site of the
  /// guest instruction at \p Pc.
  void recordSite(uint32_t W, uint32_t Pc) {
    R.MemWordToGuestPc.push_back({W - Base, Pc});
  }

  /// Record episode-stop metadata for a guest store whose lowering
  /// emitted host words [FirstWord, Asm.pos()): if executing any of
  /// them rewrites code backing this very translation, the engine
  /// stops the episode at Asm.pos() — the first word after the
  /// instruction — and redispatches at \p ResumePc.  Safe to key every
  /// word of the range: the barrier only consults the map for the word
  /// that actually performed the store.
  void recordStoreResume(uint32_t FirstWord, uint32_t ResumePc) {
    uint32_t End = Asm.pos();
    for (uint32_t W = FirstWord; W != End; ++W)
      R.StoreResume.push_back({W - Base, End - Base, ResumePc});
  }

  /// Plan for the memory instruction at \p Idx under MV rendering mode
  /// \p Mode.  Records the policy-intent plan in the record's PlanByPc
  /// so superblock re-emission can reproduce it without the policy.
  MemPlan planFor(size_t Idx, MvMode Mode) {
    const guest::GuestInst &Inst = Block.Insts[Idx];
    if (!guest::isMemoryOp(Inst.Op) || guest::accessSize(Inst.Op) < 2)
      return MemPlan::Normal;
    MemPlan P;
    auto It = PlanMemo.find(Idx);
    if (It != PlanMemo.end()) {
      P = It->second;
    } else {
      P = Plan(Block.InstPcs[Idx], Inst);
      if (Matcher.enabled())
        PlanMemo.emplace(Idx, P);
      // A site emitted twice (block multi-version tails, unrolled trace
      // copies) keeps its last plan.
      auto Old = std::find_if(
          R.PlanByPc.begin(), R.PlanByPc.end(),
          [&](const auto &E) { return E.first == Block.InstPcs[Idx]; });
      if (Old != R.PlanByPc.end())
        Old->second = P;
      else
        R.PlanByPc.push_back({Block.InstPcs[Idx], P});
    }
    if (P == MemPlan::MultiVersion) {
      if (Mode == MvMode::Plain)
        return MemPlan::Normal;
      if (Mode == MvMode::Sequences)
        return MemPlan::Inline;
    }
    return P;
  }

  /// Record one fused sequence whose core words are [Begin, End).
  void recordFused(const FusionMatch &M, size_t Idx, uint32_t Begin,
                   uint32_t End) {
    R.FusedSites.push_back({static_cast<uint8_t>(M.Rule),
                            static_cast<uint8_t>(M.Length), Begin - Base,
                            End - Base, Block.InstPcs[Idx], M.SavedWords});
  }

  /// Baseline lowering of the simple GPR ALU ops: the block body's, and
  /// the ones a fused window may contain (the FusionRules slot sets;
  /// they exclude the RegScratch0-clobbering Sar/SarI, since a fused
  /// shared address lives there).
  void emitSimpleAlu(const guest::GuestInst &I) {
    switch (I.Op) {
    case guest::Opcode::Add:
      Asm.op(HostOp::Addl, hostGpr(I.Reg1), hostGpr(I.Reg2),
             hostGpr(I.Reg1));
      break;
    case guest::Opcode::Sub:
      Asm.op(HostOp::Subl, hostGpr(I.Reg1), hostGpr(I.Reg2),
             hostGpr(I.Reg1));
      break;
    case guest::Opcode::And:
      Asm.op(HostOp::And, hostGpr(I.Reg1), hostGpr(I.Reg2),
             hostGpr(I.Reg1));
      break;
    case guest::Opcode::Or:
      Asm.op(HostOp::Bis, hostGpr(I.Reg1), hostGpr(I.Reg2),
             hostGpr(I.Reg1));
      break;
    case guest::Opcode::Xor:
      Asm.op(HostOp::Xor, hostGpr(I.Reg1), hostGpr(I.Reg2),
             hostGpr(I.Reg1));
      break;
    case guest::Opcode::Mul:
      Asm.op(HostOp::Mull, hostGpr(I.Reg1), hostGpr(I.Reg2),
             hostGpr(I.Reg1));
      break;
    case guest::Opcode::AddI:
      emitAluImm(Asm, HostOp::Addl, hostGpr(I.Reg1), I.Imm);
      break;
    case guest::Opcode::SubI:
      emitAluImm(Asm, HostOp::Subl, hostGpr(I.Reg1), I.Imm);
      break;
    case guest::Opcode::AndI:
      emitAluImm(Asm, HostOp::And, hostGpr(I.Reg1), I.Imm);
      break;
    case guest::Opcode::OrI:
      emitAluImm(Asm, HostOp::Bis, hostGpr(I.Reg1), I.Imm);
      break;
    case guest::Opcode::XorI:
      emitAluImm(Asm, HostOp::Xor, hostGpr(I.Reg1), I.Imm);
      break;
    case guest::Opcode::MulI:
      emitAluImm(Asm, HostOp::Mull, hostGpr(I.Reg1), I.Imm);
      break;
    case guest::Opcode::ShlI:
      Asm.opl(HostOp::Sll, hostGpr(I.Reg1),
              static_cast<uint8_t>(I.Imm & 31), hostGpr(I.Reg1));
      Asm.op(HostOp::Zextl, RegZero, hostGpr(I.Reg1), hostGpr(I.Reg1));
      break;
    case guest::Opcode::ShrI:
      Asm.opl(HostOp::Srl, hostGpr(I.Reg1),
              static_cast<uint8_t>(I.Imm & 31), hostGpr(I.Reg1));
      break;
    default:
      assert(false && "not a simple ALU op");
      break;
    }
  }

  /// Host ALU opcode for a fusable guest reg-reg / reg-imm op.
  static HostOp fusedAluOp(guest::Opcode Op) {
    switch (Op) {
    case guest::Opcode::Add:
    case guest::Opcode::AddI:
      return HostOp::Addl;
    case guest::Opcode::Sub:
    case guest::Opcode::SubI:
      return HostOp::Subl;
    case guest::Opcode::And:
    case guest::Opcode::AndI:
      return HostOp::And;
    case guest::Opcode::Or:
    case guest::Opcode::OrI:
      return HostOp::Bis;
    case guest::Opcode::Xor:
    case guest::Opcode::XorI:
      return HostOp::Xor;
    case guest::Opcode::Mul:
    case guest::Opcode::MulI:
      return HostOp::Mull;
    default:
      assert(false && "op not in a fusable slot set");
      return HostOp::Addl;
    }
  }

  /// Emit the fused lowering for match \p M starting at \p Idx.  Every
  /// covered memory site keeps its own MemWordToGuestPc / StoreResume
  /// registration, so stub patching, SMC episode stops and fault
  /// attribution behave exactly as in the unfused rendering.
  void emitFused(const FusionMatch &M, size_t Idx, MvMode Mode) {
    uint32_t Begin = Asm.pos();
    const guest::GuestInst &I0 = Block.Insts[Idx];
    switch (M.Rule) {
    case FusionRuleId::MovOp: {
      const guest::GuestInst &A = Block.Insts[Idx + 1];
      Asm.op(fusedAluOp(A.Op), hostGpr(I0.Reg2), hostGpr(A.Reg2),
             hostGpr(A.Reg1));
      recordFused(M, Idx, Begin, Asm.pos());
      break;
    }
    case FusionRuleId::MovOpI: {
      const guest::GuestInst &A = Block.Insts[Idx + 1];
      Asm.opl(fusedAluOp(A.Op), hostGpr(I0.Reg2),
              static_cast<uint8_t>(A.Imm), hostGpr(A.Reg1));
      recordFused(M, Idx, Begin, Asm.pos());
      break;
    }
    case FusionRuleId::ImmNeg:
      Asm.opl(I0.Op == guest::Opcode::AddI ? HostOp::Subl : HostOp::Addl,
              hostGpr(I0.Reg1), static_cast<uint8_t>(-I0.Imm),
              hostGpr(I0.Reg1));
      recordFused(M, Idx, Begin, Asm.pos());
      break;
    case FusionRuleId::CmpBr0: {
      const guest::GuestInst &J = Block.Insts[Idx + 1];
      uint32_t JPc = Block.InstPcs[Idx + 1];
      uint8_t R = hostGpr(I0.Reg1);
      // Eq is taken when r == 0, Ne when r != 0; the constraint admits
      // only these (guest GPRs are zero-extended, never negative, so
      // orderings against 0 do not reduce to a register test).
      bool TakenWhenZero = J.CC == guest::Cond::Eq;
      if (Continues) {
        uint32_t TakenPc = J.branchTarget(JPc);
        uint32_t FallPc = J.nextPc(JPc);
        if (TakenPc == NextPc) {
          if (TakenWhenZero)
            Asm.bne(R, side(FallPc));
          else
            Asm.beq(R, side(FallPc));
        } else if (FallPc == NextPc) {
          if (TakenWhenZero)
            Asm.beq(R, side(TakenPc));
          else
            Asm.bne(R, side(TakenPc));
        } else {
          if (TakenWhenZero)
            Asm.beq(R, side(TakenPc));
          else
            Asm.bne(R, side(TakenPc));
          Asm.br(side(FallPc));
        }
        recordFused(M, Idx, Begin, Asm.pos());
        break;
      }
      HostAssembler::Label Taken = Asm.newLabel();
      if (TakenWhenZero)
        Asm.beq(R, Taken);
      else
        Asm.bne(R, Taken);
      // Core ends here: the exits below are monitor-patched (chaining).
      recordFused(M, Idx, Begin, Asm.pos());
      emitExit(J.nextPc(JPc));
      Asm.bind(Taken);
      emitExit(J.branchTarget(JPc));
      break;
    }
    case FusionRuleId::LdOpSt: {
      const guest::GuestInst &St = Block.Insts[Idx + 2];
      uint32_t StPc = Block.InstPcs[Idx + 2];
      AddrOperand A = computeAddress(Asm, I0);
      unsigned Size = guest::accessSize(I0.Op);
      uint8_t Data = hostGpr(I0.Reg1);
      MemPlan PL = planFor(Idx, Mode);
      uint32_t WL = Asm.mem(hostMemOp(I0.Op), Data, A.Disp, A.Base);
      if (Size >= 2 && PL != MemPlan::Elide)
        recordSite(WL, Block.InstPcs[Idx]);
      emitSimpleAlu(Block.Insts[Idx + 1]);
      MemPlan PS = planFor(Idx + 2, Mode);
      uint32_t WS = Asm.mem(hostMemOp(St.Op), Data, A.Disp, A.Base);
      if (Size >= 2 && PS != MemPlan::Elide)
        recordSite(WS, StPc);
      recordStoreResume(WS, St.nextPc(StPc));
      recordFused(M, Idx, Begin, Asm.pos());
      break;
    }
    case FusionRuleId::SharedAddr: {
      // One base + index*scale computation shared by the whole run;
      // per-member displacements ride on the memory operands.
      if (I0.Scale != 0) {
        Asm.opl(HostOp::Sll, hostGpr(I0.IndexReg), I0.Scale, RegScratch0);
        Asm.op(HostOp::Addl, hostGpr(I0.Reg2), RegScratch0, RegScratch0);
      } else {
        Asm.op(HostOp::Addl, hostGpr(I0.Reg2), hostGpr(I0.IndexReg),
               RegScratch0);
      }
      for (size_t K = 0; K != M.Length; ++K) {
        const guest::GuestInst &I = Block.Insts[Idx + K];
        uint32_t Pc = Block.InstPcs[Idx + K];
        MemPlan P = planFor(Idx + K, Mode);
        uint8_t Data = (I.Op == guest::Opcode::Ldq ||
                        I.Op == guest::Opcode::Stq)
                           ? hostQ(I.Reg1)
                           : hostGpr(I.Reg1);
        uint32_t W = Asm.mem(hostMemOp(I.Op), Data, I.Disp, RegScratch0);
        if (guest::accessSize(I.Op) >= 2 && P != MemPlan::Elide)
          recordSite(W, Pc);
        if (guest::isStore(I.Op))
          recordStoreResume(W, I.nextPc(Pc));
      }
      recordFused(M, Idx, Begin, Asm.pos());
      break;
    }
    }
  }

  void emitRange(size_t From, size_t To, MvMode Mode) {
  for (size_t Idx = From; Idx != To; ++Idx) {
    const guest::GuestInst &I = Block.Insts[Idx];
    uint32_t Pc = Block.InstPcs[Idx];

    if (Matcher.enabled()) {
      FusionMatch M;
      auto PlanAt = [&](size_t J) { return planFor(J, Mode); };
      if (Matcher.match(Block, Idx, To, PlanAt, M)) {
        emitFused(M, Idx, Mode);
        Idx += M.Length - 1;
        continue;
      }
    }

    switch (I.Op) {
    case guest::Opcode::Nop:
      break;

    case guest::Opcode::Halt:
      Asm.srv(SrvFunc::Halt);
      break;

    case guest::Opcode::Chk:
      Asm.opl(HostOp::Mulq, RegChecksum, 31, RegChecksum);
      Asm.op(HostOp::Addq, RegChecksum, hostGpr(I.Reg1), RegChecksum);
      break;
    case guest::Opcode::QChk:
      Asm.opl(HostOp::Mulq, RegChecksum, 31, RegChecksum);
      Asm.op(HostOp::Addq, RegChecksum, hostQ(I.Reg1), RegChecksum);
      break;

    case guest::Opcode::Ldb:
    case guest::Opcode::Ldw:
    case guest::Opcode::Ldl:
    case guest::Opcode::Ldq:
    case guest::Opcode::Stb:
    case guest::Opcode::Stw:
    case guest::Opcode::Stl:
    case guest::Opcode::Stq: {
      AddrOperand A = computeAddress(Asm, I);
      unsigned Size = guest::accessSize(I.Op);
      bool IsStore = guest::isStore(I.Op);
      uint8_t Data = (I.Op == guest::Opcode::Ldq ||
                      I.Op == guest::Opcode::Stq)
                         ? hostQ(I.Reg1)
                         : hostGpr(I.Reg1);
      // The inline MDA sequence, recording a store's SMC resume point.
      auto EmitSequence = [&] {
        if (IsStore) {
          uint32_t S = Asm.pos();
          emitMdaStore(Asm, Size, Data, A.Base, A.Disp);
          recordStoreResume(S, I.nextPc(Pc));
        } else {
          emitMdaLoad(Asm, Size, Data, A.Base, A.Disp);
        }
      };
      MemPlan P = planFor(Idx, Mode);
      if (P == MemPlan::Normal || P == MemPlan::Elide) {
        uint32_t W = Asm.mem(hostMemOp(I.Op), Data, A.Disp, A.Base);
        // An elided (provably-aligned) op is not registered as a fault
        // site: it can never trap, so the fault path must never be able
        // to resolve it.
        if (Size >= 2 && P != MemPlan::Elide)
          recordSite(W, Pc);
        if (IsStore)
          recordStoreResume(W, I.nextPc(Pc));
      } else if (P == MemPlan::Inline) {
        EmitSequence();
      } else {
        // Multi-version code (paper Fig. 8, left): an alignment check
        // selecting between the plain op and the MDA sequence.
        emitAlignCheck(Asm, A, Size);
        HostAssembler::Label Mda = Asm.newLabel();
        HostAssembler::Label End = Asm.newLabel();
        Asm.bne(RegMvT1, Mda);
        uint32_t PW = Asm.mem(hostMemOp(I.Op), Data, A.Disp, A.Base);
        // (provably aligned: the check above routed misalignment away)
        if (IsStore)
          recordStoreResume(PW, I.nextPc(Pc)); // stop at the br below
        Asm.br(End);
        Asm.bind(Mda);
        EmitSequence();
        Asm.bind(End);
      }
      break;
    }

    case guest::Opcode::Lea: {
      AddrOperand A = computeAddress(Asm, I);
      Asm.lda(hostGpr(I.Reg1), A.Disp, A.Base);
      Asm.op(HostOp::Zextl, RegZero, hostGpr(I.Reg1), hostGpr(I.Reg1));
      break;
    }

    case guest::Opcode::MovRR:
      Asm.mov(hostGpr(I.Reg2), hostGpr(I.Reg1));
      break;
    case guest::Opcode::Add:
    case guest::Opcode::Sub:
    case guest::Opcode::And:
    case guest::Opcode::Or:
    case guest::Opcode::Xor:
    case guest::Opcode::Mul:
    case guest::Opcode::AddI:
    case guest::Opcode::SubI:
    case guest::Opcode::AndI:
    case guest::Opcode::OrI:
    case guest::Opcode::XorI:
    case guest::Opcode::MulI:
    case guest::Opcode::ShlI:
    case guest::Opcode::ShrI:
      emitSimpleAlu(I);
      break;
    case guest::Opcode::Shl:
      Asm.opl(HostOp::And, hostGpr(I.Reg2), 31, RegScratch1);
      Asm.op(HostOp::Sll, hostGpr(I.Reg1), RegScratch1, hostGpr(I.Reg1));
      Asm.op(HostOp::Zextl, RegZero, hostGpr(I.Reg1), hostGpr(I.Reg1));
      break;
    case guest::Opcode::Shr:
      Asm.opl(HostOp::And, hostGpr(I.Reg2), 31, RegScratch1);
      Asm.op(HostOp::Srl, hostGpr(I.Reg1), RegScratch1, hostGpr(I.Reg1));
      break;
    case guest::Opcode::Sar:
      Asm.op(HostOp::Sextl, RegZero, hostGpr(I.Reg1), RegScratch0);
      Asm.opl(HostOp::And, hostGpr(I.Reg2), 31, RegScratch1);
      Asm.op(HostOp::Sra, RegScratch0, RegScratch1, hostGpr(I.Reg1));
      Asm.op(HostOp::Zextl, RegZero, hostGpr(I.Reg1), hostGpr(I.Reg1));
      break;

    case guest::Opcode::MovRI:
      Asm.materialize32(hostGpr(I.Reg1), static_cast<uint32_t>(I.Imm));
      break;
    case guest::Opcode::SarI:
      Asm.op(HostOp::Sextl, RegZero, hostGpr(I.Reg1), RegScratch0);
      Asm.opl(HostOp::Sra, RegScratch0, static_cast<uint8_t>(I.Imm & 31),
              hostGpr(I.Reg1));
      Asm.op(HostOp::Zextl, RegZero, hostGpr(I.Reg1), hostGpr(I.Reg1));
      break;

    case guest::Opcode::Cmp:
    case guest::Opcode::CmpI: {
      // Fused with the following Jcc; a compare not followed by Jcc is
      // dead by the ISA's structural rule.
      if (Idx + 1 >= Block.size() ||
          Block.Insts[Idx + 1].Op != guest::Opcode::Jcc)
        break;
      const guest::GuestInst &J = Block.Insts[Idx + 1];
      uint32_t JPc = Block.InstPcs[Idx + 1];
      CondLowering L = lowerCond(J.CC);
      if (I.Op == guest::Opcode::Cmp) {
        Asm.op(L.CmpOp, hostGpr(I.Reg1), hostGpr(I.Reg2), RegScratch2);
      } else if (I.Imm >= 0 && I.Imm <= 255) {
        Asm.opl(L.CmpOp, hostGpr(I.Reg1), static_cast<uint8_t>(I.Imm),
                RegScratch2);
      } else {
        Asm.materialize32(RegScratch1, static_cast<uint32_t>(I.Imm));
        Asm.op(L.CmpOp, hostGpr(I.Reg1), RegScratch1, RegScratch2);
      }
      if (Continues) {
        // Trace-aware lowering: the on-trace arm falls through to the
        // next constituent, the off-trace arm branches to a side exit.
        uint32_t TakenPc = J.branchTarget(JPc);
        uint32_t FallPc = J.nextPc(JPc);
        if (TakenPc == NextPc) {
          if (L.BranchIfTrue)
            Asm.beq(RegScratch2, side(FallPc));
          else
            Asm.bne(RegScratch2, side(FallPc));
        } else if (FallPc == NextPc) {
          if (L.BranchIfTrue)
            Asm.bne(RegScratch2, side(TakenPc));
          else
            Asm.beq(RegScratch2, side(TakenPc));
        } else {
          // Neither arm continues the trace (the walker should never
          // build this); both arms become side exits, defensively.
          if (L.BranchIfTrue)
            Asm.bne(RegScratch2, side(TakenPc));
          else
            Asm.beq(RegScratch2, side(TakenPc));
          Asm.br(side(FallPc));
        }
        ++Idx; // consume the Jcc
        break;
      }
      HostAssembler::Label Taken = Asm.newLabel();
      if (L.BranchIfTrue)
        Asm.bne(RegScratch2, Taken);
      else
        Asm.beq(RegScratch2, Taken);
      emitExit(J.nextPc(JPc));
      Asm.bind(Taken);
      emitExit(J.branchTarget(JPc));
      ++Idx; // consume the Jcc
      break;
    }

    case guest::Opcode::Jcc:
      assert(false && "Jcc without preceding Cmp (assembler enforces)");
      break;

    case guest::Opcode::QMovRR:
      Asm.mov(hostQ(I.Reg2), hostQ(I.Reg1));
      break;
    case guest::Opcode::QMovI:
      Asm.materializeSext32(hostQ(I.Reg1), I.Imm);
      break;
    case guest::Opcode::QAdd:
      Asm.op(HostOp::Addq, hostQ(I.Reg1), hostQ(I.Reg2), hostQ(I.Reg1));
      break;
    case guest::Opcode::QAddI:
      if (I.Imm >= 0 && I.Imm <= 255) {
        Asm.opl(HostOp::Addq, hostQ(I.Reg1), static_cast<uint8_t>(I.Imm),
                hostQ(I.Reg1));
      } else {
        Asm.materializeSext32(RegScratch1, I.Imm);
        Asm.op(HostOp::Addq, hostQ(I.Reg1), RegScratch1, hostQ(I.Reg1));
      }
      break;
    case guest::Opcode::QXor:
      Asm.op(HostOp::Xor, hostQ(I.Reg1), hostQ(I.Reg2), hostQ(I.Reg1));
      break;
    case guest::Opcode::GToQ:
      Asm.mov(hostGpr(I.Reg2), hostQ(I.Reg1));
      break;
    case guest::Opcode::QToG:
      Asm.op(HostOp::Zextl, RegZero, hostQ(I.Reg2), hostGpr(I.Reg1));
      break;

    case guest::Opcode::Jmp:
      emitExit(I.branchTarget(Pc));
      break;

    case guest::Opcode::Call: {
      uint32_t RetPc = I.nextPc(Pc);
      uint8_t Sp = hostGpr(guest::RegSP);
      Asm.opl(HostOp::Subl, Sp, 4, Sp);
      Asm.materialize32(RegScratch0, RetPc);
      uint32_t W = Asm.mem(HostOp::Stl, RegScratch0, 0, Sp);
      recordSite(W, Pc);
      // If the return-address push rewrites watched code (pathological
      // but legal), resume at the callee: the push has architecturally
      // completed and the call transfers control next.
      recordStoreResume(W, I.branchTarget(Pc));
      emitExit(I.branchTarget(Pc));
      break;
    }

    case guest::Opcode::Ret: {
      uint8_t Sp = hostGpr(guest::RegSP);
      uint32_t W = Asm.mem(HostOp::Ldl, RegScratch0, 0, Sp);
      recordSite(W, Pc);
      Asm.opl(HostOp::Addl, Sp, 4, Sp);
      Asm.mov(RegScratch0, RegExitPc);
      emitIndirectExit();
      break;
    }

    case guest::Opcode::JmpR:
      Asm.mov(hostGpr(I.Reg1), RegExitPc);
      emitIndirectExit();
      break;
    }
  }
  }
};

} // namespace

Translation Translator::seal(TranslationRecord R, uint32_t Entry,
                             uint32_t Generation) {
  R.Words.assign(Code.data() + Entry, Code.data() + Code.size());
  // Sites and resume points are recorded in emission order, so already
  // sorted by word.
  std::sort(R.PlanByPc.begin(), R.PlanByPc.end());
  return Translation(std::make_shared<const TranslationRecord>(std::move(R)),
                     Entry, Generation);
}

Translation Translator::translate(const GuestBlock &Block,
                                  const PlanFn &Plan, uint32_t Generation,
                                  const TranslationOpts &Opts) {
  HostAssembler Asm(Code);
  TranslationRecord R;
  uint32_t Entry = Asm.pos();
  R.GuestPc = Block.StartPc;
  R.GuestInsts = static_cast<uint32_t>(Block.size());
  R.GuestRanges.push_back({Block.StartPc, Block.endPc()});

  BodyEmitter E(Asm, R, Entry, Block, Plan, Opts.IcWays, Opts.FusionMask);

  // Block-granularity multi-version (paper section IV-D): find the
  // first multi-version site; one alignment check there selects between
  // a plain-ops copy and an inline-sequences copy of the block tail.
  // The plain copy's sites stay exception-handler guarded, so a site
  // that defies the shared-alignment-pattern assumption still executes
  // correctly (it traps and gets patched).
  size_t Split = Block.size();
  if (Opts.BlockMultiVersion) {
    for (size_t Idx = 0; Idx != Block.size(); ++Idx) {
      if (E.planFor(Idx, MvMode::PerInst) == MemPlan::MultiVersion) {
        Split = Idx;
        break;
      }
    }
  }

  if (Split != Block.size()) {
    E.emitRange(0, Split, MvMode::PerInst);
    // The version check on the split site's address.
    const guest::GuestInst &I = Block.Insts[Split];
    emitAlignCheck(Asm, computeAddress(Asm, I), guest::accessSize(I.Op));
    HostAssembler::Label MisCopy = Asm.newLabel();
    Asm.bne(RegMvT1, MisCopy);
    E.emitRange(Split, Block.size(), MvMode::Plain);
    Asm.bind(MisCopy);
    E.emitRange(Split, Block.size(), MvMode::Sequences);
  } else {
    E.emitRange(0, Block.size(), MvMode::PerInst);
  }

  Asm.finish();
  return seal(std::move(R), Entry, Generation);
}

Translation Translator::translateTrace(const std::vector<GuestBlock> &Blocks,
                                       const PlanFn &Plan,
                                       uint32_t Generation,
                                       const TranslationOpts &Opts) {
  assert(Blocks.size() >= 2 && "a trace spans at least two blocks");
  HostAssembler Asm(Code);
  TranslationRecord R;
  uint32_t Entry = Asm.pos();
  R.GuestPc = Blocks.front().StartPc;
  R.IsTrace = true;

  // One side-exit stub per unique off-trace target, shared by every
  // constituent (bound after the straight-line body).
  std::map<uint32_t, HostAssembler::Label> SideLabels;

  for (size_t B = 0; B != Blocks.size(); ++B) {
    const GuestBlock &Blk = Blocks[B];
    R.Constituents.push_back(Blk.StartPc);
    R.GuestInsts += static_cast<uint32_t>(Blk.size());
    // Guest ranges deduplicated: loop unrolling repeats constituents.
    std::pair<uint32_t, uint32_t> Range{Blk.StartPc, Blk.endPc()};
    if (std::find(R.GuestRanges.begin(), R.GuestRanges.end(), Range) ==
        R.GuestRanges.end())
      R.GuestRanges.push_back(Range);
    BodyEmitter E(Asm, R, Entry, Blk, Plan, Opts.IcWays, Opts.FusionMask);
    if (B + 1 != Blocks.size()) {
      E.Continues = true;
      E.NextPc = Blocks[B + 1].StartPc;
      E.SideLabels = &SideLabels;
    }
    // Constituents render multi-version sites per-instruction even when
    // the policy asked for block granularity: semantically equivalent
    // (both copies stay handler-guarded) and it keeps the straight-line
    // body free of block-tail duplication.
    E.emitRange(0, Blk.size(), MvMode::PerInst);
  }

  for (auto &KV : SideLabels) {
    Asm.bind(KV.second);
    Asm.materialize32(RegExitPc, KV.first);
    uint32_t W = Asm.srv(SrvFunc::Exit);
    R.Exits.push_back({W - Entry, KV.first, /*Direct=*/true});
  }

  Asm.finish();
  return seal(std::move(R), Entry, Generation);
}

namespace {

/// The revert probe of the adaptive stub (paper Fig. 8, right side:
/// "instructions to collect runtime information"): count consecutive
/// aligned executions in the probe's counter cell and, at the threshold,
/// post FaultWord + 1 into the runtime mailbox.  Falls through to the MDA
/// sequence either way.
void emitRevertProbe(HostAssembler &Asm, const HostInst &Faulting,
                     unsigned Size, uint32_t FaultWord,
                     const Translator::AdaptiveProbe &P) {
  assert(P.Threshold >= 1 && P.Threshold <= 255 &&
         "threshold must fit an operate literal");
  // Alignment check on the current address.
  Asm.lda(RegMdaT2, Faulting.Disp, Faulting.Rb);
  Asm.opl(HostOp::And, RegMdaT2, static_cast<uint8_t>(Size - 1),
          RegMdaT0);
  HostAssembler::Label RunSeq = Asm.newLabel();
  Asm.bne(RegMdaT0, RunSeq);
  // Aligned occurrence: bump the counter cell.
  Asm.materialize32(RegMdaT1, P.CounterAddr);
  Asm.mem(HostOp::Ldl, RegMdaT0, 0, RegMdaT1);
  Asm.opl(HostOp::Addl, RegMdaT0, 1, RegMdaT0);
  Asm.mem(HostOp::Stl, RegMdaT0, 0, RegMdaT1);
  Asm.opl(HostOp::Cmpult, RegMdaT0, static_cast<uint8_t>(P.Threshold),
          RegMdaT1);
  Asm.bne(RegMdaT1, RunSeq); // still warming up
  // Ask the monitor to revert this patch.
  Asm.materialize32(RegMdaT1, P.MailboxAddr);
  Asm.materialize32(RegMdaT0, FaultWord + 1);
  Asm.mem(HostOp::Stl, RegMdaT0, 0, RegMdaT1);
  Asm.bind(RunSeq);
}

} // namespace

std::optional<Translator::StubInfo>
Translator::emitStub(const HostInst &Faulting, uint32_t FaultWord,
                     const AdaptiveProbe *Probe) {
  assert(accessesMemory(Faulting.Op) && alignmentOf(Faulting.Op) > 1 &&
         "stub requested for a non-trapping instruction");
  HostAssembler Asm(Code);
  StubInfo S;
  S.Entry = Asm.pos();
  unsigned Size = hostAccessSize(Faulting.Op);
  if (Probe)
    emitRevertProbe(Asm, Faulting, Size, FaultWord, *Probe);
  if (isHostLoad(Faulting.Op))
    emitMdaLoad(Asm, Size, Faulting.Ra, Faulting.Rb, Faulting.Disp);
  else
    emitMdaStore(Asm, Size, Faulting.Ra, Faulting.Rb, Faulting.Disp);
  Asm.finish();
  // The return is the stub's farthest branch from the fault word: when
  // it fits, so does the redirect into the stub.
  std::optional<uint32_t> Ret = branchTo(Asm.pos(), FaultWord + 1);
  if (!Ret) {
    Code.truncate(S.Entry);
    return std::nullopt;
  }
  Code.append(*Ret);
  S.End = Asm.pos();
  return S;
}
