//===- host/HostMachine.cpp -----------------------------------------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//

#include "host/HostMachine.h"

#include <bit>
#include <cassert>

using namespace mdabt;
using namespace mdabt::host;

namespace {

uint64_t zext32(uint64_t V) { return V & 0xffffffffULL; }

uint64_t sext32(uint64_t V) {
  return static_cast<uint64_t>(
      static_cast<int64_t>(static_cast<int32_t>(V)));
}

// The unaligned-access toolkit over a field of Mask's width; the shift
// is the low 3 bits of operand B, i.e. of the data address.
template <uint64_t Mask> uint64_t extLow(uint64_t A, uint64_t B) {
  return (A >> (8 * (B & 7))) & Mask;
}
template <uint64_t Mask> uint64_t extHigh(uint64_t A, uint64_t B) {
  unsigned Sh = B & 7;
  return Sh == 0 ? 0 : (A << (8 * (8 - Sh))) & Mask;
}
template <uint64_t Mask> uint64_t insLow(uint64_t A, uint64_t B) {
  return (A & Mask) << (8 * (B & 7));
}
template <uint64_t Mask> uint64_t insHigh(uint64_t A, uint64_t B) {
  unsigned Sh = B & 7;
  return Sh == 0 ? 0 : (A & Mask) >> (8 * (8 - Sh));
}
template <uint64_t Mask> uint64_t mskLow(uint64_t A, uint64_t B) {
  return A & ~(Mask << (8 * (B & 7)));
}
template <uint64_t Mask> uint64_t mskHigh(uint64_t A, uint64_t B) {
  unsigned Sh = B & 7;
  return Sh == 0 ? A : A & ~(Mask >> (8 * (8 - Sh)));
}

constexpr uint64_t Word16 = 0xffff;
constexpr uint64_t Word32 = 0xffffffff;
constexpr uint64_t Word64 = ~0ULL;

} // namespace

HostMachine::TrapResult HostMachine::trap(uint32_t Pc, uint64_t Addr) {
  HostInst I;
  [[maybe_unused]] bool Ok = decodeHost(Code.word(Pc), I);
  assert(Ok && "a trapping word always decodes");
  ++Faults;
  Cycles += Cost.TrapCycles;
  FaultAction A =
      Handler ? Handler(FaultInfo{Pc, Addr, I}) : FaultAction::Fixup;
  if (A == FaultAction::Retry)
    return TrapResult::Retry; // re-execute the (now patched) word
  if (A == FaultAction::Halt)
    return TrapResult::Halt;
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
  return TrapResult::Next;
}

// Every handler ends in its own indirect jump.  GCC's cross-jumping
// merges those identical dispatch tails into one shared jump (98 jumps
// become 3), which costs the branch predictor its per-handler history
// and the host loop about a third of its speed.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("no-crossjumping")))
#endif
ExitInfo HostMachine::run(uint32_t EntryWord) {
  // One label per ExecOp, in ExecOp order.
  static const void *const Handlers[] = {
#define MDABT_LABEL_ONE(N) &&Op##N,
#define MDABT_LABEL_OPERATE(N) &&Op##N##R, &&Op##N##L,
      MDABT_HOST_EXEC_OPS(MDABT_LABEL_ONE, MDABT_LABEL_OPERATE)
#undef MDABT_LABEL_ONE
#undef MDABT_LABEL_OPERATE
  };
  static_assert(sizeof(Handlers) / sizeof(Handlers[0]) == NumExecOps,
                "one handler per ExecOp");

  constexpr uint32_t NoStop = ~0u;
  constexpr uint64_t NoLine = ~0ULL;
  const uint64_t CodeBase = Code.byteAddr(0);
  const unsigned LineShift =
      std::countr_zero(Hier.L1I.geometry().LineBytes);
  const uint64_t InstLimit = Instructions + MaxInstsPerRun < Instructions
                                 ? ~0ULL
                                 : Instructions + MaxInstsPerRun;
  StopArmed = false; // a stop armed last episode must not fire now

  // The loop's state.  Cycles is carried as its excess over
  // Instructions, so the common instruction only bumps Insts.  Every
  // instruction fetch is either a Hier.fetch call (counted into
  // Credited) or a skipped one: while Pc stays in FetchLine, the L1I
  // line of the previous fetch, the fetch is a filter hit, which only
  // the host machine can cause and which changes nothing but L1I's hit
  // count.  Insts - Credited skipped hits are owed to L1I.
  uint32_t Pc = EntryWord;
  uint64_t Insts = 0, Credited = 0, CycExcess = 0, NLoads = 0, NStores = 0;
  const ExecEntry *View = nullptr;
  [[maybe_unused]] uint32_t ViewSize = 0;
  uint32_t StopW = NoStop;
  uint64_t FetchLine = NoLine;
  ExecEntry E;
  // Operands of the slow paths the handlers jump to.
  uint64_t TrapAddr = 0;
  uint32_t StoreAddr = 0;
  unsigned StoreSize = 0;
  uint64_t StoreValue = 0;

  // Write the counters back before a callout or an exit.
  auto Flush = [&] {
    Hier.L1I.creditFilterHits(Insts - Credited);
    Credited = Insts;
    Instructions = Insts;
    Cycles = CycExcess + Insts;
    Loads = NLoads;
    Stores = NStores;
    CurWord = Pc;
  };
  // Re-read everything a callout may have changed.
  auto Reload = [&] {
    Insts = Credited = Instructions;
    CycExcess = Cycles - Instructions;
    NLoads = Loads;
    NStores = Stores;
    View = Code.execView();
    ViewSize = Code.size();
    StopW = StopArmed ? StopWord : NoStop;
    FetchLine = NoLine;
    R[RegZero] = 0;
  };
  Reload();

  // Start the word at Pc: the episode stop and the runaway guard come
  // before it counts, then its fetch, then its handler.
#define MDABT_DISPATCH()                                                       \
  do {                                                                         \
    if (Pc == StopW)                                                           \
      goto Stop;                                                               \
    if (Insts >= InstLimit)                                                    \
      goto Limit;                                                              \
    ++Insts;                                                                   \
    if (((CodeBase + static_cast<uint64_t>(Pc) * 4) >> LineShift) !=          \
        FetchLine)                                                             \
      goto Fetch;                                                              \
    assert(Pc < ViewSize && "code fetch out of range");                        \
    E = View[Pc];                                                              \
    goto *Handlers[static_cast<unsigned>(E.Op)];                               \
  } while (false)

  MDABT_DISPATCH();

Fetch:
  FetchLine = (CodeBase + static_cast<uint64_t>(Pc) * 4) >> LineShift;
  ++Credited;
  CycExcess += Hier.fetch(Code.byteAddr(Pc));
  assert(Pc < ViewSize && "code fetch out of range");
  E = View[Pc];
  goto *Handlers[static_cast<unsigned>(E.Op)];

Stop:
  // Episode stop (stopAt): return before executing the stop word.
  StopArmed = false;
  Flush();
  return {ExitInfo::Stop, StopResumePc, Pc};

Limit:
  Flush();
  return {ExitInfo::Limit, 0};

Trap:
  Flush();
  switch (trap(Pc, TrapAddr)) {
  case TrapResult::Retry:
    break;
  case TrapResult::Next:
    ++Pc;
    break;
  case TrapResult::Halt:
    return {ExitInfo::Halt, 0};
  }
  Reload();
  MDABT_DISPATCH();

WatchedStore:
  Flush();
  Mem.store(StoreAddr, StoreSize, StoreValue);
  Reload();
  ++Pc;
  MDABT_DISPATCH();

OpInvalid:
  assert(false && "executing an undecodable host word");
  Flush();
  return {ExitInfo::Halt, 0, Pc};

OpLda:
  R[E.Dst] = R[E.SrcB] + static_cast<int64_t>(E.Imm);
  ++Pc;
  MDABT_DISPATCH();

  // A naturally aligned load of SIZE bytes; misalignment traps.
#define MDABT_LOAD(N, SIZE)                                                    \
  Op##N : {                                                                    \
    const uint64_t Addr = R[E.SrcB] + static_cast<int64_t>(E.Imm);            \
    if ((Addr & ((SIZE) - 1)) != 0) {                                          \
      TrapAddr = Addr;                                                         \
      goto Trap;                                                               \
    }                                                                          \
    assert(Mem.inRange(static_cast<uint32_t>(Addr), (SIZE)) &&                 \
           "host load out of guest memory");                                   \
    ++NLoads;                                                                  \
    CycExcess += Hier.data(Addr);                                              \
    R[E.Dst] = Mem.load(static_cast<uint32_t>(Addr), (SIZE));                  \
    ++Pc;                                                                      \
    MDABT_DISPATCH();                                                          \
  }

  MDABT_LOAD(Ldbu, 1)
  MDABT_LOAD(Ldwu, 2)
  MDABT_LOAD(Ldl, 4)
  MDABT_LOAD(Ldq, 8)
#undef MDABT_LOAD

OpLdqU : {
  const uint64_t Addr = (R[E.SrcB] + static_cast<int64_t>(E.Imm)) & ~7ULL;
  assert(Mem.inRange(static_cast<uint32_t>(Addr), 8) &&
         "ldq_u out of guest memory");
  ++NLoads;
  CycExcess += Hier.data(Addr);
  R[E.Dst] = Mem.load(static_cast<uint32_t>(Addr), 8);
  ++Pc;
  MDABT_DISPATCH();
}

  // A store of SIZE bytes at ADDR (a uint64_t); a store the write
  // watcher will see leaves through WatchedStore.
#define MDABT_STORE_AT(ADDR, SIZE)                                             \
  do {                                                                         \
    const uint32_t At = static_cast<uint32_t>(ADDR);                           \
    assert(Mem.inRange(At, (SIZE)) && "host store out of guest memory");       \
    ++NStores;                                                                 \
    CycExcess += Hier.data((ADDR));                                            \
    if (Mem.storeWatched(At, (SIZE))) {                                        \
      StoreAddr = At;                                                          \
      StoreSize = (SIZE);                                                      \
      StoreValue = R[E.SrcA];                                                  \
      goto WatchedStore;                                                       \
    }                                                                          \
    Mem.store(At, (SIZE), R[E.SrcA]);                                          \
    ++Pc;                                                                      \
    MDABT_DISPATCH();                                                          \
  } while (false)

  // A naturally aligned store of SIZE bytes; misalignment traps.
#define MDABT_STORE(N, SIZE)                                                   \
  Op##N : {                                                                    \
    const uint64_t Addr = R[E.SrcB] + static_cast<int64_t>(E.Imm);            \
    if ((Addr & ((SIZE) - 1)) != 0) {                                          \
      TrapAddr = Addr;                                                         \
      goto Trap;                                                               \
    }                                                                          \
    MDABT_STORE_AT(Addr, SIZE);                                                \
  }

  MDABT_STORE(Stb, 1)
  MDABT_STORE(Stw, 2)
  MDABT_STORE(Stl, 4)
  MDABT_STORE(Stq, 8)
#undef MDABT_STORE

OpStqU : {
  const uint64_t Addr = (R[E.SrcB] + static_cast<int64_t>(E.Imm)) & ~7ULL;
  MDABT_STORE_AT(Addr, 8);
}
#undef MDABT_STORE_AT

  // Both forms of an operate opcode computing EXPR from A and B.
#define MDABT_OPERATE(N, EXPR)                                                 \
  Op##N##R : {                                                                 \
    [[maybe_unused]] const uint64_t A = R[E.SrcA];                             \
    [[maybe_unused]] const uint64_t B = R[E.SrcB];                             \
    R[E.Dst] = (EXPR);                                                         \
    ++Pc;                                                                      \
    MDABT_DISPATCH();                                                          \
  }                                                                            \
  Op##N##L : {                                                                 \
    [[maybe_unused]] const uint64_t A = R[E.SrcA];                             \
    [[maybe_unused]] const uint64_t B = static_cast<uint32_t>(E.Imm);          \
    R[E.Dst] = (EXPR);                                                         \
    ++Pc;                                                                      \
    MDABT_DISPATCH();                                                          \
  }

  MDABT_OPERATE(Addq, A + B)
  MDABT_OPERATE(Subq, A - B)
  MDABT_OPERATE(Addl, zext32(A + B))
  MDABT_OPERATE(Subl, zext32(A - B))
  MDABT_OPERATE(Mull, zext32(A * B))
  MDABT_OPERATE(Mulq, A * B)
  MDABT_OPERATE(And, A & B)
  MDABT_OPERATE(Bis, A | B)
  MDABT_OPERATE(Xor, A ^ B)
  MDABT_OPERATE(Sll, A << (B & 63))
  MDABT_OPERATE(Srl, A >> (B & 63))
  MDABT_OPERATE(Sra,
                static_cast<uint64_t>(static_cast<int64_t>(A) >> (B & 63)))
  MDABT_OPERATE(Cmpeq, A == B)
  MDABT_OPERATE(Cmpult, A < B)
  MDABT_OPERATE(Cmpule, A <= B)
  MDABT_OPERATE(Cmplt, static_cast<int64_t>(A) < static_cast<int64_t>(B))
  MDABT_OPERATE(Cmple, static_cast<int64_t>(A) <= static_cast<int64_t>(B))
  MDABT_OPERATE(Cmplt32, static_cast<int32_t>(A) < static_cast<int32_t>(B))
  MDABT_OPERATE(Cmple32, static_cast<int32_t>(A) <= static_cast<int32_t>(B))
  MDABT_OPERATE(Sextl, sext32(B))
  MDABT_OPERATE(Zextl, zext32(B))
  MDABT_OPERATE(Extwl, extLow<Word16>(A, B))
  MDABT_OPERATE(Extwh, extHigh<Word16>(A, B))
  MDABT_OPERATE(Extll, extLow<Word32>(A, B))
  MDABT_OPERATE(Extlh, extHigh<Word32>(A, B))
  MDABT_OPERATE(Extql, extLow<Word64>(A, B))
  MDABT_OPERATE(Extqh, extHigh<Word64>(A, B))
  MDABT_OPERATE(Inswl, insLow<Word16>(A, B))
  MDABT_OPERATE(Inswh, insHigh<Word16>(A, B))
  MDABT_OPERATE(Insll, insLow<Word32>(A, B))
  MDABT_OPERATE(Inslh, insHigh<Word32>(A, B))
  MDABT_OPERATE(Insql, insLow<Word64>(A, B))
  MDABT_OPERATE(Insqh, insHigh<Word64>(A, B))
  MDABT_OPERATE(Mskwl, mskLow<Word16>(A, B))
  MDABT_OPERATE(Mskwh, mskHigh<Word16>(A, B))
  MDABT_OPERATE(Mskll, mskLow<Word32>(A, B))
  MDABT_OPERATE(Msklh, mskHigh<Word32>(A, B))
  MDABT_OPERATE(Mskql, mskLow<Word64>(A, B))
  MDABT_OPERATE(Mskqh, mskHigh<Word64>(A, B))
#undef MDABT_OPERATE

  // A branch to disp words past the next one when COND holds of ra.
#define MDABT_BRANCH(N, COND)                                                  \
  Op##N : {                                                                    \
    [[maybe_unused]] const int64_t A = static_cast<int64_t>(R[E.SrcA]);        \
    Pc += 1 + ((COND) ? static_cast<uint32_t>(E.Imm) : 0);                     \
    MDABT_DISPATCH();                                                          \
  }

  MDABT_BRANCH(Br, true)
  MDABT_BRANCH(Beq, A == 0)
  MDABT_BRANCH(Bne, A != 0)
  MDABT_BRANCH(Blt, A < 0)
  MDABT_BRANCH(Bge, A >= 0)
#undef MDABT_BRANCH
#undef MDABT_DISPATCH

OpSrvExit:
  Flush();
  return {ExitInfo::Exit, static_cast<uint32_t>(R[RegExitPc]), Pc};

OpSrvHalt:
  Flush();
  return {ExitInfo::Halt, 0, Pc};
}
