//===- host/CodeSpace.h - Host code memory (the code cache arena) -*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The backing store for translated host code: a growable arena of 32-bit
/// instruction words with a virtual byte base address (used by the I-cache
/// model, so that the *placement* of translated code and out-of-line MDA
/// stubs has the spatial-locality consequences the paper's code
/// rearrangement targets).  Patching an individual word is how the
/// misalignment exception handler redirects a faulting memory operation
/// to its MDA code sequence (paper Fig. 5), and how block chaining links
/// translated blocks.
///
/// Beside the words sits one *execution view*: each word lowered, when it
/// enters the arena, to the form the host machine's direct-threaded loop
/// dispatches on (ExecEntry: a handler index with the operate-literal
/// form folded in, a destination register, two source registers and an
/// immediate).  The host machine executes the same word billions of
/// times, so resolving it once at install instead of once per simulated
/// cycle is the dominant host-simulator optimization.  The invariant is
/// `View[i] == lowerHostWord(Words[i])` at all times: every mutation path
/// (append, patch — including hook-torn writes — truncate and clear)
/// re-derives the entry from the word actually stored, so stub patching,
/// chaining, unchaining, adaptive reverts and cache flushes can never
/// leave a stale instruction behind.  The view is not a decoder: anything
/// that needs the instruction itself (the fault handler, the verifier,
/// disassembly) decodes the raw word.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_HOST_CODESPACE_H
#define MDABT_HOST_CODESPACE_H

#include "host/HostEncoding.h"

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

namespace mdabt {
namespace host {

/// The operate-format opcodes, each of which lowers to two handlers (a
/// register and a literal form).
#define MDABT_HOST_OPERATE_OPS(X)                                              \
  X(Addq) X(Subq) X(Addl) X(Subl) X(Mull) X(Mulq) X(And) X(Bis) X(Xor)         \
  X(Sll) X(Srl) X(Sra) X(Cmpeq) X(Cmpult) X(Cmpule) X(Cmplt) X(Cmple)          \
  X(Cmplt32) X(Cmple32) X(Sextl) X(Zextl) X(Extwl) X(Extwh) X(Extll)           \
  X(Extlh) X(Extql) X(Extqh) X(Inswl) X(Inswh) X(Insll) X(Inslh) X(Insql)      \
  X(Insqh) X(Mskwl) X(Mskwh) X(Mskll) X(Msklh) X(Mskql) X(Mskqh)

/// Every execution handler, in ExecOp order: \p X names a single
/// handler, \p XOP an operate opcode (handlers <op>R and <op>L).  ldah
/// has no handler of its own: it lowers to lda with a pre-shifted
/// immediate.  Invalid is an undecodable word or an unknown service
/// function, which must never execute.
#define MDABT_HOST_EXEC_OPS(X, XOP)                                            \
  X(Invalid) X(Lda) X(Ldbu) X(Ldwu) X(Ldl) X(Ldq) X(LdqU) X(Stb) X(Stw)        \
  X(Stl) X(Stq) X(StqU) MDABT_HOST_OPERATE_OPS(XOP) X(Br) X(Beq) X(Bne)        \
  X(Blt) X(Bge) X(SrvExit) X(SrvHalt)

/// Handler index of an execution-view entry.
enum class ExecOp : uint8_t {
#define MDABT_EXEC_ONE(N) N,
#define MDABT_EXEC_OPERATE(N) N##R, N##L,
  MDABT_HOST_EXEC_OPS(MDABT_EXEC_ONE, MDABT_EXEC_OPERATE)
#undef MDABT_EXEC_ONE
#undef MDABT_EXEC_OPERATE
};

/// Number of ExecOp handlers.
inline constexpr unsigned NumExecOps =
    static_cast<unsigned>(ExecOp::SrvHalt) + 1;

/// Register index of the write-only sink: a lowered write to R31 lands
/// here, so handlers never test for the zero register (HostMachine::R
/// has NumRegs + 1 entries).
inline constexpr uint8_t RegSink = NumRegs;

/// One arena word lowered for execution.  Which fields a handler reads
/// depends on its format:
///   memory  : Dst = ra (loads, lda), SrcA = ra (stores), SrcB = rb,
///             Imm = disp (ldah: disp << 16);
///   operate : Dst = rc, SrcA = ra, SrcB = rb (register form) or
///             Imm = lit (literal form);
///   branch  : SrcA = ra, Imm = disp in words.
/// Unused fields are zero, so equal words lower to equal entries.
struct ExecEntry {
  ExecOp Op = ExecOp::Invalid;
  uint8_t Dst = 0;  ///< 0..31, or RegSink for a write to R31
  uint8_t SrcA = 0; ///< 0..31; R31 reads the machine's zeroed R[31]
  uint8_t SrcB = 0;
  int32_t Imm = 0;

  bool operator==(const ExecEntry &) const = default;
};
static_assert(sizeof(ExecEntry) == 8, "one execution entry per 8 bytes");

namespace detail {

/// How one opcode lowers: which fields of its format (HostEncoding.h)
/// feed which ExecEntry field, as shifts and masks over the raw word.
/// A table indexed by the opcode field rather than a decode and a
/// switch per format, because the verifier lowers every arena word on
/// every sweep, and neighbouring words' formats follow no pattern a
/// branch predictor could learn.  Unassigned opcodes keep the default:
/// ExecOp::Invalid with every field zero.
struct LowerRule {
  ExecOp Op = ExecOp::Invalid; ///< for an operate, its register form
  uint8_t DstShift = 0;        ///< 21 for ra, 0 for rc
  uint8_t DstMask = 0;         ///< 31 if the instruction writes a register
  uint8_t SrcAMask = 0;        ///< 31 if it reads ra
  uint8_t SrcBMask = 0;        ///< 31 if it reads rb (not in literal form)
  uint8_t Disp16Shift = 0;     ///< 16 for ldah
  bool Srv = false;            ///< the handler depends on the function
  uint32_t LitBit = 0;         ///< bit 12 for operates: the literal form
  int32_t Disp16Mask = 0;      ///< -1 for the memory format
  int32_t Disp21Mask = 0;      ///< -1 for branches
};

constexpr std::array<LowerRule, 64> makeLowerRules() {
  std::array<LowerRule, 64> T{};
  auto Set = [&T](HostOp Op, ExecOp E, LowerRule R) {
    R.Op = E;
    T[static_cast<uint8_t>(Op)] = R;
  };
  LowerRule Load, Ldah, Store, Operate, Branch, Srv;
  Load.DstShift = 21;
  Load.DstMask = Load.SrcBMask = 31;
  Load.Disp16Mask = -1;
  Ldah = Load;
  Ldah.Disp16Shift = 16;
  Store.SrcAMask = Store.SrcBMask = 31;
  Store.Disp16Mask = -1;
  Operate.DstMask = Operate.SrcAMask = Operate.SrcBMask = 31;
  Operate.LitBit = 1u << 12;
  Branch.SrcAMask = 31;
  Branch.Disp21Mask = -1;
  Srv.Srv = true;
  Set(HostOp::Lda, ExecOp::Lda, Load);
  Set(HostOp::Ldah, ExecOp::Lda, Ldah);
  Set(HostOp::Ldbu, ExecOp::Ldbu, Load);
  Set(HostOp::Ldwu, ExecOp::Ldwu, Load);
  Set(HostOp::Ldl, ExecOp::Ldl, Load);
  Set(HostOp::Ldq, ExecOp::Ldq, Load);
  Set(HostOp::LdqU, ExecOp::LdqU, Load);
  Set(HostOp::Stb, ExecOp::Stb, Store);
  Set(HostOp::Stw, ExecOp::Stw, Store);
  Set(HostOp::Stl, ExecOp::Stl, Store);
  Set(HostOp::Stq, ExecOp::Stq, Store);
  Set(HostOp::StqU, ExecOp::StqU, Store);
#define MDABT_LOWER_OPERATE(N) Set(HostOp::N, ExecOp::N##R, Operate);
  MDABT_HOST_OPERATE_OPS(MDABT_LOWER_OPERATE)
#undef MDABT_LOWER_OPERATE
  Set(HostOp::Br, ExecOp::Br, Branch);
  Set(HostOp::Beq, ExecOp::Beq, Branch);
  Set(HostOp::Bne, ExecOp::Bne, Branch);
  Set(HostOp::Blt, ExecOp::Blt, Branch);
  Set(HostOp::Bge, ExecOp::Bge, Branch);
  Set(HostOp::Srv, ExecOp::Invalid, Srv);
  return T;
}

inline constexpr std::array<LowerRule, 64> LowerRules = makeLowerRules();

static_assert(RegSink == RegZero + 1, "a write to R31 lowers to R31 + 1");

} // namespace detail

/// Lower one instruction word (see ExecEntry), reading its fields
/// exactly as decodeHost does; an undecodable word or an unknown
/// service function lowers to ExecOp::Invalid.
inline ExecEntry lowerHostWord(uint32_t Word) {
  const detail::LowerRule &R = detail::LowerRules[Word >> 26];
  ExecEntry E;
  if (R.Srv) {
    uint32_t Func = Word & 0xffff;
    if (Func == static_cast<uint32_t>(SrvFunc::Exit))
      E.Op = ExecOp::SrvExit;
    else if (Func == static_cast<uint32_t>(SrvFunc::Halt))
      E.Op = ExecOp::SrvHalt;
    return E;
  }
  // Lit is 1 in an operate's literal form: its handler follows the
  // register form's, it has no rb, and its immediate is the literal.
  const uint32_t Lit = (Word & R.LitBit) >> 12;
  E.Op = static_cast<ExecOp>(static_cast<uint32_t>(R.Op) + Lit);
  const uint8_t Dst = Word >> R.DstShift & R.DstMask;
  E.Dst = Dst + (Dst == RegZero ? 1 : 0);
  E.SrcA = Word >> 21 & R.SrcAMask;
  E.SrcB = Word >> 16 & R.SrcBMask & (Lit - 1);
  const int32_t Disp16 = static_cast<int16_t>(Word & 0xffff);
  const int32_t Disp21 = static_cast<int32_t>(Word << 11) >> 11;
  const int32_t Lit8 = static_cast<int32_t>(Word >> 13 & 0xff);
  E.Imm = (static_cast<int32_t>(static_cast<uint32_t>(Disp16)
                                << R.Disp16Shift) &
           R.Disp16Mask) |
          (Disp21 & R.Disp21Mask) | (Lit8 & -static_cast<int32_t>(Lit));
  return E;
}

/// A growable arena of host instruction words.
class CodeSpace {
public:
  /// \p BaseAddr is the virtual byte address of word 0 (only the I-cache
  /// model consumes it).
  explicit CodeSpace(uint64_t BaseAddr = 0x40000000)
      : Base(BaseAddr) {}

  /// Append one word; returns its word index.
  uint32_t append(uint32_t Word) {
    Words.push_back(Word);
    View.push_back(lowerHostWord(Word));
    return static_cast<uint32_t>(Words.size() - 1);
  }

  uint32_t size() const { return static_cast<uint32_t>(Words.size()); }

  uint32_t word(uint32_t Index) const {
    assert(Index < Words.size() && "code fetch out of range");
    return Words[Index];
  }

  /// Interception hook for patch(): fault injection uses it to model
  /// dropped or torn code-cache writes.  Returning false drops the
  /// write; the hook may rewrite \p Word (a torn write).  Reads are
  /// never intercepted, so callers can verify a patch by reading it
  /// back (which the hardened engine does for every critical patch).
  using PatchHook = std::function<bool(uint32_t Index, uint32_t &Word)>;
  void setPatchHook(PatchHook H) { Hook = std::move(H); }

  /// Overwrite an existing word (exception-handler patching, chaining).
  /// The execution entry is re-derived from the word actually stored —
  /// which the hook may have rewritten (torn write) — never from the
  /// requested one.
  void patch(uint32_t Index, uint32_t Word) {
    assert(Index < Words.size() && "code patch out of range");
    if (Hook && !Hook(Index, Word))
      return;
    Words[Index] = Word;
    View[Index] = lowerHostWord(Word);
  }

  /// Execution entry of word \p Index (see the invariant above).
  const ExecEntry &exec(uint32_t Index) const {
    assert(Index < View.size() && "execution view fetch out of range");
    return View[Index];
  }

  /// The whole execution view (size() entries).  The pointer is
  /// invalidated by append() (vector growth): the host machine, whose
  /// fault handler and write watcher may emit code, reloads it after
  /// every callout.
  const ExecEntry *execView() const { return View.data(); }

  /// Virtual byte address of word \p Index.
  uint64_t byteAddr(uint32_t Index) const {
    return Base + static_cast<uint64_t>(Index) * 4;
  }

  /// Discard all code (a full code-cache flush, Dynamo-style).  Callers
  /// must ensure no translated code is executing.
  void clear() {
    Words.clear();
    View.clear();
  }

  /// Drop every word from \p Size on: an emission abandoned before
  /// anything refers to its words.
  void truncate(uint32_t Size) {
    assert(Size <= Words.size() && "truncate past the arena tail");
    Words.resize(Size);
    View.resize(Size);
  }

  const uint32_t *data() const { return Words.data(); }

private:
  uint64_t Base;
  std::vector<uint32_t> Words;
  /// The execution view of Words (same size, same indices).
  std::vector<ExecEntry> View;
  PatchHook Hook;
};

} // namespace host
} // namespace mdabt

#endif // MDABT_HOST_CODESPACE_H
