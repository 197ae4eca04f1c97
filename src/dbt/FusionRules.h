//===- dbt/FusionRules.h - Table-driven guest-idiom fusion -----*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A peephole fusion layer for the translator: a fixed table of rules,
/// each expressed as *data* — a pattern template (acceptable opcodes per
/// window slot), an operand-constraint predicate, an emitter tag (the
/// rule id; the translator owns the actual emission) and a cost delta —
/// that rewrites short windows of decoded GX86 instructions into fused
/// HAlpha sequences with fewer host words than the one-at-a-time
/// lowering.  The direct rule-table approach follows the
/// no-intermediate-representation argument of arXiv 2501.03427 and the
/// rules-as-data representation of arXiv 2402.09688.
///
/// Safety contract (enforced by FusionMatcher, verified by the fusion
/// ablation bench and the property tests):
///  - fused sequences are architecturally identical to the unfused
///    lowering, including 32-bit wrap and zero-extension invariants;
///  - a rule covering memory operations only fires when every covered
///    site's MemPlan is Normal or Elide, so inline MDA sequences,
///    multi-version code and retranslated (Fig. 7) sites are never
///    disturbed, and each fused site still registers its own
///    MemWordToGuestPc / StoreResume metadata;
///  - fused address sharing only uses RegScratch0, which no guest
///    instruction outlives, and excludes guest ops whose lowering
///    clobbers it (Sar/SarI).
///
/// The table carries a version number: TranslationService content keys
/// include it (plus the enabled-rule mask) so a rule change can never
/// alias a differently-fused cached translation.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_DBT_FUSIONRULES_H
#define MDABT_DBT_FUSIONRULES_H

#include "dbt/GuestBlock.h"
#include "dbt/Translation.h"

#include <cstddef>
#include <cstdint>
#include <functional>

namespace mdabt {
namespace dbt {

/// Version of the rule table below.  Bump on any change to a pattern,
/// constraint or emitted sequence; it is hashed into the shared-cache
/// content key next to the enabled-rule mask.
inline constexpr uint8_t FusionRuleTableVersion = 1;

/// The fusion rules, in match-priority order (lower id wins when two
/// rules match at the same window start).
enum class FusionRuleId : uint8_t {
  /// `MovRR d,s ; alu d,r2` -> one host op `d = s <op> r2`.
  MovOp = 0,
  /// `MovRR d,s ; aluI d,imm8` -> one host literal op `d = s <op> imm`.
  MovOpI = 1,
  /// `CmpI r,0 ; Jcc Eq/Ne` -> branch directly on r (drops the compare).
  CmpBr0 = 2,
  /// `AddI/SubI r,-imm8` -> the opposite literal op (drops the 3-word
  /// immediate materialization).
  ImmNeg = 3,
  /// `Ld r,[A] ; alu r ; St r,[A]` with one shared address computation.
  LdOpSt = 4,
  /// A run of memory ops sharing (base, index, scale): one shared
  /// base+index*scale computation, per-op displacements.
  SharedAddr = 5,
};

inline constexpr unsigned NumFusionRules = 6;

/// All-rules-enabled mask (bit i enables rule id i).
inline constexpr uint32_t FusionMaskAll = (1u << NumFusionRules) - 1;

inline constexpr uint32_t fusionRuleBit(FusionRuleId Id) {
  return 1u << static_cast<unsigned>(Id);
}

/// Printable rule name (bench table rows, trace rendering).
const char *fusionRuleName(FusionRuleId Id);

/// One slot of a rule's pattern template: the guest opcodes it accepts.
struct FusionSlot {
  uint8_t NumOps = 0;
  guest::Opcode Ops[16] = {};
};

/// True if \p Op is one of the slot's acceptable opcodes.
bool slotAccepts(const FusionSlot &S, guest::Opcode Op);

/// One fusion rule, expressed as data.  The emitter lives in the
/// translator (it needs assembler and translation-metadata state) and is
/// selected by Id; everything that decides *whether* a window fuses is
/// here, unit-testable without a translator.
struct FusionRule {
  FusionRuleId Id;
  const char *Name;
  /// Fixed window length in guest instructions (minimum length for a
  /// repeating rule).
  uint8_t Len;
  /// Repeating rule: Slots[0] matches every member and the window grows
  /// greedily up to MaxLen while the constraint keeps holding.
  bool Repeating;
  uint8_t MaxLen;
  /// Pattern template, Slots[0..Len) (Slots[0] only when repeating).
  FusionSlot Slots[3];
  /// Operand constraints over an opcode-matched window W[0..N): register
  /// identities, immediate ranges, addressing-mode compatibility.  Pure.
  bool (*Constraint)(const guest::GuestInst *W, size_t N);
  /// Estimated host words saved by one minimal-length fusion (the cost
  /// delta driving the bench's saved-words accounting; repeating and
  /// addressing-dependent rules refine it per match).
  uint8_t CostDelta;
};

/// The rule table (NumFusionRules entries, indexed by rule id).
const FusionRule *fusionRuleTable();

/// A successful match at one window start.
struct FusionMatch {
  FusionRuleId Rule = FusionRuleId::MovOp;
  /// Guest instructions consumed by the fused sequence.
  size_t Length = 0;
  /// Estimated host words saved vs the unfused lowering.
  uint32_t SavedWords = 0;
};

/// Matches the enabled rules against instruction windows of a block.
/// Plans for candidate memory sites come from a callback so the caller
/// (the body emitter) keeps sole ownership of policy consultation and
/// PlanByPc recording; rules covering memory ops only fire when every
/// covered site's plan is Normal or Elide.
class FusionMatcher {
public:
  explicit FusionMatcher(uint32_t Mask) : Mask(Mask & FusionMaskAll) {}

  bool enabled() const { return Mask != 0; }
  uint32_t mask() const { return Mask; }

  /// Try to fuse at Block.Insts[Idx], constrained to [Idx, To).
  /// \p PlanAt returns the plan the emitter will use for the memory
  /// instruction at an index.  Returns the highest-priority match.
  bool match(const GuestBlock &Block, size_t Idx, size_t To,
             const std::function<MemPlan(size_t)> &PlanAt,
             FusionMatch &Out) const;

private:
  uint32_t Mask;
};

} // namespace dbt
} // namespace mdabt

#endif // MDABT_DBT_FUSIONRULES_H
