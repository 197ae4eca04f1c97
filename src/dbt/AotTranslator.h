//===- dbt/AotTranslator.h - Static AOT pre-translation --------*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ahead-of-time pre-translator behind `EngineConfig::Aot`
/// (DESIGN.md section 16): before the first guest instruction runs, it
/// statically translates every block the CFG-recovery pass
/// (`analysis/CfgRecovery.h`) proved reachable, using the same plan
/// chain, translation options and fusion rules the demand path would
/// use — so each pre-translated record is byte-for-byte what a demand
/// translation of the same bytes would emit, under the same
/// `translationContentKey`.  When a `TranslationService` is attached,
/// records are acquired from / published into the shared cache under
/// that key, so disk persistence and multi-tenant warm start work
/// unchanged.
///
/// The pre-translator produces pending *units*, not installed code: the
/// owning ExecutionContext instantiates a unit into its private arena
/// either eagerly at load (`AotMode::Full`) or at first dispatch
/// (`AotMode::Hybrid`), and keeps the record so a capacity flush can
/// re-install without re-translating.  Code the recovery pass could not
/// prove — everything behind an indirect-jump frontier — falls back to
/// the existing two-phase DBT.
///
/// Staleness is tracked pessimistically: a guest store overlapping a
/// pending unit's compiled bytes, a plan revision (supersede, ladder,
/// verdict revocation), or an alignment re-analysis marks units stale,
/// and a stale unit is never installed — the dynamic path re-discovers
/// and re-translates from current bytes and current plans.  Until it
/// goes stale, a unit holds write-barrier watches on its source bytes,
/// so a store into them reaches the engine before or after installation.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_DBT_AOTTRANSLATOR_H
#define MDABT_DBT_AOTTRANSLATOR_H

#include "analysis/CfgRecovery.h"
#include "dbt/TranslationService.h"
#include "dbt/Translator.h"
#include "guest/GuestMemory.h"
#include "host/CodeSpace.h"
#include "host/CostModel.h"

#include <cstdint>
#include <map>
#include <vector>

namespace mdabt {
namespace dbt {

/// Statically pre-translates the proven-reachable blocks of one guest
/// image for one run.  Pure over its inputs plus the optional shared
/// cache; owns a scratch code space so pre-translation never touches
/// the run's arena.
class AotTranslator {
public:
  /// One pre-translated block, pending installation.
  struct Unit {
    uint32_t GuestPc = 0;
    CacheKey Key;
    /// The translation record, shared with the cache entry when
    /// serving-attached; kept after installation so a capacity flush can
    /// re-install without re-translating.
    std::shared_ptr<const TranslationRecord> Record;
    bool FromCache = false;
    /// Bytes overwritten or plans revised: never install.
    bool Stale = false;
  };

  struct Stats {
    uint64_t RecoveredBlocks = 0; ///< statically proven blocks
    uint64_t FrontierSites = 0;   ///< Unknown-frontier records
    uint64_t Translated = 0;      ///< locally translated at startup
    uint64_t FromCache = 0;       ///< acquired from the shared cache
    uint64_t GuestInsts = 0;      ///< across all pre-translated units
    uint64_t StaleDropped = 0;    ///< units retired before/after install
    /// Modeled translate cycles of the startup phase (locally
    /// translated units only; cache acquisitions cost install cycles at
    /// installation time, exactly like the demand serving path).
    uint64_t StartupTranslateCycles = 0;
  };

  /// \p Mem and \p Cfg must outlive this object (the ExecutionContext
  /// owns all three); \p Mem must have a write watcher installed.
  AotTranslator(guest::GuestMemory &Mem,
                const analysis::CfgResult &Cfg, Translator::PlanFn Plan,
                TranslationOpts Opts, TranslationService *Service,
                const host::CostModel &Cost);

  /// Statically translate every proven-reachable block, in PC order
  /// (deterministic regardless of discovery order or job count).
  void pretranslateAll();

  Unit *find(uint32_t Pc);
  const std::map<uint32_t, Unit> &units() const { return Units; }

  /// A guest store hit [Addr, Addr+Size): mark every overlapping
  /// non-stale unit stale.
  void noteGuestStore(uint32_t Addr, uint32_t Size);

  /// A plan revision retired the translation at \p Pc (supersede,
  /// degradation ladder, verdict revocation): stale its unit so the
  /// old plan can never be re-installed.
  void drop(uint32_t Pc);

  /// Alignment re-analysis invalidated every statically computed plan:
  /// stale all pending units.
  void dropAll();

  const Stats &stats() const { return S; }

private:
  /// Mark \p U stale: release its watches.
  void stale(Unit &U);

  guest::GuestMemory &Mem;
  const analysis::CfgResult &Cfg;
  Translator::PlanFn Plan;
  TranslationOpts Opts;
  TranslationService *Service;
  const host::CostModel &Cost;
  /// Private emission arena: records carry their own copy of the words,
  /// so it never aliases the run's code space.
  host::CodeSpace Scratch;
  Translator Trans;
  std::map<uint32_t, Unit> Units;
  Stats S;
};

} // namespace dbt
} // namespace mdabt

#endif // MDABT_DBT_AOTTRANSLATOR_H
