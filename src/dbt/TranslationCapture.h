//===- dbt/TranslationCapture.h - Content keys + publish -------*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared half of the translation pipeline, used by every producer
/// of translations — the per-run install path (`ExecutionContext.cpp`)
/// and the static AOT pre-translator (`AotTranslator`):
///
///  * `translationContentKey` serializes everything that determines the
///    translator's emission for one (multi-)block — format version,
///    trace-ness, block-level options including the fusion mask, each
///    constituent's raw guest bytes, and the MemPlan the plan chain
///    returns for every planned site — and hashes it into the 128-bit
///    cache key;
///  * `acquireOrPublish` is the one lookup sequence: take the record
///    under a key, or translate and publish the translator's own
///    TranslationRecord.
///
/// Both producers publish the record the translator built, so an
/// AOT-published entry is byte-for-byte the entry a demand translation
/// of the same bytes under the same plans would publish: warm start,
/// disk persistence and multi-tenant sharing work unchanged whichever
/// side produced it.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_DBT_TRANSLATIONCAPTURE_H
#define MDABT_DBT_TRANSLATIONCAPTURE_H

#include "dbt/GuestBlock.h"
#include "dbt/TranslationService.h"
#include "dbt/Translator.h"
#include "guest/GuestMemory.h"

#include <cstddef>
#include <functional>

namespace mdabt {
namespace dbt {

/// Content key of the translation of the \p NBlocks blocks at \p Blocks
/// (one for a plain block, more for a superblock trace) under \p Plan
/// and \p Opts.  Two callers arriving at the same key are guaranteed the
/// same emitted host words.
CacheKey translationContentKey(const guest::GuestMemory &Mem,
                               const GuestBlock *Blocks, size_t NBlocks,
                               const Translator::PlanFn &Plan,
                               const TranslationOpts &Opts, bool IsTrace);

/// The record acquireOrPublish served, and whether it was a cache hit.
struct Served {
  TranslationService::Record Rec;
  bool Hit = false;
};

/// The record under \p Key in \p Service, as a hit.  On a miss, call
/// \p Translate (which emits the translation and returns it), publish
/// its record under \p Key and return the resident record (the first
/// writer's, on a race) as a miss.
Served acquireOrPublish(TranslationService &Service, const CacheKey &Key,
                        const std::function<const Translation &()> &Translate);

} // namespace dbt
} // namespace mdabt

#endif // MDABT_DBT_TRANSLATIONCAPTURE_H
