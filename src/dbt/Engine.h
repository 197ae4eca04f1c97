//===- dbt/Engine.h - The CrossBridge execution engine ---------*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two-phase DBT engine (modeled on DigitalBridge, paper Fig. 9):
///
///   - dynamic monitor: dispatches guest PCs to translated blocks, heats
///     cold blocks by interpreting them (phase 1) while the active policy
///     observes the access stream, translates hot blocks (phase 2), and
///     chains direct block exits;
///   - misalignment exception handling: traps raised by the host machine
///     are routed to the active policy, which either emulates-and-resumes
///     or patches in an MDA stub (paper Fig. 5), optionally superseding
///     the block (code rearrangement, Fig. 6 / retranslation, Fig. 7);
///   - full cycle accounting against the cost model.
///
/// One Engine instance performs one run of one guest image under one
/// policy and returns the RunResult used by every experiment.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_DBT_ENGINE_H
#define MDABT_DBT_ENGINE_H

#include "dbt/Policy.h"
#include "guest/GuestCPU.h"
#include "guest/GuestImage.h"
#include "host/CostModel.h"
#include "obs/Metrics.h"
#include "obs/TraceSink.h"
#include "support/Stats.h"

#include <cstdint>

namespace mdabt {
namespace chaos {
struct FaultPlan;
} // namespace chaos
namespace guest {
class GuestMemory;
} // namespace guest

namespace dbt {

class TranslationService;

/// Why a run did not complete (RunError::None = clean completion).
/// Every abnormal outcome is typed so that experiments can never
/// silently publish figures from a truncated run.
enum class RunError : uint8_t {
  None = 0,
  /// The monitor-step or host-instruction guard tripped.
  MonitorStepLimit,
  /// The trap-storm watchdog exhausted its escalation budget: a
  /// misalignment-trap livelock could not be contained.
  TrapStorm,
  /// Code-cache patching failed beyond the configured tolerance, or a
  /// torn word could not be repaired.
  PatchFailed,
  /// Block translation failed beyond the configured tolerance.
  TranslationFailed,
  /// Code-cache flushes exceeded the configured tolerance (flush
  /// thrash under CodeCacheLimitWords pressure).
  CacheThrash,
  /// The host code-cache verifier (EngineConfig::Verify) found a
  /// structural invariant violation: the cache holds malformed code.
  VerifyFailed,
  /// The run exceeded its translation-count budget
  /// (BudgetConfig::MaxTranslations): a hostile guest forcing
  /// translation work without bound.
  BudgetTranslations,
  /// The run exceeded its cumulative emitted-code budget
  /// (BudgetConfig::MaxCodeBytes): unbounded code-cache growth.
  BudgetCodeBytes,
  /// Retranslation churn (policy supersedes + self-modifying-code
  /// invalidations) exceeded BudgetConfig::MaxChurn.
  BudgetChurn,
};

/// Number of RunError enumerators (for error-indexed tables).
inline constexpr size_t NumRunErrors = 10;

/// Stable human-readable name for a RunError.
const char *runErrorName(RunError E);

/// Ahead-of-time pre-translation mode (`EngineConfig::Aot`, DESIGN.md
/// section 16).  Architectural results are byte-identical across all
/// three modes; only modeled cycles and code layout change.
enum class AotMode : uint8_t {
  /// Pure two-phase DBT: interpret to heat, translate hot blocks.
  Off,
  /// Statically translate *and install* every proven-reachable block
  /// before the first guest instruction; dynamic fallback only for
  /// code behind indirect-jump frontiers.
  Full,
  /// Statically translate every proven-reachable block up front, but
  /// install lazily at first dispatch — no interpretation heating for
  /// covered code, no arena cost for code the run never reaches.
  Hybrid,
};

/// Stable human-readable name for an AotMode.
const char *aotModeName(AotMode M);

/// Tolerances of the graceful-degradation machinery.  Defaults are
/// permissive: the engine degrades (rearrange -> retranslate ->
/// interpret-only) rather than aborting; the ceilings exist so that an
/// operator can bound how much misbehaviour a run may absorb before it
/// is reported as a typed failure instead.
///
/// The watchdog's trap count and the per-block translate retries are
/// constants of the trap path (FaultPath.h); the per-patch repair
/// attempts are a constant in CodeCache.cpp.
struct HardeningConfig {
  /// Watchdog escalations tolerated before the run aborts (TrapStorm).
  uint32_t MaxWatchdogTrips = 256;
  /// Abandoned patches tolerated before the run aborts (PatchFailed).
  /// 0 = unlimited.
  uint32_t PatchFailureLimit = 0;
  /// Failed translations tolerated before the run aborts
  /// (TranslationFailed).  0 = unlimited.
  uint32_t TranslationFailureLimit = 0;
  /// Code-cache flushes tolerated before the run aborts (CacheThrash).
  /// 0 = unlimited.
  uint32_t FlushLimit = 0;
  /// Minimum monitor steps between spurious (injected) flushes; closer
  /// requests are suppressed as flush-storm backoff.
  uint32_t FlushStormBackoffSteps = 8;
};

/// Resource-governance ceilings for one run: hard bounds on how much
/// translation-side work a (possibly hostile) guest may demand.  Every
/// ceiling defaults to 0 = unlimited, so well-behaved experiments are
/// unaffected; when a ceiling trips, the run aborts with the matching
/// typed RunError instead of growing without bound.
struct BudgetConfig {
  /// Translations (blocks + superblocks) per run.
  uint64_t MaxTranslations = 0;
  /// Cumulative host-code bytes *emitted* over the run — monotone even
  /// across cache flushes, so a flush-and-refill churn loop cannot hide
  /// under a bounded arena.
  uint64_t MaxCodeBytes = 0;
  /// Retranslation churn: policy supersedes plus self-modifying-code
  /// invalidations.
  uint64_t MaxChurn = 0;
  /// Degradation (not abort): SMC invalidations of one block before it
  /// is pinned interpret-only, joining the ladder's rung-3 containment.
  /// 0 = never pin.
  uint32_t SmcChurnPinLimit = 0;
};

/// Engine knobs shared by all experiments.
struct EngineConfig {
  host::CostModel Cost;
  /// Patch direct block exits into branches once the target is
  /// translated.
  bool EnableChaining = true;
  /// Code-cache capacity in host words; exceeding it triggers a full
  /// flush at the next monitor dispatch.  0 = unlimited.
  uint32_t CodeCacheLimitWords = 0;
  /// Dynamo-style invalidation (paper section IV-C: "Dynamo flush the
  /// entire code cache while our BT invalidates translated code at
  /// block granularity"): a policy-requested supersede flushes
  /// everything instead of retranslating one block.
  bool FlushOnSupersede = false;
  /// Abort guard: maximum monitor iterations.
  uint64_t MaxMonitorSteps = 1ULL << 32;
  /// Graceful-degradation tolerances.
  HardeningConfig Hardening;
  /// Resource-governance ceilings (hostile-guest containment).
  BudgetConfig Budget;
  /// Optional deterministic fault-injection campaign (chaos testing).
  /// The plan must outlive the engine.  Null = no injection.
  const chaos::FaultPlan *Chaos = nullptr;
  /// Optional structured trace sink (see docs/TELEMETRY.md).  Null =
  /// tracing disabled; every emission point reduces to one branch.  The
  /// sink must outlive the engine and receives every lifecycle event
  /// (translation, chaining, traps, patching, degradation, flushes)
  /// stamped with the run's monotonic virtual time in modeled cycles.
  obs::TraceSink *Trace = nullptr;
  /// Run the static alignment analysis over the guest image before
  /// execution and feed its verdicts into translation: provably-aligned
  /// memory ops skip all MDA machinery (no trap exposure), provably-
  /// misaligned ops get the MDA sequence inlined at first translation,
  /// and only unknown ops flow through the policy as before.  Analysis
  /// cycles are not charged to the run (modeled as offline, like static
  /// profiling).
  bool Analysis = false;
  /// Run the host code-cache structural verifier after every mutation
  /// of installed code (translate, patch, revert, chain, flush) and at
  /// the end of the run.  A violation aborts with VerifyFailed.
  bool Verify = false;

  // -- hot-dispatch mechanisms (bench/ablation_dispatch toggles each
  // independently; architectural results — checksum, memory hash, final
  // CPU state — are bit-identical for every combination, only modeled
  // cycles and host-code layout change) ------------------------------

  /// Price monitor dispatch as a hash-table hit: the monitor's single
  /// block-map lookup is unchanged, but a hit costs
  /// CostModel::DispatchTableHitCycles instead of MonitorDispatchCycles
  /// (misses stay unpriced on both paths), and the run reports
  /// dispatch.table_hits / dispatch.table_misses.
  bool HashDispatch = false;
  /// Emit a small tagged inline cache (two ways) at every indirect block
  /// exit (Ret/JmpR): recently seen targets are compared against the
  /// live exit PC in translated code and hit without returning to the
  /// monitor.  Misses fall back to the monitor, which fills a way.
  bool InlineCaches = false;
  /// Form superblocks (straight-line traces of up to eight chained
  /// direct-exit blocks) when a backward chain marks a loop head as hot.
  /// The trace supersedes the head block; de-optimization (trace
  /// invalidation) falls back to the still-installed constituent blocks.
  bool Superblocks = false;

  /// Table-driven peephole fusion (dbt/FusionRules.h): rewrite short
  /// windows of guest instructions — mov-op chains, compare-branch
  /// against zero, negative-immediate adds, load-op-store, and runs of
  /// memory ops sharing one indexed address — into fused host sequences
  /// with fewer words.  Architecturally invisible; composes with every
  /// MDA policy and dispatch mechanism (fused sites keep their own
  /// MemPlan, fault-site and SMC-resume metadata).
  bool Fusion = false;
  /// Enabled-rule mask when Fusion is set (bit i enables FusionRuleId
  /// i; masked to the table width).  All rules by default.
  uint32_t FusionMask = 0xffffffffu;

  /// Optional process-wide translation service (docs/SERVING.md).  When
  /// set, every translation is first looked up in the service's shared
  /// cache by content key; a hit installs the cached host words instead
  /// of translating (priced CostModel::CacheInstallCyclesPerInst), a
  /// miss translates and publishes.  Architectural results are
  /// byte-identical with or without a service; only modeled translation
  /// cycles change.  The service must outlive the engine and may be
  /// shared by concurrently running engines.  Null = isolated run.
  TranslationService *Service = nullptr;

  /// Static AOT pre-translation (`dbt/AotTranslator.h`, DESIGN.md
  /// section 16).  When not Off, the engine recovers the statically
  /// provable CFG of the guest image (`analysis/CfgRecovery.h`), runs
  /// the alignment analysis (implied even when `Analysis` is false, so
  /// MemPlans come from congruence verdicts), and pre-translates every
  /// proven-reachable block before the first guest instruction —
  /// publishing into the shared cache when a Service is attached.  The
  /// HostVerifier sweeps the pre-populated code cache before execution
  /// starts (even when `Verify` is false) and enforces that every
  /// AOT-installed translation stays inside the recovered reachable
  /// set.  Dynamic two-phase translation remains the fallback for code
  /// discovered through indirect-jump frontiers.
  AotMode Aot = AotMode::Off;
};

/// Everything an experiment wants to know about one run.
struct RunResult {
  /// Total modeled cycles (native + interpreter + translator + monitor
  /// + traps); *the* runtime metric of the paper's figures.
  uint64_t Cycles = 0;
  /// The guest program's observable output.
  uint64_t Checksum = 0;
  /// FNV-1a hash of the full final guest memory (differential testing).
  /// Computed by memoryHash in time proportional to the pages the run
  /// touched; the value equals fnv1a over all of memory.
  uint64_t MemoryHash = 0;
  /// Final architectural state.
  guest::GuestCPU FinalCpu;
  /// Event counters (translations, patches, traps, cache misses, cycle
  /// breakdown...).  Derived from Metrics (fillCounterBag) so the two
  /// views can never disagree; kept for existing benches and tests.
  CounterBag Counters;
  /// The authoritative per-run metrics: counters, gauges and histograms
  /// with stable registration order; serializes to JSON for results/
  /// via reporting::writeMetricsJson (schema in docs/TELEMETRY.md).
  obs::MetricsRegistry Metrics;
  /// Why the run ended; RunError::None means it ran to completion and
  /// Checksum/MemoryHash are trustworthy.
  RunError Error = RunError::MonitorStepLimit;

  /// True if the guest program ran to completion.
  bool completed() const { return Error == RunError::None; }
};

/// Runs a guest image to completion under an MDA policy.
class Engine {
public:
  Engine(const guest::GuestImage &Image, MdaPolicy &Policy,
         EngineConfig Config = EngineConfig());

  /// Execute the program.  May be called once per Engine.
  RunResult run();

private:
  const guest::GuestImage &Image;
  MdaPolicy &Policy;
  EngineConfig Config;
  bool Used = false;
};

/// FNV-1a over a byte range.  All-zero 64-byte chunks are folded in
/// with one multiply (a zero byte only multiplies by the FNV prime), so
/// sparse buffers hash fast; the value is plain byte-serial FNV-1a.
uint64_t fnv1a(const uint8_t *Bytes, size_t Size);

/// fnv1a(Mem.data(), Mem.size()), bit for bit, in time proportional to
/// the pages the memory's "may be non-zero" map has marked: clean pages
/// are multiplied through without being read.
uint64_t memoryHash(const guest::GuestMemory &Mem);

} // namespace dbt
} // namespace mdabt

#endif // MDABT_DBT_ENGINE_H
