//===- bench/chaos_soak.cpp - Seeded fault-injection soak -----------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Robustness soak for the DBT engine: runs hundreds of seeded
/// fault-injection campaigns (chaos::FaultPlan::randomized) across all
/// five MDA policies and several engine configurations, and checks the
/// graceful-degradation contract on every run:
///
///   - a run that reports success must reproduce the fault-free
///     baseline's Checksum and MemoryHash bit-exactly;
///   - a run that does not succeed must report a *typed* RunError other
///     than MonitorStepLimit — hitting the step guard under injection
///     means the degradation ladder failed to contain a livelock
///     (an engine wedge), which fails the soak.
///
/// Three campaign phases run back to back:
///
///   1. the classic phase over two SPEC programs (flush, supersede and
///      dispatch surfaces under injection);
///   2. the SMC-storm phase over the hostile-guest suite
///      (src/workloads/Hostile.h): self-modifying and churn adversaries
///      with the write barrier, re-analysis and the budget ceilings
///      live, still under fault injection, checked against the pure
///      interpreter oracle;
///   3. the shared-cache phase (docs/SERVING.md): batches of tenants on
///      one TranslationService, half of them chaos campaigns tearing
///      patches and storming flushes while the other half run clean
///      with the verifier on, installing the same shared records.  Any
///      clean tenant that diverges from its oracle, wedges, or aborts
///      is cross-tenant bleed and fails the soak loudly.
///
/// Phases 1 and 2 additionally rotate guest-idiom fusion on (coprime
/// modulus, so fused campaigns cross-product with every cache/dispatch/
/// hardening configuration): fused cores carry the byte-exact re-check
/// of verifier invariant 9, so a torn patch inside one must surface as
/// a typed abort, never as silent corruption — and fused runs are still
/// diffed against the same fusion-oblivious baselines.
///
/// Every failure line prints the campaign's derived fault-plan seed and
/// the exact replay invocation (`--seed S --campaign I`,
/// `--seed S --smc-campaign I` or `--seed S --shared-campaign I`), so
/// any wedge or corruption seen in a CI log is reproducible from the
/// log alone.
///
/// Registered as a ctest target; MDABT_CHAOS_CAMPAIGNS overrides the
/// per-phase campaign count (default 250).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "chaos/FaultPlan.h"
#include "dbt/TranslationService.h"
#include "guest/Interpreter.h"
#include "mda/PolicyFactory.h"
#include "workloads/Hostile.h"

#include <cinttypes>
#include <string>
#include <vector>

using namespace mdabt;
using namespace mdabt::bench;

namespace {

struct PolicyCase {
  const char *Label;
  mda::PolicySpec Spec;
};

/// One row of the survival report.
struct PolicyTally {
  uint64_t Campaigns = 0;
  uint64_t Survived = 0;  ///< completed, checksum+memhash match baseline
  uint64_t Degraded = 0;  ///< typed abort (TrapStorm/PatchFailed/...)
  uint64_t Wedged = 0;    ///< MonitorStepLimit under injection
  uint64_t Corrupt = 0;   ///< completed but diverged from baseline
  uint64_t Injected = 0;
  uint64_t WatchdogTrips = 0;
  uint64_t InterpPins = 0;
  uint64_t ByError[dbt::NumRunErrors] = {};
};

/// Ground truth one campaign is diffed against.
struct Baseline {
  uint64_t Checksum = 0;
  uint64_t MemoryHash = 0;
};

/// Interpreter oracle for a hostile image: the interpreter decodes
/// fresh bytes every instruction, so it is the SMC ground truth.
Baseline interpretBaseline(const guest::GuestImage &Image) {
  guest::GuestMemory Mem;
  Mem.loadImage(Image);
  guest::GuestCPU Cpu;
  Cpu.reset(Image);
  guest::Interpreter Interp(Mem);
  Interp.run(Cpu, 500'000'000ULL);
  if (!Cpu.Halted) {
    std::fprintf(stderr, "error: oracle run of %s did not halt\n",
                 Image.Name.c_str());
    std::exit(1);
  }
  return {Cpu.Checksum, dbt::fnv1a(Mem.data(), Mem.size())};
}

/// Outcome classes shared by both phases' tallies.
enum class Outcome { Survived, Degraded, Wedged, Corrupt };

Outcome classify(const dbt::RunResult &R, const Baseline &Base) {
  if (R.completed())
    return (R.Checksum == Base.Checksum && R.MemoryHash == Base.MemoryHash)
               ? Outcome::Survived
               : Outcome::Corrupt;
  return R.Error == dbt::RunError::MonitorStepLimit ? Outcome::Wedged
                                                    : Outcome::Degraded;
}

void tallyOutcome(PolicyTally &T, const dbt::RunResult &R, Outcome O) {
  ++T.Campaigns;
  T.Injected += R.Counters.get("chaos.injected");
  T.WatchdogTrips += R.Counters.get("harden.watchdog_trips");
  T.InterpPins += R.Counters.get("harden.interp_only_blocks");
  ++T.ByError[static_cast<size_t>(R.Error)];
  switch (O) {
  case Outcome::Survived:
    ++T.Survived;
    break;
  case Outcome::Degraded:
    ++T.Degraded;
    break;
  case Outcome::Wedged:
    ++T.Wedged;
    break;
  case Outcome::Corrupt:
    ++T.Corrupt;
    break;
  }
}

void printSurvival(const char *Name, const PolicyCase *Cases,
                   size_t NumCases, const PolicyTally *Tally) {
  TablePrinter T({"Policy", "Campaigns", "Survived", "Degraded", "Wedged",
                  "Corrupt", "Injected", "WatchdogTrips", "InterpPins"});
  for (size_t C = 0; C != NumCases; ++C) {
    const PolicyTally &Y = Tally[C];
    T.addRow({Cases[C].Label, withCommas(Y.Campaigns),
              withCommas(Y.Survived), withCommas(Y.Degraded),
              withCommas(Y.Wedged), withCommas(Y.Corrupt),
              withCommas(Y.Injected), withCommas(Y.WatchdogTrips),
              withCommas(Y.InterpPins)});
  }
  printTable(T, Name);
}

} // namespace

int main(int argc, char **argv) {
  Options Opt = parseArgs(argc, argv);

  // Replay flags (left in argv by parseArgs): run exactly one campaign
  // of the chosen phase.  A failing CI log line prints the invocation
  // verbatim, so replay needs nothing but the log.
  long long ReplayMain = -1, ReplaySmc = -1, ReplayShared = -1;
  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    auto Value = [&](const char *Flag) -> const char * {
      size_t Len = std::strlen(Flag);
      if (std::strncmp(Arg, Flag, Len) != 0)
        return nullptr;
      if (Arg[Len] == '=')
        return Arg + Len + 1;
      if (Arg[Len] == '\0' && I + 1 < argc)
        return argv[++I];
      return nullptr;
    };
    if (const char *V = Value("--campaign")) {
      ReplayMain = std::atoll(V);
    } else if (const char *V = Value("--smc-campaign")) {
      ReplaySmc = std::atoll(V);
    } else if (const char *V = Value("--shared-campaign")) {
      ReplayShared = std::atoll(V);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--jobs N] [--seed S] [--campaign I] "
                   "[--smc-campaign I] [--shared-campaign I]\n"
                   "error: unknown argument %s\n",
                   argv[0], Arg);
      return 2;
    }
  }
  const bool Replay =
      ReplayMain >= 0 || ReplaySmc >= 0 || ReplayShared >= 0;

  if (!Replay)
    banner("Chaos soak: seeded fault-injection campaigns against every MDA "
           "policy",
           "every campaign either survives bit-exactly or aborts with a "
           "typed RunError; zero wedges, zero silent corruption");

  uint64_t Campaigns = 250;
  if (const char *Env = std::getenv("MDABT_CHAOS_CAMPAIGNS")) {
    long long V = std::atoll(Env);
    if (V > 0)
      Campaigns = static_cast<uint64_t>(V);
  }

  workloads::ScaleConfig Scale;
  Scale.TotalRefs = 30000;

  const PolicyCase Cases[] = {
      {"direct", {mda::MechanismKind::Direct, 0, false, 0, false}},
      {"static", {mda::MechanismKind::StaticProfiling, 0, false, 0, false}},
      {"dyn@50", {mda::MechanismKind::DynamicProfiling, 50, false, 0, false}},
      {"eh+rearrange",
       {mda::MechanismKind::ExceptionHandling, 50, true, 0, false}},
      {"dpeh+retrans4", {mda::MechanismKind::Dpeh, 50, false, 4, false}},
  };
  constexpr size_t NumCases = sizeof(Cases) / sizeof(Cases[0]);

  const workloads::BenchmarkInfo *Progs[] = {
      workloads::findBenchmark("470.lbm"),
      workloads::findBenchmark("410.bwaves"),
  };
  constexpr size_t NumProgs = sizeof(Progs) / sizeof(Progs[0]);
  for (const workloads::BenchmarkInfo *P : Progs) {
    if (!P) {
      std::fprintf(stderr, "error: soak benchmark missing from catalog\n");
      return 1;
    }
  }

  const std::vector<workloads::HostileProgram> Hostile =
      workloads::hostileCatalog();
  const size_t NumHostile = Hostile.size();

  // Per-campaign fault-plan seeds.  Both formulas are part of the
  // replay contract: a printed (base seed, campaign index) pair fully
  // determines the plan.
  auto mainPlanSeed = [&](uint64_t I) -> uint64_t {
    return Opt.Seed * 1000003 + I;
  };
  auto smcPlanSeed = [&](uint64_t I) -> uint64_t {
    return Opt.Seed * 1000003 + 1000000007 + I;
  };
  auto sharedPlanSeed = [&](uint64_t I) -> uint64_t {
    return Opt.Seed * 1000003 + 2000000011 + I;
  };

  // --- campaign runners (shared by the soak and by replay mode) ------

  auto runMainCampaign = [&](uint64_t I) -> dbt::RunResult {
    size_t P = static_cast<size_t>(I % NumProgs);
    size_t C = static_cast<size_t>((I / NumProgs) % NumCases);
    chaos::FaultPlan Plan = chaos::FaultPlan::randomized(mainPlanSeed(I));

    dbt::EngineConfig Config;
    // A wedge (uncontained livelock) must surface quickly as
    // MonitorStepLimit instead of hanging the soak.
    Config.MaxMonitorSteps = 500'000;
    Config.Chaos = &Plan;
    // The code-cache verifier runs on every campaign: injected faults
    // that leave the cache structurally malformed must be caught as a
    // typed VerifyFailed abort, never as silent corruption.
    Config.Verify = true;
    // Rotate through the cache configurations that stress the flush and
    // supersede paths.
    switch (I % 4) {
    case 1:
      Config.CodeCacheLimitWords = 256;
      break;
    case 2:
      Config.CodeCacheLimitWords = 2000;
      break;
    case 3:
      Config.FlushOnSupersede = true;
      break;
    default:
      break;
    }
    // Rotate the hot-dispatch mechanisms in as well (coprime with the
    // cache rotation above, so the combinations cross-product): inline
    // caches and trace formation add patch surface the injector can
    // tear, and the block map, chains and inline-cache ways must stay
    // coherent through chaos flushes.  Architectural identity across dispatch configs means
    // the fault-free baselines stay valid ground truth.
    switch (I % 3) {
    case 1:
      Config.HashDispatch = true;
      Config.InlineCaches = true;
      break;
    case 2:
      Config.HashDispatch = true;
      Config.InlineCaches = true;
      Config.Superblocks = true;
      break;
    default:
      break;
    }
    // Rotate guest-idiom fusion in (modulus 11, coprime with every
    // rotation above, so fused campaigns cross-product with all cache,
    // dispatch and hardening configs): fused cores add the byte-exact
    // re-check surface of verifier invariant 9, and torn patches inside
    // a fused sequence must abort typed, never corrupt silently.
    if (I % 11 < 5)
      Config.Fusion = true;
    // Rotate hybrid static AOT pre-translation in (modulus 13, coprime
    // with every rotation above): AOT-published entries must obey the
    // same dirty-epoch retirement as dynamic ones while the injector
    // tears patches, and the AOT reachability invariant (verifier
    // check 10) must hold through chaos flush storms.
    if (I % 13 < 4)
      Config.Aot = dbt::AotMode::Hybrid;
    // Every fifth campaign runs with tight tolerance ceilings so the
    // typed-abort paths (PatchFailed/TranslationFailed/CacheThrash) are
    // exercised, not just the unlimited-degradation paths.
    if (I % 5 == 4) {
      Config.Hardening.PatchFailureLimit = 8;
      Config.Hardening.TranslationFailureLimit = 64;
      Config.Hardening.FlushLimit = 32;
      Config.Hardening.MaxWatchdogTrips = 64;
    }

    return reporting::runPolicy(*Progs[P], Cases[C].Spec, Scale, Config);
  };

  // Shared by phase 2 (isolated, PlanSeed = smcPlanSeed) and the chaos
  // slots of phase 3 (serving-attached, PlanSeed = sharedPlanSeed).
  auto runSmcCampaign = [&](uint64_t I, uint64_t PlanSeed,
                            dbt::TranslationService *Service)
      -> dbt::RunResult {
    size_t P = static_cast<size_t>(I % NumHostile);
    size_t C = static_cast<size_t>((I / NumHostile) % NumCases);
    chaos::FaultPlan Plan = chaos::FaultPlan::randomized(PlanSeed);

    dbt::EngineConfig Config;
    Config.MaxMonitorSteps = 500'000;
    Config.Chaos = &Plan;
    Config.Verify = true;
    Config.Service = Service;
    // The alignment analysis is on for every SMC campaign: verdict
    // revocation and lazy re-analysis must stay sound while the
    // injector tears patches out from under the invalidation path.
    Config.Analysis = true;
    switch (I % 4) {
    case 1:
      Config.CodeCacheLimitWords = 256;
      break;
    case 2:
      Config.CodeCacheLimitWords = 2000;
      break;
    case 3:
      Config.FlushOnSupersede = true;
      break;
    default:
      break;
    }
    // Keyed off I / NumHostile, not I: the hostile catalog holds three
    // programs, so an `I % 3` here would alias program and dispatch
    // config (smc.churn would only ever meet superblocks) instead of
    // cross-producting them.
    switch ((I / NumHostile) % 3) {
    case 1:
      Config.HashDispatch = true;
      Config.InlineCaches = true;
      break;
    case 2:
      Config.HashDispatch = true;
      Config.InlineCaches = true;
      Config.Superblocks = true;
      break;
    default:
      break;
    }
    if (I % 5 == 4) {
      Config.Hardening.PatchFailureLimit = 8;
      Config.Hardening.TranslationFailureLimit = 64;
      Config.Hardening.FlushLimit = 32;
      Config.Hardening.MaxWatchdogTrips = 64;
    }
    // Fusion under SMC chaos (same coprime-rotation rationale as the
    // main phase): a fused store's episode-stop resume point and the
    // fused-core byte re-check must both hold while the injector tears
    // invalidation patches.
    if (I % 11 < 5)
      Config.Fusion = true;
    // Hybrid AOT under SMC chaos (same coprime rationale, modulus 13):
    // statically pre-translated units sit right in the blast radius of
    // self-modifying stores — staleness must drop them and the lazy
    // install path must never resurrect a stale payload.
    if (I % 13 < 4)
      Config.Aot = dbt::AotMode::Hybrid;
    // Rotate the resource-governance surfaces in too: ceilings convert
    // the churn adversary into typed budget aborts, the pin converts it
    // into interp-only degradation — both must stay typed under chaos.
    if (I % 7 == 6) {
      Config.Budget.MaxChurn = 96;
      Config.Budget.MaxCodeBytes = 24576;
    } else if (I % 7 == 3) {
      Config.Budget.SmcChurnPinLimit = 3;
    }

    std::unique_ptr<dbt::MdaPolicy> Policy =
        mda::makePolicy(Cases[C].Spec, &Hostile[P].Image);
    dbt::Engine Engine(Hostile[P].Image, *Policy, Config);
    return Engine.run();
  };

  // A clean tenant sharing a cache with chaos campaigns: no injection,
  // verifier on, full dispatch surface.  Anything but a bit-exact
  // survival here is cross-tenant bleed.
  auto runCleanTenant = [&](uint64_t I, dbt::TranslationService *Service)
      -> dbt::RunResult {
    size_t P = static_cast<size_t>(I % NumHostile);
    size_t C = static_cast<size_t>((I / NumHostile) % NumCases);
    dbt::EngineConfig Config;
    Config.MaxMonitorSteps = 500'000;
    Config.Verify = true;
    Config.Analysis = true;
    Config.HashDispatch = true;
    Config.InlineCaches = true;
    Config.Superblocks = true;
    Config.Service = Service;
    std::unique_ptr<dbt::MdaPolicy> Policy =
        mda::makePolicy(Cases[C].Spec, &Hostile[P].Image);
    dbt::Engine Engine(Hostile[P].Image, *Policy, Config);
    return Engine.run();
  };

  // --- ground truth --------------------------------------------------

  // Hostile baselines come straight from the interpreter oracle.
  std::vector<Baseline> HostileBase;
  for (const workloads::HostileProgram &P : Hostile)
    HostileBase.push_back(interpretBaseline(P.Image));

  // Fault-free SPEC baselines: every policy must agree on the
  // observable final state of each program — that shared state is the
  // ground truth the chaos runs are checked against.  The baseline runs
  // are themselves independent; fan them out too.
  std::vector<dbt::RunResult> BaseRuns(NumProgs * NumCases);
  parallelFor(Opt.Jobs, BaseRuns.size(), [&](size_t I) {
    size_t P = I / NumCases;
    size_t C = I % NumCases;
    // Fault-free baselines run with the verifier too: a verifier that
    // flags clean runs would poison the whole soak.
    dbt::EngineConfig BaseConfig;
    BaseConfig.Verify = true;
    BaseRuns[I] =
        reporting::runPolicy(*Progs[P], Cases[C].Spec, Scale, BaseConfig);
  });
  Baseline Base[NumProgs];
  for (size_t P = 0; P != NumProgs; ++P) {
    for (size_t C = 0; C != NumCases; ++C) {
      const dbt::RunResult &R = BaseRuns[P * NumCases + C];
      reporting::checkRunCompleted(
          R, std::string(Progs[P]->Name) + " fault-free baseline (" +
                 Cases[C].Label + ")");
      if (C == 0) {
        Base[P].Checksum = R.Checksum;
        Base[P].MemoryHash = R.MemoryHash;
      } else if (R.Checksum != Base[P].Checksum ||
                 R.MemoryHash != Base[P].MemoryHash) {
        std::fprintf(stderr,
                     "error: fault-free baselines disagree on %s (%s)\n",
                     Progs[P]->Name, Cases[C].Label);
        return 1;
      }
    }
  }

  // --- replay mode: one campaign, verdict on stdout ------------------

  if (Replay) {
    const bool Smc = ReplaySmc >= 0;
    const bool Shared = ReplayShared >= 0;
    uint64_t I = static_cast<uint64_t>(Shared ? ReplayShared
                                       : Smc  ? ReplaySmc
                                              : ReplayMain);
    // A shared-campaign replay reruns the chaos tenant against a fresh
    // service of its own: its verdict must not depend on cache state
    // other tenants left behind — that independence is the phase's
    // whole claim.
    dbt::TranslationService ReplayService;
    dbt::RunResult R =
        Shared ? runSmcCampaign(I, sharedPlanSeed(I), &ReplayService)
        : Smc  ? runSmcCampaign(I, smcPlanSeed(I), nullptr)
               : runMainCampaign(I);
    const bool Hostile_ = Smc || Shared;
    const Baseline &B =
        Hostile_ ? HostileBase[I % NumHostile] : Base[I % NumProgs];
    const char *Prog = Hostile_ ? Hostile[I % NumHostile].Name.c_str()
                                : Progs[I % NumProgs]->Name;
    const char *Policy =
        Cases[(I / (Hostile_ ? NumHostile : NumProgs)) % NumCases].Label;
    uint64_t PlanSeed = Shared ? sharedPlanSeed(I)
                        : Smc  ? smcPlanSeed(I)
                               : mainPlanSeed(I);
    Outcome O = classify(R, B);
    const char *Verdict = O == Outcome::Survived   ? "SURVIVED"
                          : O == Outcome::Degraded ? "DEGRADED"
                          : O == Outcome::Wedged   ? "WEDGE"
                                                   : "CORRUPT";
    std::printf("replay %s campaign %" PRIu64 " (%s, %s, plan seed "
                "0x%" PRIx64 "): %s (error=%s, injected=%" PRIu64 ")\n",
                Shared ? "shared" : Smc ? "smc" : "main", I, Prog, Policy,
                PlanSeed, Verdict,
                dbt::runErrorName(R.Error),
                R.Counters.get("chaos.injected"));
    return (O == Outcome::Wedged || O == Outcome::Corrupt) ? 1 : 0;
  }

  // --- phase 1: classic campaigns over the SPEC programs -------------

  // Every campaign's fault plan is derived from (base seed, index), so
  // the campaigns are shared-nothing and can run in any order; the tally
  // below walks the index-addressed results serially, keeping the report
  // and every stderr diagnostic in campaign order regardless of --jobs.
  std::vector<dbt::RunResult> Runs(Campaigns);
  parallelFor(Opt.Jobs, Campaigns,
              [&](size_t I) { Runs[I] = runMainCampaign(I); });

  PolicyTally Tally[NumCases];
  uint64_t CorruptTotal = 0, WedgedTotal = 0;

  for (uint64_t I = 0; I != Campaigns; ++I) {
    size_t P = static_cast<size_t>(I % NumProgs);
    size_t C = static_cast<size_t>((I / NumProgs) % NumCases);
    const dbt::RunResult &R = Runs[I];
    Outcome O = classify(R, Base[P]);
    tallyOutcome(Tally[C], R, O);
    if (O == Outcome::Corrupt) {
      ++CorruptTotal;
      std::fprintf(stderr,
                   "CORRUPT: campaign %" PRIu64 " (%s, %s, plan seed "
                   "0x%" PRIx64 ") completed with diverged state — replay: "
                   "chaos_soak --seed 0x%" PRIx64 " --campaign %" PRIu64
                   "\n",
                   I, Progs[P]->Name, Cases[C].Label, mainPlanSeed(I),
                   Opt.Seed, I);
    } else if (O == Outcome::Wedged) {
      ++WedgedTotal;
      std::fprintf(stderr,
                   "WEDGE: campaign %" PRIu64 " (%s, %s, plan seed "
                   "0x%" PRIx64 ") hit the monitor step guard — livelock "
                   "not contained — replay: chaos_soak --seed 0x%" PRIx64
                   " --campaign %" PRIu64 "\n",
                   I, Progs[P]->Name, Cases[C].Label, mainPlanSeed(I),
                   Opt.Seed, I);
    }
  }

  // --- phase 2: SMC-storm campaigns over the hostile suite -----------

  std::vector<dbt::RunResult> SmcRuns(Campaigns);
  parallelFor(Opt.Jobs, Campaigns, [&](size_t I) {
    SmcRuns[I] = runSmcCampaign(I, smcPlanSeed(I), nullptr);
  });

  PolicyTally SmcTally[NumCases];
  for (uint64_t I = 0; I != Campaigns; ++I) {
    size_t P = static_cast<size_t>(I % NumHostile);
    size_t C = static_cast<size_t>((I / NumHostile) % NumCases);
    const dbt::RunResult &R = SmcRuns[I];
    Outcome O = classify(R, HostileBase[P]);
    tallyOutcome(SmcTally[C], R, O);
    if (O == Outcome::Corrupt) {
      ++CorruptTotal;
      std::fprintf(stderr,
                   "CORRUPT: smc campaign %" PRIu64 " (%s, %s, plan seed "
                   "0x%" PRIx64 ") completed with diverged state — replay: "
                   "chaos_soak --seed 0x%" PRIx64 " --smc-campaign %" PRIu64
                   "\n",
                   I, Hostile[P].Name.c_str(), Cases[C].Label,
                   smcPlanSeed(I), Opt.Seed, I);
    } else if (O == Outcome::Wedged) {
      ++WedgedTotal;
      std::fprintf(stderr,
                   "WEDGE: smc campaign %" PRIu64 " (%s, %s, plan seed "
                   "0x%" PRIx64 ") hit the monitor step guard — livelock "
                   "not contained — replay: chaos_soak --seed 0x%" PRIx64
                   " --smc-campaign %" PRIu64 "\n",
                   I, Hostile[P].Name.c_str(), Cases[C].Label,
                   smcPlanSeed(I), Opt.Seed, I);
    }
  }

  // --- phase 3: shared-cache campaigns (chaos + clean tenants) -------

  // Batches of BatchSize campaigns share one TranslationService: even
  // slots are chaos SMC campaigns (torn patches, flush storms, spurious
  // traps — publishing into and hitting the shared cache), odd slots
  // are clean tenants installing records from the same cache.  The
  // isolation contract under test: no amount of chaos in one tenant may
  // perturb another tenant's architectural results.
  constexpr uint64_t BatchSize = 6;
  const uint64_t NumBatches = (Campaigns + BatchSize - 1) / BatchSize;
  std::vector<dbt::TranslationService> Services(NumBatches);
  std::vector<dbt::RunResult> SharedRuns(Campaigns);
  parallelFor(Opt.Jobs, Campaigns, [&](size_t I) {
    dbt::TranslationService *S = &Services[I / BatchSize];
    SharedRuns[I] = (I % 2 == 0)
                        ? runSmcCampaign(I, sharedPlanSeed(I), S)
                        : runCleanTenant(I, S);
  });

  PolicyTally SharedTally[NumCases];
  uint64_t BleedTotal = 0;
  for (uint64_t I = 0; I != Campaigns; ++I) {
    size_t P = static_cast<size_t>(I % NumHostile);
    size_t C = static_cast<size_t>((I / NumHostile) % NumCases);
    const dbt::RunResult &R = SharedRuns[I];
    Outcome O = classify(R, HostileBase[P]);
    if (I % 2 == 0) {
      // Chaos slot: the usual soak contract (typed degradation or
      // bit-exact survival).
      tallyOutcome(SharedTally[C], R, O);
      if (O == Outcome::Corrupt || O == Outcome::Wedged) {
        O == Outcome::Corrupt ? ++CorruptTotal : ++WedgedTotal;
        std::fprintf(stderr,
                     "%s: shared campaign %" PRIu64 " (%s, %s, plan seed "
                     "0x%" PRIx64 ") — replay: chaos_soak --seed "
                     "0x%" PRIx64 " --shared-campaign %" PRIu64 "\n",
                     O == Outcome::Corrupt ? "CORRUPT" : "WEDGE", I,
                     Hostile[P].Name.c_str(), Cases[C].Label,
                     sharedPlanSeed(I), Opt.Seed, I);
      }
    } else if (O != Outcome::Survived) {
      // Clean slot: nothing was injected into THIS tenant, so any
      // deviation means a cache-mate's chaos leaked across the tenant
      // boundary.
      ++BleedTotal;
      std::fprintf(stderr,
                   "BLEED: clean tenant %" PRIu64 " (%s, %s) sharing a "
                   "cache with chaos campaigns %s (error=%s) — "
                   "cross-tenant isolation violated\n",
                   I, Hostile[P].Name.c_str(), Cases[C].Label,
                   O == Outcome::Corrupt ? "diverged from its oracle"
                   : O == Outcome::Wedged ? "wedged"
                                          : "aborted",
                   dbt::runErrorName(R.Error));
    }
  }

  // --- report --------------------------------------------------------

  printSurvival("chaos_soak", Cases, NumCases, Tally);
  printSurvival("chaos_soak_smc", Cases, NumCases, SmcTally);
  printSurvival("chaos_soak_shared", Cases, NumCases, SharedTally);

  TablePrinter E({"RunError", "Count"});
  for (size_t K = 0; K != dbt::NumRunErrors; ++K) {
    uint64_t N = 0;
    for (size_t C = 0; C != NumCases; ++C)
      N += Tally[C].ByError[K] + SmcTally[C].ByError[K] +
           SharedTally[C].ByError[K];
    E.addRow({dbt::runErrorName(static_cast<dbt::RunError>(K)),
              withCommas(N)});
  }
  printTable(E, "chaos_soak_errors");

  uint64_t SurvivedTotal = 0, DegradedTotal = 0, SmcSurvived = 0,
           SharedSurvived = 0;
  for (size_t C = 0; C != NumCases; ++C) {
    SurvivedTotal += Tally[C].Survived + SmcTally[C].Survived +
                     SharedTally[C].Survived;
    DegradedTotal += Tally[C].Degraded + SmcTally[C].Degraded +
                     SharedTally[C].Degraded;
    SmcSurvived += SmcTally[C].Survived;
    SharedSurvived += SharedTally[C].Survived;
  }
  std::printf("Soak: %" PRIu64 " campaigns (%" PRIu64 " classic + %" PRIu64
              " smc-storm + %" PRIu64 " shared-cache), %" PRIu64
              " survived, %" PRIu64 " degraded (typed), %" PRIu64
              " wedged, %" PRIu64 " corrupt, %" PRIu64
              " cross-tenant bleeds\n",
              Campaigns * 3, Campaigns, Campaigns, Campaigns,
              SurvivedTotal, DegradedTotal, WedgedTotal, CorruptTotal,
              BleedTotal);
  if (WedgedTotal != 0 || CorruptTotal != 0 || BleedTotal != 0) {
    std::fprintf(stderr, "chaos soak FAILED\n");
    return 1;
  }
  if (SurvivedTotal == 0 || SmcSurvived == 0 || SharedSurvived == 0) {
    std::fprintf(stderr,
                 "chaos soak FAILED: no campaign survived — injection or "
                 "degradation machinery is misconfigured\n");
    return 1;
  }
  std::printf("chaos soak passed\n");
  return 0;
}
