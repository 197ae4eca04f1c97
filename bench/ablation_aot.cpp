//===- bench/ablation_aot.cpp - Static AOT pre-translation ablation -------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation: the sixth mechanism column — static whole-binary CFG
/// recovery (analysis/CfgRecovery.h) feeding an AOT pre-translator
/// (dbt/AotTranslator.h) — against the paper's two-phase dynamic DBT,
/// across the full 21-benchmark matrix in all three EngineConfig::Aot
/// modes: off (pure DBT baseline), full (everything statically proven
/// is installed before the first guest instruction) and hybrid
/// (pre-translations install lazily at dispatch miss; dynamic DBT owns
/// only frontier residue).  Reported per row: startup cost (modeled
/// cycles spent on recovery + pre-translation before the run) against
/// steady-state modeled MIPS (work per post-startup cycle at a nominal
/// 1 GHz), plus the aot.{blocks,coverage_pct,fallback_blocks} telemetry.
///
/// Guarantees this binary enforces (exit nonzero on violation):
///  * architectural identity: Checksum and MemoryHash byte-identical
///    across {off, full, hybrid} for every benchmark — AOT may only
///    move translation cost, never what the code computes;
///  * verifier cleanliness: HostVerifier (including the AOT
///    reachability invariant, check 10) reports zero issues in every
///    run;
///  * static coverage: >= 90% of dynamically discovered block heads are
///    statically recovered on every row, and any fallback residue is
///    attributable to flagged frontier sites;
///  * the payoff: hybrid steady-state modeled MIPS is no worse than the
///    two-phase DBT baseline in aggregate and by per-benchmark geomean
///    (individual low-reuse rows may trade slightly worse — their lazy
///    install cycles never amortize — and are reported as advisories).
///
/// Determinism: the printed table depends only on modeled state, so CI
/// diffs it across --jobs values.  --perf-json merges an "aot" record
/// (startup cycles, steady-state MIPS, coverage) into bench_perf.json
/// for tools/check_perf_floor.sh.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "mda/PolicyFactory.h"

#include <cmath>
#include <cstring>

using namespace mdabt;
using namespace mdabt::bench;

namespace {

struct ModeRow {
  const char *Name;
  dbt::AotMode Mode;
};

const ModeRow Modes[] = {
    {"off", dbt::AotMode::Off},
    {"full", dbt::AotMode::Full},
    {"hybrid", dbt::AotMode::Hybrid},
};

dbt::EngineConfig aotConfig(dbt::AotMode Mode) {
  dbt::EngineConfig C;
  // The verifier stays on in every mode so the AOT output checker and
  // the reachability invariant gate every published figure; analysis
  // on in every mode so the off row is the *same* plan pipeline, just
  // without pre-translation.
  C.Analysis = true;
  C.Verify = true;
  C.Aot = Mode;
  return C;
}

/// Work retired by one run: interpreted + native host instructions
/// (the serving_throughput convention).
uint64_t runWork(const dbt::RunResult &R) {
  return R.Counters.get("interp.insts") + R.Counters.get("host.insts");
}

/// Modeled throughput at a nominal 1 GHz host over the post-startup
/// cycles.  Pure modeled state — deterministic at any --jobs.
double steadyMips(const dbt::RunResult &R) {
  uint64_t Startup = R.Counters.get("aot.startup_cycles");
  uint64_t Cycles = R.Cycles > Startup ? R.Cycles - Startup : 0;
  return Cycles ? static_cast<double>(runWork(R)) /
                      static_cast<double>(Cycles) * 1000.0
                : 0.0;
}

std::string fixed1(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.1f", V);
  return Buf;
}

/// Merge the "aot" record into bench_perf.json next to the records the
/// other bench binaries own (the serving_throughput merge pattern).
void writeAotPerfJson(const char *Path, uint64_t Blocks,
                      uint64_t CoveragePct, uint64_t Fallback,
                      uint64_t StartupCycles, double SteadyMips,
                      double BaselineMips) {
  std::string Existing;
  if (std::FILE *F = std::fopen(Path, "rb")) {
    char Buf[4096];
    size_t N;
    while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
      Existing.append(Buf, N);
    std::fclose(F);
  }
  size_t Close = Existing.find_last_of('}');
  bool Merge = Close != std::string::npos &&
               Existing.find("\"aot\"") == std::string::npos;
  std::FILE *F = std::fopen(Path, "wb");
  if (!F) {
    std::fprintf(stderr, "ablation_aot: cannot write %s\n", Path);
    return;
  }
  std::string Head = "{\n";
  if (Merge) {
    Head = Existing.substr(0, Close);
    while (!Head.empty() && (Head.back() == '\n' || Head.back() == ' '))
      Head.pop_back();
    Head += ",\n";
  }
  std::fprintf(F,
               "%s  \"aot\": {\n"
               "%s"
               "    \"aot_blocks\": %llu,\n"
               "    \"aot_coverage_pct\": %llu,\n"
               "    \"aot_fallback_blocks\": %llu,\n"
               "    \"aot_startup_cycles\": %llu,\n"
               "    \"aot_steady_mips\": %g,\n"
               "    \"aot_dbt_baseline_mips\": %g\n"
               "  }\n}\n",
               Head.c_str(), perfStampJson("    ").c_str(),
               (unsigned long long)Blocks,
               (unsigned long long)CoveragePct,
               (unsigned long long)Fallback,
               (unsigned long long)StartupCycles, SteadyMips,
               BaselineMips);
  std::fclose(F);
  std::fprintf(stderr, "ablation_aot: perf record written to %s\n", Path);
}

} // namespace

int main(int argc, char **argv) {
  Options Opt = parseArgs(argc, argv);
  const char *PerfJsonPath = nullptr;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--perf-json") == 0) {
      PerfJsonPath = "results/bench_perf.json";
      if (I + 1 < argc && argv[I + 1][0] != '-')
        PerfJsonPath = argv[++I];
    } else {
      std::fprintf(stderr, "error: unknown argument %s\n", argv[I]);
      return 2;
    }
  }
  if (PerfJsonPath)
    requireOptimizedBuildForPerfJson("ablation_aot");

  banner("Ablation (beyond the paper): static AOT pre-translation vs "
         "two-phase DBT under EH",
         "hybrid trades a bounded startup bill for a first-touch-native "
         "steady state; results byte-identical in every mode");

  workloads::ScaleConfig Scale = stdScale(Opt);
  mda::PolicySpec Spec;
  Spec.Kind = mda::MechanismKind::ExceptionHandling;

  std::vector<const workloads::BenchmarkInfo *> Selected =
      workloads::selectedBenchmarks();
  std::vector<reporting::MatrixCell> Cells;
  for (const workloads::BenchmarkInfo *Info : Selected)
    for (const ModeRow &M : Modes)
      Cells.push_back({.Info = Info,
                       .Spec = Spec,
                       .Config = aotConfig(M.Mode),
                       .Label = std::string(Info->Name) + " aot/" + M.Name});
  std::vector<dbt::RunResult> Results =
      reporting::runPolicyMatrixChecked(Cells, Scale, Opt.Jobs);

  constexpr size_t NumModes = sizeof(Modes) / sizeof(Modes[0]);
  int Failures = 0;
  uint64_t AggBlocks = 0, AggFallback = 0, AggStartup = 0;
  uint64_t AggWork[NumModes] = {};
  uint64_t AggSteadyCycles[NumModes] = {};
  double CovSum = 0.0;
  double RatioLogSum = 0.0;

  TablePrinter T({"Benchmark", "Mode", "Cycles", "StartupCyc", "SteadyMIPS",
                  "Blocks", "Frontier", "Cov%", "Fallback"});
  for (size_t B = 0; B != Selected.size(); ++B) {
    const dbt::RunResult &Off = Results[B * NumModes];
    for (size_t M = 0; M != NumModes; ++M) {
      const dbt::RunResult &R = Results[B * NumModes + M];
      if (R.Checksum != Off.Checksum || R.MemoryHash != Off.MemoryHash) {
        std::fprintf(stderr,
                     "FAIL: %s diverged architecturally under aot=%s "
                     "(checksum %016llx vs %016llx, memhash %016llx vs "
                     "%016llx)\n",
                     Selected[B]->Name, Modes[M].Name,
                     (unsigned long long)R.Checksum,
                     (unsigned long long)Off.Checksum,
                     (unsigned long long)R.MemoryHash,
                     (unsigned long long)Off.MemoryHash);
        ++Failures;
      }
      if (R.Counters.get("verify.issues") != 0) {
        std::fprintf(stderr, "FAIL: %s aot=%s reported %llu verifier "
                             "issues\n",
                     Selected[B]->Name, Modes[M].Name,
                     (unsigned long long)R.Counters.get("verify.issues"));
        ++Failures;
      }
      uint64_t Startup = R.Counters.get("aot.startup_cycles");
      uint64_t Cov = R.Counters.get("aot.coverage_pct");
      uint64_t Fallback = R.Counters.get("aot.fallback_blocks");
      uint64_t Frontier = R.Counters.get("aot.frontier_sites");
      AggWork[M] += runWork(R);
      AggSteadyCycles[M] += R.Cycles > Startup ? R.Cycles - Startup : 0;
      if (Modes[M].Mode != dbt::AotMode::Off) {
        // The coverage criterion: the static set must explain >= 90% of
        // the dynamically discovered heads, and any residue must be
        // attributable to a flagged frontier site.
        if (Cov < 90) {
          std::fprintf(stderr,
                       "FAIL: %s aot=%s static coverage %llu%% < 90%%\n",
                       Selected[B]->Name, Modes[M].Name,
                       (unsigned long long)Cov);
          ++Failures;
        }
        if (Fallback > 0 && Frontier == 0) {
          std::fprintf(stderr,
                       "FAIL: %s aot=%s has %llu fallback blocks but no "
                       "frontier site to attribute them to\n",
                       Selected[B]->Name, Modes[M].Name,
                       (unsigned long long)Fallback);
          ++Failures;
        }
      }
      if (Modes[M].Mode == dbt::AotMode::Hybrid) {
        AggBlocks += R.Counters.get("aot.blocks");
        AggFallback += Fallback;
        AggStartup += Startup;
        CovSum += static_cast<double>(Cov);
        double OffMips = steadyMips(Off);
        double HybMips = steadyMips(R);
        if (HybMips < OffMips)
          std::fprintf(stderr,
                       "advisory: %s hybrid steady %.1f modeled MIPS < "
                       "DBT baseline %.1f (low-reuse row; install cycles "
                       "did not amortize)\n",
                       Selected[B]->Name, HybMips, OffMips);
        if (OffMips > 0.0 && HybMips > 0.0)
          RatioLogSum += std::log(HybMips / OffMips);
      }
      T.addRow({Selected[B]->Name, Modes[M].Name, withCommas(R.Cycles),
                withCommas(Startup), fixed1(steadyMips(R)),
                withCommas(R.Counters.get("aot.blocks")),
                withCommas(Frontier),
                Modes[M].Mode == dbt::AotMode::Off ? std::string("-")
                                                   : std::to_string(Cov),
                withCommas(Fallback)});
    }
  }
  printTable(T, "ablation_aot");

  double BaselineMips =
      AggSteadyCycles[0] ? static_cast<double>(AggWork[0]) /
                               static_cast<double>(AggSteadyCycles[0]) *
                               1000.0
                         : 0.0;
  double HybridMips =
      AggSteadyCycles[2] ? static_cast<double>(AggWork[2]) /
                               static_cast<double>(AggSteadyCycles[2]) *
                               1000.0
                         : 0.0;
  double MeanCov = Selected.empty()
                       ? 0.0
                       : CovSum / static_cast<double>(Selected.size());
  double GeomeanGain =
      Selected.empty()
          ? 1.0
          : std::exp(RatioLogSum / static_cast<double>(Selected.size()));
  std::printf("aggregate: %llu statically recovered blocks, %.1f%% mean "
              "coverage, %llu fallback heads, %s hybrid startup cycles\n",
              (unsigned long long)AggBlocks, MeanCov,
              (unsigned long long)AggFallback,
              withCommas(AggStartup).c_str());
  std::printf("steady state: DBT baseline %.1f modeled MIPS, hybrid %.1f "
              "modeled MIPS (geomean per-bench gain %+.1f%%)\n\n",
              BaselineMips, HybridMips, (GeomeanGain - 1.0) * 100.0);
  if (HybridMips < BaselineMips) {
    std::fprintf(stderr,
                 "FAIL: aggregate hybrid steady %.1f modeled MIPS < DBT "
                 "baseline %.1f\n",
                 HybridMips, BaselineMips);
    ++Failures;
  }
  if (GeomeanGain < 1.0) {
    std::fprintf(stderr,
                 "FAIL: per-benchmark geomean hybrid/baseline steady gain "
                 "%+.1f%% is negative\n",
                 (GeomeanGain - 1.0) * 100.0);
    ++Failures;
  }

  if (PerfJsonPath && Failures == 0)
    writeAotPerfJson(PerfJsonPath, AggBlocks,
                     static_cast<uint64_t>(MeanCov + 0.5), AggFallback,
                     AggStartup, HybridMips, BaselineMips);

  return Failures == 0 ? 0 : 1;
}
