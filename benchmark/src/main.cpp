//===- benchmark/src/main.cpp - The MDABT benchmark driver ----------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload of the benchmark and reports its metrics
/// (benchmark/README.md defines each one):
///
///   mdabt_benchmark --workload W [--seed S] [--seconds N] [--trace 0|1]
///                   [--out DIR] [--rev REV]
///   mdabt_benchmark --self-test [--out DIR]
///
/// A run sets the workload up several times (set-up time is a metric of
/// its own), records the interpreter oracle for every distinct program
/// (untimed), then times the request phase with tracing off.  With
/// --trace 1 it repeats the phase with spans on, runs the layer probes
/// and reports the per-layer metrics instead of the end-to-end ones.
///
/// The last line of stdout is one JSON object {correct, attempted,
/// failed, metrics}; DIR/W.json holds the full record, stamped with the
/// build so results of different builds are never compared.  Exit status:
/// 0 clean, 1 if any request differed from its oracle, 2 on bad usage or
/// a build unfit to measure.
///
//===----------------------------------------------------------------------===//

#include "Phase.h"
#include "Probes.h"
#include "Spans.h"
#include "Workloads.h"

#include "dbt/TranslationService.h"
#include "support/Stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

// A measurement of a debug or sanitized build ranks nothing: refuse it.
#if !defined(__OPTIMIZE__)
#define MDABT_BENCH_UNFIT "it is not an optimized build"
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MDABT_BENCH_UNFIT "it is built with a sanitizer"
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||    \
    __has_feature(memory_sanitizer) ||                                         \
    __has_feature(undefined_behavior_sanitizer)
#define MDABT_BENCH_UNFIT "it is built with a sanitizer"
#endif
#endif

#ifndef MDABT_BENCH_BUILD_TYPE
#define MDABT_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef MDABT_BENCH_COMPILER
#define MDABT_BENCH_COMPILER "unknown"
#endif

using namespace mdabt;
using namespace mdabt::benchmark;

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Seconds = 20;
  bool Trace = false;
  std::string OutDir = "benchmark/out";
  std::string Rev = "unknown";
  bool SelfTest = false;
};

[[noreturn]] void usage(const char *Error) {
  std::fprintf(stderr,
               "usage: mdabt_benchmark --workload W [--seed S] [--seconds N] "
               "[--trace 0|1] [--out DIR] [--rev REV]\n"
               "       mdabt_benchmark --self-test [--out DIR]\n"
               "error: %s\n",
               Error);
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value for " + A).c_str());
      return Argv[++I];
    };
    auto Number = [&](uint64_t Max) -> uint64_t {
      std::string V = Value();
      char *End = nullptr;
      unsigned long long N = std::strtoull(V.c_str(), &End, 0);
      if (V.empty() || *End != '\0' || V[0] == '-' || N > Max)
        usage(("bad value for " + A).c_str());
      return N;
    };
    if (A == "--workload") {
      O.Workload = Value();
    } else if (A == "--seed") {
      O.Seed = Number(~0ULL);
    } else if (A == "--seconds") {
      O.Seconds = static_cast<unsigned>(Number(3600));
      if (O.Seconds == 0)
        usage("--seconds must be at least 1");
    } else if (A == "--trace") {
      O.Trace = Number(1) != 0;
    } else if (A == "--out") {
      O.OutDir = Value();
    } else if (A == "--rev") {
      O.Rev = Value();
    } else if (A == "--self-test") {
      O.SelfTest = true;
    } else {
      usage(("unknown argument " + A).c_str());
    }
  }
  if (!O.SelfTest && O.Workload.empty())
    usage("--workload is required");
  return O;
}

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Nearest-rank percentile \p Q (0..1].
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * V.size()));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double ratio(double A, double B) { return B != 0.0 ? A / B : 0.0; }

std::vector<size_t> iota(size_t N) {
  std::vector<size_t> V(N);
  for (size_t I = 0; I != N; ++I)
    V[I] = I;
  return V;
}

double peakRssMb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux
}

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

/// Everything one workload run produced.
struct Outcome {
  std::string Workload;
  bool Deterministic = false;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> EndToEnd;
  std::vector<Metric> PerLayer;
  std::map<std::string, uint64_t> Counts;
  std::vector<Span> Spans;

  double failFrac() const { return ratio(Failed, Attempted); }
  bool correct() const { return Failed == 0; }
};

/// Geomean over programs of modeled cycles under \p Kind relative to
/// plain exception handling (the Fig. 16 normalization), from the first
/// request of each (program, policy) pair.  0 if the workload has none.
double vsEh(const Workload &W, const PhaseResult &P, mda::MechanismKind Kind) {
  std::map<size_t, uint64_t> Eh, Other;
  for (size_t K = 0; K != W.Requests.size(); ++K) {
    const Request &R = W.Requests[K];
    if (R.Spec.Kind == mda::MechanismKind::ExceptionHandling &&
        !R.Spec.Rearrange)
      Eh.emplace(R.Program, P.Cycles[K]);
    if (R.Spec.Kind == Kind)
      Other.emplace(R.Program, P.Cycles[K]);
  }
  std::vector<double> Ratios;
  for (const auto &[Prog, Cycles] : Other)
    if (auto It = Eh.find(Prog); It != Eh.end() && It->second != 0)
      Ratios.push_back(static_cast<double>(Cycles) /
                       static_cast<double>(It->second));
  return Ratios.empty() ? 0.0 : geometricMean(Ratios);
}

/// The body of runWorkload, inside its root span \p RootId.
void measure(const Options &O, bool Tiny, bool CorruptOracle,
             SpanRecorder &Spans, uint64_t RootId, Outcome &Out) {
  // --- set-up: image synthesis + every request's policy.  Repeated at
  // least three times and for at least a second, and the median is
  // reported, so that a set-up of microseconds is not one noisy sample.
  // The first repetition's inputs are the ones used, and only it is
  // traced.
  std::vector<double> SetupS, BuildMs, PolicyMs;
  std::optional<Workload> W;
  std::vector<std::unique_ptr<dbt::MdaPolicy>> Policies;
  SpanRecorder Untraced(false);
  auto SetupStart = Clock::now();
  for (int Rep = 0;
       Rep < (Tiny ? 1 : 3) || (!Tiny && secondsSince(SetupStart) < 1.0);
       ++Rep) {
    SpanRecorder &Rec = Rep == 0 ? Spans : Untraced;
    auto T0 = Clock::now();
    std::optional<Workload> Built;
    {
      SpanRecorder::Scope S(Rec, "workloads.build", RootId);
      Built = buildWorkload(O.Workload, O.Seed, O.Seconds, Tiny);
    }
    if (!Built)
      usage(("unknown workload " + O.Workload).c_str());
    auto T1 = Clock::now();
    std::vector<std::unique_ptr<dbt::MdaPolicy>> Pols;
    {
      SpanRecorder::Scope S(Rec, "mda.policy", RootId);
      Pols = makePolicies(*Built, iota(Built->Requests.size()));
    }
    SetupS.push_back(secondsSince(T0));
    BuildMs.push_back(std::chrono::duration<double, std::milli>(T1 - T0)
                          .count());
    PolicyMs.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - T1)
            .count());
    if (Rep == 0) {
      W = std::move(Built);
      Policies = std::move(Pols);
    }
  }
  Out.Deterministic = W->Clients == 1;
  const std::vector<size_t> All = iota(W->Requests.size());

  // --- the oracle: untimed, once per distinct program.  It uses as many
  // threads as the workload has clients, so it holds no more guest
  // memories at once than the request phase and leaves peak_rss_mb to
  // the phase.
  std::vector<double> InterpS(W->Programs.size(), 0.0);
  {
    SpanRecorder::Scope S(Spans, "oracle", RootId);
    std::atomic<size_t> Next{0};
    auto Worker = [&]() {
      for (size_t I; (I = Next.fetch_add(1)) < W->Programs.size();) {
        SpanRecorder::Scope Interp(Spans, "guest.interp", S.id());
        W->Programs[I].Expected = runOracle(W->Programs[I].Image, InterpS[I]);
      }
    };
    std::vector<std::thread> Pool;
    for (unsigned T = 1; T < W->Clients; ++T)
      Pool.emplace_back(Worker);
    Worker();
    for (std::thread &T : Pool)
      T.join();
  }
  double OracleS = 0.0;
  uint64_t OracleInsts = 0;
  for (size_t I = 0; I != W->Programs.size(); ++I) {
    OracleS += InterpS[I];
    OracleInsts += W->Programs[I].Expected.Insts;
  }
  if (CorruptOracle)
    W->Programs[W->Requests.front().Program].Expected.Checksum ^= 1;

  // --- the timed phase, tracing off.
  PhaseResult E2E;
  {
    // One span around the whole phase; none inside it.
    SpanRecorder::Scope S(Spans, "phase.untraced", RootId);
    bool Trace = Spans.enabled();
    Spans.setEnabled(false);
    std::optional<dbt::TranslationService> Service;
    if (W->SharedService)
      Service.emplace();
    E2E = runPhase(*W, All, Policies, Service ? &*Service : nullptr, Spans, 0);
    Spans.setEnabled(Trace);
  }
  Out.Attempted += E2E.Attempted;
  Out.Failed += E2E.Failed;
  Out.Counts = E2E.Sums;
  Out.Counts["guest.insts"] = E2E.GuestInsts;
  Out.Counts["requests"] = E2E.Attempted;
  double SetupMedian = median(SetupS);
  Out.EndToEnd = {
      {"setup_s", SetupMedian, "s"},
      {"wall_s", E2E.WallS, "s"},
      {"guest_mips", ratio(E2E.GuestInsts, E2E.WallS) / 1e6, "MIPS"},
      {"run_ms_p50", percentile(E2E.LatencyMs, 0.5), "ms"},
      {"run_ms_p90", percentile(E2E.LatencyMs, 0.9), "ms"},
      {"modeled_mips",
       ratio(E2E.GuestInsts, E2E.Sums["cycles.total"]) * 1000.0, "MIPS"},
      {"peak_rss_mb", peakRssMb(), "MiB"},
  };
  if (!O.Trace)
    return;

  // --- the traced pass: the same phase with spans on, then the probes.
  PhaseResult T;
  std::optional<dbt::TranslationService> Service;
  {
    SpanRecorder::Scope Phase(Spans, "phase", RootId);
    std::vector<std::unique_ptr<dbt::MdaPolicy>> Pols;
    {
      SpanRecorder::Scope S(Spans, "mda.policy", Phase.id());
      Pols = makePolicies(*W, All);
    }
    if (W->SharedService)
      Service.emplace();
    T = runPhase(*W, All, Pols, Service ? &*Service : nullptr, Spans,
                 Phase.id());
  }
  Out.Attempted += T.Attempted;
  Out.Failed += T.Failed;

  // Verifier cost by A/B on the same requests: all of them where the
  // workload runs the verifier, a sample elsewhere.  A shared-service
  // workload runs both arms without the service, so cache warmth cannot
  // masquerade as verifier cost.
  double VerifyMs = 0.0;
  {
    SpanRecorder::Scope AB(Spans, "ab.verify", RootId);
    bool ConfigVerify = W->Requests.front().Config.Verify;
    std::vector<size_t> Sample =
        ConfigVerify ? All
                     : iota(std::min<size_t>(4, W->Requests.size()));
    auto Arm = [&](bool Verify) {
      std::vector<std::unique_ptr<dbt::MdaPolicy>> Pols =
          makePolicies(*W, Sample);
      PhaseResult R =
          runPhase(*W, Sample, Pols, nullptr, Spans, AB.id(), Verify);
      Out.Attempted += R.Attempted;
      Out.Failed += R.Failed;
      return arithmeticMean(R.LatencyMs);
    };
    double OnMs, OffMs;
    if (W->SharedService) {
      OnMs = Arm(true);
      OffMs = Arm(false);
    } else {
      std::vector<double> Traced;
      for (size_t K : Sample)
        Traced.push_back(T.LatencyMs[K]);
      (ConfigVerify ? OnMs : OffMs) = arithmeticMean(Traced);
      (ConfigVerify ? OffMs : OnMs) = Arm(!ConfigVerify);
    }
    VerifyMs = OnMs - OffMs;
  }

  int Reps = Tiny ? 3 : 15;
  std::vector<const guest::GuestImage *> Images;
  for (const Program &P : W->Programs)
    if (Images.size() < 32)
      Images.push_back(&P.Image);
  const guest::GuestImage &First = W->Programs.front().Image;
  auto Probe = [&](const char *Name, auto Fn) {
    SpanRecorder::Scope S(Spans, Name, RootId);
    return Fn();
  };
  double MemInitMs =
      Probe("probe.mem_init", [&] { return probeMemInitMs(First, Reps); });
  double HashMs = Probe("probe.hash", [&] { return probeHashMs(First, Reps); });
  double HostMips =
      Probe("probe.host_sim", [&] { return probeHostSimMips(Tiny ? 1 : 11); });
  double AlignMs = Probe("probe.align", [&] { return probeAlignMs(Images); });
  double CfgMs = Probe("probe.cfg", [&] { return probeCfgMs(Images); });
  double TranslateUs =
      Probe("probe.translate", [&] { return probeTranslateUs(Images); });

  // Serving-artifact save and load: the stream's own cache where the
  // workload has one, else a cache filled by one request.
  if (!Service) {
    SpanRecorder::Scope S(Spans, "probe.cache_fill", RootId);
    Service.emplace();
    std::vector<size_t> One = {0};
    std::vector<std::unique_ptr<dbt::MdaPolicy>> Pols = makePolicies(*W, One);
    PhaseResult R = runPhase(*W, One, Pols, &*Service, Spans, S.id());
    Out.Attempted += R.Attempted;
    Out.Failed += R.Failed;
  }
  std::string Artifact = O.OutDir + "/" + O.Workload + ".cache.bin";
  double SaveMs = Probe("probe.cache_save", [&] {
    auto T0 = Clock::now();
    bool Ok = Service->save(Artifact);
    return Ok ? secondsSince(T0) * 1e3 : 0.0;
  });
  double LoadMs = Probe("probe.cache_load", [&] {
    dbt::TranslationService Fresh;
    auto T0 = Clock::now();
    bool Ok = Fresh.load(Artifact);
    return Ok ? secondsSince(T0) * 1e3 : 0.0;
  });
  std::remove(Artifact.c_str());
  if (SaveMs == 0.0 || LoadMs == 0.0)
    std::fprintf(stderr, "warning: serving-artifact probe failed at %s\n",
                 Artifact.c_str());

  // --- per-layer metrics, counts from the traced pass.
  std::map<std::string, uint64_t> &C = T.Sums;
  auto Share = [&](const char *Name) {
    return ratio(C[Name], C["cycles.total"]);
  };
  double InterpMips = ratio(OracleInsts, OracleS) / 1e6;
  double Busy = T.WallS * std::min<size_t>(W->Clients, T.Attempted);
  double N = static_cast<double>(T.Attempted);
  double InterpShare = ratio(ratio(C["interp.insts"], InterpMips * 1e6), Busy);
  double HostShare = ratio(ratio(C["host.insts"], HostMips * 1e6), Busy);
  double HashShare = ratio(N * HashMs / 1e3, Busy);
  double MemInitShare = ratio(N * MemInitMs / 1e3, Busy);
  double TranslateShare =
      ratio(C["dbt.translations"] * TranslateUs / 1e6, Busy);
  uint64_t Lookups = C["dispatch.table_hits"] + C["dispatch.table_misses"];
  using mda::MechanismKind;
  Out.PerLayer = {
      {"workloads.build_ms", median(BuildMs), "ms"},
      {"mda.policy_ms", median(PolicyMs), "ms"},
      {"mda.traps", double(C["dbt.fault_traps"]), "count"},
      {"mda.patches", double(C["dbt.patches"]), "count"},
      {"mda.supersedes", double(C["dbt.supersedes"]), "count"},
      {"mda.traps_cycle_share", Share("cycles.traps"), "ratio"},
      {"mda.fig16_dpeh_vs_eh", vsEh(*W, T, MechanismKind::Dpeh), "ratio"},
      {"mda.fig16_dynprof_vs_eh",
       vsEh(*W, T, MechanismKind::DynamicProfiling), "ratio"},
      {"mda.fig16_static_vs_eh", vsEh(*W, T, MechanismKind::StaticProfiling),
       "ratio"},
      {"mda.fig16_direct_vs_eh", vsEh(*W, T, MechanismKind::Direct),
       "ratio"},
      {"guest.mem_init_ms", MemInitMs, "ms"},
      {"guest.interp_mips", InterpMips, "MIPS"},
      {"guest.interp_insts", double(C["interp.insts"]), "count"},
      {"host.sim_mips", HostMips, "MIPS"},
      {"host.insts", double(C["host.insts"]), "count"},
      {"host.insts_per_guest", ratio(C["host.insts"], T.GuestInsts), "ratio"},
      {"host.l1d_mpki", ratio(C["host.l1d_misses"], C["host.insts"]) * 1e3,
       "1/kinst"},
      {"dbt.hash_ms", HashMs, "ms"},
      {"dbt.translate_us", TranslateUs, "us"},
      {"dbt.translations", double(C["dbt.translations"]), "count"},
      {"dbt.cycles_native_share", Share("cycles.native"), "ratio"},
      {"dbt.cycles_interp_share", Share("cycles.interp"), "ratio"},
      {"dbt.cycles_translate_share", Share("cycles.translate"), "ratio"},
      {"dbt.cycles_monitor_share", Share("cycles.monitor"), "ratio"},
      {"dbt.cycles_chain_share", Share("cycles.chain"), "ratio"},
      {"dbt.dispatch_hit_rate", ratio(C["dispatch.table_hits"], Lookups),
       "ratio"},
      {"dbt.dispatch_probes_per_lookup",
       ratio(C["dispatch.table_probes"], Lookups), "ratio"},
      {"dbt.ic_misses", double(C["dispatch.ic_misses"]), "count"},
      {"dbt.trace_formed", double(C["trace.formed"]), "count"},
      {"dbt.trace_deopts", double(C["trace.deopts"]), "count"},
      {"dbt.fusion_sites", double(C["fusion.sites"]), "count"},
      {"dbt.fusion_saved_words", double(C["fusion.saved_words"]), "count"},
      {"dbt.cache_hit_rate",
       ratio(C["cache.hits"], C["cache.hits"] + C["cache.misses"]), "ratio"},
      {"dbt.cache_hits", double(C["cache.hits"]), "count"},
      {"dbt.cache_misses", double(C["cache.misses"]), "count"},
      {"dbt.smc_invalidations", double(C["smc.invalidations"]), "count"},
      {"dbt.cache_save_ms", SaveMs, "ms"},
      {"dbt.cache_load_ms", LoadMs, "ms"},
      {"dbt.aot_installed", double(C["aot.installed"]), "count"},
      {"dbt.aot_coverage_pct",
       ratio(C["aot.covered_blocks"],
             C["aot.covered_blocks"] + C["aot.fallback_blocks"]) *
           100.0,
       "%"},
      {"dbt.aot_startup_share", Share("aot.startup_cycles"), "ratio"},
      {"analysis.align_ms", AlignMs, "ms"},
      {"analysis.cfg_ms", CfgMs, "ms"},
      {"analysis.verify_ms", VerifyMs, "ms"},
      {"analysis.verify_words", double(C["verify.words"]), "count"},
      {"analysis.verify_passes", double(C["verify.passes"]), "count"},
      {"analysis.aligned_frac",
       ratio(C["analysis.provably_aligned"], C["analysis.mem_sites"]),
       "ratio"},
      {"analysis.reanalyses", double(C["smc.reanalyses"]), "count"},
      {"bench.interp_share_est", InterpShare, "ratio"},
      {"bench.host_share_est", HostShare, "ratio"},
      {"bench.hash_share_est", HashShare, "ratio"},
      {"bench.mem_init_share_est", MemInitShare, "ratio"},
      {"bench.translate_share_est", TranslateShare, "ratio"},
      {"bench.unattributed_share",
       1.0 - InterpShare - HostShare - HashShare - MemInitShare -
           TranslateShare,
       "ratio"},
      {"bench.trace_overhead", ratio(T.WallS, E2E.WallS) - 1.0, "ratio"},
  };
}

/// Run workload \p O.Workload once.  \p Tiny selects the self-test scale;
/// \p CorruptOracle flips one oracle record to prove the check fires.
Outcome runWorkload(const Options &O, bool Tiny, bool CorruptOracle) {
  Outcome Out;
  Out.Workload = O.Workload;
  SpanRecorder Spans(O.Trace);
  {
    SpanRecorder::Scope Root(Spans, "workload", 0);
    measure(O, Tiny, CorruptOracle, Spans, Root.id(), Out);
  }
  Out.Spans = Spans.spans();
  if (O.Trace) {
    std::string Path = O.OutDir + "/" + O.Workload + ".trace.jsonl";
    if (!Spans.writeJsonl(Path))
      std::fprintf(stderr, "warning: cannot write %s\n", Path.c_str());
    std::fprintf(stderr, "%s", Spans.selfTimeTable().c_str());
  }
  return Out;
}

int exitStatus(const Outcome &Out) { return Out.correct() ? 0 : 1; }

std::string num(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

std::string metricsJson(const std::vector<Metric> &Metrics) {
  std::string S = "{";
  for (const Metric &M : Metrics) {
    if (S.size() > 1)
      S += ",";
    S += "\"" + M.Name + "\":{\"value\":" + num(M.Value) + ",\"unit\":\"" +
         M.Unit + "\"}";
  }
  return S + "}";
}

/// The result line BENCHMARK.json describes: end-to-end metrics untraced,
/// per-layer metrics traced.
std::string resultLine(const Options &O, const Outcome &Out) {
  return "{\"correct\":" + std::string(Out.correct() ? "true" : "false") +
         ",\"attempted\":" + std::to_string(Out.Attempted) +
         ",\"failed\":" + std::to_string(Out.Failed) + ",\"metrics\":" +
         metricsJson(O.Trace ? Out.PerLayer : Out.EndToEnd) + "}";
}

/// DIR/W.json: the full record benchmark/compare.py reads.
std::string resultRecord(const Options &O, const Outcome &Out) {
  std::string Counts = "{";
  for (const auto &[Name, V] : Out.Counts) {
    if (Counts.size() > 1)
      Counts += ",";
    Counts += "\"" + Name + "\":" + std::to_string(V);
  }
  Counts += "}";
  return "{\"workload\":\"" + O.Workload + "\",\"seed\":" +
         std::to_string(O.Seed) + ",\"seconds\":" +
         std::to_string(O.Seconds) + ",\"trace\":" +
         (O.Trace ? "true" : "false") + ",\"deterministic\":" +
         (Out.Deterministic ? "true" : "false") +
         ",\"stamp\":{\"build_type\":\"" MDABT_BENCH_BUILD_TYPE
         "\",\"compiler\":\"" MDABT_BENCH_COMPILER "\",\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"rev\":\"" + O.Rev + "\",\"seed\":" + std::to_string(O.Seed) +
         "},\"correct\":" + (Out.correct() ? "true" : "false") +
         ",\"attempted\":" + std::to_string(Out.Attempted) +
         ",\"failed\":" + std::to_string(Out.Failed) +
         ",\"fail_frac\":" + num(Out.failFrac()) +
         ",\"end_to_end\":" + metricsJson(Out.EndToEnd) +
         ",\"per_layer\":" + metricsJson(Out.PerLayer) +
         ",\"counts\":" + Counts + "}\n";
}

void printSummary(const Outcome &Out) {
  std::fprintf(stderr, "%s: %llu requests attempted, %llu failed\n",
               Out.Workload.c_str(),
               static_cast<unsigned long long>(Out.Attempted),
               static_cast<unsigned long long>(Out.Failed));
  for (const std::vector<Metric> *Ms : {&Out.EndToEnd, &Out.PerLayer})
    for (const Metric &M : *Ms)
      std::fprintf(stderr, "  %-32s %14.6g %s\n", M.Name.c_str(), M.Value,
                   M.Unit);
}

/// Tiny runs of every workload: clean runs must pass with a well-formed
/// span tree, and a corrupted oracle record must be caught.
int selfTest(Options O) {
  auto T0 = Clock::now();
  int Failures = 0;
  auto Expect = [&](bool Ok, const std::string &What) {
    if (!Ok) {
      std::fprintf(stderr, "self-test FAIL: %s\n", What.c_str());
      ++Failures;
    }
  };
  O.Trace = true;
  for (const std::string &Name : workloadNames()) {
    O.Workload = Name;
    Outcome Out = runWorkload(O, /*Tiny=*/true, /*CorruptOracle=*/false);
    Expect(Out.Attempted > 0 && exitStatus(Out) == 0,
           Name + ": clean run reported failures");
    std::string Defect = SpanRecorder::checkTree(Out.Spans);
    Expect(!Out.Spans.empty() && Defect.empty(),
           Name + ": malformed span tree: " + Defect);
    for (const std::vector<Metric> *Ms : {&Out.EndToEnd, &Out.PerLayer})
      for (const Metric &M : *Ms)
        Expect(std::isfinite(M.Value), Name + ": " + M.Name + " not finite");
  }

  O.Workload = "hotpath";
  O.Trace = false;
  std::fprintf(stderr, "self-test: corrupting one oracle record; the FAIL "
                       "lines that follow are expected\n");
  Outcome Bad = runWorkload(O, /*Tiny=*/true, /*CorruptOracle=*/true);
  Expect(Bad.failFrac() > 0.0, "a corrupted oracle record went unnoticed");
  Expect(exitStatus(Bad) != 0, "a corrupted oracle record exits 0");

  // The tree check itself must reject a missing parent and a child that
  // escapes its parent.
  Span Parent{"p", 1, 0, -1, 0, 10};
  Expect(!SpanRecorder::checkTree({Parent, {"c", 2, 9, -1, 1, 2}}).empty(),
         "checkTree accepts a missing parent");
  Expect(!SpanRecorder::checkTree({Parent, {"c", 2, 1, -1, 5, 11}}).empty(),
         "checkTree accepts a child outside its parent");

  std::fprintf(stderr, "self-test %s in %.1f s\n",
               Failures ? "FAILED" : "passed", secondsSince(T0));
  return Failures ? 1 : 0;
}

} // namespace

int main(int argc, char **argv) {
#ifdef MDABT_BENCH_UNFIT
  std::fprintf(stderr,
               "mdabt_benchmark: refusing to measure this build: %s "
               "(build type %s)\n",
               MDABT_BENCH_UNFIT, MDABT_BENCH_BUILD_TYPE);
  return 2;
#else
  Options O = parseArgs(argc, argv);
  std::error_code EC;
  std::filesystem::create_directories(O.OutDir, EC);
  if (EC)
    usage(("cannot create " + O.OutDir + ": " + EC.message()).c_str());
  if (O.SelfTest) {
    O.OutDir += "/self-test";
    std::filesystem::create_directories(O.OutDir, EC);
    return selfTest(O);
  }

  Outcome Out = runWorkload(O, /*Tiny=*/false, /*CorruptOracle=*/false);
  printSummary(Out);
  std::string Path = O.OutDir + "/" + O.Workload + ".json";
  if (std::FILE *F = std::fopen(Path.c_str(), "w")) {
    std::string Record = resultRecord(O, Out);
    std::fwrite(Record.data(), 1, Record.size(), F);
    std::fclose(F);
  } else {
    std::fprintf(stderr, "warning: cannot write %s\n", Path.c_str());
  }
  std::printf("%s\n", resultLine(O, Out).c_str());
  return exitStatus(Out);
#endif
}
