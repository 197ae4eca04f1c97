//===- benchmark/src/Phase.cpp --------------------------------------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//

#include "Phase.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

using namespace mdabt;
using namespace mdabt::benchmark;

namespace {

/// The RunResult counters a phase sums over its requests.
const std::vector<std::string> &summedCounters() {
  static const std::vector<std::string> Names = {
      "cycles.total",         "cycles.native",
      "cycles.interp",        "cycles.translate",
      "cycles.monitor",       "cycles.chain",
      "cycles.traps",         "interp.insts",
      "host.insts",           "host.l1d_misses",
      "dbt.translations",     "dbt.supersedes",
      "dbt.patches",          "dbt.fault_traps",
      "dispatch.table_hits",  "dispatch.table_misses",
      "dispatch.table_probes", "dispatch.ic_misses",
      "trace.formed",         "trace.deopts",
      "fusion.sites",         "fusion.saved_words",
      "cache.hits",           "cache.misses",
      "smc.invalidations",    "smc.reanalyses",
      "aot.installed",        "aot.covered_blocks",
      "aot.fallback_blocks",  "aot.startup_cycles",
      "verify.passes",        "verify.words",
      "analysis.mem_sites",   "analysis.provably_aligned",
  };
  return Names;
}

} // namespace

PhaseResult mdabt::benchmark::runPhase(
    const Workload &W, const std::vector<size_t> &Indices,
    std::vector<std::unique_ptr<dbt::MdaPolicy>> &Policies,
    dbt::TranslationService *Service, SpanRecorder &Spans, uint64_t ParentSpan,
    std::optional<bool> VerifyOverride) {
  const std::vector<std::string> &Names = summedCounters();
  size_t N = Indices.size();
  PhaseResult P;
  P.LatencyMs.assign(N, 0.0);
  P.Cycles.assign(N, 0);
  std::vector<uint8_t> Ok(N, 0);
  std::vector<std::vector<uint64_t>> Counts(N);
  std::atomic<size_t> Next{0};

  auto Client = [&]() {
    for (size_t K; (K = Next.fetch_add(1)) < N;) {
      size_t I = Indices[K];
      const Request &Req = W.Requests[I];
      const Program &Prog = W.Programs[Req.Program];
      dbt::EngineConfig Config = Req.Config;
      Config.Service = Service;
      if (VerifyOverride)
        Config.Verify = *VerifyOverride;
      // An exception must not escape the client thread; it counts as a
      // failed request like any other wrong result.
      try {
        auto T0 = std::chrono::steady_clock::now();
        dbt::RunResult R;
        {
          SpanRecorder::Scope RequestSpan(Spans, "request", ParentSpan,
                                          static_cast<int64_t>(K));
          dbt::Engine Engine(Prog.Image, *Policies[K], Config);
          SpanRecorder::Scope RunSpan(Spans, "engine.run", RequestSpan.id(),
                                      static_cast<int64_t>(K));
          R = Engine.run();
        }
        P.LatencyMs[K] = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - T0)
                             .count();
        Ok[K] = matchesOracle(R, Prog.Expected);
        P.Cycles[K] = R.Cycles;
        Counts[K].reserve(Names.size());
        for (const std::string &Name : Names)
          Counts[K].push_back(R.Counters.get(Name));
        if (!Ok[K])
          std::fprintf(stderr,
                       "FAIL: request %zu (%s under %s) differs from the "
                       "interpreter oracle (%s)\n",
                       K, Prog.Name.c_str(),
                       mda::policySpecName(Req.Spec).c_str(),
                       dbt::runErrorName(R.Error));
      } catch (const std::exception &E) {
        std::fprintf(stderr, "FAIL: request %zu threw: %s\n", K, E.what());
      }
    }
  };

  auto T0 = std::chrono::steady_clock::now();
  size_t Clients = std::min<size_t>(W.Clients, N);
  if (Clients <= 1) {
    Client();
  } else {
    std::vector<std::thread> Threads;
    for (size_t C = 0; C != Clients; ++C)
      Threads.emplace_back(Client);
    for (std::thread &T : Threads)
      T.join();
  }
  P.WallS = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          T0)
                .count();

  for (const std::string &Name : Names)
    P.Sums[Name] = 0;
  for (size_t K = 0; K != N; ++K) {
    ++P.Attempted;
    P.Failed += Ok[K] ? 0 : 1;
    P.GuestInsts += W.Programs[W.Requests[Indices[K]].Program].Expected.Insts;
    for (size_t C = 0; C != Counts[K].size(); ++C)
      P.Sums[Names[C]] += Counts[K][C];
  }
  return P;
}
