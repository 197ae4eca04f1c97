//===- benchmark/src/Phase.h - The timed request phase ---------*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a list of requests as a closed loop of clients and checks every
/// result against its program's oracle record.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_BENCHMARK_PHASE_H
#define MDABT_BENCHMARK_PHASE_H

#include "Spans.h"
#include "Workloads.h"

#include "dbt/TranslationService.h"

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace mdabt {
namespace benchmark {

struct PhaseResult {
  double WallS = 0.0;
  /// Per request, in the order of the indices the phase ran.
  std::vector<double> LatencyMs;
  std::vector<uint64_t> Cycles;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Guest instructions the requests executed, counted by the oracle.
  uint64_t GuestInsts = 0;
  /// Totals of the RunResult counters listed in Phase.cpp, by name.
  std::map<std::string, uint64_t> Sums;
};

/// Run requests \p Indices of \p W, the K-th under \p Policies[K] (one
/// fresh policy per entry, consumed by the run).  W.Clients threads each
/// take the next request once their previous one finished.  \p Service
/// is attached to every request when non-null.  \p VerifyOverride, when
/// set, replaces each request's EngineConfig::Verify.
PhaseResult runPhase(const Workload &W, const std::vector<size_t> &Indices,
                     std::vector<std::unique_ptr<dbt::MdaPolicy>> &Policies,
                     dbt::TranslationService *Service, SpanRecorder &Spans,
                     uint64_t ParentSpan,
                     std::optional<bool> VerifyOverride = std::nullopt);

} // namespace benchmark
} // namespace mdabt

#endif // MDABT_BENCHMARK_PHASE_H
