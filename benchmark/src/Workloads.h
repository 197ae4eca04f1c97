//===- benchmark/src/Workloads.h - The benchmark's workloads ---*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four workloads of the benchmark (benchmark/README.md explains why
/// each exists).  A workload is a set of distinct guest programs plus a
/// stream of requests, each running one program under one MDA policy and
/// one engine configuration.  Every input is generated up front from the
/// seed; the program under test only ever sees the generated images.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_BENCHMARK_WORKLOADS_H
#define MDABT_BENCHMARK_WORKLOADS_H

#include "dbt/Engine.h"
#include "guest/GuestCPU.h"
#include "guest/GuestImage.h"
#include "mda/PolicyFactory.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace mdabt {
namespace benchmark {

/// What the interpreter oracle observed for one program: everything a
/// request's result is checked against, plus the guest instruction count
/// the MIPS metrics are computed from.  Flags are excluded: translated
/// code does not keep guest flags across blocks.
struct Oracle {
  bool Halted = false;
  uint64_t Checksum = 0;
  uint64_t MemoryHash = 0;
  uint32_t Gpr[guest::NumGPR] = {};
  uint64_t Qreg[guest::NumQReg] = {};
  uint64_t Insts = 0;
};

/// One distinct guest program.
struct Program {
  std::string Name;
  guest::GuestImage Image;
  /// The TRAIN-input image, present when some request runs the program
  /// under static profiling (the policy is built from its profile).
  std::optional<guest::GuestImage> Train;
  Oracle Expected;
};

/// One request: Engine(Image, Policy, Config) construction plus run().
struct Request {
  size_t Program = 0;
  mda::PolicySpec Spec;
  dbt::EngineConfig Config;
};

struct Workload {
  /// Closed-loop clients: each sends its next request only after its
  /// previous one finished.
  unsigned Clients = 1;
  /// Every request of a phase shares one TranslationService that starts
  /// empty.
  bool SharedService = false;
  std::vector<Program> Programs;
  /// Requests in send order.
  std::vector<Request> Requests;
};

/// Workload names, in report order.
const std::vector<std::string> &workloadNames();

/// Synthesize workload \p Name from \p Seed (oracle records left empty).
/// \p Seconds sizes the request stream: the reference machine spends
/// about that long on the timed phase.  \p Tiny selects the seconds-scale
/// inputs of the self-test instead.  Returns nullopt for an unknown name.
std::optional<Workload> buildWorkload(const std::string &Name, uint64_t Seed,
                                      unsigned Seconds, bool Tiny);

/// One fresh policy per request in \p Indices.  Each static-profiling
/// program's train profile is collected once and shared by its requests.
std::vector<std::unique_ptr<dbt::MdaPolicy>>
makePolicies(const Workload &W, const std::vector<size_t> &Indices);

/// Interpret \p Image to completion.  \p InterpSeconds receives the time
/// of Interpreter::run alone, without the memory set-up and hash.
Oracle runOracle(const guest::GuestImage &Image, double &InterpSeconds);

/// True if \p R completed and reproduced \p O's observable state.
bool matchesOracle(const dbt::RunResult &R, const Oracle &O);

} // namespace benchmark
} // namespace mdabt

#endif // MDABT_BENCHMARK_WORKLOADS_H
