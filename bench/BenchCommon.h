//===- bench/BenchCommon.h - Shared bench-harness helpers ------*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-table/per-figure bench binaries: uniform
/// CLI parsing (--jobs/--seed/--refs — every bench binary accepts the
/// same flags), the standard scale (overridable via --refs or
/// MDABT_REFS for quick runs), and uniform printing.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_BENCH_BENCHCOMMON_H
#define MDABT_BENCH_BENCHCOMMON_H

#include "reporting/Experiment.h"
#include "support/Format.h"
#include "support/Stats.h"
#include "support/TablePrinter.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

namespace mdabt {
namespace bench {

/// CLI options shared by every bench binary.
struct Options {
  /// Worker threads for the experiment matrix; 0 = hardware
  /// concurrency.  Results are bit-identical for every value.
  unsigned Jobs = 0;
  /// Base seed for randomized campaigns (chaos_soak).
  uint64_t Seed = 0xC0FFEE;
  /// Per-run memory-reference target; 0 = default (MDABT_REFS or the
  /// standard 1.5M).
  uint64_t Refs = 0;
  /// Enable the static alignment analysis (EngineConfig::Analysis) for
  /// every engine run the bench performs.
  bool Analysis = false;
  /// Enable hybrid static AOT pre-translation (EngineConfig::Aot =
  /// AotMode::Hybrid) for every engine run the bench performs.
  bool Aot = false;
};

/// Parse the shared flags (--jobs N, --seed S, --refs R, --analysis,
/// --aot; value flags accept both "--flag N" and "--flag=N").
/// Recognized flags are removed
/// from argv so binaries with their own argument consumers
/// (micro_components hands the remainder to google-benchmark) can layer
/// on top.  Unknown arguments are left in place.  Exits with a usage
/// message on a malformed value.
inline Options parseArgs(int &Argc, char **Argv) {
  Options Opt;
  auto Fail = [&](const char *Flag) {
    std::fprintf(stderr,
                 "usage: %s [--jobs N] [--seed S] [--refs R] [--analysis] "
                 "[--aot]\n"
                 "error: bad value for %s\n",
                 Argv[0], Flag);
    std::exit(2);
  };
  auto TakeValue = [&](const char *Flag, int &I,
                       const char *&Value) -> bool {
    size_t Len = std::strlen(Flag);
    if (std::strncmp(Argv[I], Flag, Len) != 0)
      return false;
    if (Argv[I][Len] == '=') {
      Value = Argv[I] + Len + 1;
      return true;
    }
    if (Argv[I][Len] == '\0') {
      if (I + 1 >= Argc)
        Fail(Flag);
      Value = Argv[++I];
      return true;
    }
    return false;
  };
  int Out = 1;
  for (int I = 1; I < Argc; ++I) {
    const char *Value = nullptr;
    if (TakeValue("--jobs", I, Value)) {
      long long V = std::atoll(Value);
      if (V < 0 || V > 4096)
        Fail("--jobs");
      Opt.Jobs = static_cast<unsigned>(V);
    } else if (TakeValue("--seed", I, Value)) {
      Opt.Seed = std::strtoull(Value, nullptr, 0);
    } else if (TakeValue("--refs", I, Value)) {
      long long V = std::atoll(Value);
      if (V <= 10000)
        Fail("--refs");
      Opt.Refs = static_cast<uint64_t>(V);
    } else if (std::strcmp(Argv[I], "--analysis") == 0) {
      Opt.Analysis = true;
    } else if (std::strcmp(Argv[I], "--aot") == 0) {
      Opt.Aot = true;
    } else {
      Argv[Out++] = Argv[I];
    }
  }
  Argc = Out;
  Argv[Argc] = nullptr;
  return Opt;
}

/// The scale every experiment uses.  --refs wins over the MDABT_REFS
/// environment override (e.g. MDABT_REFS=200000 for a smoke pass).
inline workloads::ScaleConfig stdScale(const Options &Opt = Options()) {
  workloads::ScaleConfig Scale;
  Scale.TotalRefs = 1'500'000;
  if (const char *Env = std::getenv("MDABT_REFS")) {
    long long V = std::atoll(Env);
    if (V > 10000)
      Scale.TotalRefs = static_cast<uint64_t>(V);
  }
  if (Opt.Refs != 0)
    Scale.TotalRefs = Opt.Refs;
  return Scale;
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MDABT_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||  \
    __has_feature(memory_sanitizer)
#define MDABT_BENCH_SANITIZED 1
#endif
#endif

/// Exit 2 when this binary is unoptimized or sanitized.  Called before
/// writing a --perf-json record: tools/check_perf_floor.sh compares
/// every later measurement against the checked-in record, so it must
/// only ever hold numbers from an optimized, uninstrumented build.
inline void requireOptimizedBuildForPerfJson(const char *Tool) {
#if defined(MDABT_BENCH_SANITIZED)
  std::fprintf(stderr,
               "%s: refusing --perf-json from a sanitized build; rebuild "
               "with -DCMAKE_BUILD_TYPE=Release and MDABT_SANITIZE=OFF\n",
               Tool);
  std::exit(2);
#elif !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "%s: refusing --perf-json from an unoptimized build; rebuild "
               "with -DCMAKE_BUILD_TYPE=Release\n",
               Tool);
  std::exit(2);
#else
  (void)Tool;
#endif
}

#ifndef MDABT_BUILD_TYPE
#define MDABT_BUILD_TYPE "unknown"
#endif

/// The stamp every --perf-json record carries: two JSON members, the
/// CMake build type and the core count, each on its own line at
/// \p Indent with a trailing comma.  tools/check_perf_floor.sh refuses
/// to compare records of different build types and warns when the core
/// counts differ.
inline std::string perfStampJson(const char *Indent) {
  return std::string(Indent) +
         "\"build_type\": \"" MDABT_BUILD_TYPE "\",\n" + Indent +
         "\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ",\n";
}

/// Standard bench banner.
inline void banner(const char *Title, const char *PaperShape) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s\n", Title);
  std::printf("Paper-expected shape: %s\n", PaperShape);
  std::printf("==============================================================="
              "=================\n");
}

/// Print the table; when MDABT_CSV names a directory, also write
/// <dir>/<Name>.csv so plots can be regenerated from the raw data.
inline void printTable(const TablePrinter &T, const char *Name = nullptr) {
  std::fputs(T.toText().c_str(), stdout);
  std::printf("\n");
  const char *Dir = std::getenv("MDABT_CSV");
  if (!Dir || !Name)
    return;
  std::string Path = std::string(Dir) + "/" + Name + ".csv";
  if (std::FILE *F = std::fopen(Path.c_str(), "w")) {
    std::string Csv = T.toCsv();
    std::fwrite(Csv.data(), 1, Csv.size(), F);
    std::fclose(F);
    std::printf("(csv written to %s)\n\n", Path.c_str());
  }
}

} // namespace bench
} // namespace mdabt

#endif // MDABT_BENCH_BENCHCOMMON_H
