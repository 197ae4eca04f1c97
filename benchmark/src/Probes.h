//===- benchmark/src/Probes.h - Direct timings of single layers -*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Probes time direct calls to one layer's public functions, outside any
/// engine run.  Multiplied by the layer's work count from the request
/// phase they estimate the layer's share of wall time.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_BENCHMARK_PROBES_H
#define MDABT_BENCHMARK_PROBES_H

#include "guest/GuestImage.h"

#include <vector>

namespace mdabt {
namespace benchmark {

/// Median of \p Samples (mean of the middle two for an even count; 0 if
/// empty).
double median(std::vector<double> Samples);

/// Median ms of constructing a GuestMemory and loading \p Image: the
/// per-request memory set-up every engine run pays.
double probeMemInitMs(const guest::GuestImage &Image, int Reps);

/// Median ms of dbt::fnv1a over the whole guest memory with \p Image
/// loaded: the per-request end-of-run memory hash.
double probeHashMs(const guest::GuestImage &Image, int Reps);

/// Median simulated MIPS of HostMachine::run on a fixed assembled loop
/// (aligned load, add, count down, branch).
double probeHostSimMips(int Reps);

/// Mean ms per image of analysis::analyzeAlignment.
double probeAlignMs(const std::vector<const guest::GuestImage *> &Images);

/// Mean ms per image of analysis::recoverCfg.
double probeCfgMs(const std::vector<const guest::GuestImage *> &Images);

/// Mean us per block of dbt::Translator::translate (every memory site
/// planned Normal) over every block recoverCfg finds in \p Images.
double probeTranslateUs(const std::vector<const guest::GuestImage *> &Images);

} // namespace benchmark
} // namespace mdabt

#endif // MDABT_BENCHMARK_PROBES_H
