//===- benchmark/src/Spans.h - In-memory span recorder ---------*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracing: one span per call the benchmark makes into a
/// layer of the program (workload -> request -> engine.run, plus one span
/// per probe).  Spans are kept in memory and written out when the run
/// ends, so recording costs one clock read and one locked push per span.
/// A disabled recorder records nothing.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_BENCHMARK_SPANS_H
#define MDABT_BENCHMARK_SPANS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace mdabt {
namespace benchmark {

struct Span {
  const char *Name = "";
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 = root
  /// Stream index of the request this span belongs to, -1 if none; the
  /// spans of one request share it.
  int64_t Request = -1;
  int64_t StartNs = 0; ///< since the recorder was created
  int64_t EndNs = 0;
};

class SpanRecorder {
public:
  explicit SpanRecorder(bool Enabled)
      : Enabled(Enabled), Epoch(std::chrono::steady_clock::now()) {}

  bool enabled() const { return Enabled; }
  void setEnabled(bool On) { Enabled = On; }

  /// Records one span from construction to destruction.  \p Name must be
  /// a string literal.  When the recorder is disabled the scope is inert
  /// and id() is 0, so its children attach to the root.
  class Scope {
  public:
    Scope(SpanRecorder &R, const char *Name, uint64_t Parent,
          int64_t Request = -1)
        : R(R) {
      if (!R.Enabled)
        return;
      S.Name = Name;
      S.Id = R.NextId.fetch_add(1);
      S.Parent = Parent;
      S.Request = Request;
      S.StartNs = R.nowNs();
    }
    ~Scope() {
      if (S.Id == 0)
        return;
      S.EndNs = R.nowNs();
      std::lock_guard<std::mutex> Lock(R.M);
      R.Spans.push_back(S);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    uint64_t id() const { return S.Id; }

  private:
    SpanRecorder &R;
    Span S;
  };

  /// Every closed span, in order of start time.
  std::vector<Span> spans() const;

  /// Write one JSON object per span to \p Path.  Returns false if the
  /// file cannot be written.
  bool writeJsonl(const std::string &Path) const;

  /// Per-name table: count, total and self time.  Self time is a span's
  /// duration minus the union of its children's intervals.
  std::string selfTimeTable() const;

  /// Empty if every parent exists and every child lies inside its
  /// parent's interval; otherwise a description of the first defect.
  static std::string checkTree(const std::vector<Span> &Spans);

private:
  int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - Epoch)
        .count();
  }

  bool Enabled;
  std::chrono::steady_clock::time_point Epoch;
  std::atomic<uint64_t> NextId{1};
  mutable std::mutex M;
  std::vector<Span> Spans; ///< guarded by M
};

} // namespace benchmark
} // namespace mdabt

#endif // MDABT_BENCHMARK_SPANS_H
