//===- benchmark/src/Spans.cpp --------------------------------------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

using namespace mdabt::benchmark;

std::vector<Span> SpanRecorder::spans() const {
  std::vector<Span> Out;
  {
    std::lock_guard<std::mutex> Lock(M);
    Out = Spans;
  }
  std::sort(Out.begin(), Out.end(), [](const Span &A, const Span &B) {
    return A.StartNs != B.StartNs ? A.StartNs < B.StartNs : A.Id < B.Id;
  });
  return Out;
}

bool SpanRecorder::writeJsonl(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (const Span &S : spans())
    std::fprintf(F,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%lld,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 S.Name, static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent),
                 static_cast<long long>(S.Request), S.StartNs / 1e3,
                 S.EndNs / 1e3);
  return std::fclose(F) == 0;
}

namespace {

/// Length of the union of [Start, End) intervals.
int64_t unionLength(std::vector<std::pair<int64_t, int64_t>> Iv) {
  std::sort(Iv.begin(), Iv.end());
  int64_t Total = 0, CurS = 0, CurE = 0;
  bool Open = false;
  for (const auto &[S, E] : Iv) {
    if (Open && S <= CurE) {
      CurE = std::max(CurE, E);
      continue;
    }
    if (Open)
      Total += CurE - CurS;
    CurS = S;
    CurE = E;
    Open = true;
  }
  if (Open)
    Total += CurE - CurS;
  return Total;
}

} // namespace

std::string SpanRecorder::selfTimeTable() const {
  std::vector<Span> All = spans();
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      Children;
  for (const Span &S : All)
    if (S.Parent != 0)
      Children[S.Parent].push_back({S.StartNs, S.EndNs});

  struct Row {
    uint64_t Count = 0;
    int64_t TotalNs = 0;
    int64_t SelfNs = 0;
  };
  std::map<std::string, Row> Rows;
  int64_t AllSelf = 0;
  for (const Span &S : All) {
    Row &R = Rows[S.Name];
    int64_t Dur = S.EndNs - S.StartNs;
    auto It = Children.find(S.Id);
    int64_t Self =
        It == Children.end() ? Dur : Dur - unionLength(It->second);
    ++R.Count;
    R.TotalNs += Dur;
    R.SelfNs += Self;
    AllSelf += Self;
  }
  std::vector<std::pair<std::string, Row>> Sorted(Rows.begin(), Rows.end());
  std::sort(Sorted.begin(), Sorted.end(), [](const auto &A, const auto &B) {
    return A.second.SelfNs > B.second.SelfNs;
  });
  std::string Out;
  char Line[160];
  std::snprintf(Line, sizeof(Line), "%-22s %8s %12s %12s %7s\n", "span",
                "count", "total_ms", "self_ms", "self%");
  Out += Line;
  for (const auto &[Name, R] : Sorted) {
    std::snprintf(Line, sizeof(Line), "%-22s %8llu %12.3f %12.3f %6.2f%%\n",
                  Name.c_str(), static_cast<unsigned long long>(R.Count),
                  R.TotalNs / 1e6, R.SelfNs / 1e6,
                  AllSelf > 0 ? 100.0 * R.SelfNs / AllSelf : 0.0);
    Out += Line;
  }
  return Out;
}

std::string SpanRecorder::checkTree(const std::vector<Span> &Spans) {
  std::unordered_map<uint64_t, const Span *> ById;
  for (const Span &S : Spans) {
    if (S.Id == 0 || !ById.emplace(S.Id, &S).second)
      return "span id " + std::to_string(S.Id) + " is zero or repeated";
    if (S.EndNs < S.StartNs)
      return std::string("span ") + S.Name + " ends before it starts";
  }
  for (const Span &S : Spans) {
    if (S.Parent == 0)
      continue;
    auto It = ById.find(S.Parent);
    if (It == ById.end())
      return std::string("span ") + S.Name + " has a missing parent";
    const Span &P = *It->second;
    if (S.StartNs < P.StartNs || S.EndNs > P.EndNs)
      return std::string("span ") + S.Name + " is not inside its parent " +
             P.Name;
  }
  return "";
}
