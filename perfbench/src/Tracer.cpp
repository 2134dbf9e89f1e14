#include "Tracer.h"

#include <cstdio>

using namespace perfbench;

int32_t Tracer::record(const char *Name, int32_t Parent, int64_t Request,
                       Clock::time_point Start, Clock::time_point End) {
  if (!Enabled)
    return NoParent;
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.push_back({Name, ns(Start), ns(End), Parent, Request});
  return int32_t(Spans.size() - 1);
}

int32_t Tracer::open(const char *Name, int32_t Parent, int64_t Request) {
  if (!Enabled)
    return NoParent;
  int64_t Now = ns(Clock::now());
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.push_back({Name, Now, Now, Parent, Request});
  return int32_t(Spans.size() - 1);
}

void Tracer::close(int32_t Index) {
  if (!Enabled || Index < 0)
    return;
  int64_t Now = ns(Clock::now());
  std::lock_guard<std::mutex> Lock(Mu);
  Spans[size_t(Index)].EndNs = Now;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Spans.size();
}

std::map<std::string, Tracer::NameTotals> Tracer::totals() const {
  std::lock_guard<std::mutex> Lock(Mu);
  // Children of each span, as [start, end) intervals.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> Children(
      Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0 && size_t(S.Parent) < Spans.size())
      Children[size_t(S.Parent)].push_back({S.StartNs, S.EndNs});

  std::map<std::string, NameTotals> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    int64_t Covered = 0;
    auto &C = Children[I];
    std::sort(C.begin(), C.end());
    int64_t RunStart = 0, RunEnd = -1;
    for (auto [A, B] : C) {
      A = std::max(A, S.StartNs);
      B = std::min(B, S.EndNs);
      if (B <= A)
        continue;
      if (A > RunEnd) {
        if (RunEnd > RunStart)
          Covered += RunEnd - RunStart;
        RunStart = A;
        RunEnd = B;
      } else {
        RunEnd = std::max(RunEnd, B);
      }
    }
    if (RunEnd > RunStart)
      Covered += RunEnd - RunStart;
    NameTotals &T = Out[S.Name];
    ++T.Count;
    T.TotalS += double(S.EndNs - S.StartNs) * 1e-9;
    T.SelfS += double(S.EndNs - S.StartNs - Covered) * 1e-9;
  }
  return Out;
}

bool Tracer::write(const std::string &Path, const std::string &Header) const {
  std::map<std::string, NameTotals> Totals = totals();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{%s\"totals\":{", Header.c_str());
  bool First = true;
  for (const auto &[Name, T] : Totals) {
    std::fprintf(F, "%s\"%s\":{\"count\":%lld,\"total_s\":%.9f,\"self_s\":%.9f}",
                 First ? "" : ",", Name.c_str(), (long long)T.Count, T.TotalS,
                 T.SelfS);
    First = false;
  }
  std::fprintf(F, "},\"spans\":[\n");
  std::lock_guard<std::mutex> Lock(Mu);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"request\":%lld}",
                 I ? ",\n" : "", I, S.Name, (long long)S.StartNs,
                 (long long)S.EndNs, S.Parent, (long long)S.Request);
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}
