//===- bench/bench_service.cpp - Batch parsing service throughput ---------===//
//
// Benchmarks the src/service/ subsystem rather than a paper table:
//
//   1. throughput scaling — the same workload pushed through ParseService
//      with 1, 2, 4, and 8 workers (tokens/s and speedup over 1 thread);
//   2. arena vs heap parse trees — single-threaded LLStarParser over the
//      identical inputs, tree building on, with and without an Arena.
//
// Workloads are the Basic and Sql benchmark grammars (predicate-free, so
// the service needs no SemanticEnv). `--json FILE` records the results;
// BENCH_service.json at the repo root is a committed baseline. Speedup is
// bounded by the machine: on a single-core container every thread count
// measures ~1x.
//
//   bench_service [--units N] [--inputs N] [--repeat N] [--json FILE]
//
//===----------------------------------------------------------------------===//

#include "common/BenchGrammars.h"

#include "runtime/Arena.h"
#include "runtime/LLStarParser.h"
#include "service/ParseService.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace llstar;
using namespace llstar::bench;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ScalingRow {
  int Threads;
  double Seconds;
  double TokensPerSec;
  double Speedup;
};

struct GrammarReport {
  std::string Name;
  int64_t Tokens = 0; // per full pass over the workload
  std::vector<ScalingRow> Scaling;
  double HeapSeconds = 0, ArenaSeconds = 0;
  double ArenaSpeedup = 0;
};

/// Best-of-N wall time for one pass of \p Workload through a service with
/// \p Threads workers.
double timedServicePass(const std::shared_ptr<const GrammarBundle> &Bundle,
                        const std::vector<std::string> &Workload,
                        const char *StartRule, int Threads, int Repeat) {
  double Best = 1e9;
  for (int Rep = 0; Rep < Repeat; ++Rep) {
    ServiceConfig Config;
    Config.Threads = Threads;
    Config.QueueCapacity = Workload.size() + 1;
    Config.CollectStats = false;
    ParseService Service(Config);
    std::vector<std::future<ParseResult>> Futures;
    Futures.reserve(Workload.size());
    double T0 = now();
    for (size_t I = 0; I < Workload.size(); ++I) {
      ParseRequest Req;
      Req.Bundle = Bundle;
      Req.Id = std::to_string(I);
      Req.Input = Workload[I];
      Req.StartRule = StartRule;
      Req.WantTree = true;
      Futures.push_back(Service.submit(std::move(Req)));
    }
    for (auto &F : Futures) {
      ParseResult R = F.get();
      if (!R.ok()) {
        std::fprintf(stderr, "bench input failed to parse: %s\n%s",
                     R.Id.c_str(), R.DiagText.c_str());
        std::exit(1);
      }
    }
    Best = std::min(Best, now() - T0);
  }
  return Best;
}

/// Best-of-N single-threaded parse over the workload, tree building on.
/// With \p ArenaTrees, trees go to a recycled arena; otherwise the heap.
double timedDirectPass(const AnalyzedGrammar &AG,
                       std::vector<TokenStream> &Streams,
                       const std::string &StartRule, bool ArenaTrees,
                       int Repeat) {
  double Best = 1e9;
  Arena TreeArena;
  for (int Rep = 0; Rep < Repeat; ++Rep) {
    double T0 = now();
    for (TokenStream &Stream : Streams) {
      Stream.seek(0);
      DiagnosticEngine Diags;
      ParserOptions Opts;
      Opts.CollectStats = false;
      if (ArenaTrees)
        Opts.TreeArena = &TreeArena;
      LLStarParser P(AG, Stream, nullptr, Diags, Opts);
      auto Tree = P.parse(StartRule);
      if (!P.ok()) {
        std::fprintf(stderr, "direct bench parse failed\n%s",
                     Diags.str().c_str());
        std::exit(1);
      }
      if (ArenaTrees)
        TreeArena.reset();
      else
        Tree.reset();
    }
    Best = std::min(Best, now() - T0);
  }
  return Best;
}

} // namespace

int main(int Argc, char **Argv) {
  int Units = 60, Inputs = 48, Repeat = 3;
  std::string JsonPath;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--units") && I + 1 < Argc)
      Units = std::atoi(Argv[++I]);
    else if (!std::strcmp(Argv[I], "--inputs") && I + 1 < Argc)
      Inputs = std::atoi(Argv[++I]);
    else if (!std::strcmp(Argv[I], "--repeat") && I + 1 < Argc)
      Repeat = std::atoi(Argv[++I]);
    else if (!std::strcmp(Argv[I], "--json") && I + 1 < Argc)
      JsonPath = Argv[++I];
    else {
      std::fprintf(stderr,
                   "usage: bench_service [--units N] [--inputs N] "
                   "[--repeat N] [--json FILE]\n");
      return 2;
    }
  }

  const int ThreadCounts[] = {1, 2, 4, 8};
  std::vector<GrammarReport> Reports;
  std::printf("batch parsing service: %d inputs x %d units, best of %d "
              "(hardware threads: %u)\n\n",
              Inputs, Units, Repeat, std::thread::hardware_concurrency());

  for (const char *Name : {"Basic", "Sql"}) {
    const BenchGrammar &Spec = benchGrammar(Name);
    GrammarBundleCache Cache;
    DiagnosticEngine Diags;
    auto Bundle = Cache.get(Spec.Text, Diags);
    if (!Bundle) {
      std::fprintf(stderr, "grammar %s failed to load:\n%s", Name,
                   Diags.str().c_str());
      return 1;
    }

    GrammarReport Report;
    Report.Name = Name;
    std::vector<std::string> Workload;
    std::vector<TokenStream> Streams;
    for (int I = 0; I < Inputs; ++I) {
      Workload.push_back(Spec.Workload(Units, unsigned(I + 1)));
      DiagnosticEngine LexDiags;
      Streams.emplace_back(Bundle->tokenize(Workload.back(), LexDiags));
      Report.Tokens += int64_t(Streams.back().size()) - 1;
    }

    std::printf("%s (%lld tokens/pass)\n", Name, (long long)Report.Tokens);
    std::printf("  %-8s %10s %14s %8s\n", "threads", "seconds", "tokens/s",
                "speedup");
    double Base = 0;
    for (int Threads : ThreadCounts) {
      double Secs = timedServicePass(Bundle, Workload, Spec.StartRule,
                                     Threads, Repeat);
      if (Threads == 1)
        Base = Secs;
      ScalingRow Row{Threads, Secs, double(Report.Tokens) / Secs,
                     Base / Secs};
      Report.Scaling.push_back(Row);
      std::printf("  %-8d %10.4f %14.0f %7.2fx\n", Row.Threads, Row.Seconds,
                  Row.TokensPerSec, Row.Speedup);
    }

    Report.HeapSeconds =
        timedDirectPass(Bundle->analyzed(), Streams, Spec.StartRule,
                        /*ArenaTrees=*/false, Repeat);
    Report.ArenaSeconds =
        timedDirectPass(Bundle->analyzed(), Streams, Spec.StartRule,
                        /*ArenaTrees=*/true, Repeat);
    Report.ArenaSpeedup = Report.HeapSeconds / Report.ArenaSeconds;
    std::printf("  trees:   heap %.4fs, arena %.4fs (%.2fx)\n\n",
                Report.HeapSeconds, Report.ArenaSeconds,
                Report.ArenaSpeedup);
    Reports.push_back(std::move(Report));
  }

  if (!JsonPath.empty()) {
    std::string Out = "{\n  \"hardwareThreads\": " +
                      std::to_string(std::thread::hardware_concurrency()) +
                      ",\n  \"inputs\": " + std::to_string(Inputs) +
                      ",\n  \"units\": " + std::to_string(Units) +
                      ",\n  \"grammars\": [\n";
    char Buf[256];
    for (size_t G = 0; G < Reports.size(); ++G) {
      const GrammarReport &R = Reports[G];
      Out += "    {\"name\": \"" + R.Name +
             "\", \"tokensPerPass\": " + std::to_string(R.Tokens) +
             ",\n     \"scaling\": [";
      for (size_t I = 0; I < R.Scaling.size(); ++I) {
        const ScalingRow &Row = R.Scaling[I];
        // Rows running more workers than the machine has hardware threads
        // measure scheduler contention, not scaling; flag them so baseline
        // comparisons can discount those points.
        bool Oversubscribed =
            unsigned(Row.Threads) > std::thread::hardware_concurrency();
        std::snprintf(Buf, sizeof(Buf),
                      "%s{\"threads\": %d, \"seconds\": %.4f, "
                      "\"tokensPerSec\": %.0f, \"speedup\": %.2f%s}",
                      I ? ", " : "", Row.Threads, Row.Seconds,
                      Row.TokensPerSec, Row.Speedup,
                      Oversubscribed ? ", \"oversubscribed\": true" : "");
        Out += Buf;
      }
      std::snprintf(Buf, sizeof(Buf),
                    "],\n     \"treeHeapSeconds\": %.4f, "
                    "\"treeArenaSeconds\": %.4f, \"arenaSpeedup\": %.2f}%s\n",
                    R.HeapSeconds, R.ArenaSeconds, R.ArenaSpeedup,
                    G + 1 < Reports.size() ? "," : "");
      Out += Buf;
    }
    Out += "  ]\n}\n";
    std::ofstream F(JsonPath);
    if (!F) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath.c_str());
      return 1;
    }
    F << Out;
    std::printf("wrote %s\n", JsonPath.c_str());
  }
  return 0;
}
