//===- perfbench/src/ServiceWorkloads.cpp - validate-data, parse-code -----===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
//
// Both workloads drive one ParseService (2 workers) from one submitting
// thread that keeps 2 requests in flight, so no request waits in the queue
// behind another. They differ in engine, trees and inputs:
//
//   validate-data  compiled engine (shipped native modules), no tree;
//                  seeded csv/ini/json/dot documents of 1-200 KB.
//   parse-code     interpreter, rendered trees; seeded lua/sexpr/lambda
//                  programs plus bench/common Java and Sql, 1-100 KB.
//
//===----------------------------------------------------------------------===//

#include "Generators.h"
#include "Harness.h"

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>

using namespace llstar;
using namespace perfbench;

namespace {

struct Doc {
  size_t Grammar;
  std::string Text;
};

struct ServiceSpec {
  std::vector<GrammarSource> Grammars;
  std::vector<Doc> Docs;
  bool Compiled = false;
  bool WantTree = false;
};

constexpr int Workers = 2;
constexpr int InFlight = 2;
/// Enough documents that the latency percentiles over documents are not
/// set by any single one: p90 has at least ten documents beyond it.
constexpr size_t DocsPerGrammar = 25;

/// \p PerGrammar documents per grammar, sized log-uniformly in [Lo, Hi].
void addDocs(ServiceSpec &S, const Options &O, size_t PerGrammar, double Lo,
             double Hi, std::string (*Generate)(Rng &, size_t)) {
  size_t G = S.Grammars.size() - 1;
  Rng R = Rng::derive(O.Seed, 1000 + G);
  for (size_t Bytes : logUniformSizes(PerGrammar, Lo, Hi))
    S.Docs.push_back({G, Generate(R, Bytes)});
}

ServiceSpec makeSpec(const Options &O) {
  ServiceSpec S;
  if (O.Workload == "validate-data") {
    S.Compiled = true;
    const std::pair<const char *, std::string (*)(Rng &, size_t)> Kinds[] = {
        {"csv", gen::csv}, {"ini", gen::ini}, {"json", gen::json},
        {"dot", gen::dot}};
    for (auto [File, Generate] : Kinds) {
      S.Grammars.push_back(shippedGrammar(O, File));
      addDocs(S, O, DocsPerGrammar, 1024, 200 * 1024, Generate);
    }
    return S;
  }
  S.WantTree = true;
  const std::pair<const char *, std::string (*)(Rng &, size_t)> Shipped[] = {
      {"lua", gen::lua}, {"sexpr", gen::sexpr}, {"lambda", gen::lambda}};
  for (auto [File, Generate] : Shipped) {
    S.Grammars.push_back(shippedGrammar(O, File));
    addDocs(S, O, DocsPerGrammar, 1024, 100 * 1024, Generate);
  }
  S.Grammars.push_back(benchCommonGrammar("Java"));
  addDocs(S, O, DocsPerGrammar, 1024, 100 * 1024, gen::java);
  S.Grammars.push_back(benchCommonGrammar("Sql"));
  addDocs(S, O, DocsPerGrammar, 1024, 100 * 1024, gen::sql);
  return S;
}

/// A workload ready to serve: analyzed bundles and a started service.
struct Ready {
  std::unique_ptr<GrammarBundleCache> Cache;
  std::vector<std::shared_ptr<const GrammarBundle>> Bundles;
  std::unique_ptr<ParseService> Service;
};

struct SetupTimes {
  double Analysis = 0;
  double Tables = 0;
};

Ready setUp(const ServiceSpec &S, Tracer &T, SetupTimes &Times) {
  Ready W;
  ScopedSpan Setup(T, "setup", Tracer::NoParent);
  W.Cache = std::make_unique<GrammarBundleCache>();
  for (const GrammarSource &G : S.Grammars)
    W.Bundles.push_back(
        loadBundle(*W.Cache, G, T, Setup.index(), &Times.Analysis));
  if (S.Compiled) {
    for (const auto &B : W.Bundles) {
      auto TS = Clock::now();
      B->compiledTables();
      auto TE = Clock::now();
      T.record("compiled.tables", Setup.index(), Tracer::NoRequest, TS, TE);
      Times.Tables += secondsBetween(TS, TE);
    }
  }
  {
    ScopedSpan Start(T, "service.start", Setup.index());
    ServiceConfig Config;
    Config.Threads = Workers;
    Config.UseCompiled = S.Compiled;
    W.Service = std::make_unique<ParseService>(Config);
  }
  return W;
}

/// What one reply said, kept for the checks after timing.
struct Reply {
  uint32_t Doc = 0;
  ParseStatus Status = ParseStatus::Ok;
  int64_t NumTokens = 0;
  size_t TreeHash = 0;
};

/// One segment of the closed loop: keeps InFlight requests outstanding for
/// \p Seconds, cycling through \p Order from \p Cursor. A chunk of \p L is
/// one pass over the documents.
void closedLoop(const ServiceSpec &S, Ready &W,
                const std::vector<uint32_t> &Order, size_t &Cursor,
                double Seconds, Tracer *T, LoopFigures &L,
                std::vector<Reply> &Replies) {
  struct Completion {
    int Slot;
    ParseResult Result;
    Clock::time_point At;
  };
  struct Slot {
    uint32_t Doc = 0;
    int64_t Request = 0;
    Clock::time_point Sent;
  };
  std::mutex Mu;
  std::condition_variable Cv;
  std::deque<Completion> Done;
  Slot Slots[InFlight];
  int64_t NextRequest = int64_t(Cursor);

  auto Submit = [&](int SlotIndex) {
    uint32_t D = Order[Cursor++ % Order.size()];
    ParseRequest Req;
    Req.Bundle = W.Bundles[S.Docs[D].Grammar];
    Req.StartRule = S.Grammars[S.Docs[D].Grammar].StartRule;
    Req.Input = S.Docs[D].Text;
    Req.WantTree = S.WantTree;
    Slots[SlotIndex] = {D, NextRequest++, Clock::now()};
    W.Service->submitAsync(std::move(Req), [&, SlotIndex](ParseResult R) {
      auto Now = Clock::now();
      std::lock_guard<std::mutex> Lock(Mu);
      Done.push_back({SlotIndex, std::move(R), Now});
      Cv.notify_one(); // under the lock: Cv dies when the loop returns
    });
  };

  L.segment();
  auto Start = Clock::now();
  auto Stop = Start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(Seconds));
  int Outstanding = 0;
  for (int I = 0; I < InFlight; ++I, ++Outstanding)
    Submit(I);
  while (Outstanding > 0) {
    Completion C;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      Cv.wait(Lock, [&] { return !Done.empty(); });
      C = std::move(Done.front());
      Done.pop_front();
    }
    --Outstanding;
    Slot Was = Slots[C.Slot];
    if (C.At < Stop) {
      Submit(C.Slot);
      ++Outstanding;
    }
    if (T)
      T->record("service.request", Tracer::NoParent, Was.Request, Was.Sent,
                C.At);
    L.add(Was.Doc, millisBetween(Was.Sent, C.At), secondsBetween(Start, C.At),
          C.Result.Status == ParseStatus::Ok ? C.Result.NumTokens : 0);
    Replies.push_back({Was.Doc, C.Result.Status, C.Result.NumTokens,
                       std::hash<std::string_view>()(C.Result.TreeText)});
  }
}

/// Checks every reply against the reference of its document; returns the
/// number of failed operations.
int64_t checkReplies(const ServiceSpec &S, const std::vector<Reference> &Refs,
                     const std::vector<Reply> &Replies, RunResult &R) {
  std::vector<size_t> TreeHashes;
  for (const Reference &Ref : Refs)
    TreeHashes.push_back(std::hash<std::string_view>()(Ref.Tree));
  int64_t Failed = 0;
  for (const Reply &Rep : Replies) {
    const Reference &Ref = Refs[Rep.Doc];
    bool Ok = Rep.Status == ParseStatus::Ok && Ref.LexOk && Ref.PackratOk &&
              Rep.NumTokens == Ref.NumTokens &&
              (!S.WantTree || Rep.TreeHash == TreeHashes[Rep.Doc]);
    if (Ok)
      continue;
    if (++Failed <= 5)
      R.problem("document " + std::to_string(Rep.Doc) + ": reply " +
                statusName(Rep.Status) + " with " +
                std::to_string(Rep.NumTokens) +
                " tokens does not match the reference");
  }
  return Failed;
}

} // namespace

RunResult perfbench::runServiceWorkload(const Options &O, Tracer &T) {
  RunResult R;
  ServiceSpec S = makeSpec(O);
  std::vector<uint32_t> Order(S.Docs.size());
  for (uint32_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  Rng Shuffle = Rng::derive(O.Seed, 7);
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[Shuffle.below(I)]);

  std::vector<double> Analysis, Tables;
  std::vector<Reply> Replies;
  size_t Cursor = 0;
  Ready W;
  Measured M = measure(
      O, T, LoopFigures(S.Docs.size(), /*ChunkOps=*/Order.size()), W,
      [&] {
        SetupTimes Times;
        Ready Fresh = setUp(S, T, Times);
        Analysis.push_back(Times.Analysis);
        Tables.push_back(Times.Tables);
        return Fresh;
      },
      [&](Ready &Serving, double Seconds, Tracer *Tr, LoopFigures &L) {
        closedLoop(S, Serving, Order, Cursor, Seconds, Tr, L, Replies);
      });

  // References, outside timing.
  std::vector<Reference> Refs;
  for (size_t I = 0; I < S.Docs.size(); ++I) {
    const Doc &D = S.Docs[I];
    Refs.push_back(computeReference(
        *W.Bundles[D.Grammar], S.Grammars[D.Grammar].StartRule, D.Text,
        S.Grammars[D.Grammar].Name + " document " + std::to_string(I),
        R.Problems));
  }
  R.Attempted = int64_t(Replies.size());
  R.Failed = checkReplies(S, Refs, Replies, R);

  if (!O.Trace) {
    addEndToEnd(R, M);
    return R;
  }

  // Traced replay: every document through the layers directly, then through
  // the service with one request in flight.
  LayerFigures L;
  L.TraceOverheadPct = M.traceOverheadPct();
  L.AnalysisBusyS = median(Analysis);
  L.CompiledTablesS = median(Tables);
  for (const auto &B : W.Bundles)
    L.DfaStates += B->analyzed().stats().TotalDfaStates;
  ServiceReplay Replay(S.Docs.size(), S.Compiled, S.WantTree);
  for (int Rep = 0; Rep < ReplayRepeats; ++Rep) {
    for (size_t I = 0; I < S.Docs.size(); ++I) {
      const Doc &D = S.Docs[I];
      ScopedSpan Span(T, "replay", Tracer::NoParent, int64_t(I));
      Replay.add(I, *W.Service, W.Bundles[D.Grammar],
                 S.Grammars[D.Grammar].StartRule, D.Text, T, Span.index());
    }
  }
  Replay.fold(L, R.Problems);
  finishTraced(O, T, L, R);
  return R;
}
