//===- tools/llstar_batch.cpp - Batch parsing driver ----------------------===//
//
// The `llstar-batch` tool: parse many inputs concurrently through the
// ParseService, with shared grammar bundles, per-request deadlines, token
// limits, and merged JSON metrics.
//
//   llstar-batch <grammar.g|bundle.llb|dir> [inputs...] [options]
//
// Inputs are files, directories (every regular file inside, recursively),
// or @manifest files listing one input path per line. With --sample N no
// inputs are read: N sentences per grammar are derived from the grammar
// itself with a seeded sampler — the multi-threaded fuzz-replay mode CI
// runs under ThreadSanitizer. When the grammar argument is a directory
// (sample mode only), every *.g / *.llb inside becomes a bundle.
//
//===----------------------------------------------------------------------===//

#include "CompiledManifest.h"
#include "fuzz/SentenceSampler.h"
#include "incremental/IncrementalSession.h"
#include "service/ParseService.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace llstar;
namespace fs = std::filesystem;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: llstar-batch <grammar.g|bundle.llb|dir> [inputs...] [options]\n"
      "  inputs: files, directories (recursed), or @manifest list files\n"
      "  --sample N        derive N seeded sentences per grammar instead of\n"
      "                    reading inputs (grammar may then be a directory)\n"
      "  --seed S          sentence-sampling seed (default 1)\n"
      "  --threads N       worker threads (default: hardware concurrency)\n"
      "  --deadline-ms D   per-request parse deadline\n"
      "  --max-tokens N    reject inputs longer than N tokens\n"
      "  --queue N         request-queue capacity (default 1024)\n"
      "  --start RULE      start rule (default: the grammar's first rule)\n"
      "  --trees           request parse trees (printed unless --quiet)\n"
      "  --recover         parse with error recovery: syntax errors come\n"
      "                    back as partial trees (status `recovered`, not\n"
      "                    failures)\n"
      "  --json-metrics F  write merged service metrics JSON to F (- = stdout)\n"
      "  --stats-out F     write a decision-keyed parse profile to F, the\n"
      "                    merged ParserStats of every worker with stable\n"
      "                    (rule, decisionInRule) identities, consumable by\n"
      "                    `llstar lint --profile F` (single grammar only)\n"
      "  --edit-script F   incremental mode: replay the JSON edit trace F\n"
      "                    against one incremental session (single .g\n"
      "                    grammar; inputs come from the trace, not operands).\n"
      "                    Prints per-batch timing plus reuse counters;\n"
      "                    --json-metrics then reports the session's parser\n"
      "                    stats (nodesReused / tokensRelexed /\n"
      "                    decisionsReparsed included)\n"
      "  --no-reuse        edit-script mode: full reparse per edit (baseline)\n"
      "  --quiet           per-input lines off; summary only\n");
  return 2;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  return true;
}

/// Expands one command-line input operand into concrete file paths.
bool expandInput(const std::string &Operand, std::vector<std::string> &Paths) {
  if (!Operand.empty() && Operand[0] == '@') {
    std::ifstream In(Operand.substr(1));
    if (!In) {
      std::fprintf(stderr, "error: cannot read manifest %s\n",
                   Operand.c_str() + 1);
      return false;
    }
    std::string Line;
    while (std::getline(In, Line)) {
      while (!Line.empty() && (Line.back() == '\r' || Line.back() == ' '))
        Line.pop_back();
      if (!Line.empty() && Line[0] != '#')
        Paths.push_back(Line);
    }
    return true;
  }
  std::error_code Ec;
  if (fs::is_directory(Operand, Ec)) {
    for (const auto &Entry : fs::recursive_directory_iterator(Operand, Ec))
      if (Entry.is_regular_file())
        Paths.push_back(Entry.path().string());
    return true;
  }
  Paths.push_back(Operand);
  return true;
}

struct Options {
  std::string GrammarArg;
  std::vector<std::string> InputOperands;
  int Sample = 0;
  uint64_t Seed = 1;
  int Threads = 0;
  int64_t DeadlineMs = 0;
  int64_t MaxTokens = 0;
  size_t Queue = 1024;
  std::string StartRule;
  bool Trees = false;
  bool Recover = false;
  std::string JsonMetrics;
  std::string StatsOut;
  std::string EditScriptPath;
  bool NoReuse = false;
  bool Quiet = false;
};

/// Writes a decision-keyed parse profile: the profile wrapper object with
/// the grammar name and the merged ParserStats, each per-decision entry
/// tagged (rule, decisionInRule, line, column) so `llstar lint --profile`
/// can join it to a re-analyzed grammar by identity, not index.
bool writeProfile(const std::string &Path, const GrammarBundle &Bundle,
                  const ParserStats &Stats) {
  std::vector<DecisionKey> Keys = Bundle.analyzed().decisionKeys();
  std::string Json = "{\"llstarProfile\":1,\"grammar\":\"" + Bundle.name() +
                     "\",\"stats\":" +
                     Stats.json(/*IncludeDecisions=*/true, &Keys) +
                     "}";
  if (Path == "-") {
    std::printf("%s\n", Json.c_str());
    return true;
  }
  std::ofstream Out(Path, std::ios::binary);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    return false;
  }
  Out << Json << "\n";
  return true;
}

/// --edit-script: replay a JSON edit trace against one incremental session
/// and report per-batch cost plus the session's reuse counters.
int runEditScript(std::shared_ptr<const GrammarBundle> Bundle,
                  const Options &O) {
  std::string TraceText;
  if (!readFile(O.EditScriptPath, TraceText)) {
    std::fprintf(stderr, "error: cannot read %s\n", O.EditScriptPath.c_str());
    return 1;
  }
  incremental::EditScriptParseResult Parsed =
      incremental::parseEditScript(TraceText);
  if (!Parsed) {
    std::fprintf(stderr, "error: %s: invalid edit script (%s): %s\n",
                 O.EditScriptPath.c_str(),
                 incremental::editScriptErrorName(Parsed.Error),
                 Parsed.Message.c_str());
    return 2;
  }

  incremental::SessionOptions SO;
  SO.Recover = O.Recover;
  SO.Reuse = !O.NoReuse;
  SO.StartRule = O.StartRule;
  incremental::IncrementalSession Session(Bundle, SO);

  auto StatusName = [&](const incremental::EditOutcome &R) {
    if (R.ParseOk)
      return "ok";
    return O.Recover && R.TreeNodes > 0 ? "recovered" : "failed";
  };

  int64_t Failed = 0;
  incremental::EditOutcome R = Session.reset(Parsed.Script.Initial);
  if (!R.ParseOk && !O.Recover)
    ++Failed;
  if (!O.Quiet)
    std::printf("%-10s %-10s %7lld tokens %9.3f ms\n", "initial",
                StatusName(R), (long long)R.NumTokens, R.Millis);
  for (size_t B = 0; B < Parsed.Script.Batches.size(); ++B) {
    R = Session.applyBatch(Parsed.Script.Batches[B]);
    if (R.Error != incremental::EditScriptError::None) {
      // parseEditScript validates shape; only out-of-range offsets against
      // the *evolving* text can surface here.
      std::fprintf(stderr, "error: batch %zu rejected at apply time (%s)\n",
                   B, incremental::editScriptErrorName(R.Error));
      return 2;
    }
    if (!R.ParseOk && !O.Recover)
      ++Failed;
    if (!O.Quiet)
      std::printf("batch %-4zu %-10s %7lld tokens %9.3f ms  "
                  "%lld reused, %lld relexed, %lld decisions\n",
                  B, StatusName(R), (long long)R.NumTokens, R.Millis,
                  (long long)R.NodesReused, (long long)R.TokensRelexed,
                  (long long)R.DecisionsReparsed);
    if (O.Trees && !O.Quiet)
      std::printf("  %s\n", Session.treeText().c_str());
  }

  const ParserStats &S = Session.stats();
  std::printf("edit-script: %zu batches on %s, %lld failed; %lld subtrees "
              "reused, %lld tokens relexed, %lld decisions reparsed\n",
              Parsed.Script.Batches.size(), Bundle->name().c_str(),
              (long long)Failed, (long long)S.NodesReused,
              (long long)S.TokensRelexed, (long long)S.DecisionsReparsed);

  if (!O.JsonMetrics.empty()) {
    std::vector<DecisionKey> Keys = Bundle->analyzed().decisionKeys();
    std::string Json = S.json(/*IncludeDecisions=*/true, &Keys);
    if (O.JsonMetrics == "-") {
      std::printf("%s\n", Json.c_str());
    } else {
      std::ofstream Out(O.JsonMetrics);
      if (!Out) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     O.JsonMetrics.c_str());
        return 1;
      }
      Out << Json << "\n";
    }
  }
  if (!O.StatsOut.empty() && !writeProfile(O.StatsOut, *Bundle, S))
    return 1;
  return Failed == 0 ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  Options O;

  for (size_t I = 0; I < Args.size(); ++I) {
    const std::string &A = Args[I];
    auto Value = [&](int64_t &Out) {
      if (I + 1 >= Args.size())
        return false;
      Out = std::atoll(Args[++I].c_str());
      return true;
    };
    int64_t V;
    if (A == "--sample" && Value(V))
      O.Sample = int(V);
    else if (A == "--seed" && Value(V))
      O.Seed = uint64_t(V);
    else if (A == "--threads" && Value(V))
      O.Threads = int(V);
    else if (A == "--deadline-ms" && Value(V))
      O.DeadlineMs = V;
    else if (A == "--max-tokens" && Value(V))
      O.MaxTokens = V;
    else if (A == "--queue" && Value(V))
      O.Queue = size_t(std::max<int64_t>(V, 1));
    else if (A == "--start" && I + 1 < Args.size())
      O.StartRule = Args[++I];
    else if (A == "--trees")
      O.Trees = true;
    else if (A == "--recover")
      O.Recover = true;
    else if (A == "--json-metrics" && I + 1 < Args.size())
      O.JsonMetrics = Args[++I];
    else if (A == "--stats-out" && I + 1 < Args.size())
      O.StatsOut = Args[++I];
    else if (A == "--edit-script" && I + 1 < Args.size())
      O.EditScriptPath = Args[++I];
    else if (A == "--no-reuse")
      O.NoReuse = true;
    else if (A == "--quiet")
      O.Quiet = true;
    else if (!A.empty() && A[0] == '-' && A != "-")
      return usage();
    else if (O.GrammarArg.empty())
      O.GrammarArg = A;
    else
      O.InputOperands.push_back(A);
  }
  if (O.GrammarArg.empty())
    return usage();
  if (O.InputOperands.empty() && O.Sample <= 0 && O.EditScriptPath.empty())
    return usage();

  // Parses and edit sessions run a shipped grammar's native module when
  // its payload hash matches.
  compiled::registerShippedGrammars();

  // Load grammar bundles through the shared cache.
  GrammarBundleCache Cache;
  std::vector<std::shared_ptr<const GrammarBundle>> Bundles;
  std::error_code Ec;
  if (fs::is_directory(O.GrammarArg, Ec)) {
    if (O.Sample <= 0) {
      std::fprintf(stderr,
                   "error: a grammar directory requires --sample mode\n");
      return 2;
    }
    std::vector<std::string> GrammarPaths;
    for (const auto &Entry : fs::directory_iterator(O.GrammarArg, Ec)) {
      std::string Ext = Entry.path().extension().string();
      if (Entry.is_regular_file() && (Ext == ".g" || Ext == ".llb"))
        GrammarPaths.push_back(Entry.path().string());
    }
    std::sort(GrammarPaths.begin(), GrammarPaths.end());
    for (const std::string &Path : GrammarPaths) {
      DiagnosticEngine Diags;
      auto Bundle = Cache.getFile(Path, Diags);
      if (!Bundle) {
        std::fprintf(stderr, "error: failed to load %s\n%s", Path.c_str(),
                     Diags.str().c_str());
        return 1;
      }
      Bundles.push_back(std::move(Bundle));
    }
  } else {
    DiagnosticEngine Diags;
    auto Bundle = Cache.getFile(O.GrammarArg, Diags);
    if (!Bundle) {
      std::fprintf(stderr, "error: failed to load %s\n%s",
                   O.GrammarArg.c_str(), Diags.str().c_str());
      return 1;
    }
    Bundles.push_back(std::move(Bundle));
  }

  if (!O.EditScriptPath.empty()) {
    if (Bundles.size() != 1) {
      std::fprintf(stderr,
                   "error: --edit-script needs exactly one grammar\n");
      return 2;
    }
    return runEditScript(Bundles.front(), O);
  }

  // Materialize the request list.
  struct Work {
    std::shared_ptr<const GrammarBundle> Bundle;
    std::string Id, Input;
  };
  std::vector<Work> Workload;
  if (O.Sample > 0) {
    for (const auto &Bundle : Bundles) {
      // Compiled .llb bundles carry only analysis tables, not rule bodies,
      // so there is nothing to sample sentences from.
      const Grammar &G = Bundle->grammar();
      if (G.numRules() == 0 || G.rule(0).Alts.empty()) {
        std::fprintf(stderr,
                     "error: %s has no rule bodies to sample from; "
                     "--sample needs a .g source grammar\n",
                     Bundle->name().c_str());
        return 2;
      }
      fuzz::SentenceSampler Sampler(G, O.Seed);
      for (int I = 0; I < O.Sample; ++I)
        Workload.push_back({Bundle,
                            Bundle->name() + "#" + std::to_string(I),
                            fuzz::SentenceSampler::render(Sampler.sample())});
    }
  } else {
    std::vector<std::string> Paths;
    for (const std::string &Operand : O.InputOperands)
      if (!expandInput(Operand, Paths))
        return 1;
    std::sort(Paths.begin(), Paths.end());
    for (const std::string &Path : Paths) {
      std::string Text;
      if (!readFile(Path, Text)) {
        std::fprintf(stderr, "error: cannot read %s\n", Path.c_str());
        return 1;
      }
      Workload.push_back({Bundles.front(), Path, std::move(Text)});
    }
  }

  ServiceConfig Config;
  Config.Threads = O.Threads;
  Config.QueueCapacity = O.Queue;
  Config.MaxTokens = O.MaxTokens;
  Config.DefaultDeadline = std::chrono::milliseconds(O.DeadlineMs);
  Config.UseCompiled = true;
  ParseService Service(Config);

  auto Start = std::chrono::steady_clock::now();
  // Submit with a sliding window one smaller than the queue so the bounded
  // queue throttles the driver instead of bouncing requests.
  std::deque<std::future<ParseResult>> Inflight;
  std::vector<ParseResult> Results;
  Results.reserve(Workload.size());
  auto Drain = [&](size_t DownTo) {
    while (Inflight.size() > DownTo) {
      Results.push_back(Inflight.front().get());
      Inflight.pop_front();
    }
  };
  for (Work &W : Workload) {
    ParseRequest Req;
    Req.Bundle = W.Bundle;
    Req.Id = std::move(W.Id);
    Req.Input = std::move(W.Input);
    Req.StartRule = O.StartRule;
    Req.WantTree = O.Trees;
    Req.Recover = O.Recover;
    Inflight.push_back(Service.submit(std::move(Req)));
    if (Inflight.size() >= O.Queue)
      Drain(O.Queue / 2);
  }
  Drain(0);
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();

  int64_t CountOk = 0, CountRecovered = 0, Failed = 0, Rejected = 0,
          TotalTokens = 0;
  for (const ParseResult &R : Results) {
    switch (R.Status) {
    case ParseStatus::Ok:
      ++CountOk;
      break;
    case ParseStatus::Recovered:
      // Tolerated by --recover: a partial tree came back, not a failure.
      ++CountRecovered;
      break;
    case ParseStatus::SyntaxError:
    case ParseStatus::LexError:
    case ParseStatus::BadRequest:
      ++Failed;
      break;
    default:
      ++Rejected;
      break;
    }
    TotalTokens += R.NumTokens;
    if (!O.Quiet) {
      std::printf("%-40s %-18s %7lld tokens %9.3f ms\n", R.Id.c_str(),
                  statusName(R.Status), (long long)R.NumTokens,
                  R.ParseMillis);
      if (O.Trees && !R.TreeText.empty())
        std::printf("  %s\n", R.TreeText.c_str());
    }
  }

  ServiceMetrics Metrics = Service.metrics();
  std::printf("batch: %zu inputs, %lld ok, %lld recovered, %lld failed, "
              "%lld rejected; %lld tokens in %.3fs (%.0f tokens/s, "
              "%d threads)\n",
              Results.size(), (long long)CountOk, (long long)CountRecovered,
              (long long)Failed, (long long)Rejected, (long long)TotalTokens,
              Seconds, Seconds > 0 ? double(TotalTokens) / Seconds : 0,
              Service.threads());

  if (!O.JsonMetrics.empty()) {
    // Per-decision identities are only meaningful when every worker
    // parsed the same grammar; multi-grammar runs stay index-keyed.
    std::vector<DecisionKey> Keys;
    if (Bundles.size() == 1)
      Keys = Bundles.front()->analyzed().decisionKeys();
    std::string Json =
        Metrics.json(/*IncludeDecisions=*/true, Keys.empty() ? nullptr : &Keys);
    if (O.JsonMetrics == "-") {
      std::printf("%s\n", Json.c_str());
    } else {
      std::ofstream Out(O.JsonMetrics);
      if (!Out) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     O.JsonMetrics.c_str());
        return 1;
      }
      Out << Json << "\n";
    }
  }
  if (!O.StatsOut.empty()) {
    if (Bundles.size() != 1) {
      std::fprintf(stderr,
                   "error: --stats-out profiles exactly one grammar; got "
                   "%zu bundles\n",
                   Bundles.size());
      return 1;
    }
    if (!writeProfile(O.StatsOut, *Bundles.front(), Metrics.Parser))
      return 1;
  }
  return Failed == 0 && Rejected == 0 ? 0 : 1;
}
