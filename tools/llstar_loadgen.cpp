//===- tools/llstar_loadgen.cpp - llstard load generator ------------------===//
//
// The `llstar-loadgen` tool: drives an llstard daemon over the wire with
// pipelined parse requests from concurrent connections, and reports
// throughput plus p50/p90/p99 latency (optionally as JSON, the shape
// committed as BENCH_daemon.json).
//
//   llstar-loadgen <grammar.g> [options]
//
// Inputs are seeded sentences sampled from the grammar itself, so runs
// are reproducible. With --spawn the tool hosts an in-process Daemon on
// an ephemeral port — the same library code path as llstard — which is
// how the CI smoke test runs without process orchestration; --host/--port
// target an external daemon instead.
//
//===----------------------------------------------------------------------===//

#include "CompiledManifest.h"
#include "fuzz/FuzzRandom.h"
#include "fuzz/SentenceSampler.h"
#include "net/Daemon.h"
#include "net/LlstarClient.h"
#include "support/Json.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

using namespace llstar;
using namespace llstar::net;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: llstar-loadgen <grammar.g> [options]\n"
      "  --spawn           host an in-process daemon on an ephemeral port\n"
      "  --host ADDR       daemon address (default 127.0.0.1)\n"
      "  --port N          daemon port (required unless --spawn)\n"
      "  --requests N      total parse requests (default 2000)\n"
      "  --connections C   concurrent client connections (default 4)\n"
      "  --pipeline P      max in-flight requests per connection (default 32)\n"
      "  --seed S          sentence-sampling seed (default 1)\n"
      "  --recover         issue ParseRecover instead of Parse\n"
      "  --trees           request parse trees\n"
      "  --threads N       daemon worker threads (--spawn only)\n"
      "  --edit-mix R      percent of each connection's requests issued as\n"
      "                    incremental Edit ops against a per-connection\n"
      "                    session (0-100, default 0) — exercises the\n"
      "                    daemon's stateful sessions under load\n"
      "  --json F          write the benchmark report JSON to F (- = stdout)\n"
      "  --stats-out F     after the run, fetch the daemon's merged\n"
      "                    per-decision parser stats and write them as a\n"
      "                    decision-keyed profile consumable by\n"
      "                    `llstar lint --profile F` (assumes the daemon\n"
      "                    served only this grammar, as --spawn does)\n");
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

struct Options {
  std::string GrammarPath;
  bool Spawn = false;
  std::string Host = "127.0.0.1";
  int Port = 0;
  int64_t Requests = 2000;
  int Connections = 4;
  int Pipeline = 32;
  uint64_t Seed = 1;
  bool Recover = false;
  bool Trees = false;
  int Threads = 0;
  int EditMix = 0; ///< percent of requests issued as Edit ops
  std::string JsonPath;
  std::string StatsOut;
};

/// --stats-out: re-keys the daemon's merged per-decision stats with the
/// locally analyzed grammar's stable DecisionKeys and writes the profile
/// wrapper `llstar lint --profile` consumes. The daemon reply is
/// index-keyed; decision numbering is deterministic for a given grammar
/// text, so the local analysis supplies identical indices.
bool writeStatsProfile(const std::string &Path, const GrammarBundle &Bundle,
                       const std::string &DaemonStatsJson) {
  json::Value Doc;
  std::string Err;
  if (!json::parse(DaemonStatsJson, Doc, &Err)) {
    std::fprintf(stderr, "error: bad daemon stats reply: %s\n", Err.c_str());
    return false;
  }
  const json::Value &P = Doc.has("parser") ? Doc.key("parser") : Doc;
  ParserStats S;
  S.SynPredEvals = P.key("synPredEvals").integer(0);
  S.MemoHits = P.key("memoHits").integer(0);
  S.MemoMisses = P.key("memoMisses").integer(0);
  S.TokensConsumed = P.key("tokensConsumed").integer(0);
  S.SyntaxErrors = P.key("syntaxErrors").integer(0);
  S.TokensDeleted = P.key("tokensDeleted").integer(0);
  S.TokensInserted = P.key("tokensInserted").integer(0);
  S.PanicSyncs = P.key("panicSyncs").integer(0);
  S.NodesReused = P.key("nodesReused").integer(0);
  S.TokensRelexed = P.key("tokensRelexed").integer(0);
  S.DecisionsReparsed = P.key("decisionsReparsed").integer(0);
  for (const json::Value &D : P.key("decisions").elements()) {
    int64_t Idx = D.key("decision").integer(-1);
    if (Idx < 0)
      continue;
    S.ensure(size_t(Idx) + 1);
    DecisionStats &DS = S.Decisions[size_t(Idx)];
    DS.Events = D.key("events").integer(0);
    DS.TotalK = D.key("totalK").integer(0);
    DS.MaxK = D.key("maxK").integer(0);
    DS.BacktrackEvents = D.key("backtrackEvents").integer(0);
    DS.BacktrackTotalK = D.key("backtrackTotalK").integer(0);
    size_t Bucket = 0;
    for (const json::Value &H : D.key("kHistogram").elements())
      if (Bucket < DS.KHist.size())
        DS.KHist[Bucket++] = H.integer(0);
    for (const json::Value &A : D.key("altEvents").elements())
      DS.AltEvents.push_back(A.integer(0));
  }
  std::vector<DecisionKey> Keys = Bundle.analyzed().decisionKeys();
  std::string Json = "{\"llstarProfile\":1,\"grammar\":\"" + Bundle.name() +
                     "\",\"stats\":" +
                     S.json(/*IncludeDecisions=*/true, &Keys) +
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

/// One connection-thread's share of the run.
struct WorkerReport {
  std::vector<double> LatenciesMs;
  std::map<std::string, int64_t> Statuses;
  int64_t Tokens = 0;
  std::string Error;
};

void runWorker(const Options &O, uint16_t Port, uint64_t BundleHash,
               const std::vector<std::string> &Inputs, size_t Begin,
               size_t End, WorkerReport &Report) {
  LlstarClient Client;
  std::string Err;
  if (!Client.connect(O.Host, Port, &Err)) {
    Report.Error = Err;
    return;
  }
  using Clock = std::chrono::steady_clock;
  std::unordered_map<uint64_t, Clock::time_point> SubmitAt;

  auto Collect = [&](bool &Ok) {
    wire::Message Reply;
    if (!Client.waitAny(Reply, &Err)) {
      Report.Error = Err;
      Ok = false;
      return;
    }
    auto It = SubmitAt.find(Reply.Hdr.RequestId);
    if (It != SubmitAt.end()) {
      Report.LatenciesMs.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - It->second)
              .count());
      SubmitAt.erase(It);
    }
    if (Reply.Hdr.Op == wire::Opcode::ErrorReply) {
      Report.Statuses[std::string("wire-") +
                      wire::wireErrorName(Reply.Error.Code)]++;
    } else {
      Report.Statuses[statusName(ParseStatus(Reply.Parse.Status))]++;
      Report.Tokens += Reply.Parse.NumTokens;
    }
  };

  // --edit-mix state: one incremental session per connection, with a
  // local shadow of its text so generated edit offsets stay in range.
  fuzz::FuzzRng Rng(fuzz::FuzzRng::mix(O.Seed, uint64_t(Begin) + 0xed17));
  std::string Shadow;
  bool SessionLive = false;
  auto EditOp = [&](size_t I, bool &Ok) {
    wire::EditArgs Args;
    Args.SessionId = 1;
    Args.BundleHash = BundleHash;
    Args.Mode = wire::EditModeRecover;
    Args.WantTree = O.Trees;
    if (!SessionLive) {
      Args.Action = wire::EditActionReset;
      Args.NewText = Inputs[I % Inputs.size()];
      Shadow = Args.NewText;
    } else {
      Args.Action = wire::EditActionApply;
      uint64_t Op = Rng.below(3);
      if (Op == 0 || Shadow.empty()) {
        Args.Offset = Rng.below(Shadow.size() + 1);
      } else {
        Args.Offset = Rng.below(Shadow.size());
        Args.OldLen = 1 + Rng.below(
            std::min<uint64_t>(4, Shadow.size() - Args.Offset));
      }
      if (Op != 1) {
        const std::string &Pool = Inputs[Rng.below(Inputs.size())];
        Args.NewText = Pool.empty() ? " " : " " + Pool.substr(
            0, 1 + Rng.below(std::min<size_t>(Pool.size(), 5)));
      }
      Shadow.replace(size_t(Args.Offset), size_t(Args.OldLen), Args.NewText);
    }
    auto T0 = Clock::now();
    wire::Message Reply;
    if (!Client.edit(Args, Reply, &Err)) {
      Report.Error = Err;
      Ok = false;
      return;
    }
    Report.LatenciesMs.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - T0).count());
    if (Reply.Hdr.Op == wire::Opcode::ErrorReply) {
      Report.Statuses[std::string("wire-") +
                      wire::wireErrorName(Reply.Error.Code)]++;
    } else {
      Report.Statuses[statusName(ParseStatus(Reply.Edit.Status))]++;
      Report.Tokens += Reply.Edit.NumTokens;
      SessionLive = true;
    }
  };

  bool Ok = true;
  for (size_t I = Begin; I < End && Ok; ++I) {
    if (O.EditMix > 0 && Rng.below(100) < uint64_t(O.EditMix)) {
      // Edit ops are synchronous RPCs (a session's edits are ordered);
      // pipelined parse replies arriving meanwhile are buffered by the
      // client and claimed by later Collect calls.
      EditOp(I, Ok);
      continue;
    }
    while (SubmitAt.size() >= size_t(O.Pipeline) && Ok)
      Collect(Ok);
    if (!Ok)
      break;
    wire::ParseArgs Args;
    Args.BundleHash = BundleHash;
    Args.WantTree = O.Trees;
    Args.Input = Inputs[I % Inputs.size()];
    uint64_t Id = Client.submitParse(Args, O.Recover, &Err);
    if (Id == 0) {
      Report.Error = Err;
      return;
    }
    SubmitAt[Id] = Clock::now();
  }
  while (!SubmitAt.empty() && Ok)
    Collect(Ok);
}

double percentile(std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  double Rank = P * double(Sorted.size() - 1);
  size_t Lo = size_t(Rank);
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Rank - double(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
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
    if (A == "--spawn")
      O.Spawn = true;
    else if (A == "--host" && I + 1 < Args.size())
      O.Host = Args[++I];
    else if (A == "--port" && Value(V))
      O.Port = int(V);
    else if (A == "--requests" && Value(V))
      O.Requests = std::max<int64_t>(V, 1);
    else if (A == "--connections" && Value(V))
      O.Connections = int(std::max<int64_t>(V, 1));
    else if (A == "--pipeline" && Value(V))
      O.Pipeline = int(std::max<int64_t>(V, 1));
    else if (A == "--seed" && Value(V))
      O.Seed = uint64_t(V);
    else if (A == "--recover")
      O.Recover = true;
    else if (A == "--trees")
      O.Trees = true;
    else if (A == "--threads" && Value(V))
      O.Threads = int(V);
    else if (A == "--edit-mix" && Value(V))
      O.EditMix = int(std::clamp<int64_t>(V, 0, 100));
    else if (A == "--json" && I + 1 < Args.size())
      O.JsonPath = Args[++I];
    else if (A == "--stats-out" && I + 1 < Args.size())
      O.StatsOut = Args[++I];
    else if (!A.empty() && A[0] == '-' && A != "-")
      return usage();
    else if (O.GrammarPath.empty())
      O.GrammarPath = A;
    else
      return usage();
  }
  if (O.GrammarPath.empty() || (!O.Spawn && O.Port == 0))
    return usage();

  std::string GrammarBytes;
  if (!readFile(O.GrammarPath, GrammarBytes)) {
    std::fprintf(stderr, "error: cannot read %s\n", O.GrammarPath.c_str());
    return 1;
  }

  // Sample the workload locally (sentences need rule bodies, so the
  // grammar must be .g source, not a compiled bundle).
  std::vector<std::string> Inputs;
  std::string GrammarName;
  std::shared_ptr<const GrammarBundle> LocalBundle;
  {
    DiagnosticEngine Diags;
    auto Bundle = makeGrammarBundle(GrammarBytes, Diags);
    if (!Bundle) {
      std::fprintf(stderr, "error: failed to load %s\n%s",
                   O.GrammarPath.c_str(), Diags.str().c_str());
      return 1;
    }
    GrammarName = Bundle->name();
    LocalBundle = Bundle;
    const Grammar &G = Bundle->grammar();
    if (G.numRules() == 0 || G.rule(0).Alts.empty()) {
      std::fprintf(stderr,
                   "error: %s has no rule bodies to sample from; "
                   "the load generator needs a .g source grammar\n",
                   GrammarName.c_str());
      return 2;
    }
    fuzz::SentenceSampler Sampler(G, O.Seed);
    size_t Distinct = std::min<size_t>(size_t(O.Requests), 512);
    for (size_t I = 0; I < Distinct; ++I)
      Inputs.push_back(fuzz::SentenceSampler::render(Sampler.sample()));
  }

  std::unique_ptr<Daemon> Local;
  uint16_t Port = uint16_t(O.Port);
  if (O.Spawn) {
    DaemonConfig Config;
    Config.Service.Threads = O.Threads;
    // The spawned daemon runs like llstard: a shipped grammar's native
    // module serves requests when its payload hash matches.
    Config.Service.UseCompiled = true;
    compiled::registerShippedGrammars();
    Local = std::make_unique<Daemon>(Config);
    std::string Error;
    if (!Local->start(&Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    Port = Local->port();
  }

  // One control connection loads the bundle; workers address it by hash.
  uint64_t BundleHash = 0;
  int DaemonThreads = 0;
  {
    LlstarClient Control;
    std::string Err;
    wire::LoadBundleReply Loaded;
    if (!Control.connect(O.Host, Port, &Err) ||
        !Control.loadBundle(GrammarBytes, Loaded, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    BundleHash = Loaded.Hash;
    std::string StatsJson;
    if (Control.stats(false, StatsJson, &Err)) {
      // Cheap extraction; the stats JSON is flat.
      size_t At = StatsJson.find("\"threads\":");
      if (At != std::string::npos)
        DaemonThreads = std::atoi(StatsJson.c_str() + At + 10);
    }
  }

  std::vector<WorkerReport> Reports(size_t(O.Connections));
  std::vector<std::thread> Threads;
  size_t PerConn = size_t(O.Requests) / size_t(O.Connections);
  size_t Extra = size_t(O.Requests) % size_t(O.Connections);
  auto Start = std::chrono::steady_clock::now();
  size_t Begin = 0;
  for (int C = 0; C < O.Connections; ++C) {
    size_t Count = PerConn + (size_t(C) < Extra ? 1 : 0);
    size_t End = Begin + Count;
    Threads.emplace_back([&, C, Begin, End] {
      runWorker(O, Port, BundleHash, Inputs, Begin, End, Reports[size_t(C)]);
    });
    Begin = End;
  }
  for (std::thread &T : Threads)
    T.join();
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();

  // Harvest the daemon-side merged profile before shutting anything down:
  // drain first so every in-flight parse has folded its worker stats into
  // the service metrics the Stats reply snapshots.
  if (!O.StatsOut.empty()) {
    // Connect before draining (a draining daemon refuses new connections),
    // then drain over the wire so the snapshot includes every in-flight
    // parse, then fetch. Works identically against --spawn and external
    // daemons.
    LlstarClient Control;
    std::string Err, StatsJson;
    if (!Control.connect(O.Host, Port, &Err) || !Control.drain(&Err) ||
        !Control.stats(/*IncludeDecisions=*/true, StatsJson, &Err)) {
      std::fprintf(stderr, "error: stats fetch failed: %s\n", Err.c_str());
      return 1;
    }
    if (!writeStatsProfile(O.StatsOut, *LocalBundle, StatsJson))
      return 1;
  }

  if (Local) {
    Local->drain();
    Local->stop();
  }

  std::vector<double> Latencies;
  std::map<std::string, int64_t> Statuses;
  int64_t Tokens = 0;
  for (const WorkerReport &R : Reports) {
    if (!R.Error.empty()) {
      std::fprintf(stderr, "error: worker failed: %s\n", R.Error.c_str());
      return 1;
    }
    Latencies.insert(Latencies.end(), R.LatenciesMs.begin(),
                     R.LatenciesMs.end());
    for (const auto &KV : R.Statuses)
      Statuses[KV.first] += KV.second;
    Tokens += R.Tokens;
  }
  std::sort(Latencies.begin(), Latencies.end());
  double Mean = 0;
  for (double L : Latencies)
    Mean += L;
  if (!Latencies.empty())
    Mean /= double(Latencies.size());
  double P50 = percentile(Latencies, 0.50);
  double P90 = percentile(Latencies, 0.90);
  double P99 = percentile(Latencies, 0.99);

  std::printf("loadgen: %lld requests over %d connections (pipeline %d) "
              "in %.3fs — %.0f req/s, %.0f tokens/s\n",
              (long long)Latencies.size(), O.Connections, O.Pipeline, Seconds,
              Seconds > 0 ? double(Latencies.size()) / Seconds : 0,
              Seconds > 0 ? double(Tokens) / Seconds : 0);
  std::printf("latency ms: mean %.3f  p50 %.3f  p90 %.3f  p99 %.3f\n", Mean,
              P50, P90, P99);
  for (const auto &KV : Statuses)
    std::printf("  %-18s %lld\n", KV.first.c_str(), (long long)KV.second);

  if (!O.JsonPath.empty()) {
    std::ostringstream Json;
    Json << "{\"benchmark\":\"llstar-loadgen\",\"grammar\":\"" << GrammarName
         << "\",\"requests\":" << Latencies.size()
         << ",\"connections\":" << O.Connections
         << ",\"pipeline\":" << O.Pipeline
         << ",\"daemonThreads\":" << DaemonThreads
         << ",\"recover\":" << (O.Recover ? "true" : "false")
         << ",\"editMix\":" << O.EditMix
         << ",\"seconds\":" << Seconds << ",\"requestsPerSec\":"
         << (Seconds > 0 ? double(Latencies.size()) / Seconds : 0)
         << ",\"tokensPerSec\":"
         << (Seconds > 0 ? double(Tokens) / Seconds : 0)
         << ",\"tokens\":" << Tokens << ",\"latencyMs\":{\"mean\":" << Mean
         << ",\"p50\":" << P50 << ",\"p90\":" << P90 << ",\"p99\":" << P99
         << "},\"statuses\":{";
    bool First = true;
    for (const auto &KV : Statuses) {
      if (!First)
        Json << ",";
      First = false;
      Json << "\"" << KV.first << "\":" << KV.second;
    }
    Json << "}}";
    if (O.JsonPath == "-") {
      std::printf("%s\n", Json.str().c_str());
    } else {
      std::ofstream Out(O.JsonPath);
      if (!Out) {
        std::fprintf(stderr, "error: cannot write %s\n", O.JsonPath.c_str());
        return 1;
      }
      Out << Json.str() << "\n";
    }
  }

  // Any wire-level error or unexpected parse status is a failure.
  for (const auto &KV : Statuses)
    if (KV.first != "ok" && KV.first != "recovered" &&
        KV.first != "syntax-error")
      return 1;
  return 0;
}
