#include "Harness.h"

#include "BenchGrammars.h"

#include "compiled/CompiledParser.h"
#include "lexer/TokenStream.h"
#include "peg/PackratParser.h"
#include "runtime/LLStarParser.h"

#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <sys/resource.h>

using namespace llstar;
using namespace perfbench;

uint64_t perfbench::hashTokens(const std::vector<Token> &Tokens) {
  uint64_t H = fnv1a("");
  for (const Token &T : Tokens) {
    char Buf[64];
    int N = std::snprintf(Buf, sizeof(Buf), "%d:%u:%u:%lld:", T.Type,
                          T.Loc.Line, T.Loc.Column, (long long)T.Offset);
    H = fnv1a(std::string_view(Buf, size_t(N)), H);
    H = fnv1a(T.Text, H);
    H = fnv1a("\x1f", H);
  }
  return H;
}

double perfbench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

LoopFigures::LoopFigures(size_t Inputs, size_t ChunkOps, size_t ChunksPerCycle)
    : ChunkOps(std::max<size_t>(1, ChunkOps)),
      ChunksPerCycle(std::max<size_t>(1, ChunksPerCycle)), Samples(Inputs),
      Seen(Inputs, 0) {
  for (auto &S : Samples)
    S.reserve(SamplesPerInput);
}

void LoopFigures::segment(size_t Position) {
  SegmentBaseS = LastDoneS;
  ChunkStartS = LastDoneS;
  NextPos = Position % ChunksPerCycle;
  InChunk = 0;
  ChunkTokenSum = 0;
}

void LoopFigures::add(uint32_t In, double Ms, double SegmentS, int64_t Tokens) {
  double DoneS = SegmentBaseS + SegmentS;
  ++Ops;
  LastDoneS = DoneS;
  if (In < Samples.size()) {
    std::vector<float> &S = Samples[In];
    int64_t N = ++Seen[In];
    if (S.size() < SamplesPerInput)
      S.push_back(float(Ms));
    else if (uint64_t J = Reservoir.below(uint64_t(N)); J < SamplesPerInput)
      S[J] = float(Ms);
  }
  ChunkTokenSum += Tokens;
  if (++InChunk == ChunkOps) {
    ChunkS.push_back(DoneS - ChunkStartS);
    ChunkTokens.push_back(ChunkTokenSum);
    ChunkPos.push_back(NextPos);
    NextPos = (NextPos + 1) % ChunksPerCycle;
    ChunkStartS = DoneS;
    ChunkTokenSum = 0;
    InChunk = 0;
  }
}

LoopFigures::Rates LoopFigures::rates() const {
  std::vector<std::vector<double>> Times(ChunksPerCycle);
  std::vector<int64_t> Toks(ChunksPerCycle, -1);
  for (size_t K = 0; K < ChunkS.size(); ++K) {
    size_t P = ChunkPos[K];
    Times[P].push_back(ChunkS[K]);
    if (Toks[P] < 0)
      Toks[P] = ChunkTokens[K];
  }
  Rates Out;
  Out.Cycles = ChunkS.size() / ChunksPerCycle;
  double CycleS = 0, CycleTokens = 0, CycleOps = 0;
  for (size_t P = 0; P < ChunksPerCycle; ++P) {
    if (Times[P].empty())
      continue; // a run too short for one whole cycle
    CycleS += median(Times[P]);
    CycleTokens += double(Toks[P]);
    CycleOps += double(ChunkOps);
  }
  if (CycleS > 0) {
    Out.TokensPerS = CycleTokens / CycleS;
    Out.OpsPerS = CycleOps / CycleS;
  }
  return Out;
}

std::vector<double> LoopFigures::inputMedians() const {
  std::vector<double> Out;
  for (const std::vector<float> &S : Samples)
    if (!S.empty())
      Out.push_back(median(std::vector<double>(S.begin(), S.end())));
  return Out;
}

void perfbench::addEndToEnd(RunResult &R, const Measured &M) {
  const LoopFigures &L = M.Loop;
  LoopFigures::Rates Rt = L.rates();
  std::vector<double> Medians = L.inputMedians();
  R.add("tokens_per_s", "1/s", Rt.TokensPerS);
  R.add("ops_per_s", "1/s", Rt.OpsPerS);
  R.add("latency_p50_ms", "ms", percentile(Medians, 0.50));
  R.add("latency_p90_ms", "ms", percentile(Medians, 0.90));
  R.add("peak_rss_mb", "MB", M.PeakRssMb);
  R.add("setup_s", "s", median(M.SetupS));
  std::fprintf(stderr,
               "perfbench: %lld operations over %.2f s; %zu complete cycles "
               "of %zu chunks; latency percentiles over %zu inputs; setup "
               "median of %zu\n",
               (long long)L.ops(), L.seconds(), Rt.Cycles, L.chunksPerCycle(),
               Medians.size(), M.SetupS.size());
}

//===----------------------------------------------------------------------===//
// Per-layer figures
//===----------------------------------------------------------------------===//

void LayerFigures::addParserCounts(const ParserStats &S) {
  for (const DecisionStats &D : S.Decisions) {
    DecisionEvents += D.Events;
    LookaheadTokens += D.TotalK;
    BacktrackEvents += D.BacktrackEvents;
    SpeculationTokens += D.BacktrackTotalK;
  }
  MemoHits += S.MemoHits;
  MemoMisses += S.MemoMisses;
}

void LayerFigures::emit(RunResult &R) const {
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  R.add("analysis.busy_s", "s", AnalysisBusyS);
  R.add("analysis.dfa_states", "count", double(DfaStates));
  R.add("compiled.tables_s", "s", CompiledTablesS);
  R.add("compiled.parse_s", "s", CompiledParseS);
  R.add("lexer.busy_s", "s", LexerBusyS);
  R.add("lexer.tokens", "count", double(LexerTokens));
  R.add("lexer.mb_per_s", "MB/s", Ratio(double(LexerBytes) / 1e6, LexerBusyS));
  R.add("runtime.parse_s", "s", RuntimeParseS);
  R.add("runtime.tree_build_s", "s", TreeBuildS);
  R.add("runtime.render_s", "s", RenderS);
  R.add("runtime.render_bytes", "bytes", double(RenderBytes));
  R.add("runtime.decision_events", "count", double(DecisionEvents));
  R.add("runtime.lookahead_tokens", "count", double(LookaheadTokens));
  R.add("runtime.backtrack_events", "count", double(BacktrackEvents));
  R.add("runtime.speculation_tokens", "count", double(SpeculationTokens));
  R.add("runtime.memo_hit_ratio", "ratio",
        Ratio(double(MemoHits), double(MemoHits + MemoMisses)));
  R.add("service.overhead_ms", "ms", ServiceOverheadMs);
  R.add("incremental.edit_ms_p50", "ms", EditMsP50);
  R.add("incremental.edit_ms_p99", "ms", EditMsP99);
  R.add("incremental.tokens_relexed", "count", double(TokensRelexed));
  R.add("incremental.nodes_reused", "count", double(NodesReused));
  R.add("incremental.decisions_reparsed", "count", double(DecisionsReparsed));
  R.add("incremental.reuse_ratio", "ratio",
        Ratio(double(NodesReused), double(TreeNodes)));
  R.add("recover.repairs", "count", double(Repairs));
  R.add("recover.error_edits", "count", double(ErrorEdits));
  R.add("net.overhead_ms", "ms", NetOverheadMs);
  R.add("net.codec_us", "us", NetCodecUs);
  R.add("net.bytes_per_op", "bytes", NetBytesPerOp);
  R.add("net.rejected", "count", double(NetRejected));
  R.add("trace.overhead_pct", "%", TraceOverheadPct);
}

std::string LayerFigures::counts() const {
  std::ostringstream S;
  S << "dfa_states=" << DfaStates << " lexer_tokens=" << LexerTokens
    << " render_bytes=" << RenderBytes << " decision_events=" << DecisionEvents
    << " lookahead_tokens=" << LookaheadTokens
    << " backtrack_events=" << BacktrackEvents
    << " speculation_tokens=" << SpeculationTokens << " memo_hits=" << MemoHits
    << " memo_misses=" << MemoMisses << " tokens_relexed=" << TokensRelexed
    << " nodes_reused=" << NodesReused
    << " decisions_reparsed=" << DecisionsReparsed
    << " tree_nodes=" << TreeNodes << " repairs=" << Repairs
    << " error_edits=" << ErrorEdits;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), " net_bytes_per_op=%.6f", NetBytesPerOp);
  S << Buf;
  return S.str();
}

//===----------------------------------------------------------------------===//
// Grammars
//===----------------------------------------------------------------------===//

GrammarSource perfbench::shippedGrammar(const Options &O,
                                        const std::string &File) {
  std::string Path = O.Root + "/grammars/" + File + ".g";
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    std::fprintf(stderr, "perfbench: cannot read %s\n", Path.c_str());
    std::exit(2);
  }
  std::ostringstream Text;
  Text << In.rdbuf();
  return {File, Text.str(), ""};
}

GrammarSource perfbench::benchCommonGrammar(const std::string &Name) {
  const bench::BenchGrammar &G = bench::benchGrammar(Name);
  return {G.Name, G.Text, G.StartRule};
}

std::shared_ptr<const GrammarBundle>
perfbench::loadBundle(GrammarBundleCache &Cache, const GrammarSource &G,
                      Tracer &T, int32_t Parent, double *BusyS) {
  DiagnosticEngine Diags;
  auto Start = Clock::now();
  auto B = Cache.get(G.Text, Diags);
  auto End = Clock::now();
  T.record("analysis.get", Parent, Tracer::NoRequest, Start, End);
  if (!B || Diags.hasErrors()) {
    std::fprintf(stderr, "perfbench: grammar %s does not load:\n%s\n",
                 G.Name.c_str(), Diags.str().c_str());
    std::exit(2);
  }
  if (BusyS)
    *BusyS += secondsBetween(Start, End);
  return B;
}

//===----------------------------------------------------------------------===//
// Reference checks
//===----------------------------------------------------------------------===//

namespace {

bool hasPrecedenceRule(const Grammar &G) {
  for (const Rule &R : G.rules())
    if (R.IsPrecedenceRule)
      return true;
  return false;
}

void collectLeaves(const ParseTree &N, std::vector<const Token *> &Out) {
  if (N.isToken()) {
    if (!N.isError() && !N.token().isEof())
      Out.push_back(&N.token());
    return;
  }
  for (size_t I = 0; I < N.numChildren(); ++I)
    if (const ParseTree *C = N.child(I))
      collectLeaves(*C, Out);
}

} // namespace

Reference perfbench::computeReference(const GrammarBundle &Bundle,
                                      const std::string &StartRule,
                                      const std::string &Input,
                                      const std::string &What,
                                      std::vector<std::string> &Problems) {
  Reference Ref;
  const Grammar &G = Bundle.grammar();
  DiagnosticEngine LexDiags;
  std::vector<Token> Tokens = Bundle.tokenize(Input, LexDiags);
  if (LexDiags.hasErrors()) {
    Problems.push_back(What + ": input does not lex");
    return Ref;
  }
  Ref.LexOk = true;
  Ref.NumTokens = int64_t(Tokens.size()) - 1;

  TokenStream PegStream(Tokens);
  DiagnosticEngine PegDiags;
  PackratParser::Options PegOpts;
  PegOpts.BuildTree = true;
  PackratParser Peg(G, PegStream, nullptr, PegDiags, PegOpts);
  std::unique_ptr<ParseTree> PegTree = Peg.parse(StartRule);
  Ref.PackratOk = Peg.ok();

  TokenStream LLStream(std::move(Tokens));
  DiagnosticEngine LLDiags;
  ParserOptions LLOpts;
  LLOpts.Memoize = G.Options.Memoize;
  LLOpts.CollectStats = false;
  LLOpts.Recover = false;
  LLStarParser LL(Bundle.analyzed(), LLStream, nullptr, LLDiags, LLOpts);
  std::unique_ptr<ParseTree> LLTree = LL.parse(StartRule);

  if (LL.ok() != Peg.ok()) {
    Problems.push_back(What + ": LL(*) " + (LL.ok() ? "accepts" : "rejects") +
                       " but packrat " + (Peg.ok() ? "accepts" : "rejects"));
    return Ref;
  }
  if (!LL.ok() || !LLTree)
    return Ref;

  std::vector<const Token *> Leaves;
  collectLeaves(*LLTree, Leaves);
  bool Spelled = Leaves.size() == size_t(Ref.NumTokens);
  for (size_t I = 0; Spelled && I < Leaves.size(); ++I) {
    const Token &Want = LLStream.tokens()[I];
    Spelled = Leaves[I]->Type == Want.Type && Leaves[I]->Offset == Want.Offset &&
              Leaves[I]->Text == Want.Text;
  }
  if (!Spelled)
    Problems.push_back(What + ": tree leaves do not spell the token stream");

  std::string LLText = LLTree->str(G);
  if (hasPrecedenceRule(G)) {
    Ref.Tree = std::move(LLText);
    return Ref;
  }
  std::string PegText = PegTree ? PegTree->str(G) : "";
  if (PegText != LLText)
    Problems.push_back(What + ": packrat and LL(*) trees differ");
  Ref.Tree = std::move(PegText);
  return Ref;
}

bool perfbench::packratAccepts(const GrammarBundle &Bundle,
                               const std::string &StartRule,
                               const std::string &Input) {
  // Lexing errors are the lexer's verdict; this is the parser's, on the
  // tokens the lexer did produce (unlexable characters dropped), which is
  // what an incremental session parses too.
  DiagnosticEngine LexDiags;
  TokenStream Stream(Bundle.tokenize(Input, LexDiags));
  DiagnosticEngine Diags;
  PackratParser Peg(Bundle.grammar(), Stream, nullptr, Diags);
  Peg.parse(StartRule);
  return Peg.ok();
}

//===----------------------------------------------------------------------===//
// Direct replay
//===----------------------------------------------------------------------===//

namespace {

/// One parse of \p Tokens the way ParseService::runJob runs it.
template <class FnT>
void parseOnce(const GrammarBundle &Bundle, const std::string &StartRule,
               const std::vector<Token> &Tokens, bool Compiled, bool Tree,
               Arena &A, FnT &&AfterParse) {
  TokenStream Stream{std::vector<Token>(Tokens)};
  DiagnosticEngine Diags;
  ParserOptions Opts;
  Opts.Memoize = Bundle.grammar().Options.Memoize;
  Opts.BuildTree = Tree;
  Opts.CollectStats = true;
  Opts.Recover = false;
  Opts.TreeArena = &A;
  if (Compiled) {
    const compiled::CompiledResolution &CT = Bundle.compiledTables();
    compiled::CompiledParser P(Bundle.analyzed(), CT.View, Stream, nullptr,
                               Diags, Opts, CT.Native, CT.Rules);
    AfterParse(P, Stream, [&] { P.parse(StartRule); });
  } else {
    LLStarParser P(Bundle.analyzed(), Stream, nullptr, Diags, Opts);
    AfterParse(P, Stream, [&] { P.parse(StartRule); });
  }
}

DirectTimes replayDirect(const GrammarBundle &Bundle,
                         const std::string &StartRule,
                         const std::string &Input, bool Compiled,
                         bool WantTree, Tracer &T, int32_t Parent,
                         int64_t Request) {
  DirectTimes D;
  DiagnosticEngine Diags;
  auto T0 = Clock::now();
  std::vector<Token> Tokens = Bundle.tokenize(Input, Diags);
  auto T1 = Clock::now();
  T.record("lexer.tokenize", Parent, Request, T0, T1);
  D.LexS = secondsBetween(T0, T1);
  D.Tokens = int64_t(Tokens.size());
  if (Diags.hasErrors())
    return D;

  const char *ParseName = Compiled ? "compiled.parse" : "runtime.parse";
  Arena A;
  parseOnce(Bundle, StartRule, Tokens, Compiled, /*Tree=*/false, A,
            [&](auto &P, TokenStream &, auto &&Run) {
              auto S = Clock::now();
              Run();
              auto E = Clock::now();
              T.record(ParseName, Parent, Request, S, E);
              D.ParseS = secondsBetween(S, E);
              D.Stats = P.stats();
            });
  A.reset();
  if (!WantTree)
    return D;

  const char *TreeName =
      Compiled ? "compiled.parse_tree" : "runtime.parse_tree";
  parseOnce(Bundle, StartRule, Tokens, Compiled, /*Tree=*/true, A,
            [&](auto &P, TokenStream &Stream, auto &&Run) {
              auto S = Clock::now();
              Run();
              auto E = Clock::now();
              T.record(TreeName, Parent, Request, S, E);
              D.ParseTreeS = secondsBetween(S, E);
              if (!P.arenaTree())
                return;
              auto RS = Clock::now();
              std::string Text = P.arenaTree()->str(Bundle.grammar(), Stream);
              auto RE = Clock::now();
              T.record("runtime.render", Parent, Request, RS, RE);
              D.RenderS = secondsBetween(RS, RE);
              D.RenderBytes = int64_t(Text.size());
            });
  return D;
}

} // namespace

double perfbench::serviceRoundTrip(ParseService &S, ParseRequest Req,
                                   ParseResult *Out) {
  std::mutex Mu;
  std::condition_variable Cv;
  bool Done = false;
  Clock::time_point End;
  ParseResult Result;
  auto Start = Clock::now();
  S.submitAsync(std::move(Req), [&](ParseResult R) {
    auto Now = Clock::now();
    std::lock_guard<std::mutex> Lock(Mu);
    End = Now;
    Result = std::move(R);
    Done = true;
    Cv.notify_one(); // under the lock: the waiter owns Cv
  });
  std::unique_lock<std::mutex> Lock(Mu);
  Cv.wait(Lock, [&] { return Done; });
  if (Out)
    *Out = std::move(Result);
  return millisBetween(Start, End);
}

void ServiceReplay::add(size_t I, ParseService &S,
                        const std::shared_ptr<const GrammarBundle> &Bundle,
                        const std::string &StartRule, const std::string &Input,
                        Tracer &T, int32_t Parent) {
  Direct[I].push_back(replayDirect(*Bundle, StartRule, Input, Compiled,
                                   WantTree, T, Parent, int64_t(I)));
  ParseRequest Req;
  Req.Bundle = Bundle;
  Req.StartRule = StartRule;
  Req.Input = Input;
  Req.WantTree = WantTree;
  ScopedSpan Svc(T, "service.request", Parent, int64_t(I));
  ServiceMs[I].push_back(serviceRoundTrip(S, std::move(Req)));
  if (Bytes.size() <= I)
    Bytes.resize(I + 1, 0);
  Bytes[I] = int64_t(Input.size());
}

void ServiceReplay::fold(LayerFigures &L,
                         std::vector<std::string> &Problems) const {
  std::vector<double> Overhead;
  for (size_t I = 0; I < Direct.size(); ++I) {
    const std::vector<DirectTimes> &Reps = Direct[I];
    if (Reps.empty())
      continue;
    std::vector<double> Lex, Parse, ParseTree, Render, Path;
    for (const DirectTimes &D : Reps) {
      Lex.push_back(D.LexS);
      Parse.push_back(D.ParseS);
      ParseTree.push_back(D.ParseTreeS);
      Render.push_back(D.RenderS);
      Path.push_back(D.pathS(WantTree) * 1e3);
      if (D.Tokens != Reps[0].Tokens || D.RenderBytes != Reps[0].RenderBytes ||
          D.Stats.totalEvents() != Reps[0].Stats.totalEvents() ||
          D.Stats.backtrackEvents() != Reps[0].Stats.backtrackEvents() ||
          D.Stats.MemoHits != Reps[0].Stats.MemoHits)
        Problems.push_back("input " + std::to_string(I) +
                           ": counts differ between two replays");
    }
    L.LexerBusyS += median(Lex);
    L.LexerTokens += Reps[0].Tokens;
    L.LexerBytes += Bytes[I];
    (Compiled ? L.CompiledParseS : L.RuntimeParseS) += median(Parse);
    if (WantTree) {
      L.TreeBuildS += std::max(0.0, median(ParseTree) - median(Parse));
      L.RenderS += median(Render);
      L.RenderBytes += Reps[0].RenderBytes;
    }
    L.addParserCounts(Reps[0].Stats);
    Overhead.push_back(serviceMs(I) - median(Path));
  }
  L.ServiceOverheadMs = median(Overhead);
}

//===----------------------------------------------------------------------===//
// Count determinism and the span file
//===----------------------------------------------------------------------===//

namespace {

/// Identity of this binary: a hash of its bytes, so a count record is only
/// compared against a run of the same build.
std::string buildId() {
  std::ifstream In("/proc/self/exe", std::ios::binary);
  std::ostringstream Bytes;
  Bytes << In.rdbuf();
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                (unsigned long long)fnv1a(Bytes.str()));
  return Buf;
}

std::string outPath(const Options &O, const char *Kind, const char *Ext) {
  std::filesystem::create_directories(O.OutDir);
  return O.OutDir + "/" + Kind + "-" + O.Workload + "-seed" +
         std::to_string(O.Seed) + Ext;
}

void checkCountDeterminism(const Options &O, const LayerFigures &L,
                           std::vector<std::string> &Problems) {
  std::string Path = outPath(O, "counts", ".txt");
  std::string Id = buildId();
  std::string Counts = L.counts();
  {
    std::ifstream In(Path);
    std::string PrevId, PrevCounts;
    if (In && std::getline(In, PrevId) && std::getline(In, PrevCounts) &&
        PrevId == Id) {
      if (PrevCounts != Counts)
        Problems.push_back("counts differ from an earlier run at seed " +
                           std::to_string(O.Seed) + ":\n  before: " +
                           PrevCounts + "\n  now:    " + Counts);
      return;
    }
  }
  std::ofstream Out(Path);
  Out << Id << "\n" << Counts << "\n";
}

void writeTrace(const Options &O, const Tracer &T, const LayerFigures &L) {
  std::string Path = outPath(O, "trace", ".json");
  std::string Header = "\"machine\":" + machineJson(O) + ",\"workload\":\"" +
                       O.Workload + "\",\"seed\":" + std::to_string(O.Seed) +
                       ",\"counts\":\"" + L.counts() + "\",";
  if (!T.write(Path, Header))
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
  else
    std::fprintf(stderr, "perfbench: %zu spans written to %s\n", T.size(),
                 Path.c_str());
}

} // namespace

void perfbench::finishTraced(const Options &O, const Tracer &T,
                             const LayerFigures &L, RunResult &R) {
  checkCountDeterminism(O, L, R.Problems);
  writeTrace(O, T, L);
  L.emit(R);
}
