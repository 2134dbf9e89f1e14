//===- perfbench/src/Harness.h - Workload entry points ----------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the four workloads share: run options, the per-layer figures of a
/// traced run, grammar loading, the packrat reference checks and the
/// direct replay of one input through each layer's public functions.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "Common.h"
#include "Tracer.h"

#include "service/GrammarBundleCache.h"
#include "service/ParseService.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Repository root: grammars/ is read from here.
  std::string Root = ".";
  /// Where traced runs write their span file and count record.
  std::string OutDir = ".bench_build/perfbench-out";
  /// Provenance recorded in the machine block (run.py fills them in).
  std::string GitRev = "unknown";
  std::string SourceDigest = "unknown";
  /// The CPUs the run is confined to.
  std::string Cpus = "all";
};

/// The machine block: cores, compiler, build type, revision.
std::string machineJson(const Options &O);

/// The timed loop runs in this many segments, with a cold set-up before
/// the first, between each two and after the last, so that the set-up
/// median does not rest on one moment of a shared host.
constexpr int LoopSegments = 16;
/// Passes over the input set in a traced replay; per-input medians.
constexpr int ReplayRepeats = 3;

/// Everything a traced run reports. Zero means the layer does no work on
/// the workload.
struct LayerFigures {
  double AnalysisBusyS = 0;
  int64_t DfaStates = 0;
  double CompiledTablesS = 0;
  double CompiledParseS = 0;
  double LexerBusyS = 0;
  int64_t LexerTokens = 0;
  int64_t LexerBytes = 0;
  double RuntimeParseS = 0;
  double TreeBuildS = 0;
  double RenderS = 0;
  int64_t RenderBytes = 0;
  int64_t DecisionEvents = 0;
  int64_t LookaheadTokens = 0;
  int64_t BacktrackEvents = 0;
  int64_t SpeculationTokens = 0;
  int64_t MemoHits = 0;
  int64_t MemoMisses = 0;
  double ServiceOverheadMs = 0;
  double EditMsP50 = 0;
  double EditMsP99 = 0;
  int64_t TokensRelexed = 0;
  int64_t NodesReused = 0;
  int64_t DecisionsReparsed = 0;
  int64_t TreeNodes = 0;
  int64_t Repairs = 0;
  int64_t ErrorEdits = 0;
  double NetOverheadMs = 0;
  double NetCodecUs = 0;
  double NetBytesPerOp = 0;
  int64_t NetRejected = 0;
  double TraceOverheadPct = 0;

  /// Adds ParserStats counters of one parse (or a merged set).
  void addParserCounts(const llstar::ParserStats &S);
  /// The per-layer metrics, every one on every workload.
  void emit(RunResult &R) const;
  /// The counts that must repeat exactly at one seed, as one line.
  std::string counts() const;
};

/// A shipped or bench/common grammar, by name.
struct GrammarSource {
  std::string Name;
  std::string Text;
  std::string StartRule; ///< empty = the grammar's first rule
};
GrammarSource shippedGrammar(const Options &O, const std::string &File);
GrammarSource benchCommonGrammar(const std::string &Name);

/// Analyzes \p G through \p Cache (GrammarBundleCache::get) under an
/// "analysis.get" span; adds the time to \p BusyS. Aborts on error.
std::shared_ptr<const llstar::GrammarBundle>
loadBundle(llstar::GrammarBundleCache &Cache, const GrammarSource &G,
           Tracer &T, int32_t Parent, double *BusyS = nullptr);

/// The independent reference for one input, computed outside timing.
struct Reference {
  bool LexOk = false;
  bool PackratOk = false;
  int64_t NumTokens = 0; ///< excluding EOF
  /// The expected rendered tree: packrat's when the grammar has no
  /// precedence rule, else the interpreter's after the leaf check.
  std::string Tree;
};

/// Tokenizes and parses \p Input with the packrat parser and the LL(*)
/// interpreter (heap trees, no recovery), checking that they agree: same
/// verdict; same tree when \p Bundle's grammar has no precedence rule;
/// tree leaves spelling out the token stream. Disagreements are added to
/// \p Problems prefixed with \p What.
Reference computeReference(const llstar::GrammarBundle &Bundle,
                           const std::string &StartRule,
                           const std::string &Input, const std::string &What,
                           std::vector<std::string> &Problems);

/// The packrat parser's verdict on the tokens \p Input lexes to (characters
/// the lexer rejects are dropped, as in an incremental session).
bool packratAccepts(const llstar::GrammarBundle &Bundle,
                    const std::string &StartRule, const std::string &Input);

/// One input replayed directly through the layers, the way a service
/// worker runs it: tokenize, parse with trees off, then (WantTree) parse
/// with trees on and render.
struct DirectTimes {
  double LexS = 0;
  double ParseS = 0;      ///< trees off
  double ParseTreeS = 0;  ///< trees on (WantTree only)
  double RenderS = 0;     ///< WantTree only
  int64_t Tokens = 0;     ///< including EOF, as the lexer returned them
  int64_t RenderBytes = 0;
  llstar::ParserStats Stats; ///< of the trees-off parse

  /// The service's own work for this input.
  double pathS(bool WantTree) const {
    return LexS + (WantTree ? ParseTreeS + RenderS : ParseS);
  }
};

/// Submits \p Req and waits for its callback; returns the latency in ms.
double serviceRoundTrip(llstar::ParseService &S, llstar::ParseRequest Req,
                        llstar::ParseResult *Out = nullptr);

/// A traced run's replay of a workload's inputs through the layers and the
/// service, one entry per input and pass.
class ServiceReplay {
public:
  ServiceReplay(size_t Inputs, bool Compiled, bool WantTree)
      : Compiled(Compiled), WantTree(WantTree), Direct(Inputs),
        ServiceMs(Inputs) {}

  /// Replays input \p I once directly through the layers, then through
  /// \p S with one request in flight, under span \p Parent.
  void add(size_t I, llstar::ParseService &S,
           const std::shared_ptr<const llstar::GrammarBundle> &Bundle,
           const std::string &StartRule, const std::string &Input, Tracer &T,
           int32_t Parent);

  /// Input \p I's median service latency over the passes, in ms.
  double serviceMs(size_t I) const { return median(ServiceMs[I]); }

  /// Adds the replay's figures to \p L: per-input medians over the passes
  /// summed over inputs, counts from the first pass, and as
  /// service.overhead_ms the median over inputs of the service latency
  /// minus the direct path time. Fails (adds to \p Problems) when two
  /// passes over one input disagree on a count.
  void fold(LayerFigures &L, std::vector<std::string> &Problems) const;

private:
  bool Compiled, WantTree;
  std::vector<std::vector<DirectTimes>> Direct;
  std::vector<std::vector<double>> ServiceMs;
  std::vector<int64_t> Bytes;
};

/// The measurement protocol every workload shares, filled in by measure().
struct Measured {
  std::vector<double> SetupS; ///< every cold set-up, in seconds
  LoopFigures Loop;           ///< the loop's untraced segments
  LoopFigures TracedLoop;     ///< the traced run's traced segments
  double PeakRssMb = 0;       ///< of the process, after the last set-up

  /// Traced runs: the traced segments' throughput loss, in percent.
  double traceOverheadPct() const {
    double U = Loop.rates().OpsPerS, T = TracedLoop.rates().OpsPerS;
    return U > 0 ? (1 - T / U) * 100 : 0;
  }
};

/// Runs the protocol: LoopSegments segments of the closed loop, together
/// \p O.Seconds long, on the workload the first cold set-up returns (kept
/// in \p Serving), with a throwaway cold set-up after every segment. A
/// traced run traces every second segment. \p SetUp() returns a workload
/// ready to serve, built with a fresh cache; \p RunSegment(Serving,
/// Seconds, Tracer *, LoopFigures &) runs one segment, starting it with
/// LoopFigures::segment(). \p Empty is the loop's figures before any
/// operation.
template <class ReadyT, class SetUpFn, class SegmentFn>
Measured measure(const Options &O, Tracer &T, const LoopFigures &Empty,
                 ReadyT &Serving, SetUpFn SetUp, SegmentFn RunSegment) {
  Measured M{{}, Empty, Empty, 0};
  auto Cold = [&] {
    auto Start = Clock::now();
    ReadyT Fresh = SetUp();
    M.SetupS.push_back(secondsBetween(Start, Clock::now()));
    return Fresh;
  };
  Serving = Cold();
  for (int Seg = 0; Seg < LoopSegments; ++Seg) {
    bool Traced = O.Trace && Seg % 2 == 1;
    RunSegment(Serving, O.Seconds / LoopSegments, Traced ? &T : nullptr,
               Traced ? M.TracedLoop : M.Loop);
    Cold();
  }
  M.PeakRssMb = peakRssMb();
  return M;
}

/// Adds the end-to-end metrics every workload reports and prints the
/// sample counts behind them to stderr.
void addEndToEnd(RunResult &R, const Measured &M);

/// Ends a traced run: compares \p L's counts with the record an earlier
/// traced run of the same binary at the same seed left in Options::OutDir
/// (or leaves one there), writes the span file and adds the per-layer
/// metrics to \p R.
void finishTraced(const Options &O, const Tracer &T, const LayerFigures &L,
                  RunResult &R);

// The workloads.
RunResult runServiceWorkload(const Options &O, Tracer &T);
RunResult runEditTyping(const Options &O, Tracer &T);
RunResult runRpcSmall(const Options &O, Tracer &T);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
