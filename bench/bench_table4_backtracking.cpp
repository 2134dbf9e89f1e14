//===- bench/bench_table4_backtracking.cpp - Paper Table 4 ----------------===//
//
// Regenerates paper Table 4, "Parser decision backtracking behavior": the
// number of decisions that *can* backtrack (static, = Table 1's Backtrack
// column), how many of those *did* backtrack on the sample input, the
// total number of decision events, the fraction of events that
// backtracked, and the backtrack rate — the likelihood that a potentially
// backtracking decision actually backtracks when triggered.
//
// Expected shape (paper): parsers backtrack in only a few percent of
// decision events (PEG-mode grammars the most, up to ~17%); potentially
// backtracking decisions trigger speculation well under half the time for
// hand-tuned grammars.
//
//===----------------------------------------------------------------------===//

#include "BenchGrammars.h"
#include "BenchHarness.h"

#include <cstdio>

using namespace llstar;
using namespace llstar::bench;

int main() {
  std::printf("=== Table 4: parser decision backtracking behavior ===\n");
  std::printf("%-10s %9s %9s %10s %10s %10s\n", "Grammar", "Can back.",
              "Did back.", "events", "Backtrack", "Back rate");

  for (const BenchGrammar &Spec : benchGrammars()) {
    PreparedGrammar P = PreparedGrammar::prepare(Spec);
    std::string Input =
        Spec.Workload(paperWorkloadUnits(Spec.Name), PaperWorkloadSeed);
    TokenStream Stream = P.tokenize(Input);
    DiagnosticEngine Diags;
    LLStarParser Parser(*P.AG, Stream, &P.Env, Diags);
    if (!P.runParse(Stream, Parser)) {
      std::fprintf(stderr, "grammar %s: workload failed:\n%s\n", Spec.Name,
                   Diags.str().c_str());
      return 1;
    }
    const ParserStats &S = Parser.stats();

    BacktrackCounts B = backtrackCounts(*P.AG, S);

    std::printf("%-10s %9lld %9lld %10lld %9.2f%% %9.2f%%\n", Spec.Name,
                (long long)B.CanBacktrack, (long long)B.DidBacktrack,
                (long long)S.totalEvents(),
                100.0 * S.backtrackEventFraction(), B.ratePct());
  }

  std::printf("\n--- paper reference ---\n");
  std::printf("Java1.5  can 19 did 16 events 462975  backtrack  2.36%% "
              "rate 45.22%%\n");
  std::printf("RatsC    can 30 did 24 events 1343176 backtrack 16.85%% "
              "rate 65.27%%\n");
  std::printf("RatsJava can  8 did  7 events 628340  backtrack 14.07%% "
              "rate 74.68%%\n");
  std::printf("VB.NET   can  6 did  3 events 109257  backtrack  0.46%% "
              "rate 20.84%%\n");
  std::printf("TSQL     can 29 did 19 events 17394   backtrack  3.38%% "
              "rate 27.01%%\n");
  std::printf("C#       can 24 did 19 events 141055  backtrack  3.68%% "
              "rate 40.22%%\n");
  std::printf("\nShape check: events backtracked stays in the single-digit "
              "percents except PEG-mode grammars; not every potentially "
              "backtracking decision triggers.\n");
  return 0;
}
