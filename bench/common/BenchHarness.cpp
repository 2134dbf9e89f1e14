#include "BenchHarness.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

using namespace llstar;
using namespace llstar::bench;

int64_t llstar::bench::countLines(const std::string &Text) {
  int64_t N = 0;
  for (char C : Text)
    N += C == '\n';
  return N;
}

std::string llstar::bench::gitRevision(const std::string &SourceDir) {
  std::string Cmd = "git -C \"" + SourceDir +
                    "\" describe --always --dirty --abbrev=12 2>/dev/null";
  std::string Rev;
  if (FILE *P = popen(Cmd.c_str(), "r")) {
    char Buf[128];
    while (std::fgets(Buf, sizeof(Buf), P))
      Rev += Buf;
    pclose(P);
  }
  while (!Rev.empty() && std::isspace(uint8_t(Rev.back())))
    Rev.pop_back();
  return Rev.empty() ? "unknown" : Rev;
}

PreparedGrammar PreparedGrammar::prepare(const BenchGrammar &Spec) {
  PreparedGrammar P;
  P.Spec = &Spec;
  P.GrammarLines = countLines(Spec.Text);

  DiagnosticEngine Diags;
  P.AG = analyzeGrammarText(Spec.Text, Diags);
  if (!P.AG) {
    std::fprintf(stderr, "grammar %s failed to analyze:\n%s\n", Spec.Name,
                 Diags.str().c_str());
    std::abort();
  }

  DiagnosticEngine LexDiags;
  P.Lex = std::make_unique<Lexer>(P.AG->grammar().lexerSpec(), LexDiags);
  if (LexDiags.hasErrors()) {
    std::fprintf(stderr, "grammar %s lexer failed:\n%s\n", Spec.Name,
                 LexDiags.str().c_str());
    std::abort();
  }

  // The C grammar's single semantic predicate (paper Section 4.2): a
  // symbol-table lookup, simulated here by the workload's naming
  // convention — type names start with 'T' or are known typedefs.
  P.Env.definePredicate("isTypeName", [&P] {
    if (!P.CurrentStream)
      return false;
    const Token &T = P.CurrentStream->LT(1);
    return !T.Text.empty() && T.Text[0] == 'T';
  });
  return P;
}

TokenStream PreparedGrammar::tokenize(const std::string &Input) {
  DiagnosticEngine Diags;
  std::vector<Token> Tokens = Lex->tokenize(Input, Diags);
  if (Diags.hasErrors()) {
    std::fprintf(stderr, "grammar %s: workload failed to lex:\n%s\n",
                 Spec->Name, Diags.str().c_str());
    std::abort();
  }
  return TokenStream(std::move(Tokens));
}

bool PreparedGrammar::runParse(TokenStream &Stream, LLStarParser &P) {
  CurrentStream = &Stream;
  P.parse(Spec->StartRule);
  CurrentStream = nullptr;
  return P.ok();
}

int llstar::bench::paperWorkloadUnits(const std::string &Name) {
  if (Name == "Java" || Name == "RatsJava")
    return 120;
  if (Name == "RatsC")
    return 250;
  if (Name == "Basic" || Name == "Sql")
    return 900;
  return 100; // CSharp
}

BacktrackCounts llstar::bench::backtrackCounts(const AnalyzedGrammar &AG,
                                               const ParserStats &S) {
  BacktrackCounts C;
  for (size_t D = 0; D < AG.numDecisions(); ++D) {
    if (AG.dfa(int32_t(D)).decisionClass() != DecisionClass::Backtrack)
      continue;
    ++C.CanBacktrack;
    const DecisionStats &DS = S.Decisions[D];
    C.Events += DS.Events;
    C.BacktrackEvents += DS.BacktrackEvents;
    if (DS.BacktrackEvents > 0)
      ++C.DidBacktrack;
  }
  return C;
}

std::string llstar::bench::paperCountsTable() {
  std::string Out = "# grammar lines n avgK backK maxK can did events "
                    "backtrackPct ratePct\n";
  for (const BenchGrammar &Spec : benchGrammars()) {
    PreparedGrammar P = PreparedGrammar::prepare(Spec);
    std::string Input =
        Spec.Workload(paperWorkloadUnits(Spec.Name), PaperWorkloadSeed);
    TokenStream Stream = P.tokenize(Input);
    DiagnosticEngine Diags;
    LLStarParser Parser(*P.AG, Stream, &P.Env, Diags);
    if (!P.runParse(Stream, Parser))
      return std::string("grammar ") + Spec.Name +
             ": workload failed to parse:\n" + Diags.str();
    const ParserStats &S = Parser.stats();
    BacktrackCounts B = backtrackCounts(*P.AG, S);
    char Line[256];
    std::snprintf(Line, sizeof(Line),
                  "%s %lld %lld %.4f %.4f %lld %lld %lld %lld %.4f %.4f\n",
                  Spec.Name, (long long)countLines(Input),
                  (long long)S.decisionsCovered(), S.avgLookahead(),
                  S.avgBacktrackLookahead(), (long long)S.maxLookahead(),
                  (long long)B.CanBacktrack, (long long)B.DidBacktrack,
                  (long long)S.totalEvents(),
                  100.0 * S.backtrackEventFraction(), B.ratePct());
    Out += Line;
  }
  return Out;
}
