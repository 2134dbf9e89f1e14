//===- tools/llstar_tool.cpp - Command-line driver ------------------------===//
//
// The `llstar` command-line tool: analyze grammar files, inspect lookahead
// DFAs and ATNs, tokenize and parse input files, and compare against the
// packrat baseline — without writing any C++.
//
//   llstar analyze <grammar.g> [--dfa [rule]]
//                  [--dot <decision>] [--atn]
//   llstar tokens  <grammar.g> <input>
//   llstar parse   <grammar.g> <input> [--start <rule>]
//                  [--tree] [--stats] [--stats-json] [--peg] [--no-memoize]
//                  [--recover]
//   llstar compile <grammar.g> -o <out.llb>
//   llstar lint    <grammar.g> [--format=text|json|sarif] [--werror]
//                  [--budget <k>] [--dfa-budget <n>] [--profile-notes]
//                  [--profile <stats.json>]... [--fixes]
//                  [--apply [--dry-run] [--fix-id <id>]...]
//                  [--disable <id>[,id...]] [-o <file>]
//
// Every subcommand answers `--help` with its own usage plus the uniform
// exit-code table.
//
// Exit codes (all commands): 0 clean, 1 warnings under --werror, 2 errors
// (unreadable files, grammar errors, failed parses), 3 usage errors.
// `parse --recover` tolerates syntax errors: the recovered parse lists its
// diagnostics and exits 0 (1 under --werror, which treats a recovered
// parse as strictly as a warning); without --recover a failed parse stays
// exit 2.
//
// Semantic predicates evaluate as `true` with a warning (bind real
// callbacks through the C++ API when your grammar needs them).
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalyzedGrammar.h"
#include "codegen/Serializer.h"
#include "compiled/CompiledRegistry.h"
#include "CompiledManifest.h"
#include "lexer/Lexer.h"
#include "lexer/TokenStream.h"
#include "lint/Fix.h"
#include "lint/Lint.h"
#include "lint/Profile.h"
#include "lint/SarifWriter.h"
#include "peg/PackratParser.h"
#include "runtime/LLStarParser.h"
#include "support/StringUtils.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace llstar;

namespace {

/// Exit codes shared by every subcommand; documented in usage() and README.
enum ExitCode {
  ExitClean = 0,    ///< no findings (or warnings without --werror)
  ExitWarnings = 1, ///< warnings under --werror
  ExitErrors = 2,   ///< errors: unreadable files, bad grammars, failed parses
  ExitUsage = 3,    ///< bad command line
};

/// The uniform exit-code contract, printed by the global usage text and by
/// every subcommand's --help.
const char ExitCodesLine[] =
    "exit codes: 0 clean, 1 warnings under --werror, 2 errors, 3 usage\n";

void printUsage(std::FILE *Out) {
  std::fprintf(
      Out,
      "usage: llstar <command> ...\n"
      "  analyze <grammar.g> [--dfa [rule]]\n"
      "          [--dot <decision>] [--atn]\n"
      "      analyze a grammar; print the decision summary, optionally the\n"
      "      lookahead DFA of every decision (or just one rule's), a\n"
      "      Graphviz dump of one decision, or the whole ATN\n"
      "  tokens <grammar.g> <input>\n"
      "      tokenize an input file with the grammar's lexer rules\n"
      "  parse <grammar.g> <input> [--start <rule>]\n"
      "        [--tree] [--stats] [--stats-json] [--peg] [--no-memoize]\n"
      "        [--recover]\n"
      "      parse an input file (the LL(*) parser runs a shipped\n"
      "      grammar's native module when its payload hash matches);\n"
      "      --peg uses the packrat baseline;\n"
      "      --stats-json prints the full ParserStats as JSON;\n"
      "      --recover repairs syntax errors (error leaves in the tree,\n"
      "      sorted diagnostics) and exits 0 instead of 2 (1 with --werror)\n"
      "  compile <grammar.g> -o <out.llb>\n"
      "      analyze once and write a versioned grammar bundle that\n"
      "      llstar-batch and the ParseService load without re-analysis\n"
      "  lint <grammar.g> [--format=text|json|sarif] [--werror]\n"
      "       [--budget <k>] [--dfa-budget <n>] [--profile-notes]\n"
      "       [--profile <stats.json>]... [--fixes]\n"
      "       [--apply [--dry-run] [--fix-id <id>]...]\n"
      "       [--disable <id>[,id...]] [-o <file>]\n"
      "      run the grammar static-analysis passes; --werror promotes\n"
      "      warnings to a failing exit code; --profile loads decision-\n"
      "      keyed runtime profiles (parse --stats-json, llstar-batch /\n"
      "      llstar-loadgen --stats-out, llstard stats) and re-ranks\n"
      "      findings by observed cost; --fixes computes machine-verified\n"
      "      auto-fixes; --apply writes verified fixes back to the\n"
      "      grammar (--dry-run prints a unified diff instead, --fix-id\n"
      "      selects specific fixes)\n"
      "every subcommand answers --help with its own usage\n"
      "%s",
      ExitCodesLine);
}

int usage() {
  printUsage(stderr);
  return ExitUsage;
}

/// Per-subcommand --help: the subcommand's synopsis plus the uniform
/// exit-code table. Printed to stdout; exits clean.
int subcommandHelp(const std::string &Cmd) {
  std::string Synopsis;
  if (Cmd == "analyze")
    Synopsis =
        "usage: llstar analyze <grammar.g> [--dfa [rule]] [--dot <decision>]\n"
        "                      [--atn] [--werror]\n"
        "analyze a grammar and print the decision summary and per-decision\n"
        "classes; --dfa prints lookahead DFAs, --dot one decision as\n"
        "Graphviz, --atn the whole ATN\n";
  else if (Cmd == "tokens")
    Synopsis = "usage: llstar tokens <grammar.g> <input>\n"
               "tokenize an input file with the grammar's lexer rules\n";
  else if (Cmd == "parse")
    Synopsis =
        "usage: llstar parse <grammar.g> <input> [--start <rule>]\n"
        "                    [--tree] [--stats]\n"
        "                    [--stats-json] [--peg] [--no-memoize]\n"
        "                    [--recover] [--werror]\n"
        "parse an input file; --peg uses the packrat baseline, --recover\n"
        "repairs syntax errors\n";
  else if (Cmd == "compile")
    Synopsis =
        "usage: llstar compile <grammar.g> -o <out.llb>\n"
        "write a versioned grammar bundle\n";
  else if (Cmd == "lint")
    Synopsis =
        "usage: llstar lint <grammar.g> [--format=text|json|sarif] [--werror]\n"
        "                   [--budget <k>] [--dfa-budget <n>]\n"
        "                   [--profile-notes] [--profile <stats.json>]...\n"
        "                   [--fixes] [--apply [--dry-run]\n"
        "                   [--fix-id <id>]...] [--disable <id>[,id...]]\n"
        "                   [-o <file>]\n"
        "run the grammar static-analysis passes; --apply writes verified\n"
        "fixes back to the grammar\n";
  std::printf("%s%s", Synopsis.c_str(), ExitCodesLine);
  return ExitClean;
}

/// True when \p Args asks for --help.
bool wantsHelp(const std::vector<std::string> &Args) {
  for (const std::string &A : Args)
    if (A == "--help" || A == "-h")
      return true;
  return false;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  return true;
}

void printDiags(const DiagnosticEngine &Diags) {
  if (!Diags.empty())
    std::fprintf(stderr, "%s", Diags.str().c_str());
}

std::unique_ptr<AnalyzedGrammar>
loadGrammar(const std::string &Path, unsigned *WarningsOut = nullptr) {
  std::string Text;
  if (!readFile(Path, Text)) {
    std::fprintf(stderr, "error: cannot read %s\n", Path.c_str());
    return nullptr;
  }
  DiagnosticEngine Diags;
  auto AG = analyzeGrammarText(Text, Diags);
  printDiags(Diags);
  if (WarningsOut)
    *WarningsOut = Diags.warningCount();
  return AG;
}

const char *className(DecisionClass C) {
  switch (C) {
  case DecisionClass::FixedK:
    return "fixed";
  case DecisionClass::Cyclic:
    return "cyclic";
  case DecisionClass::Backtrack:
    return "backtrack";
  }
  return "?";
}

int cmdAnalyze(const std::vector<std::string> &Args) {
  if (Args.empty())
    return usage();
  unsigned Warnings = 0;
  auto AG = loadGrammar(Args[0], &Warnings);
  if (!AG)
    return ExitErrors;

  bool ShowDfa = false, ShowAtn = false, WError = false;
  std::string DfaRule;
  int32_t DotDecision = -1;
  for (size_t I = 1; I < Args.size(); ++I) {
    if (Args[I] == "--dfa") {
      ShowDfa = true;
      if (I + 1 < Args.size() && Args[I + 1][0] != '-')
        DfaRule = Args[++I];
    } else if (Args[I] == "--atn") {
      ShowAtn = true;
    } else if (Args[I] == "--werror") {
      WError = true;
    } else if (Args[I] == "--dot" && I + 1 < Args.size()) {
      DotDecision = std::atoi(Args[++I].c_str());
    } else {
      return usage();
    }
  }

  std::printf("%s\n", AG->summary().c_str());
  std::printf("\n%-5s %-20s %-10s %s\n", "dec", "rule", "class", "k");
  for (size_t D = 0; D < AG->numDecisions(); ++D) {
    const LookaheadDfa &Dfa = AG->dfa(int32_t(D));
    int32_t State = AG->atn().decisionState(int32_t(D));
    int32_t Rule = AG->atn().state(State).RuleIndex;
    std::string RuleName =
        Rule >= 0 ? AG->grammar().rule(Rule).Name : "<none>";
    std::printf("%-5zu %-20s %-10s %s%s\n", D, RuleName.c_str(),
                className(Dfa.decisionClass()),
                Dfa.fixedK() >= 0 ? std::to_string(Dfa.fixedK()).c_str()
                                  : "*",
                Dfa.usedFallback() ? " (LL(1) fallback)" : "");
    if (ShowDfa && (DfaRule.empty() || DfaRule == RuleName))
      std::printf("%s", Dfa.str(AG->atn()).c_str());
  }
  if (DotDecision >= 0 && size_t(DotDecision) < AG->numDecisions())
    std::printf("\n%s", AG->dfa(DotDecision).dot(AG->atn()).c_str());
  if (ShowAtn)
    std::printf("\n%s", AG->atn().str().c_str());
  return WError && Warnings ? ExitWarnings : ExitClean;
}

int cmdTokens(const std::vector<std::string> &Args) {
  if (Args.size() != 2)
    return usage();
  auto AG = loadGrammar(Args[0]);
  if (!AG)
    return ExitErrors;
  std::string Input;
  if (!readFile(Args[1], Input)) {
    std::fprintf(stderr, "error: cannot read %s\n", Args[1].c_str());
    return ExitErrors;
  }
  DiagnosticEngine Diags;
  Lexer L(AG->grammar().lexerSpec(), Diags);
  std::vector<Token> Tokens = L.tokenize(Input, Diags);
  printDiags(Diags);
  for (const Token &T : Tokens)
    std::printf("%5lld %-16s %s  @%s\n", (long long)T.Index,
                AG->grammar().vocabulary().name(T.Type).c_str(),
                escapeString(T.Text).c_str(), T.Loc.str().c_str());
  return Diags.hasErrors() ? ExitErrors : ExitClean;
}

int cmdParse(const std::vector<std::string> &Args) {
  if (Args.size() < 2)
    return usage();
  unsigned GrammarWarnings = 0;
  auto AG = loadGrammar(Args[0], &GrammarWarnings);
  if (!AG)
    return ExitErrors;
  std::string Input;
  if (!readFile(Args[1], Input)) {
    std::fprintf(stderr, "error: cannot read %s\n", Args[1].c_str());
    return ExitErrors;
  }

  std::string Start;
  bool ShowTree = false, ShowStats = false, StatsJson = false,
       UsePeg = false, Memoize = true, WError = false, Recover = false;
  for (size_t I = 2; I < Args.size(); ++I) {
    if (Args[I] == "--start" && I + 1 < Args.size())
      Start = Args[++I];
    else if (Args[I] == "--tree")
      ShowTree = true;
    else if (Args[I] == "--stats")
      ShowStats = true;
    else if (Args[I] == "--stats-json")
      StatsJson = true;
    else if (Args[I] == "--peg")
      UsePeg = true;
    else if (Args[I] == "--no-memoize")
      Memoize = false;
    else if (Args[I] == "--werror")
      WError = true;
    else if (Args[I] == "--recover")
      Recover = true;
    else
      return usage();
  }
  if (Recover && UsePeg)
    return usage(); // the packrat baseline has no error recovery

  DiagnosticEngine LexDiags;
  Lexer L(AG->grammar().lexerSpec(), LexDiags);
  // A shipped grammar's native module accelerates the LL(*) parser when
  // its payload hash matches; serialize only when one carries the name.
  compiled::registerShippedGrammars();
  compiled::CompiledResolution Compiled;
  if (!UsePeg && compiled::findCompiledModule(AG->grammar().Name))
    Compiled = compiled::resolveCompiledTables(*AG, serializeGrammar(*AG, L));

  TokenStream Stream(L.tokenize(Input, LexDiags));
  printDiags(LexDiags);
  if (LexDiags.hasErrors())
    return ExitErrors;

  DiagnosticEngine Diags;
  auto Start0 = std::chrono::steady_clock::now();
  bool Ok;
  std::unique_ptr<ParseTree> Tree;
  ParserStats Stats;
  if (UsePeg) {
    PackratParser::Options Opts;
    Opts.Memoize = Memoize;
    Opts.BuildTree = ShowTree;
    PackratParser P(AG->grammar(), Stream, nullptr, Diags, Opts);
    Tree = P.parse(Start);
    Ok = P.ok();
  } else {
    ParserOptions Opts;
    Opts.Memoize = Memoize;
    Opts.Recover = Recover;
    LLStarParser P(*AG, Stream, nullptr, Diags, Opts, Compiled.native());
    Tree = P.parse(Start);
    Ok = P.ok();
    Stats = P.stats();
  }
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start0)
                       .count();
  // printDiags renders DiagnosticEngine::str(): diagnostics sorted by
  // (line, column), so a recovered parse lists its errors in source order.
  printDiags(Diags);
  std::string Verdict = Ok ? "parse succeeded" : "parse FAILED";
  if (!Ok && Recover)
    Verdict = "parse recovered (" + std::to_string(Diags.errorCount()) +
              (Diags.errorCount() == 1 ? " error)" : " errors)");
  std::printf("%s in %.3f ms (%lld tokens)\n", Verdict.c_str(),
              Seconds * 1000, (long long)(Stream.size() - 1));
  if (ShowTree && Tree)
    std::printf("%s\n", Tree->str(AG->grammar()).c_str());
  if (ShowStats && !UsePeg) {
    std::printf("decision events: %lld, avg k %.2f, max k %lld, "
                "backtracked %.2f%%, memo %lld/%lld\n",
                (long long)Stats.totalEvents(), Stats.avgLookahead(),
                (long long)Stats.maxLookahead(),
                100.0 * Stats.backtrackEventFraction(),
                (long long)Stats.MemoHits, (long long)Stats.MemoMisses);
  }
  if (StatsJson && !UsePeg) {
    // Keyed per-decision output: (rule, decisionInRule, line, column) make
    // the profile joinable by `llstar lint --profile` across runs, worker
    // pools, and daemon fleets.
    std::vector<DecisionKey> Keys = AG->decisionKeys();
    std::printf("%s\n", Stats.json(/*IncludeDecisions=*/true, &Keys).c_str());
  }
  if (!Ok && !Recover)
    return ExitErrors;
  unsigned Warnings =
      GrammarWarnings + LexDiags.warningCount() + Diags.warningCount();
  // --werror strictness treats a recovered parse like a warning: exit 1.
  return WError && (Warnings || !Ok) ? ExitWarnings : ExitClean;
}

int cmdCompile(const std::vector<std::string> &Args) {
  if (Args.empty())
    return usage();
  std::string OutPath;
  bool WError = false;
  for (size_t I = 1; I < Args.size(); ++I) {
    if (Args[I] == "-o" && I + 1 < Args.size())
      OutPath = Args[++I];
    else if (Args[I] == "--werror")
      WError = true;
    else
      return usage();
  }
  if (OutPath.empty())
    return usage();
  unsigned Warnings = 0;
  auto AG = loadGrammar(Args[0], &Warnings);
  if (!AG)
    return ExitErrors;
  std::string Bundle = writeBundle(*AG);
  std::ofstream Out(OutPath, std::ios::binary);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s\n", OutPath.c_str());
    return ExitErrors;
  }
  Out << Bundle;
  std::printf("wrote %s (%zu bytes, format v%lld)\n", OutPath.c_str(),
              Bundle.size(), (long long)BundleFormatVersion);
  return WError && Warnings ? ExitWarnings : ExitClean;
}

int cmdLint(const std::vector<std::string> &Args) {
  if (Args.empty())
    return usage();
  std::string Format = "text", OutPath;
  bool WError = false, WantFixes = false, Apply = false, DryRun = false;
  std::vector<std::string> ProfilePaths, FixIds;
  LintOptions Opts;
  for (size_t I = 1; I < Args.size(); ++I) {
    const std::string &A = Args[I];
    if (A.rfind("--format=", 0) == 0)
      Format = A.substr(9);
    else if (A == "--format" && I + 1 < Args.size())
      Format = Args[++I];
    else if (A == "--werror")
      WError = true;
    else if (A == "--profile" && I + 1 < Args.size())
      ProfilePaths.push_back(Args[++I]);
    else if (A == "--profile-notes")
      Opts.Profile = true;
    else if (A == "--fixes")
      WantFixes = true;
    else if (A == "--apply")
      Apply = true;
    else if (A == "--dry-run")
      DryRun = true;
    else if (A == "--fix-id" && I + 1 < Args.size())
      FixIds.push_back(Args[++I]);
    else if (A == "--budget" && I + 1 < Args.size())
      Opts.LookaheadBudget = std::atoi(Args[++I].c_str());
    else if (A == "--dfa-budget" && I + 1 < Args.size())
      Opts.DfaStateBudget = std::atoi(Args[++I].c_str());
    else if (A == "--disable" && I + 1 < Args.size()) {
      std::string Ids = Args[++I];
      size_t Pos = 0;
      while (Pos <= Ids.size()) {
        size_t Comma = Ids.find(',', Pos);
        if (Comma == std::string::npos)
          Comma = Ids.size();
        if (Comma > Pos)
          Opts.Disabled.insert(Ids.substr(Pos, Comma - Pos));
        Pos = Comma + 1;
      }
    } else if (A == "-o" && I + 1 < Args.size())
      OutPath = Args[++I];
    else
      return usage();
  }
  if (Format != "text" && Format != "json" && Format != "sarif")
    return usage();
  if ((DryRun || !FixIds.empty()) && !Apply)
    return usage(); // --dry-run / --fix-id only make sense with --apply

  std::string Source;
  if (!readFile(Args[0], Source)) {
    std::fprintf(stderr, "error: cannot read %s\n", Args[0].c_str());
    return ExitErrors;
  }
  DiagnosticEngine Diags;
  auto AG = analyzeGrammarText(Source, Diags);
  if (!AG || Diags.hasErrors()) {
    // Grammar does not even build: report the front end's errors directly.
    printDiags(Diags);
    return ExitErrors;
  }
  // Analysis warnings (ambiguity etc.) are not printed here: the lint
  // passes re-derive them as structured diagnostics with witnesses.

  // One or more --profile files merge into a single decision-keyed
  // profile; entries join to this grammar's decisions by (rule,
  // decisionInRule) identity, falling back to decision index.
  LintProfile Profile;
  for (const std::string &Path : ProfilePaths) {
    std::string Text, Err;
    if (!readFile(Path, Text)) {
      std::fprintf(stderr, "error: cannot read profile %s\n", Path.c_str());
      return ExitErrors;
    }
    if (!Profile.load(Text, &Err)) {
      std::fprintf(stderr, "error: bad profile %s: %s\n", Path.c_str(),
                   Err.c_str());
      return ExitErrors;
    }
  }

  LintEngine Engine(Opts);
  LintResult R = Engine.run(*AG, Source);
  if (!ProfilePaths.empty())
    applyProfile(R, Profile, *AG);

  std::vector<Fix> Fixes;
  bool ComputedFixes = WantFixes || Apply;
  if (ComputedFixes)
    Fixes = computeFixes(*AG, R, Source,
                         ProfilePaths.empty() ? nullptr : &Profile);

  std::string Rendered;
  if (Format == "sarif")
    Rendered = renderSarif(R, Args[0], Fixes);
  else if (Format == "json")
    Rendered = renderLintJson(R, Args[0], ComputedFixes ? &Fixes : nullptr);
  else {
    Rendered = renderLintText(R, Args[0]);
    if (ComputedFixes)
      Rendered += renderFixesText(Fixes);
  }

  if (!OutPath.empty()) {
    std::ofstream Out(OutPath, std::ios::binary);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", OutPath.c_str());
      return ExitErrors;
    }
    Out << Rendered;
  } else {
    std::printf("%s", Rendered.c_str());
  }
  if (Format == "text") {
    std::fprintf(stderr, "%d error(s), %d warning(s), %d suppressed\n",
                 R.errorCount(), R.warningCount(), R.NumSuppressed);
  }

  if (Apply) {
    // Only machine-verified fixes are ever written back. --fix-id selects
    // a subset and fails loudly on unknown or unverified ids; the default
    // is every verified fix.
    std::vector<const Fix *> Chosen;
    if (!FixIds.empty()) {
      for (const std::string &Id : FixIds) {
        const Fix *Found = nullptr;
        for (const Fix &F : Fixes)
          if (F.Id == Id) {
            Found = &F;
            break;
          }
        if (!Found) {
          std::fprintf(stderr, "error: no such fix: %s\n", Id.c_str());
          return ExitErrors;
        }
        if (!Found->Verified) {
          std::fprintf(stderr, "error: fix %s is unverified (%s); not applying\n",
                       Id.c_str(), Found->VerifyNote.c_str());
          return ExitErrors;
        }
        Chosen.push_back(Found);
      }
    } else {
      for (const Fix &F : Fixes)
        if (F.Verified)
          Chosen.push_back(&F);
    }

    std::vector<std::string> Rejected;
    std::string NewText = applyFixes(Source, Chosen, &Rejected);
    for (const std::string &Id : Rejected)
      std::fprintf(stderr, "note: skipped %s: overlaps an earlier fix\n",
                   Id.c_str());
    if (DryRun) {
      std::string Diff = renderUnifiedDiff(Source, NewText, Args[0]);
      if (!Diff.empty())
        std::printf("%s", Diff.c_str());
      std::fprintf(stderr, "%zu fix(es) would be applied, %zu skipped\n",
                   Chosen.size() - Rejected.size(), Rejected.size());
    } else if (NewText != Source) {
      std::ofstream Out(Args[0], std::ios::binary);
      if (!Out) {
        std::fprintf(stderr, "error: cannot write %s\n", Args[0].c_str());
        return ExitErrors;
      }
      Out << NewText;
      std::fprintf(stderr, "applied %zu fix(es) to %s (%zu skipped)\n",
                   Chosen.size() - Rejected.size(), Args[0].c_str(),
                   Rejected.size());
    } else {
      std::fprintf(stderr, "no verified fixes to apply\n");
    }
  }

  if (R.errorCount())
    return ExitErrors;
  if (WError && R.warningCount())
    return ExitWarnings;
  return ExitClean;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  if (Args.empty())
    return usage();
  std::string Cmd = Args[0];
  Args.erase(Args.begin());
  if (Cmd == "--help" || Cmd == "-h") {
    printUsage(stdout);
    return ExitClean;
  }
  bool Known = Cmd == "analyze" || Cmd == "tokens" || Cmd == "parse" ||
               Cmd == "compile" || Cmd == "lint";
  if (Known && wantsHelp(Args))
    return subcommandHelp(Cmd);
  if (Cmd == "analyze")
    return cmdAnalyze(Args);
  if (Cmd == "tokens")
    return cmdTokens(Args);
  if (Cmd == "parse")
    return cmdParse(Args);
  if (Cmd == "compile")
    return cmdCompile(Args);
  if (Cmd == "lint")
    return cmdLint(Args);
  return usage();
}
