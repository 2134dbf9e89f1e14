//===- bench/common/BenchHarness.h - Shared bench plumbing ------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the benchmark binaries: analyze a benchmark grammar,
/// bind its semantic environment (the C grammar's isTypeName predicate),
/// lex a workload, run the LL(*) parser with statistics, and format table
/// rows.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_BENCH_BENCHHARNESS_H
#define LLSTAR_BENCH_BENCHHARNESS_H

#include "BenchGrammars.h"

#include "analysis/AnalyzedGrammar.h"
#include "lexer/Lexer.h"
#include "lexer/TokenStream.h"
#include "runtime/LLStarParser.h"
#include "runtime/SemanticEnv.h"

#include <memory>
#include <string>

namespace llstar {
namespace bench {

/// A fully prepared benchmark grammar: analysis result + compiled lexer +
/// semantic bindings.
struct PreparedGrammar {
  const BenchGrammar *Spec = nullptr;
  std::unique_ptr<AnalyzedGrammar> AG;
  std::unique_ptr<Lexer> Lex;
  SemanticEnv Env;
  /// Lines of grammar text (Table 1's "Lines" column).
  int64_t GrammarLines = 0;
  /// set per parse by bindEnv: the token stream the predicates inspect.
  TokenStream *CurrentStream = nullptr;

  /// Parses + analyzes; aborts with a message on grammar errors.
  static PreparedGrammar prepare(const BenchGrammar &Spec);

  /// Lexes input; aborts on lex errors.
  TokenStream tokenize(const std::string &Input);

  /// Runs one full parse collecting stats into \p P. Returns success.
  bool runParse(TokenStream &Stream, LLStarParser &P);
};

/// Number of newline-terminated lines in \p Text.
int64_t countLines(const std::string &Text);

/// The git revision of the checkout at \p SourceDir, "-dirty" when it has
/// local changes, or "unknown". The throughput benches record it.
std::string gitRevision(const std::string &SourceDir);

/// Seed of the workload paper Tables 3 and 4 parse for each grammar.
constexpr unsigned PaperWorkloadSeed = 20110604;
/// Workload units for \p Name: a few thousand lines per grammar.
int paperWorkloadUnits(const std::string &Name);

/// Table 4's counts over the decisions analysis classed as potentially
/// backtracking ("can"): how many of them backtracked at least once
/// ("did"), and their events and backtracking events.
struct BacktrackCounts {
  int64_t CanBacktrack = 0;
  int64_t DidBacktrack = 0;
  int64_t Events = 0;
  int64_t BacktrackEvents = 0;

  /// Table 4's "Back rate": backtracking events per event at those
  /// decisions, in percent.
  double ratePct() const {
    return Events ? 100.0 * double(BacktrackEvents) / double(Events) : 0.0;
  }
};
BacktrackCounts backtrackCounts(const AnalyzedGrammar &AG,
                                const ParserStats &S);

/// The deterministic columns of Tables 3 and 4 (every column but the
/// timings), one line per bench grammar, from one parse of each grammar's
/// paper workload. tests/golden/paper_tables.txt pins this text.
std::string paperCountsTable();

} // namespace bench
} // namespace llstar

#endif // LLSTAR_BENCH_BENCHHARNESS_H
