//===- analysis/DecisionAnalyzer.h - LL(*) DFA construction -----*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's core contribution: the modified subset construction that
/// builds a lookahead DFA for one parsing decision from the ATN
/// (Algorithms 8-11, Sections 5.2-5.4).
///
/// Key behaviors:
///  - closure simulates rule invocation push/pop over interned stacks; at a
///    rule stop state with an empty stack it chases every call site in the
///    grammar (the empty stack is a wildcard);
///  - recursion depth per call site is capped by the constant m; hitting
///    the cap marks the DFA state "overflowed";
///  - recursion observed in more than one alternative aborts construction
///    (LikelyNonLLRegular) and the analyzer falls back to an LL(1) DFA with
///    predicate/backtracking edges (Section 5.4);
///  - a state whose configurations all predict one alternative becomes an
///    accept state and is not expanded further, which is what makes the DFA
///    match minimal lookahead sets LA_i rather than full continuations;
///  - ambiguities resolve via predicates when available (synthesizing
///    PEG-mode backtracking predicates when the grammar enables
///    backtrack=true), otherwise in favor of the lowest alternative with a
///    warning (Section 3.1).
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_ANALYSIS_DECISIONANALYZER_H
#define LLSTAR_ANALYSIS_DECISIONANALYZER_H

#include "atn/ATN.h"
#include "dfa/LookaheadDFA.h"
#include "support/Diagnostics.h"

#include <memory>

namespace llstar {

/// Tunables for DFA construction; defaults mirror \ref GrammarOptions.
struct AnalysisOptions {
  /// The recursion-depth constant m (Sections 2, 5.3).
  int32_t MaxRecursionDepth = 1;
  /// Abort DFA construction past this many DFA states (land-mine guard).
  int32_t MaxDfaStates = 2000;
  /// Guard against closure blow-up within a single state.
  int32_t MaxConfigsPerState = 10000;
  /// PEG mode: synthesize auto-backtracking predicates for unresolved
  /// conflicts instead of resolving statically by precedence.
  bool Backtrack = false;

  static AnalysisOptions fromGrammar(const GrammarOptions &G) {
    AnalysisOptions O;
    O.MaxRecursionDepth = G.MaxRecursionDepth;
    O.MaxDfaStates = G.MaxDfaStates;
    O.Backtrack = G.Backtrack;
    return O;
  }
};

/// One ambiguity-resolution verdict recorded while building a DFA: at the
/// lookahead prefix \ref Path, the alternatives in \ref ConflictingAlts
/// matched the same input and the construction resolved in favor of
/// \ref ChosenAlt, dropping \ref LosingAlts (empty when predicates carried
/// every conflicting alternative). The lint passes turn these into
/// shadowed-alternative and ambiguity diagnostics with witnesses instead of
/// rediscovering them from the finished DFA.
struct ResolutionEvent {
  std::vector<int32_t> ConflictingAlts; ///< sorted, 1-based
  int32_t ChosenAlt = -1;               ///< winner (lowest alt or default)
  std::vector<int32_t> LosingAlts;      ///< alts dropped by this event
  bool Overflowed = false;     ///< forced by recursion-depth overflow
  bool ByPredicates = false;   ///< predicates gate the conflict at runtime
  /// Terminal labels on the DFA path from the start state to the config
  /// set where the conflict was resolved (the lookahead prefix).
  std::vector<TokenType> Path;
};

/// Everything the analyzer learns about one decision beyond the DFA
/// itself. Previously discarded; retained so diagnostics passes can see
/// resolution verdicts without re-running the subset construction.
struct DecisionReport {
  std::vector<ResolutionEvent> Resolutions;
  /// Full LL(*) construction aborted (LikelyNonLLRegular or a resource
  /// limit); the DFA is the LL(1)-with-predicates fallback.
  bool UsedFallback = false;
  /// Construction aborted specifically because recursion was observed in
  /// more than one alternative (the paper's LikelyNonLLRegular condition).
  bool LikelyNonLLRegular = false;
  /// Closure hit the recursion-depth limit m somewhere.
  bool Overflowed = false;
};

/// Builds the lookahead DFA for \p Decision of \p M. Warnings (ambiguity,
/// recursion overflow, fallback) go to \p Diags. Never fails: when full
/// LL(*) construction aborts, the result is the LL(1)-with-predicates
/// fallback DFA (check \ref LookaheadDfa::usedFallback). When \p Report is
/// non-null it receives the resolution verdicts of the construction.
std::unique_ptr<LookaheadDfa> analyzeDecision(const Atn &M, int32_t Decision,
                                              const AnalysisOptions &Opts,
                                              DiagnosticEngine &Diags,
                                              DecisionReport *Report = nullptr);

} // namespace llstar

#endif // LLSTAR_ANALYSIS_DECISIONANALYZER_H
