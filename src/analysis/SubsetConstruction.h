//===- analysis/SubsetConstruction.h - Subset-construction core -*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-decision subset-construction machinery: closure over ATN
/// configurations with interned prediction stacks (Algorithm 9), move over
/// terminal labels, conflict detection (Definition 7), and conflict
/// resolution via predicates or static precedence (Algorithms 10-11).
/// \ref detail::SubsetAnalyzer owns the state of one decision's
/// construction; the DFA construction of Algorithm 8 and the LL(1)
/// fallback (DecisionAnalyzer.cpp) derive from it and drive the walk.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_ANALYSIS_SUBSETCONSTRUCTION_H
#define LLSTAR_ANALYSIS_SUBSETCONSTRUCTION_H

#include "analysis/ATNConfig.h"
#include "analysis/DecisionAnalyzer.h"
#include "analysis/PredictionContext.h"

#include <map>
#include <memory>
#include <set>
#include <unordered_set>
#include <vector>

namespace llstar {
namespace detail {

/// Construction state and shared algorithms for one decision. Derive and
/// drive \ref closure / \ref move / \ref resolve from a state-space walk.
class SubsetAnalyzer {
public:
  SubsetAnalyzer(const Atn &M, int32_t Decision, const AnalysisOptions &Opts,
                 DiagnosticEngine &Diags, DecisionReport *Report)
      : M(M), Decision(Decision), Opts(Opts), Diags(Diags), Report(Report),
        DecisionState(M.decisionState(Decision)) {}
  ~SubsetAnalyzer() = default;

protected:
  using BusySet = std::unordered_set<AtnConfig, AtnConfigHash>;

  /// Adds the closure of \p C to \p D (Algorithm 9). \p RecursiveAlts
  /// accumulates the alternatives in which recursive rule invocation was
  /// observed; more than one aborts construction when
  /// \p AbortOnMultiRecursion. Returns false on abort.
  bool closure(ConfigSet &D, const AtnConfig &C, BusySet &Busy,
               std::set<int32_t> &RecursiveAlts, bool AbortOnMultiRecursion);

  /// Configurations directly reachable from \p D on terminal \p Label.
  std::vector<AtnConfig> move(const ConfigSet &D, TokenType Label) const;

  /// Distinct terminal labels leaving \p D, in stable order.
  std::vector<TokenType> terminalLabels(const ConfigSet &D) const;

  /// Alternatives participating in at least one conflicting configuration
  /// pair (Definition 7): same ATN state, equivalent stacks, different
  /// alts. \p ConflictingConfigs (when non-null) receives the indices into
  /// D.Configs of the configurations that are themselves part of a
  /// conflicting pair.
  std::set<int32_t> conflictSet(const ConfigSet &D,
                                std::set<size_t> *ConflictingConfigs) const;

  std::set<int32_t> predictedAlts(const ConfigSet &D) const;

  /// Resolves conflicts in \p D (Algorithms 10-11): predicates when they
  /// dominate their alternatives (synthesizing PEG backtracking predicates
  /// when Opts.Backtrack), otherwise statically in favor of the lowest
  /// alternative with a warning.
  void resolve(ConfigSet &D, const std::vector<TokenType> &Path);

  bool resolveWithPreds(ConfigSet &D, const std::set<int32_t> &Conflicts,
                        const std::vector<TokenType> &Path);

  void recordEvent(const std::set<int32_t> &Conflicts, int32_t Chosen,
                   const std::set<int32_t> &Losers, bool Overflowed,
                   bool ByPreds, const std::vector<TokenType> &Path);

  void reportResolution(const std::set<int32_t> &Conflicts, int32_t Min,
                        bool Overflowed);

  /// Shared accept state for \p Alt (created on first use).
  int32_t acceptStateFor(int32_t Alt);

  /// Adds the ordered predicate edges for resolved configurations of state
  /// \p Id (the last loop of Algorithm 8).
  void addPredicateEdges(int32_t Id);

  const Atn &M;
  int32_t Decision;
  AnalysisOptions Opts;
  DiagnosticEngine &Diags;
  DecisionReport *Report;
  int32_t DecisionState;

  PredictionContextPool Pool;
  std::unique_ptr<LookaheadDfa> Dfa;
  std::vector<ConfigSet> StateConfigs;
  /// Terminal labels on the path from DFA state 0 to each interned state;
  /// parallel to StateConfigs. Feeds ResolutionEvent::Path.
  std::vector<std::vector<TokenType>> StatePaths;
  std::map<int32_t, int32_t> AcceptByAlt;
  bool Aborted = false;
  bool MultiRecursionAbort = false;
  bool ReportedResolution = false;
};

} // namespace detail
} // namespace llstar

#endif // LLSTAR_ANALYSIS_SUBSETCONSTRUCTION_H
