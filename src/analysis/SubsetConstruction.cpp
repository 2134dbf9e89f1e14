#include "analysis/SubsetConstruction.h"

#include "support/StringUtils.h"

#include <algorithm>

using namespace llstar;
using namespace llstar::detail;

void ConfigSet::normalize() {
  std::sort(Configs.begin(), Configs.end());
  Configs.erase(std::unique(Configs.begin(), Configs.end()), Configs.end());
}

//===----------------------------------------------------------------------===//
// Closure (Algorithm 9)
//===----------------------------------------------------------------------===//

bool SubsetAnalyzer::closure(ConfigSet &D, const AtnConfig &C, BusySet &Busy,
                             std::set<int32_t> &RecursiveAlts,
                             bool AbortOnMultiRecursion) {
  if (Aborted)
    return false;
  if (!Busy.insert(C).second)
    return true;
  if (int32_t(D.Configs.size()) > Opts.MaxConfigsPerState) {
    // Closure blow-up land mine: treat like a resource abort.
    Aborted = true;
    return false;
  }
  D.Configs.push_back(C);

  const AtnState &S = M.state(C.State);

  if (S.Kind == AtnStateKind::RuleStop) {
    if (!Pool.isEmpty(C.Ctx)) {
      // Pop the most recent invocation and continue past the call.
      AtnConfig Next(Pool.returnState(C.Ctx), C.Alt, Pool.parent(C.Ctx),
                     C.Pred, C.AfterWildcard);
      return closure(D, Next, Busy, RecursiveAlts, AbortOnMultiRecursion);
    }
    // Empty stack: statically unknown caller; chase every call site in
    // the grammar, and also the end-of-input continuation (any rule may
    // be used as a start rule). Configurations beyond this point carry
    // AfterWildcard so foreign predicates are not hoisted into this
    // decision.
    AtnConfig AtEof(M.eofState(), C.Alt, PredictionContextPool::Empty,
                    C.Pred, /*AfterWildcard=*/true);
    if (!closure(D, AtEof, Busy, RecursiveAlts, AbortOnMultiRecursion))
      return false;
    for (auto [SiteState, SiteTrans] : M.callSitesOf(S.RuleIndex)) {
      const AtnTransition &T =
          M.state(SiteState).Transitions[size_t(SiteTrans)];
      AtnConfig Next(T.FollowState, C.Alt, PredictionContextPool::Empty,
                     C.Pred, /*AfterWildcard=*/true);
      if (!closure(D, Next, Busy, RecursiveAlts, AbortOnMultiRecursion))
        return false;
    }
    return true;
  }

  for (const AtnTransition &T : S.Transitions) {
    switch (T.Kind) {
    case AtnTransitionKind::Atom:
    case AtnTransitionKind::Set:
      break; // terminal edges are handled by move()
    case AtnTransitionKind::Epsilon:
    case AtnTransitionKind::Action: {
      AtnConfig Next(T.Target, C.Alt, C.Ctx, C.Pred, C.AfterWildcard);
      if (!closure(D, Next, Busy, RecursiveAlts, AbortOnMultiRecursion))
        return false;
      break;
    }
    case AtnTransitionKind::SemPred: {
      // Record only left-edge predicates of this decision's own context;
      // predicates reached through the wildcard follow belong elsewhere.
      SemanticContext Pred = C.Pred.isNone() && !C.AfterWildcard
                                 ? SemanticContext::pred(T.PredIndex)
                                 : C.Pred;
      AtnConfig Next(T.Target, C.Alt, C.Ctx, Pred, C.AfterWildcard);
      if (!closure(D, Next, Busy, RecursiveAlts, AbortOnMultiRecursion))
        return false;
      break;
    }
    case AtnTransitionKind::SynPred: {
      SemanticContext Pred = C.Pred.isNone() && !C.AfterWildcard
                                 ? SemanticContext::synPredRule(T.RuleIndex)
                                 : C.Pred;
      AtnConfig Next(T.Target, C.Alt, C.Ctx, Pred, C.AfterWildcard);
      if (!closure(D, Next, Busy, RecursiveAlts, AbortOnMultiRecursion))
        return false;
      break;
    }
    case AtnTransitionKind::Rule: {
      int32_t Follow = T.FollowState;
      int32_t Depth = Pool.countOccurrences(C.Ctx, Follow);
      if (Depth == 1) {
        RecursiveAlts.insert(C.Alt);
        if (AbortOnMultiRecursion && RecursiveAlts.size() > 1) {
          // LikelyNonLLRegular: recursion in more than one alternative.
          Aborted = true;
          MultiRecursionAbort = true;
          return false;
        }
      }
      if (Depth >= Opts.MaxRecursionDepth) {
        // Recursion overflow: stop pursuing this path but keep what we
        // have (Section 5.3).
        D.Overflowed = true;
        D.OverflowedAlts.insert(C.Alt);
        Dfa->setOverflowed();
        continue;
      }
      AtnConfig Next(T.Target, C.Alt, Pool.push(C.Ctx, Follow), C.Pred,
                     C.AfterWildcard);
      if (!closure(D, Next, Busy, RecursiveAlts, AbortOnMultiRecursion))
        return false;
      break;
    }
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Move
//===----------------------------------------------------------------------===//

std::vector<AtnConfig> SubsetAnalyzer::move(const ConfigSet &D,
                                            TokenType Label) const {
  std::vector<AtnConfig> Out;
  for (const AtnConfig &C : D.Configs)
    for (const AtnTransition &T : M.state(C.State).Transitions) {
      bool Matches =
          (T.Kind == AtnTransitionKind::Atom && T.Label == Label) ||
          (T.Kind == AtnTransitionKind::Set && T.Labels.contains(Label));
      if (Matches)
        Out.push_back(
            AtnConfig(T.Target, C.Alt, C.Ctx, C.Pred, C.AfterWildcard));
    }
  return Out;
}

std::vector<TokenType>
SubsetAnalyzer::terminalLabels(const ConfigSet &D) const {
  std::set<TokenType> Labels;
  for (const AtnConfig &C : D.Configs)
    for (const AtnTransition &T : M.state(C.State).Transitions) {
      if (T.Kind == AtnTransitionKind::Atom)
        Labels.insert(T.Label);
      else if (T.Kind == AtnTransitionKind::Set)
        T.Labels.forEach([&](int32_t V) { Labels.insert(TokenType(V)); });
    }
  return std::vector<TokenType>(Labels.begin(), Labels.end());
}

//===----------------------------------------------------------------------===//
// Resolve (Algorithms 10 and 11)
//===----------------------------------------------------------------------===//

std::set<int32_t>
SubsetAnalyzer::conflictSet(const ConfigSet &D,
                            std::set<size_t> *ConflictingConfigs) const {
  std::set<int32_t> Conflicts;
  // Group configs by ATN state, then test pairs within each group.
  std::map<int32_t, std::vector<size_t>> ByState;
  for (size_t I = 0; I < D.Configs.size(); ++I)
    ByState[D.Configs[I].State].push_back(I);
  for (auto &[State, Group] : ByState) {
    (void)State;
    for (size_t I = 0; I < Group.size(); ++I)
      for (size_t J = I + 1; J < Group.size(); ++J) {
        const AtnConfig &A = D.Configs[Group[I]];
        const AtnConfig &B = D.Configs[Group[J]];
        if (A.Alt == B.Alt)
          continue;
        if (Pool.equivalent(A.Ctx, B.Ctx)) {
          Conflicts.insert(A.Alt);
          Conflicts.insert(B.Alt);
          if (ConflictingConfigs) {
            ConflictingConfigs->insert(Group[I]);
            ConflictingConfigs->insert(Group[J]);
          }
        }
      }
  }
  return Conflicts;
}

std::set<int32_t> SubsetAnalyzer::predictedAlts(const ConfigSet &D) const {
  std::set<int32_t> Alts;
  for (const AtnConfig &C : D.Configs)
    Alts.insert(C.Alt);
  return Alts;
}

void SubsetAnalyzer::resolve(ConfigSet &D, const std::vector<TokenType> &Path) {
  std::set<size_t> ConflictingConfigs;
  std::set<int32_t> Conflicts = conflictSet(D, &ConflictingConfigs);
  if (D.Overflowed) {
    // The analysis terminated early (Algorithm 10). An alternative whose
    // own closure hit the recursion limit has incomplete lookahead: it
    // potentially matches anything, so it conflicts with every
    // alternative still present. Alternatives that did not overflow keep
    // their precise lookahead and may still be separated by further
    // expansion (e.g. `local function f...` vs `local x = ...` where the
    // overflow came from a third alternative's closure).
    std::set<int32_t> All = predictedAlts(D);
    bool AnyTainted = false;
    for (int32_t Alt : D.OverflowedAlts)
      if (All.count(Alt))
        AnyTainted = true;
    if (All.size() > 1 && AnyTainted)
      Conflicts = std::move(All);
  }
  if (Conflicts.size() < 2)
    return;
  if (resolveWithPreds(D, Conflicts, Path)) {
    // An overflow-forced resolution makes the state terminal: closure
    // stopped early, so further terminal edges would be built from
    // crippled configurations. Ordinary predicate-resolved states keep
    // expanding (the paper's Algorithm 8 puts them back on the work
    // list); their predicate edges act as a fallback when no terminal
    // edge applies.
    if (D.Overflowed && Conflicts == predictedAlts(D))
      D.FullyPredResolved = true;
    return;
  }

  // Resolve statically in favor of the lowest-numbered alternative
  // (Section 3.1). On recursion overflow the surviving configurations of
  // higher alternatives cannot be trusted (closure stopped early), so the
  // whole alternative is dropped; for ordinary ambiguities only the
  // configurations that actually conflict are removed — non-conflicting
  // continuations of the same alternative stay viable.
  int32_t Min = *Conflicts.begin();
  if (D.Overflowed) {
    D.Configs.erase(std::remove_if(D.Configs.begin(), D.Configs.end(),
                                   [&](const AtnConfig &C) {
                                     return Conflicts.count(C.Alt) &&
                                            C.Alt != Min;
                                   }),
                    D.Configs.end());
  } else {
    std::vector<AtnConfig> Kept;
    Kept.reserve(D.Configs.size());
    for (size_t I = 0; I < D.Configs.size(); ++I) {
      const AtnConfig &C = D.Configs[I];
      if (ConflictingConfigs.count(I) && C.Alt != Min)
        continue;
      Kept.push_back(C);
    }
    D.Configs = std::move(Kept);
  }
  std::set<int32_t> Losers(std::next(Conflicts.begin()), Conflicts.end());
  recordEvent(Conflicts, Min, Losers, D.Overflowed, /*ByPreds=*/false, Path);
  reportResolution(Conflicts, Min, D.Overflowed);
}

bool SubsetAnalyzer::resolveWithPreds(ConfigSet &D,
                                      const std::set<int32_t> &Conflicts,
                                      const std::vector<TokenType> &Path) {
  // A predicate gates a conflicting alternative only if it *dominates*
  // it: every lookahead-bearing configuration (one with terminal
  // transitions) of that alternative carries the same predicate.
  // Without the dominance requirement, a predicate found on one nested
  // path (e.g. a {isTypeName}? reached through one branch of the
  // follow) would wrongly gate the whole alternative.
  std::map<int32_t, SemanticContext> AltPred;
  std::set<int32_t> Predicated;
  for (int32_t Alt : Conflicts) {
    SemanticContext Common = SemanticContext::none();
    bool Any = false, Dominates = true;
    for (const AtnConfig &C : D.Configs) {
      if (C.Alt != Alt)
        continue;
      bool HasAtom = false;
      for (const AtnTransition &T : M.state(C.State).Transitions)
        if (T.Kind == AtnTransitionKind::Atom ||
            T.Kind == AtnTransitionKind::Set)
          HasAtom = true;
      if (!HasAtom)
        continue;
      if (!Any) {
        Common = C.Pred;
        Any = true;
      } else if (C.Pred != Common) {
        Dominates = false;
      }
    }
    if (Any && Dominates && !Common.isNone()) {
      AltPred.emplace(Alt, Common);
      Predicated.insert(Alt);
    }
  }

  std::vector<int32_t> Unpredicated;
  for (int32_t Alt : Conflicts)
    if (!Predicated.count(Alt))
      Unpredicated.push_back(Alt);

  // Predicates to attach to a representative config per alternative
  // (None = an unconditional last-resort edge).
  std::map<int32_t, SemanticContext> Synthesized;

  if (Opts.Backtrack && !Unpredicated.empty()) {
    // PEG mode: auto-insert a backtracking predicate on every conflicting
    // alternative that lacks one. The highest-numbered alternative acts
    // as the default (PEG ordered choice: if every earlier speculation
    // fails, take the last).
    int32_t Max = *Conflicts.rbegin();
    for (int32_t Alt : Unpredicated)
      Synthesized[Alt] = Alt != Max
                             ? SemanticContext::synPredAlt(Decision, Alt)
                             : SemanticContext::none();
    Unpredicated.clear();
  }

  if (Predicated.empty() && Synthesized.empty())
    return false; // no predicates anywhere: resolve statically by order

  std::set<int32_t> Dropped;
  if (!Unpredicated.empty()) {
    // Gated-predicate semantics: the lowest unpredicated alternative
    // becomes the default (unconditional last-resort edge); any further
    // unpredicated alternatives lose statically. This is what makes
    // left-recursion precedence loops work: "iterate" carries a
    // precedence predicate and "exit" is the unpredicated default.
    int32_t DefaultAlt = Unpredicated.front();
    Synthesized[DefaultAlt] = SemanticContext::none();
    Dropped.insert(Unpredicated.begin() + 1, Unpredicated.end());
    if (!Dropped.empty()) {
      recordEvent(Conflicts, DefaultAlt, Dropped, D.Overflowed,
                  /*ByPreds=*/true, Path);
      reportResolution(Dropped, DefaultAlt, D.Overflowed);
      D.Configs.erase(std::remove_if(D.Configs.begin(), D.Configs.end(),
                                     [&](const AtnConfig &C) {
                                       return Dropped.count(C.Alt) != 0;
                                     }),
                      D.Configs.end());
    }
  }

  // Mark one representative per alternative: a config carrying the
  // dominating predicate where available, else attach the synthesized
  // predicate.
  std::set<int32_t> Done;
  for (AtnConfig &C : D.Configs) {
    if (!Predicated.count(C.Alt) || Done.count(C.Alt))
      continue;
    if (C.Pred == AltPred.at(C.Alt)) {
      C.WasResolved = true;
      Done.insert(C.Alt);
    }
  }
  for (auto &[Alt, Pred] : Synthesized) {
    if (Done.count(Alt))
      continue;
    for (AtnConfig &C : D.Configs)
      if (C.Alt == Alt) {
        C.Pred = Pred;
        C.WasResolved = true;
        Done.insert(Alt);
        break;
      }
  }
  if (Dropped.empty())
    recordEvent(Conflicts, -1, {}, D.Overflowed, /*ByPreds=*/true, Path);
  return true;
}

void SubsetAnalyzer::recordEvent(const std::set<int32_t> &Conflicts,
                                 int32_t Chosen,
                                 const std::set<int32_t> &Losers,
                                 bool Overflowed, bool ByPreds,
                                 const std::vector<TokenType> &Path) {
  if (!Report)
    return;
  ResolutionEvent E;
  E.ConflictingAlts.assign(Conflicts.begin(), Conflicts.end());
  E.ChosenAlt = Chosen;
  E.LosingAlts.assign(Losers.begin(), Losers.end());
  E.Overflowed = Overflowed;
  E.ByPredicates = ByPreds;
  E.Path = Path;
  Report->Resolutions.push_back(std::move(E));
}

void SubsetAnalyzer::reportResolution(const std::set<int32_t> &Conflicts,
                                      int32_t Min, bool Overflowed) {
  if (ReportedResolution)
    return; // one warning per decision is enough
  ReportedResolution = true;
  std::vector<std::string> AltNames;
  for (int32_t A : Conflicts)
    AltNames.push_back(std::to_string(A));
  const AtnState &S = M.state(DecisionState);
  std::string RuleName =
      S.RuleIndex >= 0 ? M.grammar().rule(S.RuleIndex).Name : "<none>";
  Diags.warning(M.decisionLoc(Decision), formatString(
      "decision %d (rule %s): %s between alternatives {%s}; "
      "resolving in favor of alternative %d",
      Decision, RuleName.c_str(),
      Overflowed ? "recursion overflow makes input ambiguous"
                 : "input can be matched ambiguously",
      join(AltNames, ",").c_str(), Min));
}

//===----------------------------------------------------------------------===//
// Shared DFA-state helpers
//===----------------------------------------------------------------------===//

int32_t SubsetAnalyzer::acceptStateFor(int32_t Alt) {
  auto It = AcceptByAlt.find(Alt);
  if (It != AcceptByAlt.end())
    return It->second;
  int32_t Id = Dfa->addState();
  Dfa->state(Id).PredictedAlt = Alt;
  AcceptByAlt.emplace(Alt, Id);
  StateConfigs.resize(size_t(Id) + 1);
  StatePaths.resize(size_t(Id) + 1);
  return Id;
}

void SubsetAnalyzer::addPredicateEdges(int32_t Id) {
  const ConfigSet &D = StateConfigs[size_t(Id)];
  std::map<int32_t, SemanticContext> ByAlt; // ordered by alternative
  for (const AtnConfig &C : D.Configs)
    if (C.WasResolved)
      ByAlt.emplace(C.Alt, C.Pred);
  for (auto &[Alt, Pred] : ByAlt) {
    DfaPredEdge E;
    E.Pred = Pred;
    E.Alt = Alt;
    E.Target = acceptStateFor(Alt);
    Dfa->state(Id).PredEdges.push_back(E);
  }
}
