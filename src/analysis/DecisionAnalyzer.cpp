//===- analysis/DecisionAnalyzer.cpp - Paper subset construction ----------===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
//
// The paper's modified subset construction (Algorithm 8), interning DFA
// states by configuration set so common lookahead suffixes merge and
// cyclic (arbitrary regular) lookahead emerges naturally. Construction
// aborts on LikelyNonLLRegular (recursion in more than one alternative) or
// resource limits and rebuilds the decision as the LL(1)-with-predicates
// fallback (Section 5.4).
//
//===----------------------------------------------------------------------===//

#include "analysis/DecisionAnalyzer.h"
#include "analysis/SubsetConstruction.h"

#include <cassert>
#include <unordered_map>

using namespace llstar;
using namespace llstar::detail;

namespace {

struct ConfigSetHash {
  size_t operator()(const ConfigSet &S) const { return S.hash(); }
};

struct ConfigSetEq {
  bool operator()(const ConfigSet &X, const ConfigSet &Y) const {
    return X == Y;
  }
};

/// DFA construction for one decision (paper Algorithms 8-11).
class LLStarAnalyzer : public SubsetAnalyzer {
public:
  using SubsetAnalyzer::SubsetAnalyzer;

  std::unique_ptr<LookaheadDfa> run() {
    Dfa = std::make_unique<LookaheadDfa>(Decision);
    if (!createDfa()) {
      // LikelyNonLLRegular or resource limit: rebuild as the LL(1)
      // fallback (Section 5.4).
      Dfa = std::make_unique<LookaheadDfa>(Decision);
      Dfa->setUsedFallback();
      buildFallback();
    }
    Dfa->finish();
    if (Report) {
      Report->UsedFallback = Dfa->usedFallback();
      Report->LikelyNonLLRegular = MultiRecursionAbort;
      Report->Overflowed = Dfa->overflowed();
    }
    return std::move(Dfa);
  }

private:
  //===--------------------------------------------------------------------===//
  // createDFA (Algorithm 8)
  //===--------------------------------------------------------------------===//

  /// Registers \p D as a DFA state (or finds the identical existing one).
  /// Returns the state id and whether it was new.
  std::pair<int32_t, bool> internState(ConfigSet &&D) {
    std::set<int32_t> Alts = predictedAlts(D);
    if (Alts.size() == 1) {
      // Accept state: no more lookahead needed; map this config set to the
      // shared accept state for the alternative.
      int32_t Id = acceptStateFor(*Alts.begin());
      Known.emplace(std::move(D), Id);
      return {Id, false};
    }
    auto It = Known.find(D);
    if (It != Known.end())
      return {It->second, false};
    int32_t Id = Dfa->addState();
    StateConfigs.resize(size_t(Id) + 1);
    StatePaths.resize(size_t(Id) + 1);
    StateConfigs[size_t(Id)] = D;
    Known.emplace(std::move(D), Id);
    return {Id, true};
  }

  /// Returns false on abort (fallback needed).
  bool createDfa() {
    const AtnState &S = M.state(DecisionState);
    assert(S.isDecision() && "not a decision state");

    ConfigSet D0;
    BusySet Busy;
    std::set<int32_t> RecursiveAlts;
    for (size_t I = 0; I < S.Transitions.size(); ++I) {
      assert(S.Transitions[I].Kind == AtnTransitionKind::Epsilon &&
             "decision transitions must be epsilon");
      AtnConfig C(S.Transitions[I].Target, int32_t(I) + 1,
                  PredictionContextPool::Empty, SemanticContext::none());
      if (!closure(D0, C, Busy, RecursiveAlts, /*AbortOnMultiRecursion=*/true))
        return false;
    }
    resolve(D0, /*Path=*/{});
    D0.normalize();

    auto [D0Id, D0New] = internState(std::move(D0));
    if (D0Id != 0) {
      // The start state resolved to a single alternative (e.g. statically
      // resolved ambiguity); build the trivial DFA with an accepting start.
      // internState created the accept state with some id; remap by making
      // state 0 an alias via an unconditional predicate edge.
      // Simpler: rebuild with state 0 as the accept.
      Dfa = std::make_unique<LookaheadDfa>(Decision);
      int32_t Id = Dfa->addState();
      Dfa->state(Id).PredictedAlt = M.state(DecisionState).isDecision()
                                        ? acceptAltOfTrivial()
                                        : 1;
      return true;
    }
    std::vector<int32_t> Work;
    if (D0New && StateConfigs[0].FullyPredResolved)
      addPredicateEdges(0); // pure-predicate decision: terminal start state
    else
      Work.push_back(0);
    while (!Work.empty()) {
      if (Aborted)
        return false;
      if (int32_t(Dfa->numStates()) > Opts.MaxDfaStates) {
        Aborted = true;
        return false;
      }
      int32_t Id = Work.back();
      Work.pop_back();

      // Copies: internState may reallocate StateConfigs/StatePaths.
      ConfigSet D = StateConfigs[size_t(Id)];
      std::vector<TokenType> Path = StatePaths[size_t(Id)];
      for (TokenType Label : terminalLabels(D)) {
        ConfigSet DNext;
        BusySet NextBusy;
        std::set<int32_t> NextRecursive;
        for (const AtnConfig &C : move(D, Label))
          if (!closure(DNext, C, NextBusy, NextRecursive,
                       /*AbortOnMultiRecursion=*/true))
            return false;
        if (DNext.empty())
          continue;
        std::vector<TokenType> NextPath = Path;
        NextPath.push_back(Label);
        resolve(DNext, NextPath);
        DNext.normalize();
        auto [Target, IsNew] = internState(std::move(DNext));
        if (Label == TokenEof && Target == Id)
          continue; // an EOF self-loop adds no information, only hangs
        DfaEdge E;
        E.Label = Label;
        E.Target = Target;
        Dfa->state(Id).Edges.push_back(E);
        if (IsNew) {
          StatePaths[size_t(Target)] = std::move(NextPath);
          if (StateConfigs[size_t(Target)].FullyPredResolved)
            addPredicateEdges(Target); // terminal: predicate edges only
          else
            Work.push_back(Target);
        }
      }
      addPredicateEdges(Id);
    }
    return true;
  }

  /// When D0 itself resolves to one alternative, find it.
  int32_t acceptAltOfTrivial() {
    // AcceptByAlt holds exactly one entry in this path.
    assert(AcceptByAlt.size() == 1 && "trivial DFA expects one alternative");
    return AcceptByAlt.begin()->first;
  }

  //===--------------------------------------------------------------------===//
  // LL(1) fallback (Section 5.4)
  //===--------------------------------------------------------------------===//

  void buildFallback() {
    // Drop all bookkeeping from the aborted full construction; state ids in
    // those maps refer to the discarded DFA.
    Aborted = false;
    Known.clear();
    StateConfigs.clear();
    StatePaths.clear();
    AcceptByAlt.clear();
    ReportedResolution = false;
    if (Report)
      Report->Resolutions.clear(); // state ids/paths referenced the
                                   // discarded full construction
    const AtnState &S = M.state(DecisionState);
    size_t NumAlts = S.Transitions.size();

    // Approximate per-alternative LL(1) sets with a closure that never
    // aborts (recursion overflow simply stops descent).
    std::vector<std::set<TokenType>> First(NumAlts);
    std::vector<SemanticContext> AltPred(NumAlts, SemanticContext::none());
    for (size_t I = 0; I < NumAlts; ++I) {
      ConfigSet D;
      BusySet Busy;
      std::set<int32_t> RecursiveAlts;
      AtnConfig C(S.Transitions[I].Target, int32_t(I) + 1,
                  PredictionContextPool::Empty, SemanticContext::none());
      closure(D, C, Busy, RecursiveAlts, /*AbortOnMultiRecursion=*/false);
      if (Aborted) {
        // Even the approximation blew up; treat the alternative as
        // matching anything and rely on order/backtracking.
        Aborted = false;
        D.Configs.clear();
      }
      // A discovered predicate is a valid gate for the whole alternative
      // only if it dominates it: every atom-bearing configuration carries
      // the same predicate. (A predicate deep inside one branch of the
      // alternative must not gate the others.)
      SemanticContext Common = SemanticContext::none();
      bool Any = false, Dominates = true;
      for (const AtnConfig &Cfg : D.Configs) {
        bool HasAtom = false;
        for (const AtnTransition &T : M.state(Cfg.State).Transitions) {
          if (T.Kind == AtnTransitionKind::Atom) {
            First[I].insert(T.Label);
            HasAtom = true;
          } else if (T.Kind == AtnTransitionKind::Set) {
            T.Labels.forEach(
                [&](int32_t V) { First[I].insert(TokenType(V)); });
            HasAtom = true;
          }
        }
        if (!HasAtom)
          continue;
        if (!Any) {
          Common = Cfg.Pred;
          Any = true;
        } else if (Cfg.Pred != Common) {
          Dominates = false;
        }
      }
      if (Any && Dominates)
        AltPred[I] = Common;
    }

    int32_t D0 = Dfa->addState();
    assert(D0 == 0 && "fallback start state must be state 0");
    (void)D0;

    // Collect every token and the alternatives it can begin.
    std::map<TokenType, std::vector<int32_t>> AltsOf;
    for (size_t I = 0; I < NumAlts; ++I)
      for (TokenType T : First[I])
        AltsOf[T].push_back(int32_t(I) + 1);

    // Conflicted label sets share intermediate predicate states.
    std::map<std::vector<int32_t>, int32_t> PredStates;
    bool WarnedAmbiguity = false;

    for (auto &[Label, Alts] : AltsOf) {
      int32_t Target;
      if (Alts.size() == 1) {
        Target = acceptStateFor(Alts[0]);
      } else {
        auto It = PredStates.find(Alts);
        if (It != PredStates.end()) {
          Target = It->second;
        } else {
          Target = buildFallbackPredState(Alts, AltPred, Label,
                                          WarnedAmbiguity);
          PredStates.emplace(Alts, Target);
        }
      }
      DfaEdge E;
      E.Label = Label;
      E.Target = Target;
      Dfa->state(0).Edges.push_back(E);
    }
  }

  /// A state whose predicate edges arbitrate between \p Alts.
  int32_t buildFallbackPredState(const std::vector<int32_t> &Alts,
                                 const std::vector<SemanticContext> &AltPred,
                                 TokenType Label, bool &WarnedAmbiguity) {
    std::set<int32_t> AltSet(Alts.begin(), Alts.end());
    // Do all conflicting alternatives have (or can be given) predicates?
    bool AllPredicated = true;
    for (size_t J = 0; J + 1 < Alts.size(); ++J)
      if (AltPred[size_t(Alts[J]) - 1].isNone() && !Opts.Backtrack)
        AllPredicated = false;

    if (!AllPredicated) {
      recordEvent(AltSet, Alts[0],
                  std::set<int32_t>(Alts.begin() + 1, Alts.end()),
                  /*Overflowed=*/true, /*ByPreds=*/false, {Label});
      if (!WarnedAmbiguity) {
        WarnedAmbiguity = true;
        reportResolution(AltSet, Alts[0], /*Overflowed=*/true);
      }
      return acceptStateFor(Alts[0]);
    }
    recordEvent(AltSet, -1, {}, /*Overflowed=*/false, /*ByPreds=*/true,
                {Label});

    int32_t Id = Dfa->addState();
    StateConfigs.resize(Dfa->numStates());
    StatePaths.resize(Dfa->numStates());
    for (size_t J = 0; J < Alts.size(); ++J) {
      int32_t Alt = Alts[J];
      SemanticContext Pred = AltPred[size_t(Alt) - 1];
      if (Pred.isNone() && J + 1 < Alts.size())
        Pred = SemanticContext::synPredAlt(Decision, Alt);
      // The last alternative keeps an unconditional edge (ordered choice).
      DfaPredEdge E;
      E.Pred = Pred;
      E.Alt = Alt;
      E.Target = acceptStateFor(Alt);
      Dfa->state(Id).PredEdges.push_back(E);
    }
    return Id;
  }

  std::unordered_map<ConfigSet, int32_t, ConfigSetHash, ConfigSetEq> Known;
};

} // namespace

std::unique_ptr<LookaheadDfa>
llstar::analyzeDecision(const Atn &M, int32_t Decision,
                        const AnalysisOptions &Opts, DiagnosticEngine &Diags,
                        DecisionReport *Report) {
  return LLStarAnalyzer(M, Decision, Opts, Diags, Report).run();
}
