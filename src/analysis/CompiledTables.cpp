#include "analysis/CompiledTables.h"

#include "analysis/AnalyzedGrammar.h"

#include <cassert>
#include <map>

using namespace llstar;
using namespace llstar::compiled;

void CompiledTables::moveFrom(CompiledTables &&O) {
  States = std::move(O.States);
  RuleStarts = std::move(O.RuleStarts);
  RuleStops = std::move(O.RuleStops);
  AltTargets = std::move(O.AltTargets);
  DecisionStates = std::move(O.DecisionStates);
  Decisions = std::move(O.Decisions);
  DfaTrans = std::move(O.DfaTrans);
  DfaAccept = std::move(O.DfaAccept);
  DfaPredFirst = std::move(O.DfaPredFirst);
  DfaPredCount = std::move(O.DfaPredCount);
  PredEdges = std::move(O.PredEdges);
  SetWords = std::move(O.SetWords);
  View = O.View;
  refreshView();
}

void CompiledTables::refreshView() {
  View.States = States.data();
  View.RuleStarts = RuleStarts.data();
  View.RuleStops = RuleStops.data();
  View.AltTargets = AltTargets.data();
  View.DecisionStates = DecisionStates.data();
  View.Decisions = Decisions.data();
  View.DfaTrans = DfaTrans.data();
  View.DfaAccept = DfaAccept.data();
  View.DfaPredFirst = DfaPredFirst.data();
  View.DfaPredCount = DfaPredCount.data();
  View.PredEdges = PredEdges.data();
  View.SetWords = SetWords.data();
  View.NumStates = int32_t(States.size());
  View.NumRules = int32_t(RuleStarts.size());
  View.NumDecisions = int32_t(Decisions.size());
}

CompiledTables CompiledTables::build(const AnalyzedGrammar &AG) {
  const Atn &M = AG.atn();
  CompiledTables T;
  int32_t NumTokens = AG.grammar().vocabulary().maxTokenType();
  T.View.NumTokens = NumTokens;
  int32_t W = T.View.rowWidth();
  T.View.SetWordsPerSet = (W + 63) / 64;

  // Rule start/stop states.
  for (size_t R = 0; R < AG.grammar().numRules(); ++R) {
    T.RuleStarts.push_back(M.ruleStart(int32_t(R)));
    T.RuleStops.push_back(M.ruleStop(int32_t(R)));
  }

  // ATN states. Identical Set labels share one bitset.
  std::map<std::vector<uint64_t>, int32_t> SetPool;
  T.States.resize(M.numStates());
  for (size_t I = 0; I < M.numStates(); ++I) {
    const AtnState &S = M.state(int32_t(I));
    CState &C = T.States[I];
    C.Kind = int32_t(S.Kind);
    C.RuleIndex = S.RuleIndex;
    C.Decision = S.Decision;
    C.EndState = S.EndState;
    if (S.isDecision()) {
      C.FirstAltTarget = int32_t(T.AltTargets.size());
      C.NumAlts = int32_t(S.Transitions.size());
      for (const AtnTransition &Tr : S.Transitions)
        T.AltTargets.push_back(Tr.Target);
      continue;
    }
    if (S.Transitions.empty())
      continue; // rule stop states have no outgoing transition
    assert(S.Transitions.size() == 1 &&
           "non-decision states have exactly one transition");
    const AtnTransition &Tr = S.Transitions[0];
    C.TransKind = int32_t(Tr.Kind);
    C.Target = Tr.Target;
    C.Label = Tr.Label;
    C.CalleeRule = Tr.RuleIndex;
    C.FollowState = Tr.FollowState;
    C.Precedence = Tr.Precedence;
    C.PredIndex = Tr.PredIndex;
    C.ActionIndex = Tr.ActionIndex;
    if (Tr.Kind == AtnTransitionKind::Set) {
      std::vector<uint64_t> Bits(size_t(T.View.SetWordsPerSet), 0);
      for (const Interval &Iv : Tr.Labels.intervals()) {
        int32_t Lo = std::max(Iv.Lo, -1), Hi = std::min(Iv.Hi, NumTokens);
        for (int32_t V = Lo; V <= Hi; ++V) {
          uint32_t Idx = uint32_t(V + 1);
          Bits[Idx >> 6] |= uint64_t(1) << (Idx & 63);
        }
      }
      auto [It, Inserted] =
          SetPool.emplace(std::move(Bits), int32_t(T.SetWords.size()));
      if (Inserted)
        T.SetWords.insert(T.SetWords.end(), It->first.begin(),
                          It->first.end());
      C.SetIndex = It->second;
    }
  }

  // Epsilon-chain fusion: rewrite every jump target to bypass runs of pure
  // epsilon glue (block starts/ends, loop-back plumbing). Those states have
  // no observable effect — no token match, no tree node, no stats — so
  // skipping them statically preserves behavior while removing most of the
  // per-token state walk. Chains stop at decision states, states with
  // effects (matches, rule calls, predicates, actions), rule stops, and
  // decision end states: runStates and evalSynPredAlt use the latter two as
  // loop sentinels, so control must genuinely land on them.
  {
    std::vector<uint8_t> IsStop(M.numStates(), 0);
    for (const CState &C : T.States)
      if (C.EndState >= 0)
        IsStop[size_t(C.EndState)] = 1;
    for (int32_t Stop : T.RuleStops)
      IsStop[size_t(Stop)] = 1;
    auto Fusable = [&](int32_t I) {
      const CState &C = T.States[size_t(I)];
      return !IsStop[size_t(I)] && C.Decision < 0 &&
             C.TransKind == int32_t(AtnTransitionKind::Epsilon);
    };
    std::vector<int32_t> Fused(M.numStates(), -1);
    std::vector<int32_t> Path;
    auto Resolve = [&](int32_t Start) {
      if (Start < 0 || Fused[size_t(Start)] >= 0)
        return Start < 0 ? Start : Fused[size_t(Start)];
      Path.clear();
      int32_t S = Start;
      while (Fusable(S) && Fused[size_t(S)] < 0 &&
             Path.size() < M.numStates()) {
        Path.push_back(S);
        S = T.States[size_t(S)].Target;
      }
      int32_t End = Fused[size_t(S)] >= 0 ? Fused[size_t(S)] : S;
      for (int32_t P : Path)
        Fused[size_t(P)] = End;
      return End;
    };
    for (CState &C : T.States) {
      if (C.Decision >= 0 || C.TransKind < 0)
        continue;
      // Rule transitions resume at FollowState, which recovery also keys
      // follow sets on; it stays unfused (its own Target is, so the chain
      // still collapses to a single hop at runtime).
      if (C.TransKind != int32_t(AtnTransitionKind::Rule))
        C.Target = Resolve(C.Target);
    }
    for (int32_t &A : T.AltTargets)
      A = Resolve(A);
  }

  // Lookahead DFAs: one dense state-major block per decision.
  for (size_t D = 0; D < AG.numDecisions(); ++D) {
    const LookaheadDfa &Dfa = AG.dfa(int32_t(D));
    CDecision CD;
    CD.NumStates = int32_t(Dfa.numStates());
    CD.TransBase = int32_t(T.DfaTrans.size());
    CD.MetaBase = int32_t(T.DfaAccept.size());
    T.DfaTrans.resize(T.DfaTrans.size() +
                          size_t(CD.NumStates) * size_t(W),
                      -1);
    for (int32_t S = 0; S < CD.NumStates; ++S) {
      const DfaState &St = Dfa.state(S);
      T.DfaAccept.push_back(St.PredictedAlt > 0 ? St.PredictedAlt : -1);
      T.DfaPredFirst.push_back(int32_t(T.PredEdges.size()));
      T.DfaPredCount.push_back(int32_t(St.PredEdges.size()));
      for (const DfaPredEdge &E : St.PredEdges) {
        CPredEdge P;
        P.Kind = int32_t(E.Pred.K);
        P.A = E.Pred.A;
        P.B = E.Pred.B;
        P.Alt = E.Alt;
        T.PredEdges.push_back(P);
      }
      int32_t *Row =
          T.DfaTrans.data() + CD.TransBase + size_t(S) * size_t(W);
      for (const DfaEdge &E : St.Edges) {
        int32_t Idx = E.Label + 1;
        if (Idx >= 0 && Idx < W)
          Row[Idx] = E.Target;
      }
    }
    T.Decisions.push_back(CD);
    T.DecisionStates.push_back(M.decisionState(int32_t(D)));
  }

  T.refreshView();
  return T;
}
