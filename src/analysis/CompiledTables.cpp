#include "analysis/CompiledTables.h"

#include "analysis/AnalyzedGrammar.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace llstar;
using namespace llstar::compiled;

namespace {

/// Builds the rule-body op streams of \p M. Ops are created on first
/// reference and filled from a work stack, so a chain of straight-line ops
/// lands on consecutive indices.
class OpStreamBuilder {
public:
  OpStreamBuilder(const Atn &M, std::vector<COp> &Ops,
                  std::vector<int32_t> &OpStates,
                  std::vector<int32_t> &AltOps,
                  const std::vector<int32_t> &SetIndexOf,
                  std::vector<uint8_t> Sentinel)
      : M(M), Ops(Ops), OpStates(OpStates), AltOps(AltOps),
        SetIndexOf(SetIndexOf), Sentinel(std::move(Sentinel)),
        EntryOf(M.numStates(), -1), BodyOf(M.numStates(), -1) {}

  /// The op that runs when control reaches ATN state \p S.
  int32_t opOf(int32_t S) {
    int32_t L = land(S);
    if (!Sentinel[size_t(L)])
      return bodyOf(L);
    if (EntryOf[size_t(L)] < 0) {
      EntryOf[size_t(L)] = newOp(L);
      Work.push_back({EntryOf[size_t(L)], L, /*IsEnd=*/true});
    }
    return EntryOf[size_t(L)];
  }

  /// The op that performs \p L's own work (past its End sentinel, if any);
  /// OpReturn for a rule stop.
  int32_t bodyOf(int32_t L) {
    if (M.state(L).Transitions.empty())
      return OpReturn;
    if (BodyOf[size_t(L)] < 0) {
      BodyOf[size_t(L)] = newOp(L);
      Work.push_back({BodyOf[size_t(L)], L, /*IsEnd=*/false});
    }
    return BodyOf[size_t(L)];
  }

  /// Fills every op created so far, and every op those reference.
  void drain() {
    while (!Work.empty()) {
      Pending P = Work.back();
      Work.pop_back();
      fill(P);
    }
  }

private:
  struct Pending {
    int32_t Op;
    int32_t State;
    bool IsEnd;
  };

  /// Pure epsilon glue: an epsilon or (already-decided) syntactic-predicate
  /// transition out of a state that is neither a decision nor a rule stop.
  bool isGlue(int32_t S) const {
    const AtnState &St = M.state(S);
    return !St.isDecision() && St.Transitions.size() == 1 &&
           (St.Transitions[0].Kind == AtnTransitionKind::Epsilon ||
            St.Transitions[0].Kind == AtnTransitionKind::SynPred);
  }

  /// Follows glue from \p S to the first state that does work or is a
  /// sentinel. Glue never cycles in a built ATN (every cycle passes a loop
  /// decision); the step bound keeps a malformed bundle from hanging the
  /// build.
  int32_t land(int32_t S) const {
    for (size_t Steps = 0;
         !Sentinel[size_t(S)] && isGlue(S) && Steps <= M.numStates(); ++Steps)
      S = M.state(S).Transitions[0].Target;
    return S;
  }

  int32_t newOp(int32_t State) {
    Ops.emplace_back();
    OpStates.push_back(State);
    return int32_t(Ops.size()) - 1;
  }

  static int32_t head(OpCode C, int32_t Aux = 0) {
    return int32_t(uint32_t(Aux) << 8 | uint32_t(C));
  }

  void fill(const Pending &P) {
    const AtnState &St = M.state(P.State);
    COp O;
    if (P.IsEnd) {
      O.Head = head(OpCode::End);
      O.Next = isGlue(P.State) ? opOf(St.Transitions[0].Target)
                               : bodyOf(P.State);
      Ops[size_t(P.Op)] = O;
      return;
    }
    if (St.isDecision()) {
      bool IsLoop = St.Kind == AtnStateKind::StarLoopEntry ||
                    St.Kind == AtnStateKind::PlusLoopBack;
      O.Head = head(OpCode::Predict, IsLoop ? 1 : 0);
      O.A = St.Decision;
      O.Next = int32_t(St.Transitions.size());
      // Reserve the jump table first: resolving a target may append ops
      // but never AltOps entries.
      O.B = int32_t(AltOps.size());
      AltOps.resize(AltOps.size() + St.Transitions.size(), -1);
      for (size_t A = 0; A < St.Transitions.size(); ++A)
        AltOps[size_t(O.B) + A] = opOf(St.Transitions[A].Target);
      Ops[size_t(P.Op)] = O;
      return;
    }
    assert(St.Transitions.size() == 1 &&
           "non-decision states have exactly one transition");
    const AtnTransition &Tr = St.Transitions[0];
    switch (Tr.Kind) {
    case AtnTransitionKind::Epsilon:
    case AtnTransitionKind::SynPred:
      // Only a glue cycle lands here: spin, as walking it always did.
      O.Head = head(OpCode::End);
      O.Next = P.Op;
      break;
    case AtnTransitionKind::Atom:
      O.Head = head(OpCode::Match);
      O.A = Tr.Label;
      O.Next = opOf(Tr.Target);
      break;
    case AtnTransitionKind::Set:
      O.Head = head(OpCode::Set);
      O.A = SetIndexOf[size_t(P.State)];
      O.Next = opOf(Tr.Target);
      break;
    case AtnTransitionKind::Rule: {
      // Precedence arguments are bounded by a rule's alternative count;
      // saturating keeps every comparison with a MinPrecedence intact.
      int32_t Prec = std::clamp(Tr.Precedence, -(1 << 23), (1 << 23) - 1);
      O.Head = head(OpCode::Call, Prec);
      O.A = Tr.RuleIndex;
      O.B = Tr.FollowState;
      O.Next = opOf(Tr.FollowState);
      break;
    }
    case AtnTransitionKind::SemPred:
      O.Head = head(OpCode::Pred);
      O.A = Tr.PredIndex;
      O.Next = opOf(Tr.Target);
      break;
    case AtnTransitionKind::Action:
      O.Head = head(OpCode::Action);
      O.A = Tr.ActionIndex;
      O.Next = opOf(Tr.Target);
      break;
    }
    Ops[size_t(P.Op)] = O;
  }

  const Atn &M;
  std::vector<COp> &Ops;
  std::vector<int32_t> &OpStates;
  std::vector<int32_t> &AltOps;
  const std::vector<int32_t> &SetIndexOf;
  const std::vector<uint8_t> Sentinel;
  std::vector<int32_t> EntryOf, BodyOf;
  std::vector<Pending> Work;
};

} // namespace

void CompiledTables::moveFrom(CompiledTables &&O) {
  Ops = std::move(O.Ops);
  OpStates = std::move(O.OpStates);
  Rules = std::move(O.Rules);
  AltOps = std::move(O.AltOps);
  DecisionStates = std::move(O.DecisionStates);
  Decisions = std::move(O.Decisions);
  DfaTrans = std::move(O.DfaTrans);
  DfaAccept = std::move(O.DfaAccept);
  DfaPredFirst = std::move(O.DfaPredFirst);
  DfaPredCount = std::move(O.DfaPredCount);
  PredEdges = std::move(O.PredEdges);
  LL1Rows = std::move(O.LL1Rows);
  SetWords = std::move(O.SetWords);
  View = O.View;
  refreshView();
}

void CompiledTables::refreshView() {
  View.Ops = Ops.data();
  View.OpStates = OpStates.data();
  View.Rules = Rules.data();
  View.AltOps = AltOps.data();
  View.DecisionStates = DecisionStates.data();
  View.Decisions = Decisions.data();
  View.DfaTrans = DfaTrans.data();
  View.DfaAccept = DfaAccept.data();
  View.DfaPredFirst = DfaPredFirst.data();
  View.DfaPredCount = DfaPredCount.data();
  View.PredEdges = PredEdges.data();
  View.LL1Rows = LL1Rows.data();
  View.SetWords = SetWords.data();
  View.NumOps = int32_t(Ops.size());
  View.NumRules = int32_t(Rules.size());
  View.NumDecisions = int32_t(Decisions.size());
  View.NumAltOps = int32_t(AltOps.size());
}

CompiledTables CompiledTables::build(const AnalyzedGrammar &AG) {
  const Atn &M = AG.atn();
  const Grammar &G = AG.grammar();
  CompiledTables T;
  int32_t NumTokens = G.vocabulary().maxTokenType();
  T.View.NumTokens = NumTokens;
  int32_t W = T.View.rowWidth();
  T.View.SetWordsPerSet = (W + 63) / 64;

  // Set labels become bitsets; identical labels share one.
  std::map<std::vector<uint64_t>, int32_t> SetPool;
  std::vector<int32_t> SetIndexOf(M.numStates(), -1);
  for (size_t I = 0; I < M.numStates(); ++I) {
    const AtnState &S = M.state(int32_t(I));
    if (S.isDecision() || S.Transitions.size() != 1 ||
        S.Transitions[0].Kind != AtnTransitionKind::Set)
      continue;
    std::vector<uint64_t> Bits(size_t(T.View.SetWordsPerSet), 0);
    for (const Interval &Iv : S.Transitions[0].Labels.intervals()) {
      int32_t Lo = std::max(Iv.Lo, -1), Hi = std::min(Iv.Hi, NumTokens);
      for (int32_t V = Lo; V <= Hi; ++V) {
        uint32_t Idx = uint32_t(V + 1);
        Bits[Idx >> 6] |= uint64_t(1) << (Idx & 63);
      }
    }
    auto [It, Inserted] =
        SetPool.emplace(std::move(Bits), int32_t(T.SetWords.size()));
    if (Inserted)
      T.SetWords.insert(T.SetWords.end(), It->first.begin(), It->first.end());
    SetIndexOf[I] = It->second;
  }

  // The end states of decisions a syntactic predicate speculates keep an
  // End sentinel, so the speculative walk of one alternative stops there.
  // A rule stop needs none: reaching OpReturn stops every walk.
  std::vector<uint8_t> Speculated(M.numDecisions(), 0);
  for (size_t D = 0; D < AG.numDecisions(); ++D) {
    const LookaheadDfa &Dfa = AG.dfa(int32_t(D));
    for (size_t S = 0; S < Dfa.numStates(); ++S)
      for (const DfaPredEdge &E : Dfa.state(int32_t(S)).PredEdges)
        if (E.Pred.K == SemanticContext::Kind::SynPredAlt && E.Pred.A >= 0 &&
            size_t(E.Pred.A) < Speculated.size())
          Speculated[size_t(E.Pred.A)] = 1;
  }
  std::vector<uint8_t> Sentinel(M.numStates(), 0);
  for (size_t D = 0; D < M.numDecisions(); ++D) {
    int32_t End = M.state(M.decisionState(int32_t(D))).EndState;
    if (Speculated[D] && End >= 0 &&
        M.state(End).Kind != AtnStateKind::RuleStop)
      Sentinel[size_t(End)] = 1;
  }

  // Rule bodies: each rule's ops are contiguous, starting from its entry.
  // A decision no path from the entry reaches still gets its ops, for
  // speculation.
  OpStreamBuilder B(M, T.Ops, T.OpStates, T.AltOps, SetIndexOf,
                    std::move(Sentinel));
  std::vector<std::vector<int32_t>> DecisionsOfRule(G.numRules());
  for (int32_t DS : M.decisions())
    if (M.state(DS).RuleIndex >= 0 &&
        size_t(M.state(DS).RuleIndex) < G.numRules())
      DecisionsOfRule[size_t(M.state(DS).RuleIndex)].push_back(DS);
  for (size_t R = 0; R < G.numRules(); ++R) {
    CRule CR;
    CR.FirstOp = int32_t(T.Ops.size());
    CR.EntryOp = B.opOf(M.ruleStart(int32_t(R)));
    B.drain();
    for (int32_t DS : DecisionsOfRule[R])
      B.bodyOf(DS);
    B.drain();
    CR.EndOp = int32_t(T.Ops.size());
    CR.IsPrecedenceRule = G.rule(int32_t(R)).IsPrecedenceRule ? 1 : 0;
    T.Rules.push_back(CR);
  }

  // Lookahead DFAs: one dense state-major block per decision, plus the
  // LL(1) row where the start state decides on one token.
  for (size_t D = 0; D < AG.numDecisions(); ++D) {
    const LookaheadDfa &Dfa = AG.dfa(int32_t(D));
    int32_t DS = M.decisionState(int32_t(D));
    CDecision CD;
    CD.NumStates = int32_t(Dfa.numStates());
    CD.TransBase = int32_t(T.DfaTrans.size());
    CD.MetaBase = int32_t(T.DfaAccept.size());
    CD.PredictOp = B.bodyOf(DS);
    if (Speculated[D])
      CD.EndOp = B.opOf(M.state(DS).EndState);
    B.drain();
    CD.AltBase = T.Ops[size_t(CD.PredictOp)].B;
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
    if (CD.NumStates > 0 && Dfa.state(0).PredictedAlt <= 0) {
      // A start-state edge onto an accepting state is a whole prediction:
      // the walk reads one token, takes the edge (terminal edges win over
      // predicate edges) and accepts. The row replays exactly those.
      std::vector<uint8_t> Row(size_t(W), 0);
      bool Any = false;
      const int32_t *Next = T.DfaTrans.data() + CD.TransBase;
      for (int32_t I = 0; I < W; ++I) {
        int32_t Alt = Next[I] > 0 ? Dfa.state(Next[I]).PredictedAlt : 0;
        if (Alt > 0 && Alt <= 255) {
          Row[size_t(I)] = uint8_t(Alt);
          Any = true;
        }
      }
      if (Any) {
        CD.LL1Row = int32_t(T.LL1Rows.size());
        T.LL1Rows.insert(T.LL1Rows.end(), Row.begin(), Row.end());
      }
    }
    T.Decisions.push_back(CD);
    T.DecisionStates.push_back(DS);
  }

  T.refreshView();
  return T;
}
