#include "atn/ATNBuilder.h"

#include <cassert>
#include <map>

using namespace llstar;

namespace {

/// Builds ATN submachines per the paper's Figure 7 transformation, with
/// EBNF cycles per Section 5.5.
///
/// Invariants relied upon by the analysis and the runtime tables:
///  - every non-decision state has exactly one outgoing transition
///    (rule-stop states have none);
///  - decision-state transitions are plain epsilons, one per alternative,
///    in alternative order (loop decisions: body alternatives first, exit
///    last).
class Builder {
public:
  explicit Builder(const Grammar &G) : G(G), Result(std::make_unique<Atn>(G)) {}

  std::unique_ptr<Atn> run() {
    // Create all rule start/stop states first so rule references can be
    // wired regardless of definition order.
    Result->ruleStarts().resize(G.numRules());
    Result->ruleStops().resize(G.numRules());
    for (size_t R = 0; R < G.numRules(); ++R) {
      Result->ruleStarts()[R] =
          Result->addState(AtnStateKind::RuleStart, int32_t(R));
      Result->ruleStops()[R] =
          Result->addState(AtnStateKind::RuleStop, int32_t(R));
    }
    for (size_t R = 0; R < G.numRules(); ++R)
      buildRule(int32_t(R));

    // Synthetic end-of-input state (see Atn::eofState).
    int32_t Eof = Result->addState(AtnStateKind::Basic, -1);
    AtnTransition EofLoop;
    EofLoop.Kind = AtnTransitionKind::Atom;
    EofLoop.Label = TokenEof;
    EofLoop.Target = Eof;
    Result->state(Eof).Transitions.push_back(EofLoop);
    Result->setEofState(Eof);

    Result->finalize();
    return std::move(Result);
  }

private:
  void addEpsilon(int32_t From, int32_t To) {
    AtnTransition T;
    T.Kind = AtnTransitionKind::Epsilon;
    T.Target = To;
    Result->state(From).Transitions.push_back(T);
  }

  void buildRule(int32_t RuleIndex) {
    const Rule &R = G.rule(RuleIndex);
    int32_t Start = Result->ruleStart(RuleIndex);
    int32_t Stop = Result->ruleStop(RuleIndex);
    Result->state(Start).Loc = R.Loc;
    Result->state(Stop).Loc = R.Loc;
    if (R.Alts.empty()) {
      // Tolerated only for fragments mid-construction; validate() rejects
      // empty ordinary rules earlier.
      addEpsilon(Start, Stop);
      return;
    }
    if (R.Alts.size() > 1) {
      Result->addDecision(Start);
      Result->state(Start).EndState = Stop;
    }
    for (const Alternative &A : R.Alts) {
      int32_t Left = Result->addState(AtnStateKind::Basic, RuleIndex);
      Result->state(Left).Loc = A.Loc.isValid() ? A.Loc : R.Loc;
      addEpsilon(Start, Left);
      int32_t End = buildSequence(A.Elements, Left, RuleIndex);
      addEpsilon(End, Stop);
    }
  }

  /// Chains \p Elements starting at \p From; returns the final state.
  int32_t buildSequence(const std::vector<Element> &Elements, int32_t From,
                        int32_t RuleIndex) {
    int32_t Cur = From;
    for (const Element &E : Elements)
      Cur = buildElement(E, Cur, RuleIndex);
    return Cur;
  }

  int32_t buildElement(const Element &E, int32_t Cur, int32_t RuleIndex) {
    switch (E.Kind) {
    case ElementKind::TokenRef: {
      int32_t Next = Result->addState(AtnStateKind::Basic, RuleIndex);
      Result->state(Next).Loc = E.Loc;
      AtnTransition T;
      T.Kind = AtnTransitionKind::Atom;
      T.Label = E.TokType;
      T.Target = Next;
      Result->state(Cur).Transitions.push_back(T);
      return Next;
    }
    case ElementKind::TokenSet: {
      int32_t Next = Result->addState(AtnStateKind::Basic, RuleIndex);
      Result->state(Next).Loc = E.Loc;
      AtnTransition T;
      T.Kind = AtnTransitionKind::Set;
      // Resolve negation against the final vocabulary; EOF (< 1) is never
      // matched by a set.
      T.Labels = E.Negated
                     ? E.TokSet.complement(TokenMinUserType,
                                           G.vocabulary().maxTokenType())
                     : E.TokSet;
      T.Target = Next;
      Result->state(Cur).Transitions.push_back(T);
      return Next;
    }
    case ElementKind::RuleRef: {
      int32_t Next = Result->addState(AtnStateKind::Basic, RuleIndex);
      Result->state(Next).Loc = E.Loc;
      AtnTransition T;
      T.Kind = AtnTransitionKind::Rule;
      T.RuleIndex = E.RuleIndex;
      T.Target = Result->ruleStart(E.RuleIndex);
      T.FollowState = Next;
      T.Precedence = E.Precedence;
      Result->state(Cur).Transitions.push_back(T);
      return Next;
    }
    case ElementKind::SemPred: {
      int32_t Next = Result->addState(AtnStateKind::Basic, RuleIndex);
      Result->state(Next).Loc = E.Loc;
      AtnTransition T;
      T.Kind = AtnTransitionKind::SemPred;
      T.PredIndex = internPredicate(E);
      T.Target = Next;
      Result->state(Cur).Transitions.push_back(T);
      return Next;
    }
    case ElementKind::SynPred: {
      int32_t Next = Result->addState(AtnStateKind::Basic, RuleIndex);
      Result->state(Next).Loc = E.Loc;
      AtnTransition T;
      T.Kind = AtnTransitionKind::SynPred;
      T.RuleIndex = E.SynPredRule;
      T.Target = Next;
      Result->state(Cur).Transitions.push_back(T);
      return Next;
    }
    case ElementKind::Action: {
      int32_t Next = Result->addState(AtnStateKind::Basic, RuleIndex);
      Result->state(Next).Loc = E.Loc;
      AtnTransition T;
      T.Kind = AtnTransitionKind::Action;
      T.ActionIndex = internAction(E);
      T.Target = Next;
      Result->state(Cur).Transitions.push_back(T);
      return Next;
    }
    case ElementKind::Block:
      return buildBlock(E, Cur, RuleIndex);
    }
    assert(false && "unknown element kind");
    return Cur;
  }

  int32_t buildBlock(const Element &E, int32_t Cur, int32_t RuleIndex) {
    assert(E.Kind == ElementKind::Block);

    // Plain single-alternative groups are pure parentheses: inline them.
    if (E.Repeat == BlockRepeat::None && E.Alts.size() == 1)
      return buildSequence(E.Alts[0].Elements, Cur, RuleIndex);

    switch (E.Repeat) {
    case BlockRepeat::None: {
      int32_t BlockStart = Result->addState(AtnStateKind::BlockStart, RuleIndex);
      int32_t BlockEnd = Result->addState(AtnStateKind::BlockEnd, RuleIndex);
      Result->state(BlockStart).Loc = E.Loc;
      Result->state(BlockEnd).Loc = E.Loc;
      addEpsilon(Cur, BlockStart);
      Result->addDecision(BlockStart);
      Result->state(BlockStart).EndState = BlockEnd;
      for (const Alternative &A : E.Alts) {
        int32_t Left = Result->addState(AtnStateKind::Basic, RuleIndex);
        Result->state(Left).Loc = A.Loc.isValid() ? A.Loc : E.Loc;
        addEpsilon(BlockStart, Left);
        int32_t End = buildSequence(A.Elements, Left, RuleIndex);
        addEpsilon(End, BlockEnd);
      }
      return BlockEnd;
    }
    case BlockRepeat::Optional: {
      int32_t BlockStart = Result->addState(AtnStateKind::BlockStart, RuleIndex);
      int32_t BlockEnd = Result->addState(AtnStateKind::BlockEnd, RuleIndex);
      Result->state(BlockStart).Loc = E.Loc;
      Result->state(BlockEnd).Loc = E.Loc;
      addEpsilon(Cur, BlockStart);
      Result->addDecision(BlockStart);
      Result->state(BlockStart).EndState = BlockEnd;
      for (const Alternative &A : E.Alts) {
        int32_t Left = Result->addState(AtnStateKind::Basic, RuleIndex);
        Result->state(Left).Loc = A.Loc.isValid() ? A.Loc : E.Loc;
        addEpsilon(BlockStart, Left);
        int32_t End = buildSequence(A.Elements, Left, RuleIndex);
        addEpsilon(End, BlockEnd);
      }
      addEpsilon(BlockStart, BlockEnd); // exit = last alternative
      return BlockEnd;
    }
    case BlockRepeat::Star: {
      int32_t Entry = Result->addState(AtnStateKind::StarLoopEntry, RuleIndex);
      int32_t End = Result->addState(AtnStateKind::LoopEnd, RuleIndex);
      Result->state(Entry).Loc = E.Loc;
      Result->state(End).Loc = E.Loc;
      addEpsilon(Cur, Entry);
      Result->addDecision(Entry);
      Result->state(Entry).EndState = Entry; // body alternatives loop back
      for (const Alternative &A : E.Alts) {
        int32_t Left = Result->addState(AtnStateKind::Basic, RuleIndex);
        Result->state(Left).Loc = A.Loc.isValid() ? A.Loc : E.Loc;
        addEpsilon(Entry, Left);
        int32_t AltEnd = buildSequence(A.Elements, Left, RuleIndex);
        addEpsilon(AltEnd, Entry); // loop back
      }
      addEpsilon(Entry, End); // exit = last alternative
      return End;
    }
    case BlockRepeat::Plus: {
      int32_t BodyStart = Result->addState(AtnStateKind::BlockStart, RuleIndex);
      int32_t LoopBack = Result->addState(AtnStateKind::PlusLoopBack, RuleIndex);
      int32_t End = Result->addState(AtnStateKind::LoopEnd, RuleIndex);
      Result->state(BodyStart).Loc = E.Loc;
      Result->state(LoopBack).Loc = E.Loc;
      Result->state(End).Loc = E.Loc;
      addEpsilon(Cur, BodyStart);
      if (E.Alts.size() > 1) {
        Result->addDecision(BodyStart);
        Result->state(BodyStart).EndState = LoopBack;
      }
      for (const Alternative &A : E.Alts) {
        int32_t Left = Result->addState(AtnStateKind::Basic, RuleIndex);
        Result->state(Left).Loc = A.Loc.isValid() ? A.Loc : E.Loc;
        addEpsilon(BodyStart, Left);
        int32_t AltEnd = buildSequence(A.Elements, Left, RuleIndex);
        addEpsilon(AltEnd, LoopBack);
      }
      Result->addDecision(LoopBack);
      Result->state(LoopBack).EndState = LoopBack; // body loops back here
      addEpsilon(LoopBack, BodyStart); // alternative 1: iterate
      addEpsilon(LoopBack, End);       // alternative 2: exit
      return End;
    }
    }
    assert(false && "unknown block repeat");
    return Cur;
  }

  int32_t internPredicate(const Element &E) {
    auto Key = std::make_pair(E.Name, E.MinPrecedence);
    auto It = PredIds.find(Key);
    if (It != PredIds.end())
      return It->second;
    AtnPredicate P;
    P.Name = E.Name;
    P.MinPrecedence = E.MinPrecedence;
    int32_t Id = Result->addPredicate(std::move(P));
    PredIds.emplace(Key, Id);
    return Id;
  }

  int32_t internAction(const Element &E) {
    auto Key = std::make_pair(E.Name, E.AlwaysAction);
    auto It = ActionIds.find(Key);
    if (It != ActionIds.end())
      return It->second;
    AtnAction A;
    A.Name = E.Name;
    A.Always = E.AlwaysAction;
    int32_t Id = Result->addAction(std::move(A));
    ActionIds.emplace(Key, Id);
    return Id;
  }

  const Grammar &G;
  std::unique_ptr<Atn> Result;
  std::map<std::pair<std::string, int32_t>, int32_t> PredIds;
  std::map<std::pair<std::string, bool>, int32_t> ActionIds;
};

} // namespace

std::unique_ptr<Atn> llstar::buildAtn(const Grammar &G) {
  return Builder(G).run();
}
