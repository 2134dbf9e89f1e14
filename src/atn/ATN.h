//===- atn/ATN.h - Augmented transition networks ----------------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The augmented transition network (ATN) of paper Section 5.1: one
/// submachine per grammar rule, with epsilon, terminal (atom), rule
/// invocation, predicate, and action transitions. EBNF subrules become
/// cycles (Section 5.5). Decision states — rule starts with several
/// alternatives, block starts, and loop entries/back-edges — are numbered;
/// the LL(*) analysis builds one lookahead DFA per decision, and the
/// runtime parser consults that DFA whenever it stands on the decision
/// state.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_ATN_ATN_H
#define LLSTAR_ATN_ATN_H

#include "grammar/Grammar.h"
#include "lexer/Token.h"

#include <cstdint>
#include <string>
#include <vector>

namespace llstar {

/// Role of an ATN state; used for diagnostics and runtime bookkeeping.
enum class AtnStateKind : uint8_t {
  Basic,
  RuleStart,     ///< Entry p_A of a rule submachine.
  RuleStop,      ///< Exit p'_A of a rule submachine.
  BlockStart,    ///< Entry of a (...) subrule.
  BlockEnd,      ///< Merge point of a (...) subrule.
  StarLoopEntry, ///< Decision of a (...)* loop: iterate or exit.
  PlusLoopBack,  ///< Decision after a (...)+ body: iterate or exit.
  LoopEnd,       ///< Exit state of a loop.
};

/// Kind of an ATN transition.
enum class AtnTransitionKind : uint8_t {
  Epsilon,
  Atom,    ///< Consumes one token of type Label.
  Set,     ///< Consumes one token whose type is in Labels (never EOF).
  Rule,    ///< Invokes rule RuleIndex; continues at FollowState on return.
  SemPred, ///< Gated on predicate PredIndex (semantic or precedence).
  SynPred, ///< Gated on a speculative parse of fragment rule RuleIndex.
  Action,  ///< Runs action ActionIndex.
};

/// One ATN transition. Only the fields relevant to its kind are meaningful.
struct AtnTransition {
  AtnTransitionKind Kind = AtnTransitionKind::Epsilon;
  /// Target state. For Rule transitions this is the rule-start state of the
  /// invoked rule; execution continues at FollowState after the rule.
  int32_t Target = -1;

  TokenType Label = TokenInvalid; ///< Atom
  IntervalSet Labels;             ///< Set
  int32_t RuleIndex = -1;         ///< Rule (invoked) or SynPred (fragment)
  int32_t FollowState = -1;       ///< Rule
  /// Rule: precedence argument for calls into precedence-rewritten rules
  /// (0 = unconstrained).
  int32_t Precedence = 0;
  int32_t PredIndex = -1;   ///< SemPred
  int32_t ActionIndex = -1; ///< Action
};

/// A registered semantic predicate: either a named callback or, when
/// MinPrecedence >= 0, a precedence predicate `{prec <= MinPrecedence}?`
/// synthesized by the left-recursion rewrite.
struct AtnPredicate {
  std::string Name;
  int32_t MinPrecedence = -1;

  bool isPrecedence() const { return MinPrecedence >= 0; }
};

/// A registered action (mutator). Always-actions run even while speculating.
struct AtnAction {
  std::string Name;
  bool Always = false;
};

/// One ATN state.
struct AtnState {
  int32_t Id = -1;
  AtnStateKind Kind = AtnStateKind::Basic;
  int32_t RuleIndex = -1;
  /// Source position this state was built from: the rule header for rule
  /// start/stop states, the alternative for per-alternative entry states,
  /// the element for everything else. Lets diagnostics point at the
  /// offending alternative instead of just the rule. Invalid for synthetic
  /// states (EOF, rewritten constructs without a source span).
  SourceLocation Loc;
  /// Decision number, or -1. Decision states own one lookahead DFA each;
  /// their transitions are ordered by alternative number (loop decisions:
  /// body alternatives first, exit last).
  int32_t Decision = -1;
  /// For decision states: where a speculated alternative ends — the rule
  /// stop for rule-start decisions, the block end for subrule decisions,
  /// or the decision state itself for loop decisions (the body loops back).
  /// Used to evaluate auto-inserted PEG-mode syntactic predicates.
  int32_t EndState = -1;
  std::vector<AtnTransition> Transitions;

  bool isDecision() const { return Decision >= 0; }
};

/// The augmented transition network for one grammar.
class Atn {
public:
  explicit Atn(const Grammar &G) : G(&G) {}

  const Grammar &grammar() const { return *G; }

  int32_t addState(AtnStateKind Kind, int32_t RuleIndex) {
    AtnState S;
    S.Id = int32_t(States.size());
    S.Kind = Kind;
    S.RuleIndex = RuleIndex;
    States.push_back(std::move(S));
    return int32_t(States.size()) - 1;
  }

  AtnState &state(int32_t Id) { return States[size_t(Id)]; }
  const AtnState &state(int32_t Id) const { return States[size_t(Id)]; }
  size_t numStates() const { return States.size(); }

  int32_t ruleStart(int32_t Rule) const { return RuleStarts[size_t(Rule)]; }
  int32_t ruleStop(int32_t Rule) const { return RuleStops[size_t(Rule)]; }

  /// Decision -> decision state id.
  const std::vector<int32_t> &decisions() const { return DecisionStates; }
  size_t numDecisions() const { return DecisionStates.size(); }
  int32_t decisionState(int32_t Decision) const {
    return DecisionStates[size_t(Decision)];
  }

  /// Source position of alternative \p Alt (1-based) of \p Decision: the
  /// location of the per-alternative entry state, falling back to the
  /// decision state itself when the alternative has no span of its own.
  SourceLocation decisionAltLoc(int32_t Decision, int32_t Alt) const {
    const AtnState &S = state(decisionState(Decision));
    if (Alt >= 1 && size_t(Alt) <= S.Transitions.size()) {
      const AtnState &Entry = state(S.Transitions[size_t(Alt) - 1].Target);
      if (Entry.Loc.isValid())
        return Entry.Loc;
    }
    return S.Loc;
  }

  /// Source position of \p Decision's decision state, falling back to the
  /// owning rule's header location.
  SourceLocation decisionLoc(int32_t Decision) const {
    const AtnState &S = state(decisionState(Decision));
    if (S.Loc.isValid())
      return S.Loc;
    if (S.RuleIndex >= 0)
      return G->rule(S.RuleIndex).Loc;
    return SourceLocation();
  }

  /// Registers \p S as the next decision; returns the decision number.
  int32_t addDecision(int32_t StateId) {
    States[size_t(StateId)].Decision = int32_t(DecisionStates.size());
    DecisionStates.push_back(StateId);
    return States[size_t(StateId)].Decision;
  }

  int32_t addPredicate(AtnPredicate P) {
    Predicates.push_back(std::move(P));
    return int32_t(Predicates.size()) - 1;
  }
  const AtnPredicate &predicate(int32_t Index) const {
    return Predicates[size_t(Index)];
  }
  size_t numPredicates() const { return Predicates.size(); }

  int32_t addAction(AtnAction A) {
    Actions.push_back(std::move(A));
    return int32_t(Actions.size()) - 1;
  }
  const AtnAction &action(int32_t Index) const {
    return Actions[size_t(Index)];
  }

  /// Call sites of \p Rule: (state, transition index) pairs whose transition
  /// invokes it. Used by closure when it reaches a rule stop state with an
  /// empty stack (paper Section 5.2).
  const std::vector<std::pair<int32_t, int32_t>> &
  callSitesOf(int32_t Rule) const {
    return CallSites[size_t(Rule)];
  }

  /// Must be called once after construction; indexes call sites.
  void finalize();

  /// Synthetic state modeling end-of-input: a single Atom(EOF) self-loop.
  /// Closure lands here when a rule with no call sites pops an empty stack,
  /// so "nothing follows" behaves as an endless stream of EOF tokens.
  int32_t eofState() const { return EofState; }
  void setEofState(int32_t Id) { EofState = Id; }

  /// Mutable access for the builder.
  std::vector<int32_t> &ruleStarts() { return RuleStarts; }
  std::vector<int32_t> &ruleStops() { return RuleStops; }

  /// Human-readable dump for debugging and tests.
  std::string str() const;

private:
  const Grammar *G;
  std::vector<AtnState> States;
  std::vector<int32_t> RuleStarts;
  std::vector<int32_t> RuleStops;
  std::vector<int32_t> DecisionStates;
  std::vector<AtnPredicate> Predicates;
  std::vector<AtnAction> Actions;
  std::vector<std::vector<std::pair<int32_t, int32_t>>> CallSites;
  int32_t EofState = -1;
};

} // namespace llstar

#endif // LLSTAR_ATN_ATN_H
