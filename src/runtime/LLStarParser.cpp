#include "runtime/LLStarParser.h"

#include "support/StringUtils.h"

#include <cassert>

using namespace llstar;

namespace {

/// Smallest user-defined token type in \p S (the token conjured for a
/// single-token insertion against a set edge). The strategy only requests
/// insertion when one exists.
TokenType firstUserToken(const IntervalSet &S) {
  for (const Interval &I : S.intervals())
    if (I.Hi >= TokenMinUserType)
      return std::max(I.Lo, TokenMinUserType);
  return TokenInvalid;
}

} // namespace

LLStarParser::LLStarParser(const AnalyzedGrammar &AG, TokenStream &Stream,
                           SemanticEnv *Env, DiagnosticEngine &Diags)
    : LLStarParser(AG, Stream, Env, Diags, [&AG] {
        ParserOptions O;
        O.Memoize = AG.grammar().Options.Memoize;
        return O;
      }()) {}

LLStarParser::LLStarParser(const AnalyzedGrammar &AG, TokenStream &Stream,
                           SemanticEnv *Env, DiagnosticEngine &Diags,
                           ParserOptions Opts)
    : AG(AG), M(AG.atn()), Stream(Stream), Env(Env), Diags(Diags),
      Opts(Opts) {
  Stats.ensure(AG.numDecisions());
}

std::unique_ptr<ParseTree> LLStarParser::parse(const std::string &RuleName) {
  int32_t Rule = RuleName.empty() ? AG.grammar().startRule()
                                  : AG.grammar().findRule(RuleName);
  if (Rule < 0) {
    Diags.error("unknown start rule '" + RuleName + "'");
    LastParseOk = false;
    return nullptr;
  }
  Memo.clear();
  ArenaRoot = nullptr;
  DeadlineHit = false;
  DeadlinePollCountdown = DeadlinePollInterval;
  FollowStack.clear();
  LastErrorIndex = -1;
  InsertionsSinceConsume = 0;

  std::unique_ptr<ParseTree> HeapRoot;
  NodeRef Root;
  if (Opts.TreeArena) {
    if (Opts.BuildTree) {
      ArenaRoot = ArenaParseTree::ruleNode(*Opts.TreeArena, Rule);
      Root.InArena = ArenaRoot;
    }
  } else {
    HeapRoot = ParseTree::ruleNode(Rule);
    if (Opts.BuildTree)
      Root.Heap = HeapRoot.get();
  }
  unsigned ErrorsBefore = Diags.errorCount();
  bool Ok = runStates(M.ruleStart(Rule), M.ruleStop(Rule), Root);
  if (!Ok && canRecover()) {
    // Top-level sync: the invocation stack is empty, so the recovery set is
    // {EOF} and this drains the remaining input as error leaves.
    syncAfterRuleFailure(Root);
    Ok = true;
  }
  LastParseOk = Ok && Diags.errorCount() == ErrorsBefore;
  return HeapRoot;
}

//===----------------------------------------------------------------------===//
// Core interpretation
//===----------------------------------------------------------------------===//

bool LLStarParser::runRule(int32_t RuleIndex, int32_t Precedence,
                           NodeRef Parent) {
  const Rule &R = AG.grammar().rule(RuleIndex);

  // Memoize speculative whole-rule parses (packrat memoization; only while
  // speculating, per paper Section 6.2).
  uint64_t Key = 0;
  bool UseMemo = speculating() && Opts.Memoize;
  if (UseMemo) {
    Key = memoKey(RuleIndex, Precedence, Stream.index());
    auto It = Memo.find(Key);
    if (It != Memo.end()) {
      ++Stats.MemoHits;
      if (It->second < 0)
        return false;
      Stream.seek(It->second);
      if (SpecMaxIndex < It->second)
        SpecMaxIndex = It->second;
      return true;
    }
    ++Stats.MemoMisses;
  }

  // Incremental reparse: splice a recorded subtree instead of running the
  // body when the subscriber vouches for it (see runtime/ReuseHooks.h).
  if (Opts.Hooks && !speculating() && Parent) {
    ReuseHooks::Splice Sp;
    if (Opts.Hooks->tryReuse(RuleIndex, Precedence, Stream.index(), Sp)) {
      if (Parent.Heap)
        Parent.Heap->addChild(std::move(Sp.Heap));
      else if (Parent.InArena)
        Parent.InArena->addChild(Sp.InArena);
      Stream.seek(Sp.NextIndex);
      InsertionsSinceConsume = 0;
      ++Stats.NodesReused;
      return true;
    }
  }

  NodeRef Node;
  if (Parent && !speculating())
    Node = addRuleChild(Parent, RuleIndex);

  bool Hooked = Opts.Hooks && !speculating();
  if (Hooked)
    Opts.Hooks->enterRule(RuleIndex, Precedence, Stream.index());

  if (R.IsPrecedenceRule)
    PrecStack.push_back(Precedence);
  bool Ok = runStates(M.ruleStart(RuleIndex), M.ruleStop(RuleIndex), Node);
  if (R.IsPrecedenceRule)
    PrecStack.pop_back();

  if (!Ok && canRecover()) {
    // Sync-and-return: pretend the rule completed, resynchronizing the
    // input to a token some caller can match. The error was already
    // reported; the skipped region survives as error leaves under Node.
    syncAfterRuleFailure(Node);
    Ok = true;
  }

  if (Hooked)
    Opts.Hooks->exitRule(RuleIndex, Stream.index(), Node.Heap, Node.InArena);

  if (UseMemo)
    Memo[Key] = Ok ? Stream.index() : -1;
  return Ok;
}

bool LLStarParser::runStates(int32_t From, int32_t Until, NodeRef Parent) {
  int32_t P = From;
  // Guards against loop decisions that iterate without consuming input
  // (an epsilon-matching loop body).
  std::unordered_map<int32_t, int64_t> LoopWatermark;

  while (P != Until) {
    if (!deadlineOk())
      return false;
    const AtnState &S = M.state(P);

    if (S.isDecision()) {
      int32_t Alt = adaptivePredict(S.Decision);
      if (Alt < 0) {
        // Panic recovery: drop tokens nobody can accept, then retry the
        // prediction once if the resync token is matchable right here.
        // A second failure unwinds to the rule-level sync in runRule.
        if (!canRecover() || !recoverAtDecision(P, Parent))
          return false;
        Alt = adaptivePredict(S.Decision);
        if (Alt < 0)
          return false;
      }
      bool IsLoop = S.Kind == AtnStateKind::StarLoopEntry ||
                    S.Kind == AtnStateKind::PlusLoopBack;
      if (IsLoop) {
        int32_t ExitAlt = int32_t(S.Transitions.size());
        if (Alt != ExitAlt) {
          auto [It, Inserted] = LoopWatermark.emplace(P, Stream.index());
          if (!Inserted) {
            if (It->second == Stream.index())
              Alt = ExitAlt; // no progress since last iteration: exit
            else
              It->second = Stream.index();
          }
        }
      }
      P = S.Transitions[size_t(Alt) - 1].Target;
      continue;
    }

    assert(S.Transitions.size() == 1 &&
           "non-decision states have exactly one transition");
    const AtnTransition &T = S.Transitions[0];
    switch (T.Kind) {
    case AtnTransitionKind::Epsilon:
    case AtnTransitionKind::SynPred:
      // Syntactic predicates were consulted during prediction; once an
      // alternative is chosen the gate is a no-op.
      P = T.Target;
      break;
    case AtnTransitionKind::Set:
    case AtnTransitionKind::Atom: {
      bool Matches = T.Kind == AtnTransitionKind::Atom
                         ? Stream.LA(1) == T.Label
                         : (Stream.LA(1) != TokenEof &&
                            T.Labels.contains(Stream.LA(1)));
      if (!Matches) {
        if (speculating() || DeadlineHit)
          return false;
        reportMismatch(T.Kind == AtnTransitionKind::Atom ? T.Label
                                                         : TokenInvalid);
        if (!canRecover())
          return false;
        IntervalSet Expected = T.Kind == AtnTransitionKind::Atom
                                   ? IntervalSet::of(T.Label)
                                   : T.Labels;
        RepairContext Ctx{Stream.LA(1), Stream.LA(2), Expected,
                          viableAfter(T.Target), InsertionsSinceConsume};
        RepairAction Act = strategy().onMismatch(Ctx);
        if (Act == RepairAction::DeleteToken) {
          // The next token matches: the current one is spurious.
          Diags.note(Stream.LT(1).Loc, "deleted '" +
                                           std::string(Stream.LT(1).Text) +
                                           "' to recover");
          skipTokenAsError(Parent);
          ++Stats.TokensDeleted;
          // Fall through to match the token now at the front.
        } else if (Act == RepairAction::InsertToken) {
          // Conjure the expected token: the parse continues as if it were
          // present, leaving a zero-width Missing error leaf.
          TokenType Conjured =
              T.Kind == AtnTransitionKind::Atom
                  ? T.Label
                  : firstUserToken(Expected);
          Diags.note(Stream.LT(1).Loc,
                     "inserted missing " +
                         AG.grammar().vocabulary().name(Conjured) +
                         " to recover");
          addMissingTokenChild(Parent, Conjured);
          ++Stats.TokensInserted;
          ++InsertionsSinceConsume;
          P = T.Target;
          break;
        } else {
          return false; // unwind to the rule-level sync
        }
      }
      if (Parent && !speculating())
        addTokenChild(Parent);
      if (speculating() && SpecMaxIndex < Stream.index() + 1)
        SpecMaxIndex = Stream.index() + 1;
      Stream.consume();
      ++Stats.TokensConsumed;
      InsertionsSinceConsume = 0;
      P = T.Target;
      break;
    }
    case AtnTransitionKind::Rule: {
      FollowStack.push_back(T.FollowState);
      bool Ok = runRule(T.RuleIndex, T.Precedence, Parent);
      FollowStack.pop_back();
      if (!Ok)
        return false;
      P = T.FollowState;
      break;
    }
    case AtnTransitionKind::SemPred:
      if (!evalNamedPredicate(T.PredIndex)) {
        if (!speculating()) {
          const AtnPredicate &Pred = M.predicate(T.PredIndex);
          Diags.error(Stream.LT(1).Loc,
                      "rule " + AG.grammar().rule(S.RuleIndex).Name +
                          " failed predicate {" + Pred.Name + "}?");
        }
        return false;
      }
      P = T.Target;
      break;
    case AtnTransitionKind::Action:
      runAction(T.ActionIndex);
      P = T.Target;
      break;
    }
  }
  return true;
}

LLStarParser::NodeRef LLStarParser::addRuleChild(NodeRef Parent,
                                                 int32_t RuleIndex) {
  NodeRef Node;
  if (Parent.Heap)
    Node.Heap = Parent.Heap->addChild(ParseTree::ruleNode(RuleIndex));
  else if (Parent.InArena)
    Node.InArena = Parent.InArena->addChild(
        ArenaParseTree::ruleNode(*Opts.TreeArena, RuleIndex));
  return Node;
}

void LLStarParser::addTokenChild(NodeRef Parent) {
  if (Parent.Heap)
    Parent.Heap->addChild(ParseTree::tokenNode(Stream.LT(1)));
  else if (Parent.InArena)
    Parent.InArena->addChild(
        ArenaParseTree::tokenNode(*Opts.TreeArena, Stream.index()));
}

void LLStarParser::addErrorTokenChild(NodeRef Parent) {
  if (Parent.Heap)
    Parent.Heap->addChild(
        ParseTree::errorNode(Stream.LT(1), ErrorNodeKind::Skipped));
  else if (Parent.InArena)
    Parent.InArena->addChild(
        ArenaParseTree::errorNode(*Opts.TreeArena, Stream.index()));
}

void LLStarParser::addMissingTokenChild(NodeRef Parent, TokenType Missing) {
  if (Parent.Heap) {
    // Borrow the span of the token at the repair point; the text marks the
    // leaf as synthetic.
    Token Tok = Stream.LT(1);
    Tok.Type = Missing;
    Tok.Text = AG.grammar().vocabulary().missingText(Missing);
    Parent.Heap->addChild(
        ParseTree::errorNode(Tok, ErrorNodeKind::Missing));
  } else if (Parent.InArena) {
    Parent.InArena->addChild(
        ArenaParseTree::missingNode(*Opts.TreeArena, Missing, Stream.index()));
  }
}

void LLStarParser::addMarkerChild(NodeRef Parent) {
  if (Parent.Heap) {
    Token Tok = Stream.LT(1);
    Tok.Type = TokenInvalid;
    Tok.Text = {};
    Parent.Heap->addChild(
        ParseTree::errorNode(Tok, ErrorNodeKind::Marker));
  } else if (Parent.InArena) {
    Parent.InArena->addChild(
        ArenaParseTree::markerNode(*Opts.TreeArena, Stream.index()));
  }
}

bool LLStarParser::deadlineOk() {
  if (DeadlineHit)
    return false;
  if (--DeadlinePollCountdown > 0)
    return true;
  DeadlinePollCountdown = DeadlinePollInterval;
  if (Opts.Deadline == std::chrono::steady_clock::time_point::max() ||
      std::chrono::steady_clock::now() <= Opts.Deadline)
    return true;
  DeadlineHit = true;
  if (Opts.Hooks)
    Opts.Hooks->opaque();
  Diags.error(Stream.LT(1).Loc, "parse deadline exceeded");
  return false;
}

//===----------------------------------------------------------------------===//
// Prediction
//===----------------------------------------------------------------------===//

int32_t LLStarParser::adaptivePredict(int32_t Decision) {
  const LookaheadDfa &Dfa = AG.dfa(Decision);
  int32_t S = 0;
  int64_t Depth = 0;
  int64_t StartIndex = Stream.index();
  bool Backtracked = false;

  auto Record = [&](int64_t UsedK, int32_t Alt) {
    // The reuse subscriber needs every decision's lookahead extent, stats
    // on or off, speculative or not (StartIndex + max(K,1) inclusively
    // over-approximates the deepest token examined by at most one).
    if (Opts.Hooks)
      Opts.Hooks->lookahead(StartIndex + std::max<int64_t>(UsedK, 1));
    if (!Opts.CollectStats)
      return;
    Stats.Decisions[size_t(Decision)].record(std::max<int64_t>(UsedK, 1),
                                             Backtracked, Alt);
  };

  while (true) {
    if (!deadlineOk())
      return -1;
    const DfaState &St = Dfa.state(S);
    if (St.isAccept()) {
      Record(Depth, St.PredictedAlt);
      return St.PredictedAlt;
    }
    TokenType T = Stream.LA(Depth + 1);
    int32_t Next = St.edgeOn(T);
    if (Next == S && T == TokenEof)
      Next = -1; // EOF self-loops cannot make progress
    if (Next >= 0) {
      ++Depth;
      S = Next;
      continue;
    }
    // No terminal edge applies: try the predicate edges in alternative
    // order (ordered choice; lower alternatives take precedence).
    for (const DfaPredEdge &E : St.PredEdges) {
      int64_t SpecBefore = SpecMaxIndex;
      SpecMaxIndex = StartIndex + Depth;
      bool IsSyn = E.Pred.isSyntactic();
      bool Holds = evalSemanticContext(E.Pred);
      int64_t Reach = SpecMaxIndex - StartIndex;
      SpecMaxIndex = std::max(SpecBefore, SpecMaxIndex);
      if (IsSyn) {
        Backtracked = true;
        Depth = std::max(Depth, Reach);
      }
      if (Holds) {
        Record(Depth, E.Alt);
        return E.Alt;
      }
    }
    Record(Depth, /*Alt=*/-1);
    if (!speculating() && !DeadlineHit)
      reportNoViableAlt(Decision, Depth);
    return -1;
  }
}

bool LLStarParser::evalSemanticContext(const SemanticContext &Pred) {
  switch (Pred.K) {
  case SemanticContext::Kind::None:
    return true;
  case SemanticContext::Kind::Pred:
    return evalNamedPredicate(Pred.A);
  case SemanticContext::Kind::SynPredRule:
    return evalSynPredRule(Pred.A);
  case SemanticContext::Kind::SynPredAlt:
    return evalSynPredAlt(Pred.A, Pred.B);
  }
  return true;
}

bool LLStarParser::evalNamedPredicate(int32_t PredIndex) {
  const AtnPredicate &P = M.predicate(PredIndex);
  if (P.isPrecedence()) {
    // Precedence gates read only the invocation's precedence argument,
    // which is part of the reuse key — no poisoning needed.
    int32_t Current = PrecStack.empty() ? 0 : PrecStack.back();
    return Current <= P.MinPrecedence;
  }
  // A named predicate makes the decision depend on ambient semantic state;
  // nodes above this point must not be reused.
  if (Opts.Hooks)
    Opts.Hooks->opaque();
  if (Env)
    if (const SemanticEnv::Predicate *Fn = Env->findPredicate(P.Name))
      return (*Fn)();
  if (ReportedUnbound.insert(P.Name).second)
    Diags.warning("predicate '" + P.Name +
                  "' is not bound in the semantic environment; assuming true");
  return true;
}

bool LLStarParser::evalSynPredRule(int32_t FragmentRule) {
  ++Stats.SynPredEvals;
  int64_t Mark = Stream.index();
  ++SpecDepth;
  bool Ok = runRule(FragmentRule, 0, NodeRef());
  --SpecDepth;
  Stream.seek(Mark);
  return Ok;
}

bool LLStarParser::evalSynPredAlt(int32_t Decision, int32_t Alt) {
  ++Stats.SynPredEvals;
  const AtnState &S = M.state(M.decisionState(Decision));
  assert(Alt >= 1 && size_t(Alt) <= S.Transitions.size() &&
         "alternative out of range");
  assert(S.EndState >= 0 && "decision has no end state");
  int64_t Mark = Stream.index();
  ++SpecDepth;
  bool Ok = runStates(S.Transitions[size_t(Alt) - 1].Target, S.EndState,
                      NodeRef());
  --SpecDepth;
  Stream.seek(Mark);
  return Ok;
}

void LLStarParser::runAction(int32_t ActionIndex) {
  // Actions mutate ambient state; conservatively poison even when the
  // action is skipped during speculation (it would run on re-execution).
  if (Opts.Hooks)
    Opts.Hooks->opaque();
  const AtnAction &A = M.action(ActionIndex);
  if (speculating() && !A.Always)
    return; // mutators are deactivated during speculation (Section 4.3)
  if (Env)
    if (const SemanticEnv::Action *Fn = Env->findAction(A.Name)) {
      (*Fn)();
      return;
    }
  if (ReportedUnbound.insert(A.Name).second)
    Diags.warning("action '" + A.Name +
                  "' is not bound in the semantic environment; skipping");
}

//===----------------------------------------------------------------------===//
// Errors
//===----------------------------------------------------------------------===//

void LLStarParser::reportMismatch(TokenType Expected) {
  // Errors (and any recovery that follows) depend on the dynamic follow
  // stack, not just this rule's token window: never reuse across them.
  if (Opts.Hooks)
    Opts.Hooks->opaque();
  ++Stats.SyntaxErrors;
  const Token &T = Stream.LT(1);
  // TokenInvalid marks a token-set mismatch; name the token, not the set.
  Diags.error(T.Loc, "mismatched input '" + std::string(T.Text) +
                         "' expecting " +
                         (Expected == TokenInvalid
                              ? std::string("a different token")
                              : AG.grammar().vocabulary().name(Expected)));
}

void LLStarParser::reportNoViableAlt(int32_t Decision, int64_t DepthReached) {
  if (Opts.Hooks)
    Opts.Hooks->opaque();
  ++Stats.SyntaxErrors;
  // Report at the token that killed the DFA walk, not at the decision start
  // (paper Section 4.4).
  const Token &T = Stream.LT(DepthReached + 1);
  const AtnState &S = M.state(M.decisionState(Decision));
  std::string RuleName =
      S.RuleIndex >= 0 ? AG.grammar().rule(S.RuleIndex).Name : "<none>";
  Diags.error(T.Loc, "no viable alternative at input '" + std::string(T.Text) +
                         "' (rule " + RuleName + ")");
}

//===----------------------------------------------------------------------===//
// Recovery
//===----------------------------------------------------------------------===//

IntervalSet LLStarParser::viableAfter(int32_t State) const {
  const RecoverySets &RS = AG.recovery();
  IntervalSet V = RS.follow(State);
  // While the rule end is reachable without consuming, tokens viable at the
  // pending return sites are viable here too.
  bool Open = RS.reachesEnd(State);
  for (auto It = FollowStack.rbegin(); Open && It != FollowStack.rend();
       ++It) {
    V.addSet(RS.follow(*It));
    Open = RS.reachesEnd(*It);
  }
  if (Open)
    V.add(TokenEof);
  return V;
}

IntervalSet LLStarParser::recoverySet() const {
  const RecoverySets &RS = AG.recovery();
  IntervalSet R;
  for (int32_t F : FollowStack)
    R.addSet(RS.follow(F));
  // EOF always synchronizes; with an empty invocation stack it is the only
  // member, so a top-level sync drains the input.
  R.add(TokenEof);
  return R;
}

void LLStarParser::skipTokenAsError(NodeRef Parent) {
  addErrorTokenChild(Parent);
  Stream.consume();
  InsertionsSinceConsume = 0;
}

void LLStarParser::syncAfterRuleFailure(NodeRef Node) {
  ++Stats.PanicSyncs;
  size_t Skipped = 0;
  // Failing twice at the same position means the recovery set itself is
  // not parsable here; force one token of progress so recovery terminates.
  if (Stream.index() == LastErrorIndex && Stream.LA(1) != TokenEof) {
    skipTokenAsError(Node);
    ++Skipped;
  }
  IntervalSet R = recoverySet();
  while (Stream.LA(1) != TokenEof && !R.contains(Stream.LA(1))) {
    skipTokenAsError(Node);
    ++Skipped;
  }
  LastErrorIndex = Stream.index();
  if (Skipped == 0) {
    // Nothing consumed: leave a zero-width marker so every reported error
    // still has at least one error leaf in the tree.
    addMarkerChild(Node);
  } else {
    Diags.note(Stream.LT(1).Loc,
               "skipped " + std::to_string(Skipped) +
                   (Skipped == 1 ? " token" : " tokens") +
                   " to resynchronize");
  }
}

bool LLStarParser::recoverAtDecision(int32_t State, NodeRef Parent) {
  const RecoverySets &RS = AG.recovery();
  const IntervalSet &Here = RS.follow(State);
  IntervalSet R = recoverySet();
  size_t Skipped = 0;
  while (Stream.LA(1) != TokenEof && !Here.contains(Stream.LA(1)) &&
         !R.contains(Stream.LA(1))) {
    skipTokenAsError(Parent);
    ++Skipped;
  }
  if (Skipped) {
    ++Stats.PanicSyncs;
    Diags.note(Stream.LT(1).Loc,
               "skipped " + std::to_string(Skipped) +
                   (Skipped == 1 ? " token" : " tokens") +
                   " to resynchronize");
  }
  // Retry only when we made progress and landed on a token this decision
  // can start with; otherwise unwind to the rule-level sync.
  return Skipped > 0 && Stream.LA(1) != TokenEof &&
         Here.contains(Stream.LA(1));
}
