//===- compiled/CompiledParser.cpp - Dense-table LL(*) parser -------------===//
//
// A behavioral mirror of runtime/LLStarParser.cpp over flat tables. The
// control flow, diagnostics text, stats recording, and recovery logic are
// kept line-for-line parallel with the interpreter on purpose: the
// conformance suite asserts byte-identical output, so when the interpreter
// changes, change this file the same way.
//
//===----------------------------------------------------------------------===//

#include "compiled/CompiledParser.h"

#include "analysis/AnalyzedGrammar.h"

#include <cassert>

using namespace llstar;
using namespace llstar::compiled;

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

CompiledParser::CompiledParser(const AnalyzedGrammar &AG,
                               const TablesView &Tables, TokenStream &Stream,
                               SemanticEnv *Env, DiagnosticEngine &Diags,
                               ParserOptions Opts,
                               const NativePredictFn *Native,
                               const NativeRuleFn *NativeRules)
    : AG(AG), CT(Tables), Stream(Stream), Env(Env), Diags(Diags), Opts(Opts),
      Native(Native), NativeRules(NativeRules) {
  Stats.ensure(size_t(CT.NumDecisions));
  NoDeadline =
      this->Opts.Deadline == std::chrono::steady_clock::time_point::max();
  // Reuse hooks observe every prediction event, so generated bodies must
  // not shortcut prediction past the engine when one is installed.
  FastPredictOk =
      NoDeadline && !this->Opts.CollectStats && !this->Opts.Hooks;
}

std::unique_ptr<ParseTree> CompiledParser::parse(const std::string &RuleName) {
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
  bool Ok = runBody(Rule, Root);
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

bool CompiledParser::runRule(int32_t RuleIndex, int32_t Precedence,
                             NodeRef Parent) {
  const Rule &R = AG.grammar().rule(RuleIndex);

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
  bool Ok = runBody(RuleIndex, Node);
  if (R.IsPrecedenceRule)
    PrecStack.pop_back();

  if (!Ok && canRecover()) {
    syncAfterRuleFailure(Node);
    Ok = true;
  }

  if (Hooked)
    Opts.Hooks->exitRule(RuleIndex, Stream.index(), Node.Heap, Node.InArena);

  if (UseMemo)
    Memo[Key] = Ok ? Stream.index() : -1;
  return Ok;
}

bool CompiledParser::runStates(int32_t From, int32_t Until, NodeRef Parent) {
  int32_t P = From;
  // Guards against loop decisions that iterate without consuming input
  // (an epsilon-matching loop body). A rule body holds at most a few loop
  // decisions, so a linear-scan array replaces the interpreter's hash map.
  LoopMark MarksInline[4];
  size_t NumMarks = 0;
  std::vector<LoopMark> MarksSpill;

  const CState *States = CT.States;
  while (P != Until) {
    if (!deadlineOk())
      return false;
    const CState &S = States[P];

    if (S.Decision >= 0) {
      int32_t Alt = predictAtState(S.Decision, P, Parent);
      if (Alt < 0)
        return false;
      bool IsLoop = S.Kind == int32_t(AtnStateKind::StarLoopEntry) ||
                    S.Kind == int32_t(AtnStateKind::PlusLoopBack);
      if (IsLoop) {
        int32_t ExitAlt = S.NumAlts;
        if (Alt != ExitAlt) {
          LoopMark *Found = nullptr;
          for (size_t I = 0; I < NumMarks && I < 4; ++I)
            if (MarksInline[I].State == P)
              Found = &MarksInline[I];
          if (!Found)
            for (LoopMark &LM : MarksSpill)
              if (LM.State == P)
                Found = &LM;
          if (!Found) {
            if (NumMarks < 4)
              MarksInline[NumMarks] = {P, Stream.index()};
            else
              MarksSpill.push_back({P, Stream.index()});
            ++NumMarks;
          } else if (Found->Index == Stream.index()) {
            Alt = ExitAlt; // no progress since last iteration: exit
          } else {
            Found->Index = Stream.index();
          }
        }
      }
      P = CT.AltTargets[size_t(S.FirstAltTarget) + size_t(Alt) - 1];
      continue;
    }

    switch (AtnTransitionKind(S.TransKind)) {
    case AtnTransitionKind::Epsilon:
    case AtnTransitionKind::SynPred:
      // Syntactic predicates were consulted during prediction; once an
      // alternative is chosen the gate is a no-op.
      P = S.Target;
      break;
    case AtnTransitionKind::Set:
    case AtnTransitionKind::Atom: {
      TokenType La = Stream.LA(1);
      bool IsAtom = S.TransKind == int32_t(AtnTransitionKind::Atom);
      bool Matches = IsAtom ? La == S.Label
                            : (La != TokenEof && CT.setContains(S.SetIndex, La));
      if (!Matches) {
        ColdMatch Act = coldMismatch(P, Parent);
        if (Act == ColdMatch::Unwind)
          return false; // unwind to the rule-level sync
        if (Act == ColdMatch::Inserted) {
          P = S.Target;
          break;
        }
        // DeleteToken dropped the spurious token; fall through to match
        // the one now at the front.
      }
      consumeMatched(Parent);
      P = S.Target;
      break;
    }
    case AtnTransitionKind::Rule:
      if (!callRule(S.CalleeRule, S.Precedence, S.FollowState, Parent))
        return false;
      P = S.FollowState;
      break;
    case AtnTransitionKind::SemPred:
      if (!checkPredicateAt(P))
        return false;
      P = S.Target;
      break;
    case AtnTransitionKind::Action:
      runAction(S.ActionIndex);
      P = S.Target;
      break;
    }
  }
  return true;
}

CompiledParser::ColdMatch CompiledParser::coldMismatch(int32_t StateId,
                                                       NodeRef Parent) {
  if (speculating() || DeadlineHit)
    return ColdMatch::Unwind;
  const CState &S = CT.States[StateId];
  bool IsAtom = S.TransKind == int32_t(AtnTransitionKind::Atom);
  reportMismatch(IsAtom ? S.Label : TokenInvalid);
  if (!canRecover())
    return ColdMatch::Unwind;
  // The repair strategy wants the expected set as an IntervalSet, which
  // the flat tables do not carry — read it back from the source ATN.
  IntervalSet Expected = IsAtom
                             ? IntervalSet::of(S.Label)
                             : AG.atn().state(StateId).Transitions[0].Labels;
  RepairContext Ctx{Stream.LA(1), Stream.LA(2), Expected,
                    viableAfter(S.Target), InsertionsSinceConsume};
  RepairAction Act = strategy().onMismatch(Ctx);
  if (Act == RepairAction::DeleteToken) {
    // The next token matches: the current one is spurious.
    Diags.note(Stream.LT(1).Loc, "deleted '" +
                                     std::string(Stream.LT(1).Text) +
                                     "' to recover");
    skipTokenAsError(Parent);
    ++Stats.TokensDeleted;
    return ColdMatch::MatchNow;
  }
  if (Act == RepairAction::InsertToken) {
    // Conjure the expected token: the parse continues as if it were
    // present, leaving a zero-width Missing error leaf.
    TokenType Conjured = IsAtom ? S.Label : firstUserToken(Expected);
    Diags.note(Stream.LT(1).Loc,
               "inserted missing " +
                   AG.grammar().vocabulary().name(Conjured) + " to recover");
    addMissingTokenChild(Parent, Conjured);
    ++Stats.TokensInserted;
    ++InsertionsSinceConsume;
    return ColdMatch::Inserted;
  }
  return ColdMatch::Unwind;
}

int32_t CompiledParser::predictAtState(int32_t Decision, int32_t StateId,
                                       NodeRef Parent) {
  int32_t Alt = adaptivePredict(Decision);
  if (Alt < 0) {
    // Panic recovery: drop tokens nobody can accept, then retry the
    // prediction once if the resync token is matchable right here.
    // A second failure unwinds to the rule-level sync in runRule.
    if (!canRecover() || !recoverAtDecision(StateId, Parent))
      return -1;
    Alt = adaptivePredict(Decision);
  }
  return Alt;
}

bool CompiledParser::checkPredicateAt(int32_t StateId) {
  const CState &S = CT.States[StateId];
  if (evalNamedPredicate(S.PredIndex))
    return true;
  if (!speculating()) {
    const AtnPredicate &Pred = AG.atn().predicate(S.PredIndex);
    Diags.error(Stream.LT(1).Loc,
                "rule " + AG.grammar().rule(S.RuleIndex).Name +
                    " failed predicate {" + Pred.Name + "}?");
  }
  return false;
}

NodeRef CompiledParser::addRuleChild(NodeRef Parent, int32_t RuleIndex) {
  NodeRef Node;
  if (Parent.Heap)
    Node.Heap = Parent.Heap->addChild(ParseTree::ruleNode(RuleIndex));
  else if (Parent.InArena)
    Node.InArena = Parent.InArena->addChild(
        ArenaParseTree::ruleNode(*Opts.TreeArena, RuleIndex));
  return Node;
}

void CompiledParser::addTokenChild(NodeRef Parent) {
  if (Parent.Heap)
    Parent.Heap->addChild(ParseTree::tokenNode(Stream.LT(1)));
  else if (Parent.InArena)
    Parent.InArena->addChild(
        ArenaParseTree::tokenNode(*Opts.TreeArena, Stream.index()));
}

void CompiledParser::addErrorTokenChild(NodeRef Parent) {
  if (Parent.Heap)
    Parent.Heap->addChild(
        ParseTree::errorNode(Stream.LT(1), ErrorNodeKind::Skipped));
  else if (Parent.InArena)
    Parent.InArena->addChild(
        ArenaParseTree::errorNode(*Opts.TreeArena, Stream.index()));
}

void CompiledParser::addMissingTokenChild(NodeRef Parent, TokenType Missing) {
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

void CompiledParser::addMarkerChild(NodeRef Parent) {
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

bool CompiledParser::deadlinePoll() {
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

bool CompiledParser::deadlineOkSteps(int64_t Steps) {
  if (DeadlineHit)
    return false;
  if (int64_t(DeadlinePollCountdown) > Steps) {
    DeadlinePollCountdown -= int32_t(Steps);
    return true;
  }
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

int32_t CompiledParser::adaptivePredict(int32_t Decision) {
  if (Native && Native[Decision]) {
    // Generated switch predictor: only emitted for predicate-free DFAs, so
    // the walk is deterministic and never speculates.
    if (!deadlineOk())
      return -1;
    const std::vector<Token> &Toks = Stream.tokens();
    int64_t Depth = 0;
    int32_t Alt = Native[Decision](Toks.data(), int64_t(Toks.size()),
                                   Stream.index(), Depth);
    if (!deadlineOkSteps(Depth))
      return -1;
    if (Opts.Hooks)
      Opts.Hooks->lookahead(Stream.index() + std::max<int64_t>(Depth, 1));
    if (Opts.CollectStats)
      Stats.Decisions[size_t(Decision)].record(std::max<int64_t>(Depth, 1),
                                               /*Backtracked=*/false, Alt);
    if (Alt < 0 && !speculating() && !DeadlineHit)
      reportNoViableAlt(Decision, Depth);
    return Alt;
  }

  const CDecision &D = CT.Decisions[Decision];
  const int32_t MetaBase = D.MetaBase;
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
    int32_t Accept = CT.DfaAccept[size_t(MetaBase) + size_t(S)];
    if (Accept > 0) {
      Record(Depth, Accept);
      return Accept;
    }
    TokenType T = Stream.LA(Depth + 1);
    int32_t Next = CT.dfaNext(D, S, T);
    if (Next == S && T == TokenEof)
      Next = -1; // EOF self-loops cannot make progress
    if (Next >= 0) {
      ++Depth;
      S = Next;
      continue;
    }
    // No terminal edge applies: try the predicate edges in alternative
    // order (ordered choice; lower alternatives take precedence).
    int32_t PredFirst = CT.DfaPredFirst[size_t(MetaBase) + size_t(S)];
    int32_t PredCount = CT.DfaPredCount[size_t(MetaBase) + size_t(S)];
    for (int32_t E = 0; E < PredCount; ++E) {
      const CPredEdge &PE = CT.PredEdges[size_t(PredFirst) + size_t(E)];
      int64_t SpecBefore = SpecMaxIndex;
      SpecMaxIndex = StartIndex + Depth;
      bool IsSyn =
          PE.Kind == int32_t(SemanticContext::Kind::SynPredRule) ||
          PE.Kind == int32_t(SemanticContext::Kind::SynPredAlt);
      bool Holds = evalSemanticContext(PE);
      int64_t Reach = SpecMaxIndex - StartIndex;
      SpecMaxIndex = std::max(SpecBefore, SpecMaxIndex);
      if (IsSyn) {
        Backtracked = true;
        Depth = std::max(Depth, Reach);
      }
      if (Holds) {
        Record(Depth, PE.Alt);
        return PE.Alt;
      }
    }
    Record(Depth, /*Alt=*/-1);
    if (!speculating() && !DeadlineHit)
      reportNoViableAlt(Decision, Depth);
    return -1;
  }
}

bool CompiledParser::evalSemanticContext(const CPredEdge &Pred) {
  switch (SemanticContext::Kind(Pred.Kind)) {
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

bool CompiledParser::evalNamedPredicate(int32_t PredIndex) {
  const AtnPredicate &P = AG.atn().predicate(PredIndex);
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

bool CompiledParser::evalSynPredRule(int32_t FragmentRule) {
  ++Stats.SynPredEvals;
  int64_t Mark = Stream.index();
  ++SpecDepth;
  bool Ok = runRule(FragmentRule, 0, NodeRef());
  --SpecDepth;
  Stream.seek(Mark);
  return Ok;
}

bool CompiledParser::evalSynPredAlt(int32_t Decision, int32_t Alt) {
  ++Stats.SynPredEvals;
  const CState &S = CT.States[CT.DecisionStates[Decision]];
  assert(Alt >= 1 && Alt <= S.NumAlts && "alternative out of range");
  assert(S.EndState >= 0 && "decision has no end state");
  int64_t Mark = Stream.index();
  ++SpecDepth;
  bool Ok = runStates(CT.AltTargets[size_t(S.FirstAltTarget) + size_t(Alt) - 1],
                      S.EndState, NodeRef());
  --SpecDepth;
  Stream.seek(Mark);
  return Ok;
}

void CompiledParser::runAction(int32_t ActionIndex) {
  // Actions mutate ambient state; conservatively poison even when the
  // action is skipped during speculation (it would run on re-execution).
  if (Opts.Hooks)
    Opts.Hooks->opaque();
  const AtnAction &A = AG.atn().action(ActionIndex);
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

void CompiledParser::reportMismatch(TokenType Expected) {
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

void CompiledParser::reportNoViableAlt(int32_t Decision,
                                       int64_t DepthReached) {
  if (Opts.Hooks)
    Opts.Hooks->opaque();
  ++Stats.SyntaxErrors;
  // Report at the token that killed the DFA walk, not at the decision start
  // (paper Section 4.4).
  const Token &T = Stream.LT(DepthReached + 1);
  const CState &S = CT.States[CT.DecisionStates[Decision]];
  std::string RuleName =
      S.RuleIndex >= 0 ? AG.grammar().rule(S.RuleIndex).Name : "<none>";
  Diags.error(T.Loc, "no viable alternative at input '" + std::string(T.Text) +
                         "' (rule " + RuleName + ")");
}

//===----------------------------------------------------------------------===//
// Recovery
//===----------------------------------------------------------------------===//

IntervalSet CompiledParser::viableAfter(int32_t State) const {
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

IntervalSet CompiledParser::recoverySet() const {
  const RecoverySets &RS = AG.recovery();
  IntervalSet R;
  for (int32_t F : FollowStack)
    R.addSet(RS.follow(F));
  // EOF always synchronizes; with an empty invocation stack it is the only
  // member, so a top-level sync drains the input.
  R.add(TokenEof);
  return R;
}

void CompiledParser::skipTokenAsError(NodeRef Parent) {
  addErrorTokenChild(Parent);
  Stream.consume();
  InsertionsSinceConsume = 0;
}

void CompiledParser::syncAfterRuleFailure(NodeRef Node) {
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

bool CompiledParser::recoverAtDecision(int32_t State, NodeRef Parent) {
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
