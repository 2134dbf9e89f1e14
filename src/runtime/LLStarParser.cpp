#include "runtime/LLStarParser.h"

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

LLStarParser::LLStarParser(const AnalyzedGrammar &AG, TokenStream &Stream,
                           SemanticEnv *Env, DiagnosticEngine &Diags)
    : LLStarParser(AG, Stream, Env, Diags, [&AG] {
        ParserOptions O;
        O.Memoize = AG.grammar().Options.Memoize;
        return O;
      }()) {}

LLStarParser::LLStarParser(const AnalyzedGrammar &AG, TokenStream &Stream,
                           SemanticEnv *Env, DiagnosticEngine &Diags,
                           ParserOptions Opts, NativeCode Native)
    : LLStarParser(AG, AG.tables().view(), Stream, Env, Diags, Opts,
                   Native.Predict, Native.Rules) {}

LLStarParser::LLStarParser(const AnalyzedGrammar &AG, const TablesView &Tables,
                           TokenStream &Stream, SemanticEnv *Env,
                           DiagnosticEngine &Diags, ParserOptions Opts,
                           const NativePredictFn *Native,
                           const NativeRuleFn *NativeRules)
    : AG(AG), CT(Tables), Stream(Stream), Env(Env), Diags(Diags), Opts(Opts),
      Native(Native), NativeRules(NativeRules) {
  assert(CT.Ops == AG.tables().view().Ops &&
         "LLStarParser walks its grammar's own tables");
  Stats.ensure(size_t(CT.NumDecisions));
  if (this->Opts.CollectStats)
    LL1Events.assign(size_t(CT.NumAltOps), 0);
  NoDeadline =
      this->Opts.Deadline == std::chrono::steady_clock::time_point::max();
  // Reuse hooks observe every prediction event, so generated bodies must
  // not shortcut prediction past the engine when one is installed.
  FastPredictOk =
      NoDeadline && !this->Opts.CollectStats && !this->Opts.Hooks;
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
  bool Ok = runBody(Rule, Root);
  if (!Ok && canRecover()) {
    // Top-level sync: the invocation stack is empty, so the recovery set is
    // {EOF} and this drains the remaining input as error leaves.
    syncAfterRuleFailure(Root);
    Ok = true;
  }
  LastParseOk = Ok && Diags.errorCount() == ErrorsBefore;
  flushLL1Events();
  return HeapRoot;
}

void LLStarParser::flushLL1Events() {
  if (!Opts.CollectStats)
    return;
  for (int32_t D = 0; D < CT.NumDecisions; ++D) {
    const CDecision &CD = CT.Decisions[D];
    int32_t NumAlts = CT.Ops[CD.PredictOp].Next;
    for (int32_t Alt = 1; Alt <= NumAlts; ++Alt) {
      int64_t &N = LL1Events[size_t(CD.AltBase) + size_t(Alt) - 1];
      if (N > 0)
        Stats.Decisions[size_t(D)].record(1, /*Backtracked=*/false, Alt, N);
      N = 0;
    }
  }
}

//===----------------------------------------------------------------------===//
// Core walk
//===----------------------------------------------------------------------===//

bool LLStarParser::runRule(int32_t RuleIndex, int32_t Precedence,
                           NodeRef Parent) {
  // Memoize speculative whole-rule parses (packrat memoization; only while
  // speculating, per paper Section 6.2).
  uint64_t Key = 0;
  bool UseMemo = speculating() && Opts.Memoize;
  if (UseMemo) {
    Key = memoKey(RuleIndex, Precedence, Stream.index());
    if (const int64_t *Stop = Memo.find(Key)) {
      ++Stats.MemoHits;
      if (*Stop < 0)
        return false;
      Stream.seek(*Stop);
      if (SpecMaxIndex < *Stop)
        SpecMaxIndex = *Stop;
      return true;
    }
    ++Stats.MemoMisses;
  }

  // Incremental reparse: splice a recorded subtree instead of running the
  // body when the subscriber vouches for it (see runtime/ReuseHooks.h).
  if (Opts.Hooks && !speculating() && Parent.Heap) {
    ReuseHooks::Splice Sp;
    if (Opts.Hooks->tryReuse(RuleIndex, Precedence, Stream.index(), Sp)) {
      Parent.Heap->addChild(std::move(Sp.Heap));
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

  bool Ok = runRuleBody(RuleIndex, Precedence, Node);

  if (Hooked)
    Opts.Hooks->exitRule(RuleIndex, Stream.index(), Node.Heap);

  if (UseMemo)
    Memo.set(Key, Ok ? Stream.index() : -1);
  return Ok;
}

bool LLStarParser::runOps(int32_t From, int32_t Until, NodeRef Parent) {
  int32_t Pc = From;
  // Guards against loop decisions that iterate without consuming input
  // (an epsilon-matching loop body). A rule body holds at most a few loop
  // decisions, so a linear-scan array stands in for a hash map.
  LoopMark MarksInline[4];
  size_t NumMarks = 0;
  std::vector<LoopMark> MarksSpill;

  const COp *Ops = CT.Ops;
  while (Pc != OpReturn) {
    if (!deadlineOk())
      return false;
    const COp &O = Ops[Pc];
    switch (O.code()) {
    case OpCode::Match:
    case OpCode::Set: {
      TokenType La = Stream.LA(1);
      bool Matches = O.code() == OpCode::Match
                         ? La == O.A
                         : La != TokenEof && CT.setContains(O.A, La);
      if (!Matches) {
        ColdMatch Act = coldMismatch(CT.OpStates[Pc], Parent);
        if (Act == ColdMatch::Unwind)
          return false; // unwind to the rule-level sync
        if (Act == ColdMatch::Inserted) {
          Pc = O.Next;
          break;
        }
        // DeleteToken dropped the spurious token; fall through to match
        // the one now at the front.
      }
      consumeMatched(Parent);
      Pc = O.Next;
      break;
    }
    case OpCode::Call: {
      // callRule, with runRule's common case (no memo, no reuse hooks)
      // inline.
      FollowStack.push_back(O.B);
      bool Ok;
      if (!speculating() && !Opts.Hooks)
        Ok = runRuleBody(O.A, O.aux(),
                         Parent ? addRuleChild(Parent, O.A) : NodeRef());
      else
        Ok = runRule(O.A, O.aux(), Parent);
      FollowStack.pop_back();
      if (!Ok)
        return false;
      Pc = O.Next;
      break;
    }
    case OpCode::Predict: {
      int32_t Alt = adaptivePredict(O.A);
      if (Alt < 0) {
        Alt = repredictAfterRecovery(O.A, CT.OpStates[Pc], Parent);
        if (Alt < 0)
          return false;
      }
      if (O.aux() /* loop decision */ && Alt != O.Next) {
        LoopMark *Found = nullptr;
        for (size_t I = 0; I < NumMarks && I < 4; ++I)
          if (MarksInline[I].Op == Pc)
            Found = &MarksInline[I];
        if (!Found)
          for (LoopMark &LM : MarksSpill)
            if (LM.Op == Pc)
              Found = &LM;
        if (!Found) {
          if (NumMarks < 4)
            MarksInline[NumMarks] = {Pc, Stream.index()};
          else
            MarksSpill.push_back({Pc, Stream.index()});
          ++NumMarks;
        } else if (Found->Index == Stream.index()) {
          Alt = O.Next; // no progress since last iteration: exit
        } else {
          Found->Index = Stream.index();
        }
      }
      Pc = CT.AltOps[size_t(O.B) + size_t(Alt) - 1];
      break;
    }
    case OpCode::Pred:
      if (!checkPredicateAt(CT.OpStates[Pc]))
        return false;
      Pc = O.Next;
      break;
    case OpCode::Action:
      runAction(O.A);
      Pc = O.Next;
      break;
    case OpCode::End:
      if (Pc == Until)
        return true;
      Pc = O.Next;
      break;
    }
  }
  return true;
}

LLStarParser::ColdMatch LLStarParser::coldMismatch(int32_t StateId,
                                                   NodeRef Parent) {
  if (speculating() || DeadlineHit)
    return ColdMatch::Unwind;
  // The flat tables carry neither the expected set as an IntervalSet nor
  // the unfused target — read both back from the source ATN. (The recovery
  // sets of a state and of the end of its epsilon chain are equal.)
  const AtnTransition &Tr = AG.atn().state(StateId).Transitions[0];
  bool IsAtom = Tr.Kind == AtnTransitionKind::Atom;
  reportMismatch(IsAtom ? Tr.Label : TokenInvalid);
  if (!canRecover())
    return ColdMatch::Unwind;
  IntervalSet Expected = IsAtom ? IntervalSet::of(Tr.Label) : Tr.Labels;
  RepairContext Ctx{Stream.LA(1), Stream.LA(2), Expected,
                    viableAfter(Tr.Target), InsertionsSinceConsume};
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
    TokenType Conjured = IsAtom ? Tr.Label : firstUserToken(Expected);
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

int32_t LLStarParser::repredictAfterRecovery(int32_t Decision,
                                             int32_t StateId, NodeRef Parent) {
  // Panic recovery: drop tokens nobody can accept, then retry the
  // prediction once if the resync token is matchable right here.
  // A second failure unwinds to the rule-level sync in runRule.
  if (!canRecover() || !recoverAtDecision(StateId, Parent))
    return -1;
  return adaptivePredict(Decision);
}

bool LLStarParser::checkPredicateAt(int32_t StateId) {
  const AtnState &S = AG.atn().state(StateId);
  int32_t PredIndex = S.Transitions[0].PredIndex;
  if (evalNamedPredicate(PredIndex))
    return true;
  if (!speculating()) {
    const AtnPredicate &Pred = AG.atn().predicate(PredIndex);
    Diags.error(Stream.LT(1).Loc,
                "rule " + AG.grammar().rule(S.RuleIndex).Name +
                    " failed predicate {" + Pred.Name + "}?");
  }
  return false;
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

bool LLStarParser::deadlinePoll() {
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

bool LLStarParser::deadlineOkSteps(int64_t Steps) {
  if (DeadlineHit)
    return false;
  if (int64_t(DeadlinePollCountdown) > Steps) {
    DeadlinePollCountdown -= int32_t(Steps);
    return true;
  }
  return deadlinePoll();
}

//===----------------------------------------------------------------------===//
// Prediction
//===----------------------------------------------------------------------===//

int32_t LLStarParser::predictSlow(int32_t Decision) {
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

bool LLStarParser::evalSemanticContext(const CPredEdge &Pred) {
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

bool LLStarParser::evalNamedPredicate(int32_t PredIndex) {
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
  const CDecision &D = CT.Decisions[Decision];
  const COp &Predict = CT.Ops[D.PredictOp];
  assert(Alt >= 1 && Alt <= Predict.Next && "alternative out of range");
  int64_t Mark = Stream.index();
  ++SpecDepth;
  bool Ok = runOps(CT.AltOps[size_t(Predict.B) + size_t(Alt) - 1], D.EndOp,
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
  const AtnState &S = AG.atn().state(CT.DecisionStates[Decision]);
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
