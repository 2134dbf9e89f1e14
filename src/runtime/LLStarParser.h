//===- runtime/LLStarParser.h - The LL(*) parser ----------------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The LL(*) parser of paper Section 4: a recursive-descent walk of the ATN
/// whose decisions are driven by the statically constructed lookahead DFAs.
///
/// Per decision event the parser walks the DFA over the remaining input
/// without consuming; terminal edges are preferred, predicate edges are
/// tried in alternative order when no terminal edge applies. Syntactic
/// predicates launch speculative sub-parses with mark/rewind; mutators are
/// deactivated while speculating unless declared `{{...}}` (Section 4.3);
/// speculative sub-parses are memoized packrat-style, bounding the cost of
/// nested backtracking (Section 6.2). Prediction errors are reported at the
/// deepest token the DFA reached (Section 4.4).
///
/// There is one engine with three dispatch layers, each optional above the
/// first:
///
///   1. the table walk: the ATN and DFAs flattened into the dense
///      \ref compiled::TablesView every AnalyzedGrammar builds when analysis
///      finishes. Rule bodies run as op streams with the epsilon glue
///      already resolved (one 16-byte op per match, call, decision,
///      predicate or action); LL(1) decisions predict with one byte-row
///      load, the rest walk their dense DFA (one table load per lookahead
///      token); Set matches are bitset tests;
///   2. generated native predictors (\ref NativePredictFn), one per
///      predicate-free decision, replacing that decision's DFA walk;
///   3. generated native rule bodies (\ref NativeRuleFn), replacing the
///      state walk of a rule with goto-threaded code that calls back into
///      this class's public primitives for everything observable.
///
/// Layers 2 and 3 come from a native module that the build generates with
/// `llstar-emit` (see compiled/CompiledRegistry.h), served only when its
/// payload hash matches the grammar. Trees, diagnostics, recovery and
/// ParserStats do not depend on which layers run; CompiledConformanceTests
/// holds the shipped modules to that.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_RUNTIME_LLSTARPARSER_H
#define LLSTAR_RUNTIME_LLSTARPARSER_H

#include "analysis/AnalyzedGrammar.h"
#include "analysis/CompiledTables.h"
#include "lexer/TokenStream.h"
#include "recover/ErrorStrategy.h"
#include "runtime/Arena.h"
#include "runtime/ArenaParseTree.h"
#include "runtime/ParseTree.h"
#include "runtime/ParserStats.h"
#include "runtime/ReuseHooks.h"
#include "runtime/SemanticEnv.h"
#include "support/Diagnostics.h"

#include <chrono>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

namespace llstar {

/// Runtime knobs for one parser instance.
struct ParserOptions {
  /// Memoize speculative sub-parses. Defaults to the grammar's `memoize`
  /// option; flip to measure the packrat ablation of Section 6.2.
  bool Memoize = true;
  /// Build a concrete parse tree during non-speculative parsing.
  bool BuildTree = true;
  /// Collect per-decision statistics (Tables 3-4).
  bool CollectStats = true;
  /// Recover from syntax errors instead of failing fast: single-token
  /// deletion and insertion at mismatched tokens (consulting \ref Strategy)
  /// and follow-set synchronization after unrecoverable failures. Recovered
  /// regions appear in the parse tree as error leaves (\ref ErrorNodeKind);
  /// \ref LLStarParser::ok still reports false when any error was reported.
  bool Recover = true;
  /// Repair policy consulted at mismatched tokens. Null uses the built-in
  /// default (\ref ErrorStrategy base behavior). Not owned; must be safe
  /// for concurrent use if the parser instances sharing it are.
  ErrorStrategy *Strategy = nullptr;
  /// When non-null, parse trees are built as \ref ArenaParseTree nodes
  /// carved from this arena instead of heap ParseTree nodes. parse() then
  /// returns null; fetch the root with \ref LLStarParser::arenaTree. The
  /// arena and the token stream must outlive any use of the tree.
  Arena *TreeArena = nullptr;
  /// Absolute deadline for the parse; max() means none. Checked at decision
  /// entries and periodically along the state walk. On expiry the parse
  /// aborts with a "parse deadline exceeded" error diagnostic.
  std::chrono::steady_clock::time_point Deadline =
      std::chrono::steady_clock::time_point::max();
  /// Incremental-reparse instrumentation (see runtime/ReuseHooks.h). Not
  /// owned; must outlive the parse.
  ReuseHooks *Hooks = nullptr;
};

class LLStarParser;

/// A parse-tree attachment point, valid for whichever tree representation
/// the parse was configured with (heap nodes, arena nodes, or neither when
/// tree building is off or the parser is speculating).
struct NodeRef {
  ParseTree *Heap = nullptr;
  ArenaParseTree *InArena = nullptr;
  explicit operator bool() const { return Heap || InArena; }
};

/// Signature of a generated native predictor for one decision: walks the
/// decision's lookahead DFA over \p Toks starting at \p Pos (LA(1) ==
/// Toks[Pos], clamped to the trailing EOF) and returns the predicted
/// 1-based alternative, or -1 when the walk dies. \p DepthOut receives the
/// number of terminal edges taken (the lookahead depth used, also the
/// depth reached on failure). Generated only for decisions whose DFA has
/// no predicate edges, so the walk is deterministic.
using NativePredictFn = int32_t (*)(const Token *Toks, int64_t NumToks,
                                    int64_t Pos, int64_t &DepthOut);

/// Signature of a generated rule body: runs the rule's ATN submachine from
/// its start state to its stop state against \p P, attaching children to
/// \p Parent, with every state id, token label, and jump target folded to a
/// constant. Generated bodies call back into the parser's public primitives
/// (consumeMatched, coldMismatch, predictAtState, callRule, ...) for
/// everything observable, so trees, stats, diagnostics, and recovery are
/// those of the table walk. Returns false to unwind to the caller's
/// rule-level sync.
using NativeRuleFn = bool (*)(LLStarParser &P, NodeRef Parent);

/// The generated code of a hash-matched native module: one predictor per
/// decision and one body per rule. Either array may be null, and so may any
/// entry in it; a null falls back to the table walk.
struct NativeCode {
  const NativePredictFn *Predict = nullptr;
  const NativeRuleFn *Rules = nullptr;
};

/// The LL(*) parser for one analyzed grammar. Construct one per parse job;
/// the grammar (and any tables view or native module passed in) must
/// outlive the parser.
class LLStarParser {
public:
  /// \p Env may be null when the grammar has no predicates or actions.
  /// Memoization follows the grammar's `memoize` option.
  LLStarParser(const AnalyzedGrammar &AG, TokenStream &Stream,
               SemanticEnv *Env, DiagnosticEngine &Diags);
  /// Walks \p AG's own tables, accelerated by \p Native when given.
  LLStarParser(const AnalyzedGrammar &AG, TokenStream &Stream,
               SemanticEnv *Env, DiagnosticEngine &Diags, ParserOptions Opts,
               NativeCode Native = {});
  /// The same parser spelled with an explicit view, for callers that pass
  /// \ref compiled::CompiledResolution's fields one by one. \p Tables must
  /// be `AG.tables().view()`; \p Native and \p NativeRules are the two
  /// halves of \ref NativeCode.
  LLStarParser(const AnalyzedGrammar &AG, const compiled::TablesView &Tables,
               TokenStream &Stream, SemanticEnv *Env, DiagnosticEngine &Diags,
               ParserOptions Opts, const NativePredictFn *Native = nullptr,
               const NativeRuleFn *NativeRules = nullptr);

  /// Parses starting at \p RuleName (or the grammar's first rule when
  /// empty). Returns the (possibly partial) parse tree; syntax errors are
  /// reported to the diagnostics engine — check \c Diags.hasErrors() or
  /// \ref ok(). In arena mode (ParserOptions::TreeArena) the return value
  /// is null and the root is available via \ref arenaTree.
  std::unique_ptr<ParseTree> parse(const std::string &RuleName = "");

  /// True if the last parse() completed without syntax errors.
  bool ok() const { return LastParseOk; }

  /// Root of the last arena-mode parse (null in heap mode). Valid until
  /// the arena passed in ParserOptions::TreeArena is reset.
  const ArenaParseTree *arenaTree() const { return ArenaRoot; }

  /// True if the last parse() aborted because its deadline expired.
  bool deadlineExpired() const { return DeadlineHit; }

  const ParserStats &stats() const { return Stats; }
  ParserStats &stats() { return Stats; }

  //===--------------------------------------------------------------------===//
  // Generated-code interface
  //
  // Everything a generated rule body (NativeRuleFn) needs. runOps is
  // implemented on the same primitives, so both dispatch styles share one
  // source of truth for all observable behavior (trees, stats, diagnostics,
  // recovery). Hot members are inline; cold paths stay out of line.
  //===--------------------------------------------------------------------===//

  /// Outcome of the cold mismatch path (see \ref coldMismatch).
  enum class ColdMatch {
    Unwind,   ///< no repair: return false to the rule-level sync
    MatchNow, ///< a token was deleted; match the token now at the front
    Inserted  ///< the expected token was conjured; skip the match
  };

  /// The cold path behind a failed Atom/Set match at \p StateId: reports
  /// the mismatch and asks the repair strategy for a single-token fix.
  ColdMatch coldMismatch(int32_t StateId, NodeRef Parent);

  /// The hot path after a successful Atom/Set lookahead test: records the
  /// tree child and stats, then consumes the token.
  void consumeMatched(NodeRef Parent) {
    if (Parent && !speculating())
      addTokenChild(Parent);
    if (speculating() && SpecMaxIndex < Stream.index() + 1)
      SpecMaxIndex = Stream.index() + 1;
    Stream.consume();
    ++Stats.TokensConsumed;
    InsertionsSinceConsume = 0;
  }

  /// Predicts at decision \p Decision (ATN state \p StateId), running the
  /// panic-mode resync + one retry on a dead prediction when recovery is
  /// on. Returns the 1-based alternative, or -1 to unwind.
  int32_t predictAtState(int32_t Decision, int32_t StateId, NodeRef Parent) {
    int32_t Alt = adaptivePredict(Decision);
    return Alt < 0 ? repredictAfterRecovery(Decision, StateId, Parent) : Alt;
  }

  /// Invokes rule \p Callee with \p Prec, keeping \p FollowState on the
  /// recovery follow stack for the duration of the call.
  bool callRule(int32_t Callee, int32_t Prec, int32_t FollowState,
                NodeRef Parent) {
    FollowStack.push_back(FollowState);
    bool Ok = runRule(Callee, Prec, Parent);
    FollowStack.pop_back();
    return Ok;
  }

  /// Evaluates the SemPred transition at \p StateId, reporting the failure
  /// outside speculation.
  bool checkPredicateAt(int32_t StateId);

  void runAction(int32_t ActionIndex);

  /// Periodic deadline poll; returns false (once per parse reporting the
  /// error) after ParserOptions::Deadline passes.
  bool deadlineOk() {
    if (NoDeadline)
      return true; // no deadline configured: the poll can never fail
    if (DeadlineHit)
      return false;
    if (--DeadlinePollCountdown > 0)
      return true;
    return deadlinePoll();
  }

  /// True when a generated body may predict through a direct (inlined)
  /// call to its own predictor and skip the engine's per-decision
  /// bookkeeping: no deadline to poll against and no stats to record, so
  /// the fast path is observably identical to \ref predictAtState on any
  /// successful prediction. Failed predictions must still go through
  /// \ref predictAtState for reporting and recovery.
  bool fastPredict() const { return FastPredictOk; }

  TokenStream &stream() { return Stream; }

  /// The tables being walked; generated bodies test Set transitions
  /// against its bitsets.
  const compiled::TablesView &tables() const { return CT; }

private:
  /// Epsilon-loop watermark entry (see runOps); rule bodies hold at most
  /// a handful of loop decisions, so linear scan beats hashing.
  struct LoopMark {
    int32_t Op;
    int64_t Index;
  };

  // Core walk ---------------------------------------------------------------

  /// Parses one rule invocation. \p Precedence is the argument for
  /// precedence-rewritten rules (0 = unconstrained). Returns success.
  bool runRule(int32_t RuleIndex, int32_t Precedence, NodeRef Parent);

  /// Runs ops from \p From until the walk reaches compiled::OpReturn (the
  /// rule is complete) or the End op \p Until (the end of a speculated
  /// alternative; OpReturn for none).
  bool runOps(int32_t From, int32_t Until, NodeRef Parent);

  /// Runs rule \p RuleIndex's body: the generated native body when one
  /// exists, its op stream otherwise.
  bool runBody(int32_t RuleIndex, NodeRef Node) {
    if (NativeRules && NativeRules[RuleIndex])
      return NativeRules[RuleIndex](*this, Node);
    return runOps(CT.Rules[RuleIndex].EntryOp, compiled::OpReturn, Node);
  }

  /// The part of \ref runRule between entering and leaving the rule: the
  /// body under its precedence argument, then the rule-level sync when
  /// the body failed and recovery is on.
  bool runRuleBody(int32_t RuleIndex, int32_t Precedence, NodeRef Node) {
    bool IsPrecedenceRule = CT.Rules[RuleIndex].IsPrecedenceRule;
    if (IsPrecedenceRule)
      PrecStack.push_back(Precedence);
    bool Ok = runBody(RuleIndex, Node);
    if (IsPrecedenceRule)
      PrecStack.pop_back();
    if (!Ok && canRecover()) {
      // Sync-and-return: pretend the rule completed, resynchronizing the
      // input to a token some caller can match. The error was already
      // reported; the skipped region survives as error leaves under Node.
      syncAfterRuleFailure(Node);
      Ok = true;
    }
    return Ok;
  }

  /// Appends a rule node / the upcoming token to \p Parent in whichever
  /// allocation mode is active.
  NodeRef addRuleChild(NodeRef Parent, int32_t RuleIndex) {
    NodeRef Node;
    if (Parent.InArena)
      Node.InArena = Parent.InArena->addChild(
          ArenaParseTree::ruleNode(*Opts.TreeArena, RuleIndex));
    else if (Parent.Heap)
      Node.Heap = Parent.Heap->addChild(ParseTree::ruleNode(RuleIndex));
    return Node;
  }
  void addTokenChild(NodeRef Parent) {
    if (Parent.InArena)
      Parent.InArena->addChild(
          ArenaParseTree::tokenNode(*Opts.TreeArena, Stream.index()));
    else if (Parent.Heap)
      Parent.Heap->addChild(ParseTree::tokenNode(Stream.LT(1)));
  }
  /// Error-leaf variants: the upcoming token as a Skipped leaf, a conjured
  /// \p Missing token, or a zero-width marker.
  void addErrorTokenChild(NodeRef Parent);
  void addMissingTokenChild(NodeRef Parent, TokenType Missing);
  void addMarkerChild(NodeRef Parent);

  /// Adds the LL(1) row hits counted since the last call to \ref Stats as
  /// `record(1, false, alt)` events, and clears the counts.
  void flushLL1Events();

  /// Slow tail of \ref deadlineOk: the countdown expired, check the clock.
  bool deadlinePoll();
  /// Bulk-accounts \p Steps lookahead steps against the deadline poll
  /// countdown after a native predictor ran (the table walk polls once per
  /// step; native predictors poll in one batch).
  bool deadlineOkSteps(int64_t Steps);

  /// One prediction event at \p Decision; returns the 1-based alternative
  /// or -1 on a no-viable-alternative error. An LL(1) row hit is recorded
  /// exactly as the DFA walk records a depth-1 prediction: the same two
  /// deadline polls (start state, accepting state), lookahead extent and
  /// stats event (counted in \ref LL1Events until the parse ends).
  [[gnu::always_inline]] int32_t adaptivePredict(int32_t Decision) {
    const compiled::CDecision &D = CT.Decisions[Decision];
    int32_t Alt = CT.ll1Alt(D, Stream.LA(1));
    if (Alt == 0)
      return predictSlow(Decision);
    if (!NoDeadline && (!deadlineOk() || !deadlineOk()))
      return -1;
    if (Opts.Hooks)
      Opts.Hooks->lookahead(Stream.index() + 1);
    if (Opts.CollectStats)
      ++LL1Events[size_t(D.AltBase) + size_t(Alt) - 1];
    return Alt;
  }
  /// The rest of \ref adaptivePredict: the native predictor when one
  /// exists, the dense DFA walk otherwise.
  int32_t predictSlow(int32_t Decision);
  /// Cold tail of \ref predictAtState after a dead prediction.
  int32_t repredictAfterRecovery(int32_t Decision, int32_t StateId,
                                 NodeRef Parent);

  // Predicates and speculation ----------------------------------------------

  bool evalSemanticContext(const compiled::CPredEdge &Pred);
  bool evalNamedPredicate(int32_t PredIndex);
  bool evalSynPredRule(int32_t FragmentRule);
  bool evalSynPredAlt(int32_t Decision, int32_t Alt);

  bool speculating() const { return SpecDepth > 0; }

  // Error handling and recovery ---------------------------------------------

  void reportMismatch(TokenType Expected);
  void reportNoViableAlt(int32_t Decision, int64_t DepthReached);

  /// Recovery is active only for real (non-speculative) parsing.
  bool canRecover() const {
    return Opts.Recover && !speculating() && !DeadlineHit;
  }
  ErrorStrategy &strategy() {
    return Opts.Strategy ? *Opts.Strategy : DefaultStrategy;
  }

  /// Terminals that can follow a single conjured token at \p State: the
  /// static follow set of \p State, chained through the dynamic invocation
  /// stack while rule ends are reachable (plus EOF if the whole stack is).
  IntervalSet viableAfter(int32_t State) const;
  /// The panic-mode synchronization set: the union of the follow sets at
  /// every return site on the dynamic invocation stack, plus EOF.
  IntervalSet recoverySet() const;

  /// Consumes the offending token as a Skipped error leaf.
  void skipTokenAsError(NodeRef Parent);
  /// Sync-and-return after a failed rule body: consumes to \ref recoverySet
  /// as error leaves under \p Node (a zero-width marker when nothing is
  /// consumed), with a force-consume of one token when no progress was made
  /// since the previous sync (termination guard).
  void syncAfterRuleFailure(NodeRef Node);
  /// Panic recovery at a failed prediction: consumes tokens that neither
  /// the decision nor the invocation stack can accept. Returns true when
  /// the decision is worth retrying (progress was made and the next token
  /// is matchable here).
  bool recoverAtDecision(int32_t State, NodeRef Parent);

  // Memoization (speculative rule parses only) -------------------------------

  /// Open-addressing map from \ref memoKey to a stop index: one
  /// allocation per doubling instead of one per entry.
  class MemoTable {
  public:
    const int64_t *find(uint64_t Key) const {
      if (Slots.empty())
        return nullptr;
      for (size_t I = slotOf(Key);; I = (I + 1) & Mask) {
        const Slot &S = Slots[I];
        if (S.Value == Empty)
          return nullptr;
        if (S.Key == Key)
          return &S.Value;
      }
    }
    void set(uint64_t Key, int64_t Value) {
      if ((Count + 1) * 2 > Slots.size())
        grow();
      for (size_t I = slotOf(Key);; I = (I + 1) & Mask) {
        Slot &S = Slots[I];
        if (S.Value == Empty) {
          S = {Key, Value};
          ++Count;
          return;
        }
        if (S.Key == Key) {
          S.Value = Value;
          return;
        }
      }
    }
    void clear() {
      Slots.clear();
      Count = 0;
      Mask = 0;
    }

  private:
    struct Slot {
      uint64_t Key;
      int64_t Value;
    };
    /// Marks a free slot; stop indices are >= -1.
    static constexpr int64_t Empty = INT64_MIN;

    size_t slotOf(uint64_t Key) const {
      uint64_t H = Key * 0x9E3779B97F4A7C15ull;
      return size_t(H ^ (H >> 32)) & Mask;
    }
    void grow() {
      std::vector<Slot> Old = std::move(Slots);
      Slots.assign(Old.empty() ? 64 : Old.size() * 2, Slot{0, Empty});
      Mask = Slots.size() - 1;
      Count = 0;
      for (const Slot &S : Old)
        if (S.Value != Empty)
          set(S.Key, S.Value);
    }

    std::vector<Slot> Slots;
    size_t Count = 0;
    size_t Mask = 0;
  };

  /// Packed memo key for (rule, precedence, start index).
  static uint64_t memoKey(int32_t Rule, int32_t Precedence, int64_t Start) {
    return (uint64_t(uint32_t(Rule)) << 40) ^
           (uint64_t(uint32_t(Precedence)) << 56) ^ uint64_t(Start);
  }

  const AnalyzedGrammar &AG;
  const compiled::TablesView CT;
  TokenStream &Stream;
  SemanticEnv *Env;
  DiagnosticEngine &Diags;
  ParserOptions Opts;
  ParserStats Stats;
  /// Per alternative of every decision (TablesView::AltOps order): LL(1)
  /// row hits not yet added to Stats. One increment per hit instead of a
  /// DecisionStats update; parse() flushes them before returning.
  std::vector<int64_t> LL1Events;
  const NativePredictFn *Native;
  const NativeRuleFn *NativeRules;

  /// Built-in repair policy used when ParserOptions::Strategy is null.
  ErrorStrategy DefaultStrategy;
  /// Follow states of the active rule invocations (innermost last); the
  /// dynamic counterpart of the paper's rule-invocation stack, consulted by
  /// \ref viableAfter and \ref recoverySet.
  std::vector<int32_t> FollowStack;
  /// Stream index of the previous sync-and-return; failing again there
  /// forces one token of progress.
  int64_t LastErrorIndex = -1;
  /// Conjured tokens since the last real consume; caps runaway insertion.
  int32_t InsertionsSinceConsume = 0;

  int32_t SpecDepth = 0;
  /// Highest stream index touched during the current speculation cascade;
  /// feeds the "backtracking lookahead depth" statistic.
  int64_t SpecMaxIndex = 0;
  /// Precedence arguments of active precedence-rule invocations.
  std::vector<int32_t> PrecStack;
  /// memoKey -> stop index (or -1 for remembered failure).
  MemoTable Memo;
  /// Predicate/action names already reported as unbound (warn once).
  std::unordered_set<std::string> ReportedUnbound;
  bool LastParseOk = false;
  ArenaParseTree *ArenaRoot = nullptr;
  bool NoDeadline = false;
  bool FastPredictOk = false;
  bool DeadlineHit = false;
  /// Countdown between clock reads so deadline polling stays off the
  /// per-state fast path.
  int32_t DeadlinePollCountdown = DeadlinePollInterval;
  static constexpr int32_t DeadlinePollInterval = 256;
};

} // namespace llstar

#endif // LLSTAR_RUNTIME_LLSTARPARSER_H
