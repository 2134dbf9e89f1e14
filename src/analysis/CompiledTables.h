//===- analysis/CompiledTables.h - Dense parser dispatch tables -*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flat, cache-friendly table layout the LL(*) runtime walks. LL(*)
/// analysis produces pointer-rich structures (ATN states with transition
/// vectors, lookahead-DFA states with edge lists, IntervalSet labels);
/// \ref CompiledTables flattens them once, when analysis finishes, into
/// dense arrays:
///
///   - every rule body becomes a compact op stream (\ref COp, 16 bytes):
///     MATCH, SET, CALL, PREDICT, PRED and ACTION, with RETURN the jump
///     target \ref OpReturn rather than an op. Epsilon glue
///     (block starts and ends, loop plumbing, rule entries, rule-call
///     resume points, satisfied syntactic-predicate gates) is resolved when
///     the stream is built, so every op the walker executes does work. An
///     END sentinel op remains only at the end state of a decision whose
///     alternatives a syntactic predicate speculates (the walk of one
///     alternative stops there);
///   - per-decision lookahead DFAs become dense `state x token` next-state
///     tables (one int32 load per lookahead step instead of an edge scan);
///   - a decision whose DFA start state is not accepting also gets an
///     LL(1) row when any start-state edge lands on an accepting state:
///     one byte per token, the alternative that edge predicts (terminal
///     edges win over predicate edges, so that is the whole prediction),
///     or 0 to fall back to the DFA walk;
///   - Set-transition labels become token-indexed bitsets (one shift+mask
///     instead of an IntervalSet interval scan).
///
/// Ops keep the ATN state they were built from (\ref TablesView::OpStates)
/// so cold paths (mismatch reporting, recovery, predicate failures) can
/// consult the source ATN and the recovery sets.
///
/// Tokens are indexed as `type + 1`, mapping TokenEof (-1) to row 0 and
/// user types [1, NumTokens] to [2, NumTokens+1]; the row width is
/// NumTokens + 2.
///
/// Every \ref AnalyzedGrammar builds its own tables (\ref
/// AnalyzedGrammar::tables), and the one engine, \ref LLStarParser, walks
/// them through the non-owning \ref TablesView. A native module generated
/// by `llstar-emit` (see codegen/CompiledModuleEmitter.h) folds the op
/// streams into code and runs against the same view.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_ANALYSIS_COMPILEDTABLES_H
#define LLSTAR_ANALYSIS_COMPILEDTABLES_H

#include "lexer/Token.h"

#include <cstdint>
#include <vector>

namespace llstar {

class AnalyzedGrammar;

namespace compiled {

/// Op codes of the rule-body streams; see \ref COp for the operands.
/// RETURN is not an op but a jump target: \ref OpReturn.
enum class OpCode : uint8_t {
  Match,   ///< consume token A; continue at Next
  Set,     ///< consume a token in the bitset at word offset A; Next
  Call,    ///< invoke rule A at precedence aux(), pushing follow state B;
           ///< resume at Next
  Predict, ///< decision A, with Next alternatives: continue at
           ///< AltOps[B + alt - 1]; aux() is 1 for a loop decision, whose
           ///< exit alternative is the last (Next)
  Pred,    ///< semantic predicate A must hold; Next
  Action,  ///< run action A; Next
  End,     ///< decision end sentinel: a no-op on the way to Next, except
           ///< as the stop of a speculated alternative
};

/// The jump target that completes the rule (its stop state): a walk that
/// reaches it returns without dispatching another op.
constexpr int32_t OpReturn = -1;

/// One op of a rule-body stream. The low byte of Head is the \ref OpCode,
/// the upper 24 bits a signed auxiliary operand.
struct COp {
  int32_t Head = 0;
  int32_t A = 0;
  int32_t B = 0;
  int32_t Next = -1;

  OpCode code() const { return OpCode(uint8_t(Head)); }
  int32_t aux() const { return Head >> 8; }
};

/// Per-rule entry point and flags.
struct CRule {
  int32_t EntryOp = OpReturn;
  /// The rule's ops occupy [FirstOp, EndOp).
  int32_t FirstOp = 0;
  int32_t EndOp = 0;
  /// Precedence-rewritten rule: its invocations push their precedence
  /// argument for the precedence predicates in its body.
  int32_t IsPrecedenceRule = 0;
};

/// One flattened lookahead-DFA predicate edge, mirroring \ref DfaPredEdge
/// with the SemanticContext inlined (Kind is SemanticContext::Kind as int).
struct CPredEdge {
  int32_t Kind = 0;
  int32_t A = -1;
  int32_t B = -1;
  int32_t Alt = -1;
};

/// Table offsets of one decision.
struct CDecision {
  /// Offset into TablesView::DfaTrans; the decision's dense lookahead DFA
  /// occupies NumStates * rowWidth() consecutive entries (state-major).
  int32_t TransBase = 0;
  /// Offset into the per-state metadata arrays (DfaAccept, DfaPredFirst,
  /// DfaPredCount).
  int32_t MetaBase = 0;
  /// Offset of the decision's LL(1) row in TablesView::LL1Rows, or -1.
  int32_t LL1Row = -1;
  /// The decision's alternative jump table in TablesView::AltOps (the
  /// Predict op's B).
  int32_t AltBase = 0;
  int32_t NumStates = 0;
  /// The decision's Predict op.
  int32_t PredictOp = -1;
  /// The End op where a speculated alternative of this decision stops, or
  /// OpReturn when it stops at the rule's end or nothing speculates it.
  int32_t EndOp = OpReturn;
};

/// Non-owning view over a complete table set. The engine and the generated
/// modules both speak this; all pointers must outlive the view.
struct TablesView {
  /// Largest token type of the vocabulary; token row width is NumTokens+2.
  int32_t NumTokens = 0;
  int32_t NumOps = 0;
  int32_t NumRules = 0;
  int32_t NumDecisions = 0;
  /// Entries of AltOps: one per alternative of every decision.
  int32_t NumAltOps = 0;
  /// Words per Set-transition bitset: (rowWidth() + 63) / 64.
  int32_t SetWordsPerSet = 0;

  /// Rule-body op streams, one contiguous range per rule.
  const COp *Ops = nullptr;
  /// Per op: the ATN state it was built from (cold paths only).
  const int32_t *OpStates = nullptr;
  const CRule *Rules = nullptr;
  /// Pool of Predict jump targets (op indices; see COp::B).
  const int32_t *AltOps = nullptr;
  /// Per decision: ATN decision-state id.
  const int32_t *DecisionStates = nullptr;
  const CDecision *Decisions = nullptr;
  /// Dense lookahead-DFA transitions: next state or -1.
  const int32_t *DfaTrans = nullptr;
  /// Per DFA state: predicted 1-based alternative, or -1.
  const int32_t *DfaAccept = nullptr;
  /// Per DFA state: offset/count into PredEdges.
  const int32_t *DfaPredFirst = nullptr;
  const int32_t *DfaPredCount = nullptr;
  const CPredEdge *PredEdges = nullptr;
  /// LL(1) rows: token column -> predicted alternative, 0 for none.
  const uint8_t *LL1Rows = nullptr;
  /// Bitset pool for Set ops, indexed by COp::A.
  const uint64_t *SetWords = nullptr;

  int32_t rowWidth() const { return NumTokens + 2; }

  /// Token type -> table column. TokenEof (-1) maps to 0; anything outside
  /// the vocabulary clamps to the (always-empty) TokenInvalid column.
  int32_t tokenIndex(TokenType T) const {
    int32_t I = T + 1;
    return I >= 0 && I < rowWidth() ? I : 1;
  }

  /// Membership test for the Set bitset at word offset \p SetIndex.
  bool setContains(int32_t SetIndex, TokenType T) const {
    uint32_t I = uint32_t(tokenIndex(T));
    return (SetWords[size_t(SetIndex) + (I >> 6)] >> (I & 63)) & 1;
  }

  /// Dense next-state lookup for \p DfaState of \p Decision on \p T.
  int32_t dfaNext(const CDecision &D, int32_t DfaState, TokenType T) const {
    return DfaTrans[size_t(D.TransBase) +
                    size_t(DfaState) * size_t(rowWidth()) +
                    size_t(tokenIndex(T))];
  }

  /// The LL(1) prediction of \p D on \p T, or 0 when \p D has no row or
  /// the row has no entry for \p T.
  int32_t ll1Alt(const CDecision &D, TokenType T) const {
    return D.LL1Row < 0 ? 0
                        : LL1Rows[size_t(D.LL1Row) + size_t(tokenIndex(T))];
  }
};

/// Owning storage for one grammar's flattened tables.
class CompiledTables {
public:
  /// Flattens \p AG's ATN and lookahead DFAs. The result references
  /// nothing in \p AG; the grammar object is still needed alongside for
  /// names, vocabulary, predicates, actions, and recovery sets (cold
  /// paths). AnalyzedGrammar calls this once when analysis finishes.
  static CompiledTables build(const AnalyzedGrammar &AG);

  const TablesView &view() const { return View; }

  /// Pool sizes the view does not carry (for comparing two table sets).
  size_t numAltOps() const { return AltOps.size(); }
  size_t numDfaTransEntries() const { return DfaTrans.size(); }
  size_t numDfaStatesTotal() const { return DfaAccept.size(); }
  size_t numPredEdges() const { return PredEdges.size(); }
  size_t numLL1Bytes() const { return LL1Rows.size(); }
  size_t numSetWords() const { return SetWords.size(); }

  CompiledTables(CompiledTables &&O) noexcept { moveFrom(std::move(O)); }
  CompiledTables &operator=(CompiledTables &&O) noexcept {
    moveFrom(std::move(O));
    return *this;
  }
  CompiledTables(const CompiledTables &) = delete;
  CompiledTables &operator=(const CompiledTables &) = delete;

private:
  CompiledTables() = default;
  void moveFrom(CompiledTables &&O);
  void refreshView();

  std::vector<COp> Ops;
  std::vector<int32_t> OpStates;
  std::vector<CRule> Rules;
  std::vector<int32_t> AltOps;
  std::vector<int32_t> DecisionStates;
  std::vector<CDecision> Decisions;
  std::vector<int32_t> DfaTrans, DfaAccept, DfaPredFirst, DfaPredCount;
  std::vector<CPredEdge> PredEdges;
  std::vector<uint8_t> LL1Rows;
  std::vector<uint64_t> SetWords;
  TablesView View;
};

} // namespace compiled
} // namespace llstar

#endif // LLSTAR_ANALYSIS_COMPILEDTABLES_H
