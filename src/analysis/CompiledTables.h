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
///   - per-decision lookahead DFAs become dense `state x token` next-state
///     tables (one int32 load per lookahead step instead of an edge scan),
///   - Set-transition labels become token-indexed bitsets (one shift+mask
///     instead of an IntervalSet interval scan),
///   - the ATN becomes one flat \ref CState record per state with every
///     transition field inlined (no per-state heap vectors).
///
/// Tokens are indexed as `type + 1`, mapping TokenEof (-1) to row 0 and
/// user types [1, NumTokens] to [2, NumTokens+1]; the row width is
/// NumTokens + 2.
///
/// Every \ref AnalyzedGrammar builds its own tables (\ref
/// AnalyzedGrammar::tables), and the one engine, \ref LLStarParser, walks
/// them through the non-owning \ref TablesView. A native module generated
/// by `llstar compile --emit-cpp` (see codegen/CompiledModuleEmitter.h)
/// folds their state ids and labels into code and runs against the same
/// view.
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

/// One flattened ATN state: the \ref AtnState fields plus its single
/// non-decision transition (or its decision metadata) inlined.
struct CState {
  /// AtnStateKind as int (avoid enum-class header coupling in generated
  /// data); see atn/ATN.h.
  int32_t Kind = 0;
  /// AtnTransitionKind of the single outgoing transition, or -1 for
  /// decision states and rule-stop states.
  int32_t TransKind = -1;
  int32_t RuleIndex = -1;
  /// Decision number, or -1.
  int32_t Decision = -1;
  /// Where a speculated alternative ends (decision states only).
  int32_t EndState = -1;
  /// Single-transition target.
  int32_t Target = -1;
  /// Atom transitions: the token type to match.
  int32_t Label = 0;
  /// Set transitions: word offset of this set's bitset in TablesView::
  /// SetWords, or -1.
  int32_t SetIndex = -1;
  /// Rule transitions: invoked rule / follow state / precedence argument.
  int32_t CalleeRule = -1;
  int32_t FollowState = -1;
  int32_t Precedence = 0;
  /// SemPred / Action transitions.
  int32_t PredIndex = -1;
  int32_t ActionIndex = -1;
  /// Decision states: offset into TablesView::AltTargets and the number of
  /// alternatives (loop decisions: the exit alternative is NumAlts).
  int32_t FirstAltTarget = -1;
  int32_t NumAlts = 0;
};

/// One flattened lookahead-DFA predicate edge, mirroring \ref DfaPredEdge
/// with the SemanticContext inlined (Kind is SemanticContext::Kind as int).
struct CPredEdge {
  int32_t Kind = 0;
  int32_t A = -1;
  int32_t B = -1;
  int32_t Alt = -1;
};

/// Table offsets of one decision's dense lookahead DFA.
struct CDecision {
  int32_t NumStates = 0;
  /// Offset into TablesView::DfaTrans; the decision occupies
  /// NumStates * rowWidth() consecutive entries (state-major).
  int32_t TransBase = 0;
  /// Offset into the per-state metadata arrays (DfaAccept, DfaPredFirst,
  /// DfaPredCount).
  int32_t MetaBase = 0;
};

/// Non-owning view over a complete table set. The engine and the generated
/// modules both speak this; all pointers must outlive the view.
struct TablesView {
  /// Largest token type of the vocabulary; token row width is NumTokens+2.
  int32_t NumTokens = 0;
  int32_t NumStates = 0;
  int32_t NumRules = 0;
  int32_t NumDecisions = 0;
  /// Words per Set-transition bitset: (rowWidth() + 63) / 64.
  int32_t SetWordsPerSet = 0;

  const CState *States = nullptr;
  const int32_t *RuleStarts = nullptr; ///< per rule: start state
  const int32_t *RuleStops = nullptr;  ///< per rule: stop state
  /// Pool of decision-alternative targets (see CState::FirstAltTarget).
  const int32_t *AltTargets = nullptr;
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
  /// Bitset pool for Set transitions, indexed by CState::SetIndex.
  const uint64_t *SetWords = nullptr;

  int32_t rowWidth() const { return NumTokens + 2; }

  /// Token type -> table column. TokenEof (-1) maps to 0; anything outside
  /// the vocabulary clamps to the (always-empty) TokenInvalid column.
  int32_t tokenIndex(TokenType T) const {
    int32_t I = T + 1;
    return I >= 0 && I < rowWidth() ? I : 1;
  }

  /// Membership test for the Set-transition bitset at \p SetIndex.
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
  size_t numAltTargets() const { return AltTargets.size(); }
  size_t numDfaTransEntries() const { return DfaTrans.size(); }
  size_t numDfaStatesTotal() const { return DfaAccept.size(); }
  size_t numPredEdges() const { return PredEdges.size(); }
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

  std::vector<CState> States;
  std::vector<int32_t> RuleStarts, RuleStops;
  std::vector<int32_t> AltTargets;
  std::vector<int32_t> DecisionStates;
  std::vector<CDecision> Decisions;
  std::vector<int32_t> DfaTrans, DfaAccept, DfaPredFirst, DfaPredCount;
  std::vector<CPredEdge> PredEdges;
  std::vector<uint64_t> SetWords;
  TablesView View;
};

} // namespace compiled
} // namespace llstar

#endif // LLSTAR_ANALYSIS_COMPILEDTABLES_H
