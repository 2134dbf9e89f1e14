//===- incremental/IncrementalSession.h - Editor-style reparse --*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental subsystem's front door: an \ref IncrementalSession owns
/// one evolving text together with its token stream, parse tree, and
/// per-node reuse metadata, and re-establishes all three after each
/// \ref Edit by re-lexing only the damaged byte window
/// (incremental/IncrementalLexer.h) and reparsing with subtree reuse
/// (incremental/ReuseMetadata.h).
///
/// The correctness contract is absolute: after every edit the session's
/// tokens, tree rendering, node and error-leaf counts, and diagnostics
/// are byte-identical to a from-scratch parse of the whole new text
/// (\ref scratchParse is that oracle; `llstar-fuzz --edit-smoke` enforces
/// the equivalence over random edit scripts in every mode combination).
/// Reuse is an optimization bounded by soundness checks — when in doubt
/// (predicate- or action-dependent decisions, recovered regions, damage
/// overlapping a node's lookahead reach) the subsystem falls back to
/// ordinary reparsing of the affected region, degrading gracefully to a
/// full reparse in the worst case.
///
/// Sessions work in every mode combination: with or without the native
/// module, heap or arena trees (arena sessions ping-pong two
/// arenas so splices can copy out of the old tree while the new one is
/// built), recovery on or off.
///
/// Tokens borrow their text (lexer/Token.h): the session's token vector
/// and its heap-tree leaves view the session's own text. Relexing
/// re-points the tokens it re-lexes or shifts, and reused subtrees pick
/// those up; when an edit makes the text reallocate, the session re-points
/// every token and leaf at the new buffer. So tokens(), and \ref
/// ScratchResult::Tokens against the text passed to \ref scratchParse,
/// stay valid only until the next edit or reset.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_INCREMENTAL_INCREMENTALSESSION_H
#define LLSTAR_INCREMENTAL_INCREMENTALSESSION_H

#include "incremental/EditScript.h"
#include "incremental/IncrementalLexer.h"
#include "incremental/ReuseMetadata.h"
#include "lexer/TokenStream.h"
#include "runtime/ParserStats.h"
#include "service/GrammarBundleCache.h"
#include "support/Diagnostics.h"

#include <chrono>
#include <memory>
#include <string>
#include <vector>

namespace llstar {
namespace incremental {

/// Configuration for one session, fixed at construction.
struct SessionOptions {
  bool Recover = true;     ///< error-recovering parses (error leaves etc.)
  /// Use the registered native module when its payload hash matches.
  bool UseCompiled = false;
  bool UseArena = false;   ///< arena parse trees instead of heap nodes
  bool Reuse = true;       ///< false: full relex + reparse per edit (the
                           ///< baseline the benchmarks compare against)
  std::string StartRule;   ///< empty = the grammar's first rule
};

/// What one reset/edit did. When Error != None the edit was rejected and
/// the session is unchanged; otherwise the session reflects the new text.
struct EditOutcome {
  EditScriptError Error = EditScriptError::None;
  bool ParseOk = false;
  double Millis = 0;              ///< relex + reparse wall time
  int64_t NumTokens = 0;          ///< parser-visible tokens incl. EOF
  int64_t NodesReused = 0;        ///< subtrees spliced instead of reparsed
  int64_t TokensRelexed = 0;      ///< lexemes the damage walk re-scanned
  int64_t DecisionsReparsed = 0;  ///< prediction events the reparse ran
  int64_t TreeNodes = 0;
  int64_t ErrorLeaves = 0;
  unsigned NumErrors = 0;         ///< error diagnostics of this parse
};

/// One evolving {text, tokens, tree, metadata} quadruple.
class IncrementalSession {
public:
  IncrementalSession(std::shared_ptr<const GrammarBundle> Bundle,
                     SessionOptions Opts);
  ~IncrementalSession();

  /// Replaces the whole text: full lex, full parse, fresh metadata.
  EditOutcome reset(std::string NewText);

  /// Applies one edit to the current text.
  EditOutcome applyEdit(const Edit &E);

  /// Applies a validated batch (strictly increasing, non-overlapping
  /// spans sharing one snapshot) back to front, so every offset stays
  /// valid. Returns the outcome of the final constituent edit with the
  /// cost fields summed; stops at (and returns) the first rejection.
  EditOutcome applyBatch(const std::vector<Edit> &Batch);

  const std::string &text() const { return Text; }
  /// Parser-visible tokens, identical to a from-scratch tokenize.
  const std::vector<Token> &tokens() const { return IncLex.tokens(); }
  /// LISP rendering of the current tree ("" before the first reset).
  std::string treeText() const;
  /// The current tree of a heap-tree session (null for arena sessions).
  const ParseTree *heapTree() const { return HeapRoot.get(); }
  /// Diagnostics of the last parse (lexer and parser).
  const DiagnosticEngine &diags() const { return Diags; }
  /// Cumulative engine statistics across every parse of this session,
  /// including NodesReused / TokensRelexed / DecisionsReparsed.
  const ParserStats &stats() const { return Cumulative; }
  /// Stats accumulated since the previous call, then cleared — how the
  /// daemon folds edit-session work into its service-wide metrics
  /// without double counting.
  ParserStats takeStatsDelta();
  bool ok() const { return LastOk; }
  const GrammarBundle &bundle() const { return *Bundle; }

private:
  EditOutcome parseCurrent(const IncrementalLexer::Damage &D, bool Incremental,
                           std::chrono::steady_clock::time_point StartTime);
  /// Re-points the text of every input leaf under \p N at Text, after an
  /// edit reallocated it.
  void rebaseLeaves(ParseTree &N) const;

  std::shared_ptr<const GrammarBundle> Bundle;
  SessionOptions Opts;
  std::string Text;
  IncrementalLexer IncLex;
  /// Rebuilt per parse; outlives the tree for arena rendering.
  std::unique_ptr<TokenStream> Stream;
  std::unique_ptr<ParseTree> HeapRoot;
  const ArenaParseTree *ArenaRoot = nullptr;
  /// Arena sessions ping-pong: the new tree is built in the spare arena
  /// while splices copy subtrees out of the live one, then roles swap.
  Arena ArenaA, ArenaB;
  bool LiveIsA = true;
  ParseRecord Record;
  DiagnosticEngine Diags;
  ParserStats Cumulative;
  ParserStats Delta; ///< since the last takeStatsDelta()
  bool LastOk = false;
};

/// The from-scratch oracle: tokenizes and parses \p Text exactly as the
/// parse service would, with the same engine/tree/recovery configuration
/// a session with \p Opts uses. The conformance tools compare a session
/// against this after every edit.
struct ScratchResult {
  bool ParseOk = false;
  std::vector<Token> Tokens;
  std::string TreeText;
  int64_t TreeNodes = 0;
  int64_t ErrorLeaves = 0;
  std::string DiagText; ///< DiagnosticEngine::str() of all diagnostics
};
ScratchResult scratchParse(const GrammarBundle &Bundle, std::string_view Text,
                           const SessionOptions &Opts);

} // namespace incremental
} // namespace llstar

#endif // LLSTAR_INCREMENTAL_INCREMENTALSESSION_H
