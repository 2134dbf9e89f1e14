//===- lexer/Lexer.h - DFA-driven tokenizer ---------------------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles a \ref LexerSpec into a single byte-DFA (via the regex
/// substrate) and tokenizes input text with maximal munch; ties resolve by
/// rule priority. Unrecognized characters produce a diagnostic and are
/// skipped so lexing always terminates.
///
/// One maximal-munch core, \ref Lexer::munch, serves both the batch
/// \ref Lexer::tokenize and the incremental relexer
/// (incremental/IncrementalLexer.h). It walks the DFA one byte at a time
/// except inside runs of a state's self-loop bytes — whitespace,
/// identifier tails, string bodies, csv fields — which it skips through a
/// 256-entry membership table per state, built once when the lexer is
/// constructed. Line and column positions are derived from each matched
/// span afterwards (\ref Lexer::advance), not tracked per byte.
///
/// Tokens borrow their text from the input: every \ref Token::Text that
/// tokenize() returns is a view into \p Input, so the caller must keep that
/// buffer alive and unmoved for as long as the tokens (or any stream or
/// tree built from them) are used.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_LEXER_LEXER_H
#define LLSTAR_LEXER_LEXER_H

#include "lexer/LexerSpec.h"
#include "lexer/Token.h"
#include "regex/CharDFA.h"
#include "support/Diagnostics.h"

#include <string_view>
#include <vector>

namespace llstar {

/// A compiled tokenizer.
class Lexer {
public:
  /// Compiles \p Spec; reports problems (e.g. a rule matching the empty
  /// string) to \p Diags.
  Lexer(const LexerSpec &Spec, DiagnosticEngine &Diags);

  /// Constructs from precompiled tables (deserialized grammars; see
  /// codegen/Serializer.h).
  Lexer(regex::CharDfa Dfa, std::vector<LexerAction> Actions,
        std::vector<TokenType> Types);

  /// Tokenizes all of \p Input. The result always ends with an EOF token.
  /// Skipped tokens are dropped. Hidden-channel tokens (whitespace,
  /// comments marked `-> hidden`) are omitted from the parse stream but
  /// collected into \p HiddenOut when provided — the hook tools use to
  /// preserve trivia for reformatting or comment extraction. The tokens
  /// view \p Input (see the file comment).
  std::vector<Token> tokenize(std::string_view Input, DiagnosticEngine &Diags,
                              std::vector<Token> *HiddenOut = nullptr) const;

  /// The outcome of one maximal-munch walk.
  struct Munch {
    /// Rule tag of the longest non-empty accepted prefix, or -1 when
    /// there is none: the byte at the position is unrecognized.
    int32_t Tag = -1;
    /// Bytes consumed: the match length, or 1 for an unrecognized byte.
    int64_t Len = 1;
    /// One past the last byte the DFA walk examined. Maximal munch
    /// overshoots the final accept until the automaton dies; a walk that
    /// reached the end of the text in a live state reports the text size
    /// plus one, since appended bytes could change its match.
    int64_t LookEnd = 0;
  };

  /// Matches the longest token at \p Pos (< \p Text.size()).
  Munch munch(std::string_view Text, size_t Pos) const;

  /// Moves the position \p Line / \p Col (1-based line, 0-based byte
  /// column) past \p Span.
  static void advance(std::string_view Span, uint32_t &Line, uint32_t &Col);

  /// Number of DFA states in the compiled automaton (after minimization).
  size_t numDfaStates() const { return Dfa.size(); }

  /// Table access for serialization.
  const regex::CharDfa &dfa() const { return Dfa; }
  const std::vector<LexerAction> &actions() const { return Actions; }
  const std::vector<TokenType> &types() const { return Types; }

private:
  /// Fills SelfLoop and HasSelfLoop from the DFA.
  void buildSkipTables();

  regex::CharDfa Dfa;
  std::vector<LexerAction> Actions; // indexed by rule tag
  std::vector<TokenType> Types;     // indexed by rule tag
  /// 256 entries per state: 1 where the byte keeps the state in place.
  std::vector<uint8_t> SelfLoop;
  /// Per state: whether any byte self-loops (gates the skip loop).
  std::vector<uint8_t> HasSelfLoop;
};

// Defined inline so that tokenize() and the incremental relexer, which run
// it once per token, pay no call for it.
inline Lexer::Munch Lexer::munch(std::string_view Text, size_t Pos) const {
  // The textbook walk (CharDfa::matchLongestPrefix) with two changes: it
  // records how far it read (LookEnd), and after each transition into a
  // state with self-loops it runs through the bytes that keep it there
  // without touching the transition table. Acceptance cannot change
  // within such a run, so it is checked once at the run's end.
  const regex::CharDfaState *States = Dfa.states().data();
  const auto *Bytes = reinterpret_cast<const unsigned char *>(Text.data());
  const size_t End = Text.size();
  Munch M;
  M.LookEnd = int64_t(End) + 1;
  int32_t S = 0;
  size_t I = Pos;
  while (I < End) {
    const int32_t Next = States[S].Next[Bytes[I]];
    if (Next < 0) {
      M.LookEnd = int64_t(I) + 1;
      break;
    }
    S = Next;
    ++I;
    if (HasSelfLoop[size_t(S)]) {
      const uint8_t *Loop = &SelfLoop[size_t(S) * 256];
      while (I < End && Loop[Bytes[I]])
        ++I;
    }
    if (const int32_t Accept = States[S].AcceptTag; Accept >= 0) {
      M.Tag = Accept;
      M.Len = int64_t(I - Pos);
    }
  }
  return M;
}

} // namespace llstar

#endif // LLSTAR_LEXER_LEXER_H
