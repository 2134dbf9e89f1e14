//===- lexer/TokenStream.h - Buffered token stream --------------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A buffered token stream with arbitrary lookahead and mark/rewind, the
/// input interface of LL(*) parsers. Lookahead DFAs scan ahead without
/// consuming; syntactic predicates mark, speculate, and rewind.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_LEXER_TOKENSTREAM_H
#define LLSTAR_LEXER_TOKENSTREAM_H

#include "lexer/Token.h"

#include <cassert>
#include <vector>

namespace llstar {

/// A random-access view over a fully lexed token vector.
///
/// The last token must be EOF; LA/LT calls past the end keep returning it.
/// Whether it owns the vector or borrows it, a stream never owns token
/// text: its tokens view the lexer's input buffer (lexer/Token.h), which
/// must outlive the stream and every tree parsed from it.
class TokenStream {
public:
  explicit TokenStream(std::vector<Token> Tokens)
      : Owned(std::move(Tokens)), Toks(&Owned) {
    assert(!Owned.empty() && Owned.back().isEof() &&
           "token stream must end with EOF");
  }

  /// Tag selecting the non-owning constructor.
  struct Borrow {};
  /// A view over a caller-owned vector, which must outlive the stream and
  /// not be resized while any parse is running. The incremental session
  /// parses straight out of its master token vector this way instead of
  /// copying thousands of tokens per edit.
  TokenStream(const std::vector<Token> &Tokens, Borrow) : Toks(&Tokens) {
    assert(!Tokens.empty() && Tokens.back().isEof() &&
           "token stream must end with EOF");
  }

  TokenStream(TokenStream &&O) noexcept
      : Owned(std::move(O.Owned)),
        Toks(O.Toks == &O.Owned ? &Owned : O.Toks), Pos(O.Pos) {}
  TokenStream(const TokenStream &) = delete;
  TokenStream &operator=(const TokenStream &) = delete;
  TokenStream &operator=(TokenStream &&) = delete;

  /// Current position (index of the next token to consume).
  int64_t index() const { return Pos; }

  /// Repositions the stream; used to rewind after speculation.
  void seek(int64_t Index) {
    assert(Index >= 0 && size_t(Index) < Toks->size() && "seek out of range");
    Pos = Index;
  }

  /// Token \p I ahead of the current position; LT(1) is the next token.
  /// The position always names a token (consume stops at EOF, seek stays
  /// in range), so LT(1) needs no clamp.
  const Token &LT(int64_t I) const {
    return I == 1 ? (*Toks)[size_t(Pos)] : at(Pos + I - 1);
  }

  /// Type of the token \p I ahead.
  TokenType LA(int64_t I) const { return LT(I).Type; }

  /// Token at absolute index \p Index (clamped to EOF).
  const Token &at(int64_t Index) const {
    if (Index < 0)
      Index = 0;
    if (size_t(Index) >= Toks->size())
      Index = int64_t(Toks->size()) - 1;
    return (*Toks)[size_t(Index)];
  }

  /// Consumes one token (never moves past EOF).
  void consume() {
    if (Toks->data() + Pos + 1 < Toks->data() + Toks->size())
      ++Pos;
  }

  /// Total number of tokens including EOF.
  int64_t size() const { return int64_t(Toks->size()); }

  const std::vector<Token> &tokens() const { return *Toks; }

private:
  std::vector<Token> Owned;          ///< empty for borrowed streams
  const std::vector<Token> *Toks;    ///< &Owned, or the borrowed vector
  int64_t Pos = 0;
};

} // namespace llstar

#endif // LLSTAR_LEXER_TOKENSTREAM_H
