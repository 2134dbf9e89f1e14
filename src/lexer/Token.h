//===- lexer/Token.h - Tokens and token type constants ----------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The token record produced by the lexer and consumed by parsers, plus the
/// distinguished token-type constants.
///
/// Tokens do not own their text. \ref Token::Text is a view into the
/// buffer that was passed to the lexer, so a token — and every token
/// vector, \ref TokenStream, and parse tree built from it — borrows that
/// buffer and must not outlive it (or survive its reallocation). The few
/// texts that are not input spans point at storage with static or grammar
/// lifetime: the EOF token's `<EOF>` is a string literal, and recovery's
/// conjured `<missing X>` texts live in the grammar's \ref Vocabulary.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_LEXER_TOKEN_H
#define LLSTAR_LEXER_TOKEN_H

#include "support/SourceLocation.h"

#include <cstdint>
#include <string_view>
#include <type_traits>

namespace llstar {

/// Token types are small integers assigned by the grammar's vocabulary.
using TokenType = int32_t;

/// End of input. Every token stream ends with exactly one EOF token.
constexpr TokenType TokenEof = -1;
/// Never assigned to a real token; the "no type" sentinel.
constexpr TokenType TokenInvalid = 0;
/// First token type available for user-defined tokens.
constexpr TokenType TokenMinUserType = 1;

/// Which stream a token is visible on.
enum class TokenChannel : uint8_t {
  Default, ///< Visible to the parser.
  Hidden,  ///< Kept in the stream but skipped by parsers (whitespace etc.).
};

/// One lexed token: trivially copyable, and borrowing its text (see the
/// file comment).
struct Token {
  TokenType Type = TokenInvalid;
  TokenChannel Channel = TokenChannel::Default;
  /// The matched bytes, viewed in place in the lexer's input buffer.
  std::string_view Text;
  SourceLocation Loc;
  /// Byte offset of the token's first character in the original input (the
  /// EOF token's offset is the input length). Edit-range mapping in
  /// src/incremental/ relies on this being set uniformly by every lexer
  /// path, spec-compiled and deserialized lexers alike; -1 only for
  /// hand-built tokens.
  int64_t Offset = -1;
  /// Index within the (channel-filtered) token stream; set by the lexer.
  int64_t Index = -1;

  Token() = default;
  Token(TokenType Type, std::string_view Text, SourceLocation Loc)
      : Type(Type), Text(Text), Loc(Loc) {}

  bool isEof() const { return Type == TokenEof; }
};

static_assert(std::is_trivially_copyable_v<Token>,
              "tokens are copied by value throughout the runtime");

/// The text of every EOF token.
inline constexpr std::string_view EofText = "<EOF>";

} // namespace llstar

#endif // LLSTAR_LEXER_TOKEN_H
