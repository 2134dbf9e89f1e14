//===- lexer/Vocabulary.h - Token type names --------------------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Maps token types to symbolic names ("ID") and display names ("'int'").
/// The grammar front end populates one vocabulary per grammar; the lexer,
/// the analysis, and error messages all render token types through it.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_LEXER_VOCABULARY_H
#define LLSTAR_LEXER_VOCABULARY_H

#include "lexer/Token.h"

#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace llstar {

/// The token vocabulary of one grammar.
class Vocabulary {
public:
  /// Returns the existing type for \p Name or defines a new one.
  /// \p Literal marks types that came from quoted strings in the grammar.
  TokenType getOrDefine(const std::string &Name, bool Literal = false);

  /// Returns the type for \p Name or TokenInvalid if unknown.
  TokenType lookup(const std::string &Name) const;

  /// Returns the type defined for the quoted literal text \p Text
  /// (without quotes), or TokenInvalid.
  TokenType lookupLiteral(const std::string &Text) const;

  /// Symbolic name for \p Type ("ID", "'int'", "EOF", "<invalid>").
  const std::string &name(TokenType Type) const;

  /// True if \p Type was defined from a quoted literal.
  bool isLiteral(TokenType Type) const;

  /// For literal types, the raw text the literal matches (no quotes).
  const std::string &literalText(TokenType Type) const;

  /// The text of a token conjured by error recovery: "<missing NAME>".
  /// The string lives as long as the vocabulary and never moves, so
  /// conjured tokens can view it (see Token.h).
  std::string_view missingText(TokenType Type) const;

  /// Number of defined types; valid types are [1, size()].
  size_t size() const { return Names.size(); }

  /// Largest assigned token type.
  TokenType maxTokenType() const { return TokenType(Names.size()); }

private:
  std::vector<std::string> Names;        // index = type - 1
  std::vector<bool> LiteralFlags;        // parallel to Names
  std::vector<std::string> LiteralTexts; // parallel; empty when not literal
  /// Parallel to Names; a deque, so growth never moves a string that a
  /// conjured token already views.
  std::deque<std::string> MissingTexts;
  std::unordered_map<std::string, TokenType> ByName;
};

} // namespace llstar

#endif // LLSTAR_LEXER_VOCABULARY_H
