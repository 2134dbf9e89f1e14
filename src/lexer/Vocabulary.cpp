#include "lexer/Vocabulary.h"

#include <cassert>

using namespace llstar;

TokenType Vocabulary::getOrDefine(const std::string &Name, bool Literal) {
  auto It = ByName.find(Name);
  if (It != ByName.end())
    return It->second;
  Names.push_back(Name);
  LiteralFlags.push_back(Literal);
  if (Literal) {
    assert(Name.size() >= 2 && Name.front() == '\'' && Name.back() == '\'' &&
           "literal token names carry their quotes");
    LiteralTexts.push_back(Name.substr(1, Name.size() - 2));
  } else {
    LiteralTexts.push_back("");
  }
  MissingTexts.push_back("<missing " + Name + ">");
  TokenType Type = TokenType(Names.size());
  ByName.emplace(Name, Type);
  return Type;
}

TokenType Vocabulary::lookup(const std::string &Name) const {
  auto It = ByName.find(Name);
  return It == ByName.end() ? TokenInvalid : It->second;
}

TokenType Vocabulary::lookupLiteral(const std::string &Text) const {
  return lookup("'" + Text + "'");
}

const std::string &Vocabulary::name(TokenType Type) const {
  static const std::string EofName = "EOF";
  static const std::string InvalidName = "<invalid>";
  if (Type == TokenEof)
    return EofName;
  if (Type < TokenMinUserType || size_t(Type) > Names.size())
    return InvalidName;
  return Names[size_t(Type) - 1];
}

bool Vocabulary::isLiteral(TokenType Type) const {
  if (Type < TokenMinUserType || size_t(Type) > Names.size())
    return false;
  return LiteralFlags[size_t(Type) - 1];
}

const std::string &Vocabulary::literalText(TokenType Type) const {
  static const std::string Empty;
  if (!isLiteral(Type))
    return Empty;
  return LiteralTexts[size_t(Type) - 1];
}

std::string_view Vocabulary::missingText(TokenType Type) const {
  if (Type == TokenEof)
    return "<missing EOF>";
  if (Type < TokenMinUserType || size_t(Type) > Names.size())
    return "<missing <invalid>>";
  return MissingTexts[size_t(Type) - 1];
}
