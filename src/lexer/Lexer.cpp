#include "lexer/Lexer.h"

#include "support/StringUtils.h"

#include <cstring>

using namespace llstar;

Lexer::Lexer(const LexerSpec &Spec, DiagnosticEngine &Diags) {
  regex::Nfa N;
  for (size_t I = 0; I < Spec.Rules.size(); ++I) {
    const LexerRule &Rule = Spec.Rules[I];
    // The rule index is the DFA accept tag, so Actions and Types get an
    // entry for every rule — a rule without a pattern never accepts, but
    // skipping its slot would shift every later rule's tag by one.
    Actions.push_back(Rule.Action);
    Types.push_back(Rule.Type);
    if (!Rule.Pattern) {
      Diags.error("lexer rule for token type " + std::to_string(Rule.Type) +
                  " has no pattern");
      continue;
    }
    if (Rule.Pattern->matchesEmpty())
      Diags.error("lexer rule for token type " + std::to_string(Rule.Type) +
                  " can match the empty string");
    N.addPattern(*Rule.Pattern, int32_t(I), Rule.Priority);
  }
  Dfa = regex::CharDfa::fromNfa(N).minimized();
  buildSkipTables();
}

Lexer::Lexer(regex::CharDfa Dfa, std::vector<LexerAction> Actions,
             std::vector<TokenType> Types)
    : Dfa(std::move(Dfa)), Actions(std::move(Actions)),
      Types(std::move(Types)) {
  buildSkipTables();
}

void Lexer::buildSkipTables() {
  const std::vector<regex::CharDfaState> &States = Dfa.states();
  SelfLoop.assign(States.size() * 256, 0);
  HasSelfLoop.assign(States.size(), 0);
  for (size_t S = 0; S < States.size(); ++S)
    for (size_t B = 0; B < 256; ++B)
      if (States[S].Next[B] == int32_t(S)) {
        SelfLoop[S * 256 + B] = 1;
        HasSelfLoop[S] = 1;
      }
}

void Lexer::advance(std::string_view Span, uint32_t &Line, uint32_t &Col) {
  const char *Begin = Span.data();
  const char *End = Begin + Span.size();
  const char *LastNewline = nullptr;
  for (const char *P = Begin;
       (P = static_cast<const char *>(std::memchr(P, '\n', size_t(End - P))));
       ++P) {
    ++Line;
    LastNewline = P;
  }
  Col = LastNewline ? uint32_t(End - LastNewline - 1)
                    : Col + uint32_t(Span.size());
}

std::vector<Token> Lexer::tokenize(std::string_view Input,
                                   DiagnosticEngine &Diags,
                                   std::vector<Token> *HiddenOut) const {
  std::vector<Token> Result;
  // Data formats average well over four bytes per token once separators
  // and whitespace are counted; one reserve spares most regrowth copies.
  Result.reserve(Input.size() / 4 + 1);
  size_t Pos = 0;
  uint32_t Line = 1, Column = 0;

  while (Pos < Input.size()) {
    const Munch M = munch(Input, Pos);
    const std::string_view Span = Input.substr(Pos, size_t(M.Len));
    if (M.Tag < 0) {
      Diags.error(SourceLocation(Line, Column),
                  "unrecognized character '" + escapeChar(Input[Pos]) + "'");
    } else if (const LexerAction Action = Actions[size_t(M.Tag)];
               Action == LexerAction::Emit) {
      Token &T = Result.emplace_back(Types[size_t(M.Tag)], Span,
                                     SourceLocation(Line, Column));
      T.Offset = int64_t(Pos);
      T.Index = int64_t(Result.size()) - 1;
    } else if (Action == LexerAction::Hidden && HiddenOut) {
      // Hidden and Skip tokens are both invisible to the parsers; hidden
      // ones are preserved in HiddenOut for trivia-aware tooling.
      Token &T = HiddenOut->emplace_back(Types[size_t(M.Tag)], Span,
                                         SourceLocation(Line, Column));
      T.Offset = int64_t(Pos);
      T.Channel = TokenChannel::Hidden;
    }
    advance(Span, Line, Column);
    Pos += size_t(M.Len);
  }

  Token &Eof = Result.emplace_back(TokenEof, EofText,
                                   SourceLocation(Line, Column));
  Eof.Offset = int64_t(Input.size());
  Eof.Index = int64_t(Result.size()) - 1;
  return Result;
}
