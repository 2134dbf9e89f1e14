//===- tests/LexerTests.cpp - DFA lexer and token stream tests ------------===//

#include "lexer/Lexer.h"
#include "lexer/TokenStream.h"
#include "lexer/Vocabulary.h"
#include "regex/RegexParser.h"

#include <gtest/gtest.h>

using namespace llstar;

namespace {

regex::RegexNode::Ptr re(const std::string &Pattern) {
  DiagnosticEngine Diags;
  auto Re = regex::parseRegex(Pattern, Diags);
  EXPECT_TRUE(Re) << Diags.str();
  return Re;
}

LexerSpec basicSpec(Vocabulary &V) {
  LexerSpec Spec;
  // Literals first (priority 0) so keywords beat ID on ties.
  Spec.addRule(V.getOrDefine("'int'", true), re("int"), LexerAction::Emit, 0);
  Spec.addRule(V.getOrDefine("ID"), re("[a-zA-Z_][a-zA-Z0-9_]*"),
               LexerAction::Emit, 100);
  Spec.addRule(V.getOrDefine("NUM"), re("[0-9]+"), LexerAction::Emit, 101);
  Spec.addRule(V.getOrDefine("WS"), re("[ \t\n]+"), LexerAction::Skip, 102);
  return Spec;
}

TEST(Lexer, BasicTokenization) {
  Vocabulary V;
  LexerSpec Spec = basicSpec(V);
  DiagnosticEngine Diags;
  Lexer L(Spec, Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();

  std::vector<Token> Tokens = L.tokenize("int foo 42", Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  ASSERT_EQ(Tokens.size(), 4u); // int, foo, 42, EOF
  EXPECT_EQ(Tokens[0].Type, V.lookup("'int'"));
  EXPECT_EQ(Tokens[0].Text, "int");
  EXPECT_EQ(Tokens[1].Type, V.lookup("ID"));
  EXPECT_EQ(Tokens[1].Text, "foo");
  EXPECT_EQ(Tokens[2].Type, V.lookup("NUM"));
  EXPECT_TRUE(Tokens[3].isEof());
}

TEST(Lexer, MaximalMunchBeatsKeyword) {
  Vocabulary V;
  LexerSpec Spec = basicSpec(V);
  DiagnosticEngine Diags;
  Lexer L(Spec, Diags);
  // "integer" is longer than "int": ID wins by maximal munch.
  std::vector<Token> Tokens = L.tokenize("integer", Diags);
  ASSERT_EQ(Tokens.size(), 2u);
  EXPECT_EQ(Tokens[0].Type, V.lookup("ID"));
  EXPECT_EQ(Tokens[0].Text, "integer");
}

TEST(Lexer, LineAndColumnTracking) {
  Vocabulary V;
  LexerSpec Spec = basicSpec(V);
  DiagnosticEngine Diags;
  Lexer L(Spec, Diags);
  std::vector<Token> Tokens = L.tokenize("foo\n  bar", Diags);
  ASSERT_EQ(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[0].Loc, SourceLocation(1, 0));
  EXPECT_EQ(Tokens[1].Loc, SourceLocation(2, 2));
}

TEST(Lexer, UnknownCharacterIsReportedAndSkipped) {
  Vocabulary V;
  LexerSpec Spec = basicSpec(V);
  DiagnosticEngine LexDiags;
  Lexer L(Spec, LexDiags);
  DiagnosticEngine Diags;
  std::vector<Token> Tokens = L.tokenize("foo $ bar", Diags);
  EXPECT_TRUE(Diags.hasErrors());
  ASSERT_EQ(Tokens.size(), 3u); // foo, bar, EOF: lexing continued
  EXPECT_EQ(Tokens[1].Text, "bar");
}

TEST(Lexer, EmptyMatchingRuleRejected) {
  Vocabulary V;
  LexerSpec Spec;
  Spec.addRule(V.getOrDefine("BAD"), re("a*"));
  DiagnosticEngine Diags;
  Lexer L(Spec, Diags);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_TRUE(Diags.contains("empty string"));
}

TEST(Lexer, RuleWithoutPatternKeepsLaterTagsAligned) {
  // The DFA tags accepts with the rule index; a rule that fails to compile
  // must still occupy its slot, or every later rule reads its successor's
  // action and type (and the last reads past the end).
  Vocabulary V;
  LexerSpec Spec;
  Spec.addRule(V.getOrDefine("A"), re("a"));
  Spec.addRule(V.getOrDefine("BROKEN"), nullptr);
  Spec.addRule(V.getOrDefine("WS"), re(" +"), LexerAction::Skip);
  Spec.addRule(V.getOrDefine("B"), re("b"));
  DiagnosticEngine Diags;
  Lexer L(Spec, Diags);
  EXPECT_TRUE(Diags.contains("has no pattern"));
  ASSERT_EQ(L.actions().size(), Spec.Rules.size());
  ASSERT_EQ(L.types().size(), Spec.Rules.size());

  DiagnosticEngine LexDiags;
  std::vector<Token> Tokens = L.tokenize("a  b", LexDiags);
  EXPECT_FALSE(LexDiags.hasErrors()) << LexDiags.str();
  ASSERT_EQ(Tokens.size(), 3u); // a, b, EOF: the spaces are skipped
  EXPECT_EQ(Tokens[0].Type, V.lookup("A"));
  EXPECT_EQ(Tokens[1].Type, V.lookup("B"));
  EXPECT_EQ(Tokens[1].Text, "b");
  EXPECT_TRUE(Tokens[2].isEof());
}

TEST(Lexer, TokensViewTheInputBuffer) {
  Vocabulary V;
  LexerSpec Spec = basicSpec(V);
  DiagnosticEngine Diags;
  Lexer L(Spec, Diags);
  std::string Input = "int foo\n  42";
  std::vector<Token> Tokens = L.tokenize(Input, Diags);
  ASSERT_EQ(Tokens.size(), 4u);
  for (size_t I = 0; I + 1 < Tokens.size(); ++I)
    EXPECT_EQ(Tokens[I].Text.data(), Input.data() + Tokens[I].Offset);
  EXPECT_EQ(Tokens.back().Text, "<EOF>");
  EXPECT_LE(sizeof(Token), 56u);
}

TEST(TokenStream, LookaheadAndSeek) {
  // Tokens view their text; these views point at string literals.
  const char *Texts[] = {"t0", "t1", "t2"};
  std::vector<Token> Tokens;
  for (int I = 0; I < 3; ++I)
    Tokens.push_back(
        Token(TokenType(I + 1), Texts[I], SourceLocation(1, uint32_t(I))));
  Tokens.push_back(Token(TokenEof, EofText, SourceLocation(1, 3)));
  for (size_t I = 0; I < Tokens.size(); ++I)
    Tokens[I].Index = int64_t(I);
  TokenStream S(std::move(Tokens));

  EXPECT_EQ(S.LA(1), 1);
  EXPECT_EQ(S.LA(2), 2);
  EXPECT_EQ(S.LA(99), TokenEof); // clamped to EOF
  S.consume();
  EXPECT_EQ(S.index(), 1);
  EXPECT_EQ(S.LA(1), 2);
  S.seek(0);
  EXPECT_EQ(S.LA(1), 1);
  // Consuming past EOF stays put.
  for (int I = 0; I < 10; ++I)
    S.consume();
  EXPECT_EQ(S.LA(1), TokenEof);
}

TEST(Vocabulary, NamesAndLiterals) {
  Vocabulary V;
  TokenType Id = V.getOrDefine("ID");
  TokenType Kw = V.getOrDefine("'while'", /*Literal=*/true);
  EXPECT_EQ(V.lookup("ID"), Id);
  EXPECT_EQ(V.lookupLiteral("while"), Kw);
  EXPECT_EQ(V.name(Id), "ID");
  EXPECT_EQ(V.name(Kw), "'while'");
  EXPECT_EQ(V.name(TokenEof), "EOF");
  EXPECT_EQ(V.name(999), "<invalid>");
  EXPECT_TRUE(V.isLiteral(Kw));
  EXPECT_FALSE(V.isLiteral(Id));
  EXPECT_EQ(V.literalText(Kw), "while");
  // Idempotent definition.
  EXPECT_EQ(V.getOrDefine("ID"), Id);
  EXPECT_EQ(V.maxTokenType(), 2);
}

} // namespace

namespace {

TEST(Lexer, HiddenChannelTokensPreserved) {
  Vocabulary V;
  LexerSpec Spec;
  DiagnosticEngine D;
  Spec.addRule(V.getOrDefine("ID"),
               regex::parseRegex("[a-z]+", D), LexerAction::Emit, 0);
  Spec.addRule(V.getOrDefine("COMMENT"),
               regex::parseRegex("#[a-z ]*", D), LexerAction::Hidden, 1);
  Spec.addRule(V.getOrDefine("WS"),
               regex::parseRegex(" +", D), LexerAction::Skip, 2);
  DiagnosticEngine LexDiags;
  Lexer L(Spec, LexDiags);
  ASSERT_FALSE(LexDiags.hasErrors()) << LexDiags.str();

  std::vector<Token> Hidden;
  DiagnosticEngine Diags;
  std::vector<Token> Tokens = L.tokenize("abc #note here", Diags, &Hidden);
  ASSERT_EQ(Tokens.size(), 2u); // abc + EOF: comment not in parse stream
  EXPECT_EQ(Tokens[0].Text, "abc");
  ASSERT_EQ(Hidden.size(), 1u);
  EXPECT_EQ(Hidden[0].Text, "#note here");
  EXPECT_EQ(Hidden[0].Channel, TokenChannel::Hidden);
}

} // namespace
