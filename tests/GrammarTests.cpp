//===- tests/GrammarTests.cpp - Meta-language front-end tests -------------===//

#include "grammar/GrammarLexer.h"
#include "grammar/GrammarParser.h"

#include <gtest/gtest.h>

using namespace llstar;

namespace {

std::unique_ptr<Grammar> parseOrFail(const std::string &Text) {
  DiagnosticEngine Diags;
  auto G = parseGrammarText(Text, Diags);
  EXPECT_TRUE(G) << Diags.str();
  return G;
}

TEST(MetaLexer, TokenKinds) {
  DiagnosticEngine Diags;
  auto Tokens = lexGrammarText(
      "grammar T; a : B 'lit' {act} {p}? (x)=> [0-9] -> .. . ~ | * + ? ;",
      Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  std::vector<MetaKind> Kinds;
  for (const MetaToken &T : Tokens)
    Kinds.push_back(T.Kind);
  std::vector<MetaKind> Expected = {
      MetaKind::Ident,   MetaKind::Ident,  MetaKind::Semi,
      MetaKind::Ident,   MetaKind::Colon,  MetaKind::Ident,
      MetaKind::StrLit,  MetaKind::Action, MetaKind::Action,
      MetaKind::Question, MetaKind::LParen, MetaKind::Ident,
      MetaKind::RParen,  MetaKind::DArrow, MetaKind::CharSet,
      MetaKind::Arrow,   MetaKind::Range,  MetaKind::Dot,
      MetaKind::Tilde,   MetaKind::Pipe,   MetaKind::Star,
      MetaKind::Plus,    MetaKind::Question, MetaKind::Semi,
      MetaKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(MetaLexer, CommentsAndEscapes) {
  DiagnosticEngine Diags;
  auto Tokens = lexGrammarText(
      "// line comment\n/* block\ncomment */ 'a\\nb' {{always}}", Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  ASSERT_EQ(Tokens.size(), 3u); // string, action, EOF
  EXPECT_EQ(Tokens[0].Text, "a\nb");
  EXPECT_TRUE(Tokens[1].DoubleBrace);
  EXPECT_EQ(Tokens[1].Text, "always");
}

TEST(GrammarParser, BasicStructure) {
  auto G = parseOrFail(R"(
grammar Demo;
s : a B | C ;
a : 'x' ;
B : 'b' ;
C : 'c' ;
)");
  ASSERT_TRUE(G);
  EXPECT_EQ(G->Name, "Demo");
  EXPECT_EQ(G->numRules(), 2u); // s and a (lexer rules are not Rule objects)
  EXPECT_EQ(G->findRule("s"), 0);
  EXPECT_EQ(G->findRule("a"), 1);
  EXPECT_EQ(G->rule(0).Alts.size(), 2u);
  // Tokens: 'x' literal, B, C.
  EXPECT_NE(G->vocabulary().lookupLiteral("x"), TokenInvalid);
  EXPECT_NE(G->vocabulary().lookup("B"), TokenInvalid);
}

TEST(GrammarParser, ForwardReferencesWork) {
  auto G = parseOrFail(R"(
grammar T;
a : b ;
b : C ;
C : 'c' ;
)");
  ASSERT_TRUE(G);
  const Element &E = G->rule(0).Alts[0].Elements[0];
  EXPECT_EQ(E.Kind, ElementKind::RuleRef);
  EXPECT_EQ(E.RuleIndex, G->findRule("b"));
}

TEST(GrammarParser, UndefinedRuleIsError) {
  DiagnosticEngine Diags;
  auto G = parseGrammarText("grammar T; a : missing ; B : 'b' ;", Diags);
  EXPECT_EQ(G, nullptr);
  EXPECT_TRUE(Diags.contains("undefined rule 'missing'")) << Diags.str();
}

TEST(GrammarParser, LeftRecursionRejectedByValidate) {
  DiagnosticEngine Diags;
  // Indirect left recursion: a -> b -> a.
  auto G = parseGrammarText(R"(
grammar T;
a : b X ;
b : a Y | Z ;
X:'x'; Y:'y'; Z:'z';
)",
                            Diags);
  EXPECT_EQ(G, nullptr);
  EXPECT_TRUE(Diags.contains("left-recursive")) << Diags.str();
}

TEST(GrammarParser, OptionsParsed) {
  auto G = parseOrFail(R"(
grammar T;
options { backtrack=true; memoize=false; m=3; maxDfaStates=99; }
a : B ;
B : 'b' ;
)");
  ASSERT_TRUE(G);
  EXPECT_TRUE(G->Options.Backtrack);
  EXPECT_FALSE(G->Options.Memoize);
  EXPECT_EQ(G->Options.MaxRecursionDepth, 3);
  EXPECT_EQ(G->Options.MaxDfaStates, 99);
}

TEST(GrammarParser, BadIntegerOptionIsADiagnostic) {
  // Non-numbers, values past int32, zero, negatives and trailing junk are
  // each reported, never thrown; the option keeps its default.
  const char *Values[] = {"abc", "99999999999", "0", "-1", "12x"};
  for (const char *Key : {"maxDfaStates", "m"}) {
    for (const char *V : Values) {
      SCOPED_TRACE(std::string(Key) + " = " + V);
      DiagnosticEngine Diags;
      auto G = parseGrammarText(std::string("grammar T; options { ") + Key +
                                    " = " + V + "; } a : B ; B : 'b' ;",
                                Diags);
      EXPECT_TRUE(Diags.hasErrors());
      EXPECT_TRUE(Diags.contains("expects a positive integer")) << Diags.str();
    }
  }
  auto G = parseOrFail(
      "grammar T; options { m = +7; maxDfaStates = 2147483647; } a : B ; "
      "B : 'b' ;");
  ASSERT_TRUE(G);
  EXPECT_EQ(G->Options.MaxRecursionDepth, 7);
  EXPECT_EQ(G->Options.MaxDfaStates, 2147483647);
}

TEST(GrammarParser, UnknownOptionWarns) {
  DiagnosticEngine Diags;
  auto G = parseGrammarText(
      "grammar T; options { output=AST; } a : B ; B : 'b' ;", Diags);
  EXPECT_TRUE(G);
  EXPECT_TRUE(Diags.contains("unknown option")) << Diags.str();
}

TEST(GrammarParser, TokensBlockDeclaresTypes) {
  auto G = parseOrFail(R"(
grammar T;
tokens { IMPORTED; OTHER; }
a : IMPORTED OTHER ;
)");
  ASSERT_TRUE(G);
  EXPECT_NE(G->vocabulary().lookup("IMPORTED"), TokenInvalid);
  EXPECT_NE(G->vocabulary().lookup("OTHER"), TokenInvalid);
}

TEST(GrammarParser, EbnfSuffixesOnAtoms) {
  auto G = parseOrFail(R"(
grammar T;
a : B* c? D+ ;
c : C ;
B:'b'; C:'c'; D:'d';
)");
  ASSERT_TRUE(G);
  const auto &Elements = G->rule(0).Alts[0].Elements;
  ASSERT_EQ(Elements.size(), 3u);
  EXPECT_EQ(Elements[0].Kind, ElementKind::Block);
  EXPECT_EQ(Elements[0].Repeat, BlockRepeat::Star);
  EXPECT_EQ(Elements[1].Repeat, BlockRepeat::Optional);
  EXPECT_EQ(Elements[2].Repeat, BlockRepeat::Plus);
}

TEST(GrammarParser, SynPredCreatesFragmentRule) {
  auto G = parseOrFail(R"(
grammar T;
t : (B C)=> B C | B D ;
B:'b'; C:'c'; D:'d';
)");
  ASSERT_TRUE(G);
  // One user rule + one hidden fragment.
  ASSERT_EQ(G->numRules(), 2u);
  const Rule &Frag = G->rule(1);
  EXPECT_TRUE(Frag.IsSynPredFragment);
  const Element &E = G->rule(0).Alts[0].Elements[0];
  EXPECT_EQ(E.Kind, ElementKind::SynPred);
  EXPECT_EQ(E.SynPredRule, Frag.Index);
}

TEST(GrammarParser, PredicatesAndActions) {
  auto G = parseOrFail(R"(
grammar T;
a : {isFoo}? B {doThing} {{always}} ;
B : 'b' ;
)");
  ASSERT_TRUE(G);
  const auto &Elements = G->rule(0).Alts[0].Elements;
  ASSERT_EQ(Elements.size(), 4u);
  EXPECT_EQ(Elements[0].Kind, ElementKind::SemPred);
  EXPECT_EQ(Elements[0].Name, "isFoo");
  EXPECT_EQ(Elements[2].Kind, ElementKind::Action);
  EXPECT_FALSE(Elements[2].AlwaysAction);
  EXPECT_EQ(Elements[3].Kind, ElementKind::Action);
  EXPECT_TRUE(Elements[3].AlwaysAction);
}

TEST(GrammarParser, LexerFragmentsInline) {
  auto G = parseOrFail(R"(
grammar T;
n : NUM ;
NUM : DIGIT+ ('.' DIGIT+)? ;
fragment DIGIT : [0-9] ;
)");
  ASSERT_TRUE(G);
  // Fragment produces no token rule of its own; the '.' is part of NUM's
  // regex, not an implicit parser literal. Only NUM remains.
  EXPECT_EQ(G->lexerSpec().Rules.size(), 1u);
}

TEST(GrammarParser, RecursiveLexerRuleRejected) {
  DiagnosticEngine Diags;
  auto G = parseGrammarText(R"(
grammar T;
n : A ;
A : 'x' B ;
B : 'y' A ;
)",
                            Diags);
  EXPECT_EQ(G, nullptr);
  EXPECT_TRUE(Diags.contains("recursive")) << Diags.str();
}

TEST(GrammarParser, CharSetsRangesAndNegation) {
  auto G = parseOrFail(R"(
grammar T;
s : STR ;
STR : '"' (~["\\] | '\\' .)* '"' ;
HEX : '0' ('x'|'X') ('a'..'f' | [0-9])+ ;
)");
  ASSERT_TRUE(G);
  EXPECT_EQ(G->lexerSpec().Rules.size(), 2u);
}

TEST(GrammarParser, RuleRedefinitionIsError) {
  DiagnosticEngine Diags;
  auto G = parseGrammarText("grammar T; a : B ; a : C ; B:'b'; C:'c';",
                            Diags);
  EXPECT_EQ(G, nullptr);
  EXPECT_TRUE(Diags.contains("redefined")) << Diags.str();
}

TEST(GrammarParser, EmptyAlternativeAllowed) {
  auto G = parseOrFail(R"(
grammar T;
a : B | ;
B : 'b' ;
)");
  ASSERT_TRUE(G);
  EXPECT_EQ(G->rule(0).Alts.size(), 2u);
  EXPECT_TRUE(G->rule(0).Alts[1].Elements.empty());
  EXPECT_TRUE(G->ruleIsNullable(0));
}

TEST(GrammarParser, NullabilityComputation) {
  auto G = parseOrFail(R"(
grammar T;
a : b c ;
b : B? ;
c : C* ;
d : D ;
B:'b'; C:'c'; D:'d';
)");
  ASSERT_TRUE(G);
  EXPECT_TRUE(G->ruleIsNullable(G->findRule("a")));
  EXPECT_TRUE(G->ruleIsNullable(G->findRule("b")));
  EXPECT_TRUE(G->ruleIsNullable(G->findRule("c")));
  EXPECT_FALSE(G->ruleIsNullable(G->findRule("d")));
}

TEST(GrammarParser, GrammarPrinting) {
  auto G = parseOrFail(R"(
grammar T;
a : B c* | {p}? C ;
c : C ;
B:'b'; C:'c';
)");
  ASSERT_TRUE(G);
  std::string S = G->str();
  EXPECT_NE(S.find("a : B (c)* | {p}? C ;"), std::string::npos) << S;
}

TEST(GrammarParser, ErrorRecoverySkipsToNextRule) {
  DiagnosticEngine Diags;
  // First rule is malformed; parser must still see the second.
  auto G = parseGrammarText(R"(
grammar T;
a : ) ;
b : B ;
B : 'b' ;
)",
                            Diags);
  EXPECT_EQ(G, nullptr); // errors reported
  EXPECT_TRUE(Diags.hasErrors());
  // But not a cascade of bogus errors about rule b.
  EXPECT_LE(Diags.errorCount(), 2u) << Diags.str();
}

} // namespace
