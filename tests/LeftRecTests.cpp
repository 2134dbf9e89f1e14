//===- tests/LeftRecTests.cpp - Left-recursion rewrite tests --------------===//
//
// The paper's Section 1.1 extension: immediate left recursion rewritten to
// precedence-predicated loops.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "grammar/GrammarParser.h"
#include "leftrec/LeftRecursionRewriter.h"

#include <gtest/gtest.h>

using namespace llstar;
using namespace llstar::test;

namespace {

// The paper's expression rule: e : e '*' e | e '+' e | INT ;
const char *PaperExprGrammar = R"(
grammar E;
e : e '*' e | e '+' e | INT ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
)";

TEST(LeftRec, RewriteMarksRule) {
  DiagnosticEngine Diags;
  auto G = parseGrammarText(PaperExprGrammar, Diags, /*Validate=*/false);
  ASSERT_TRUE(G) << Diags.str();
  EXPECT_EQ(rewriteLeftRecursion(*G, Diags), 1);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  EXPECT_TRUE(G->rule(0).IsPrecedenceRule);
  EXPECT_EQ(G->rule(0).Alts.size(), 1u);
  // And the rewritten grammar validates (no left recursion remains).
  G->validate(Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
}

TEST(LeftRec, PaperExamplePrecedence) {
  auto AG = analyzeOrFail(PaperExprGrammar);
  ASSERT_TRUE(AG);
  // '*' binds tighter than '+' (alternative order encodes precedence).
  EXPECT_EQ(parseToString(*AG, "1+2*3", "e"), "(e 1 + (e 2 * (e 3)))");
  EXPECT_EQ(parseToString(*AG, "1*2+3", "e"), "(e 1 * (e 2) + (e 3))");
  // Left associativity: both ops continue the same loop.
  EXPECT_EQ(parseToString(*AG, "1+2+3", "e"), "(e 1 + (e 2) + (e 3))");
  EXPECT_EQ(parseToString(*AG, "7", "e"), "(e 7)");
}

TEST(LeftRec, ParenthesizedPrimaries) {
  auto AG = analyzeOrFail(R"(
grammar E;
e : e '*' e | e '+' e | '(' e ')' | INT ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
)");
  ASSERT_TRUE(AG);
  EXPECT_EQ(parseToString(*AG, "(1+2)*3", "e"),
            "(e ( (e 1 + (e 2)) ) * (e 3))");
  EXPECT_TRUE(parses(*AG, "((1))*((2+3))", "e"));
}

TEST(LeftRec, RightAssociativity) {
  auto AG = analyzeOrFail(R"(
grammar E;
e : {assoc=right} e '^' e | e '+' e | INT ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
)");
  ASSERT_TRUE(AG);
  // 2^3^4 must nest to the right: 2^(3^4).
  EXPECT_EQ(parseToString(*AG, "2^3^4", "e"), "(e 2 ^ (e 3 ^ (e 4)))");
  // And ^ still binds tighter than +.
  EXPECT_EQ(parseToString(*AG, "1+2^3", "e"), "(e 1 + (e 2 ^ (e 3)))");
}

TEST(LeftRec, PrefixOperators) {
  // Alternative order encodes precedence, highest first: unary minus
  // listed before '+' binds tighter, so -1+2 == (-1)+2.
  auto AG = analyzeOrFail(R"(
grammar E;
e : '-' e | e '+' e | INT ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
)");
  ASSERT_TRUE(AG);
  EXPECT_EQ(parseToString(*AG, "-1+2", "e"), "(e - (e 1) + (e 2))");
  EXPECT_EQ(parseToString(*AG, "--3", "e"), "(e - (e - (e 3)))");

  // And the converse: '-' listed after '+' binds looser, so the operand of
  // '-' swallows the addition.
  auto AG2 = analyzeOrFail(R"(
grammar E;
e : e '+' e | '-' e | INT ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
)");
  ASSERT_TRUE(AG2);
  EXPECT_EQ(parseToString(*AG2, "-1+2", "e"), "(e - (e 1 + (e 2)))");
}

TEST(LeftRec, SuffixOperators) {
  auto AG = analyzeOrFail(R"(
grammar E;
e : e '!' | e '+' e | INT ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
)");
  ASSERT_TRUE(AG);
  EXPECT_EQ(parseToString(*AG, "3!", "e"), "(e 3 !)");
  // Postfix binds tighter than '+'.
  EXPECT_EQ(parseToString(*AG, "1+2!", "e"), "(e 1 + (e 2 !))");
  EXPECT_EQ(parseToString(*AG, "1!+2", "e"), "(e 1 ! + (e 2))");
}

TEST(LeftRec, TernaryStyleMix) {
  // Mixed binary/prefix/suffix in one rule, as the paper claims the
  // mechanism supports ("sufficiently general to support suffix, prefix,
  // binary, and ternary operators").
  auto AG = analyzeOrFail(R"(
grammar E;
e : e '?' e ':' e | e '+' e | '-' e | e '!' | '(' e ')' | INT ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
)");
  ASSERT_TRUE(AG);
  EXPECT_TRUE(parses(*AG, "1?2:3", "e"));
  EXPECT_TRUE(parses(*AG, "1+2?3:-4!", "e"));
  EXPECT_TRUE(parses(*AG, "(1?2:3)+4", "e"));
}

TEST(LeftRec, EvaluatesCorrectlyViaTreeWalk) {
  auto AG = analyzeOrFail(R"(
grammar E;
e : e '*' e | e '+' e | '(' e ')' | INT ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
)");
  ASSERT_TRUE(AG);

  // Evaluate the loop-form parse tree: first child is the head operand,
  // then (op, operand) pairs applied left-to-right.
  std::function<long(const ParseTree *)> Eval =
      [&](const ParseTree *N) -> long {
    if (N->isToken())
      return std::strtol(std::string(N->token().Text).c_str(), nullptr, 10);
    size_t I = 0;
    long V = 0;
    // Parenthesized head: "(" e ")".
    if (N->child(0)->isToken() && N->child(0)->token().Text == "(") {
      V = Eval(N->child(1));
      I = 3;
    } else {
      V = Eval(N->child(0));
      I = 1;
    }
    while (I + 1 < N->numChildren() + 1 && I < N->numChildren()) {
      std::string_view Op = N->child(I)->token().Text;
      long R = Eval(N->child(I + 1));
      V = Op == "*" ? V * R : V + R;
      I += 2;
    }
    return V;
  };

  auto Check = [&](const std::string &Input, long Expected) {
    TokenStream Stream = lexOrFail(*AG, Input);
    DiagnosticEngine Diags;
    LLStarParser P(*AG, Stream, nullptr, Diags);
    auto Tree = P.parse("e");
    ASSERT_TRUE(P.ok()) << Diags.str();
    EXPECT_EQ(Eval(Tree->child(0) ? Tree.get() : Tree.get()), Expected)
        << Input;
  };

  Check("1+2*3", 7);
  Check("(1+2)*3", 9);
  Check("2*3+4*5", 26);
  Check("1+(2+3)*4", 21);
}

TEST(LeftRec, BareSelfLoopRejected) {
  DiagnosticEngine Diags;
  auto G = parseGrammarText("grammar T; a : a | B ; B:'b';", Diags,
                            /*Validate=*/false);
  ASSERT_TRUE(G);
  rewriteLeftRecursion(*G, Diags);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_TRUE(Diags.contains("bare self-reference")) << Diags.str();
}

TEST(LeftRec, NonLeftRecursiveRulesUntouched) {
  DiagnosticEngine Diags;
  auto G = parseGrammarText(R"(
grammar T;
a : B a | B ;
B : 'b' ;
)",
                            Diags, /*Validate=*/false);
  ASSERT_TRUE(G);
  EXPECT_EQ(rewriteLeftRecursion(*G, Diags), 0);
  EXPECT_FALSE(G->rule(0).IsPrecedenceRule);
}

TEST(LeftRec, AnalyzePipelineHandlesItAutomatically) {
  // analyzeGrammarText must accept left-recursive input end to end.
  DiagnosticEngine Diags;
  auto AG = analyzeGrammarText(PaperExprGrammar, Diags);
  ASSERT_TRUE(AG) << Diags.str();
  EXPECT_TRUE(AG->grammar().rule(0).IsPrecedenceRule);
}

} // namespace
