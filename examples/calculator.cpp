//===- examples/calculator.cpp - Expression evaluator ---------------------===//
//
// A calculator built on the paper's Section 1.1 extension: the expression
// rule is written with natural immediate left recursion and the toolkit
// rewrites it into a precedence-predicated loop automatically. Alternative
// order encodes precedence (highest first); `{assoc=right}` marks
// right-associative operators.
//
// Usage: calculator ["expression"]...
//        (with no arguments, evaluates a built-in demo set)
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalyzedGrammar.h"
#include "lexer/Lexer.h"
#include "lexer/TokenStream.h"
#include "runtime/LLStarParser.h"

#include <cmath>
#include <cstdio>
#include <functional>

using namespace llstar;

namespace {

const char *CalcGrammar = R"(
grammar Calc;
s : e EOF ;
e : {assoc=right} e '^' e
  | '-' e
  | e ('*' | '/') e
  | e ('+' | '-') e
  | '(' e ')'
  | NUM
  ;
NUM : [0-9]+ ('.' [0-9]+)? ;
WS  : [ \t\r\n]+ -> skip ;
)";

/// Evaluates the loop-form tree the precedence rewrite produces: an
/// operand head, then (operator, operand) pairs folded left to right.
double evalNode(const ParseTree *N) {
  if (N->isToken())
    return std::strtod(std::string(N->token().Text).c_str(), nullptr);

  size_t I = 0;
  double V = 0;
  const ParseTree *Head = N->child(0);
  if (Head->isToken() && Head->token().Text == "(") {
    V = evalNode(N->child(1));
    I = 3; // '(' e ')'
  } else if (Head->isToken() && Head->token().Text == "-") {
    V = -evalNode(N->child(1));
    I = 2; // '-' e
  } else {
    V = evalNode(Head);
    I = 1;
  }
  while (I + 1 < N->numChildren() + 1 && I < N->numChildren()) {
    std::string_view Op = N->child(I)->token().Text;
    double R = evalNode(N->child(I + 1));
    if (Op == "+")
      V += R;
    else if (Op == "-")
      V -= R;
    else if (Op == "*")
      V *= R;
    else if (Op == "/")
      V /= R;
    else if (Op == "^")
      V = std::pow(V, R);
    I += 2;
  }
  return V;
}

} // namespace

int main(int Argc, char **Argv) {
  DiagnosticEngine Diags;
  auto AG = analyzeGrammarText(CalcGrammar, Diags);
  if (!AG) {
    std::fprintf(stderr, "grammar error:\n%s", Diags.str().c_str());
    return 1;
  }
  std::printf("rewritten expression rule:\n  %s\n",
              AG->grammar().str().c_str());

  DiagnosticEngine LexDiags;
  Lexer L(AG->grammar().lexerSpec(), LexDiags);

  std::vector<std::string> Inputs;
  for (int I = 1; I < Argc; ++I)
    Inputs.push_back(Argv[I]);
  if (Inputs.empty())
    Inputs = {"1 + 2 * 3", "2 ^ 3 ^ 2",      "-3 + 4",
              "(1 + 2) * (3 + 4)", "10 - 2 - 3", "2 * (3 + 4) ^ 2"};

  int Failures = 0;
  for (const std::string &Input : Inputs) {
    DiagnosticEngine D;
    TokenStream Stream(L.tokenize(Input, D));
    LLStarParser P(*AG, Stream, nullptr, D);
    auto Tree = P.parse("s");
    if (!P.ok()) {
      std::printf("%-22s => error: %s", Input.c_str(),
                  D.diagnostics().front().str().c_str());
      ++Failures;
      continue;
    }
    // s : e EOF ; — the expression is the first child.
    std::printf("%-22s => %g\n", Input.c_str(), evalNode(Tree->child(0)));
  }
  return Failures == 0 ? 0 : 1;
}
