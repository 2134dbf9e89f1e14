//===- tests/CodegenTests.cpp - Serialization and code generation ---------===//
//
// Round-trip tests for the compiled-grammar format and the emitted native
// module: a deserialized grammar must lex, predict, and parse exactly like
// the freshly analyzed one — including backtracking grammars with
// predicate edges and precedence-rewritten rules.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "codegen/CompiledModuleEmitter.h"
#include "codegen/Serializer.h"

#include <gtest/gtest.h>

using namespace llstar;
using namespace llstar::test;

namespace {

/// Parses \p Input with both the original and a round-tripped grammar and
/// compares outcome + tree shape.
void expectRoundTripParse(const AnalyzedGrammar &AG, const std::string &Text,
                          const std::string &Input,
                          const std::string &StartRule) {
  std::string Blob = serializeGrammar(AG);
  DiagnosticEngine Diags;
  auto CG = deserializeGrammar(Blob, Diags);
  ASSERT_TRUE(CG) << Diags.str() << "\nblob:\n" << Blob.substr(0, 400);

  // Original.
  TokenStream S1 = lexOrFail(AG, Input);
  DiagnosticEngine D1;
  LLStarParser P1(AG, S1, nullptr, D1);
  auto T1 = P1.parse(StartRule);

  // Round-tripped (uses the deserialized lexer tables too).
  DiagnosticEngine LexDiags;
  TokenStream S2(CG->tokenize(Input, LexDiags));
  ASSERT_FALSE(LexDiags.hasErrors()) << LexDiags.str();
  DiagnosticEngine D2;
  LLStarParser P2(*CG->AG, S2, nullptr, D2);
  auto T2 = P2.parse(StartRule);

  EXPECT_EQ(P1.ok(), P2.ok()) << "input: " << Input << "\n"
                              << D1.str() << D2.str();
  if (P1.ok() && P2.ok()) {
    EXPECT_EQ(T1->str(AG.grammar()), T2->str(CG->AG->grammar()));
  }
  (void)Text;
}

TEST(Codegen, RoundTripSimpleGrammar) {
  const char *Text = R"(
grammar T;
s : ID '=' INT ';' | ID '(' ')' ';' ;
ID : [a-z]+ ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
)";
  auto AG = analyzeOrFail(Text);
  ASSERT_TRUE(AG);
  expectRoundTripParse(*AG, Text, "x = 5 ;", "s");
  expectRoundTripParse(*AG, Text, "f ( ) ;", "s");
  expectRoundTripParse(*AG, Text, "f ( oops ;", "s");
}

TEST(Codegen, RoundTripPreservesStructures) {
  auto AG = analyzeOrFail(R"(
grammar T;
options { backtrack=true; m=2; }
s    : '-'* ID | expr ;
expr : INT | '-' expr ;
w    : . ~ID ;
ID   : [a-zA-Z_]+ ;
INT  : [0-9]+ ;
WS   : [ \t\r\n]+ -> skip ;
)");
  ASSERT_TRUE(AG);
  std::string Blob = serializeGrammar(*AG);
  DiagnosticEngine Diags;
  auto CG = deserializeGrammar(Blob, Diags);
  ASSERT_TRUE(CG) << Diags.str();

  // Options.
  EXPECT_TRUE(CG->AG->grammar().Options.Backtrack);
  EXPECT_EQ(CG->AG->grammar().Options.MaxRecursionDepth, 2);
  // Decision classification survives.
  ASSERT_EQ(CG->AG->numDecisions(), AG->numDecisions());
  for (size_t D = 0; D < AG->numDecisions(); ++D) {
    EXPECT_EQ(CG->AG->dfa(int32_t(D)).decisionClass(),
              AG->dfa(int32_t(D)).decisionClass())
        << "decision " << D;
    EXPECT_EQ(CG->AG->dfa(int32_t(D)).str(CG->AG->atn()),
              AG->dfa(int32_t(D)).str(AG->atn()))
        << "decision " << D;
  }
  // Static stats recomputed identically.
  EXPECT_EQ(CG->AG->stats().NumBacktrack, AG->stats().NumBacktrack);
  EXPECT_EQ(CG->AG->stats().NumFixed, AG->stats().NumFixed);
}

TEST(Codegen, RoundTripBacktrackingParse) {
  const char *Text = R"(
grammar T;
options { backtrack=true; m=1; }
t    : '-'* ID | expr ;
expr : INT | '-' expr ;
ID   : [a-zA-Z_]+ ;
INT  : [0-9]+ ;
WS   : [ \t\r\n]+ -> skip ;
)";
  auto AG = analyzeOrFail(Text);
  ASSERT_TRUE(AG);
  expectRoundTripParse(*AG, Text, "- - - x", "t");
  expectRoundTripParse(*AG, Text, "- - - 7", "t");
}

TEST(Codegen, RoundTripPrecedenceRules) {
  const char *Text = R"(
grammar E;
e : e '*' e | e '+' e | INT ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
)";
  auto AG = analyzeOrFail(Text);
  ASSERT_TRUE(AG);
  EXPECT_TRUE(AG->grammar().rule(0).IsPrecedenceRule);
  expectRoundTripParse(*AG, Text, "1+2*3", "e");
  expectRoundTripParse(*AG, Text, "1*2+3*4", "e");
}

TEST(Codegen, CorruptBlobsRejected) {
  auto AG = analyzeOrFail("grammar T; a : B ; B:'b';");
  ASSERT_TRUE(AG);
  std::string Blob = serializeGrammar(*AG);

  DiagnosticEngine D1;
  EXPECT_EQ(deserializeGrammar("not a grammar", D1), nullptr);
  EXPECT_TRUE(D1.hasErrors());

  DiagnosticEngine D2;
  EXPECT_EQ(deserializeGrammar(Blob.substr(0, Blob.size() / 2), D2), nullptr);
  EXPECT_TRUE(D2.hasErrors());
}

/// The bytes of the string-literal concatenation that initializes
/// \p Array in emitted source \p Source, with the emitter's escapes
/// (newline, quote, backslash, three-digit octal) undone.
std::string literalBytes(const std::string &Source,
                         const std::string &Array) {
  size_t Pos = Source.find("const char " + Array + "[] =");
  if (Pos == std::string::npos)
    return "";
  size_t End = Source.find(";\n", Pos);
  std::string Bytes;
  bool InLiteral = false;
  for (size_t I = Pos; I < End; ++I) {
    char C = Source[I];
    if (C == '"') {
      InLiteral = !InLiteral;
    } else if (InLiteral && C == '\\') {
      char E = Source[++I];
      if (E == 'n') {
        Bytes += '\n';
      } else if (E >= '0' && E <= '7') {
        Bytes += char((E - '0') * 64 + (Source[I + 1] - '0') * 8 +
                      (Source[I + 2] - '0'));
        I += 2;
      } else {
        Bytes += E;
      }
    } else if (InLiteral) {
      Bytes += C;
    }
  }
  return Bytes;
}

TEST(Codegen, GeneratedCppShape) {
  const char *Text = R"(
grammar Calc;
e : t ('+' t)* ;
t : INT | '"' '\\' ;
INT : [0-9]+ ;
WS : [ ]+ -> skip ;
)";
  auto AG = analyzeOrFail(Text);
  ASSERT_TRUE(AG);
  std::string Source = emitCompiledModule(*AG);

  // One generated body per rule, named after it, and the module object.
  EXPECT_NE(Source.find("bool Rule0(LLStarParser &P, NodeRef Parent) { // e"),
            std::string::npos);
  EXPECT_NE(Source.find("bool Rule1(LLStarParser &P, NodeRef Parent) { // t"),
            std::string::npos);
  EXPECT_NE(Source.find("const CompiledGrammarModule kModule_Calc = {"),
            std::string::npos);
  EXPECT_NE(Source.find("/*Payload=*/{kPayload, sizeof(kPayload) - 1},"),
            std::string::npos);

  // The embedded payload, read back through the C++ escaping, is the
  // grammar's serialization and loads without analysis.
  std::string Payload = serializeGrammar(*AG);
  EXPECT_NE(Payload.find("\\"), std::string::npos) << "escapes exercised";
  EXPECT_EQ(literalBytes(Source, "kPayload"), Payload);
  DiagnosticEngine Diags;
  auto CG = deserializeGrammar(literalBytes(Source, "kPayload"), Diags);
  ASSERT_NE(CG, nullptr) << Diags.str();
  EXPECT_EQ(CG->AG->grammar().findRule("t"), 1);
  expectRoundTripParse(*AG, Text, "1 + 2 + 3", "e");

  // Emission is deterministic, across separate analyses too.
  auto Again = analyzeOrFail(Text);
  ASSERT_TRUE(Again);
  EXPECT_EQ(emitCompiledModule(*Again), Source);
}

TEST(Codegen, RoundTripSemanticPredicates) {
  const char *Text = R"(
grammar T;
stat : {isType}? ID ID ';' | ID ID ';' ;
ID : [a-zA-Z]+ ;
WS : [ \t\r\n]+ -> skip ;
)";
  auto AG = analyzeOrFail(Text);
  ASSERT_TRUE(AG);
  std::string Blob = serializeGrammar(*AG);
  DiagnosticEngine Diags;
  auto CG = deserializeGrammar(Blob, Diags);
  ASSERT_TRUE(CG) << Diags.str();

  for (bool IsType : {true, false}) {
    SemanticEnv Env;
    Env.definePredicate("isType", [&] { return IsType; });
    DiagnosticEngine LexDiags;
    TokenStream Stream(CG->tokenize("T x ;", LexDiags));
    DiagnosticEngine PD;
    LLStarParser P(*CG->AG, Stream, &Env, PD);
    P.parse("stat");
    EXPECT_TRUE(P.ok()) << PD.str();
    EXPECT_TRUE(PD.empty()) << PD.str(); // predicate found, no warnings
  }
}

} // namespace
