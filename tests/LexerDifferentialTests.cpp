//===- tests/LexerDifferentialTests.cpp - Lexer vs a naive reference ------===//
//
// Lexer::tokenize runs one maximal-munch core that skips self-loop runs
// through per-state tables and derives line/column from matched spans.
// These tests hold it to a deliberately naive reference: repeated
// CharDfa::matchLongestPrefix calls plus byte-by-byte newline counting.
// Inputs are seeded random strings over each shipped grammar's alphabet
// (long runs, CRLF, stray bytes, truncation at every kind of token
// boundary) and hand-picked edge cases. Every token must agree in type,
// text, offset, line, column, index, and channel; the diagnostics must
// agree; every token text must view the input buffer itself; and the
// core's LookEnd must equal a byte-by-byte walk to the automaton's death.
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalyzedGrammar.h"
#include "lexer/Lexer.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <random>
#include <set>
#include <sstream>

using namespace llstar;

namespace {

/// The reference: no skip tables, no span arithmetic.
std::vector<Token> naiveTokenize(const Lexer &L, std::string_view In,
                                 DiagnosticEngine &Diags,
                                 std::vector<Token> &Hidden) {
  std::vector<Token> Out;
  uint32_t Line = 1, Col = 0;
  size_t Pos = 0;
  while (Pos < In.size()) {
    int32_t Tag = -1;
    int64_t Len = L.dfa().matchLongestPrefix(In.substr(Pos), Tag);
    SourceLocation Loc(Line, Col);
    if (Len <= 0) {
      Diags.error(Loc, "unrecognized character '" + escapeChar(In[Pos]) + "'");
      Len = 1;
    } else if (L.actions()[size_t(Tag)] == LexerAction::Emit) {
      Token T(L.types()[size_t(Tag)], In.substr(Pos, size_t(Len)), Loc);
      T.Offset = int64_t(Pos);
      T.Index = int64_t(Out.size());
      Out.push_back(T);
    } else if (L.actions()[size_t(Tag)] == LexerAction::Hidden) {
      Token T(L.types()[size_t(Tag)], In.substr(Pos, size_t(Len)), Loc);
      T.Offset = int64_t(Pos);
      T.Channel = TokenChannel::Hidden;
      Hidden.push_back(T);
    }
    for (size_t I = Pos; I < Pos + size_t(Len); ++I) {
      if (In[I] == '\n') {
        ++Line;
        Col = 0;
      } else {
        ++Col;
      }
    }
    Pos += size_t(Len);
  }
  Token Eof(TokenEof, EofText, SourceLocation(Line, Col));
  Eof.Offset = int64_t(In.size());
  Eof.Index = int64_t(Out.size());
  Out.push_back(Eof);
  return Out;
}

/// One past the last byte a plain DFA walk from \p Pos examines; the text
/// size plus one when it runs off the end alive.
int64_t naiveLookEnd(const Lexer &L, std::string_view In, size_t Pos) {
  const std::vector<regex::CharDfaState> &States = L.dfa().states();
  int32_t S = 0;
  for (size_t I = Pos; I < In.size(); ++I) {
    S = States[size_t(S)].Next[static_cast<unsigned char>(In[I])];
    if (S < 0)
      return int64_t(I) + 1;
  }
  return int64_t(In.size()) + 1;
}

void expectSameTokens(const std::vector<Token> &A, const std::vector<Token> &B,
                      const char *What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  for (size_t I = 0; I < A.size(); ++I) {
    SCOPED_TRACE(std::string(What) + " token " + std::to_string(I));
    EXPECT_EQ(A[I].Type, B[I].Type);
    EXPECT_EQ(A[I].Text, B[I].Text);
    EXPECT_EQ(A[I].Offset, B[I].Offset);
    EXPECT_EQ(A[I].Loc.Line, B[I].Loc.Line);
    EXPECT_EQ(A[I].Loc.Column, B[I].Loc.Column);
    EXPECT_EQ(A[I].Index, B[I].Index);
    EXPECT_EQ(A[I].Channel, B[I].Channel);
  }
}

/// True when \p Text lies inside \p Buffer (a view, not a copy).
bool viewsInto(std::string_view Text, std::string_view Buffer) {
  std::less_equal<const char *> LE;
  return LE(Buffer.data(), Text.data()) &&
         LE(Text.data() + Text.size(), Buffer.data() + Buffer.size());
}

void checkAgainstReference(const Lexer &L, const std::string &In) {
  SCOPED_TRACE("input <" + escapeString(In) + ">");
  DiagnosticEngine D1, D2;
  std::vector<Token> H1, H2;
  std::vector<Token> Fast = L.tokenize(In, D1, &H1);
  std::vector<Token> Slow = naiveTokenize(L, In, D2, H2);
  expectSameTokens(Fast, Slow, "parse stream");
  expectSameTokens(H1, H2, "hidden stream");
  EXPECT_EQ(D1.str(), D2.str());

  for (const std::vector<Token> *V : {&Fast, &H1}) {
    for (const Token &T : *V) {
      if (!T.isEof()) {
        EXPECT_TRUE(viewsInto(T.Text, In))
            << "token at " << T.Offset << " does not view the input";
      }
    }
  }
  EXPECT_EQ(Fast.back().Text, EofText);

  // The core's overshoot bookkeeping, at every lexeme start.
  for (size_t Pos = 0; Pos < In.size();) {
    Lexer::Munch M = L.munch(In, Pos);
    ASSERT_EQ(M.LookEnd, naiveLookEnd(L, In, Pos)) << "at " << Pos;
    Pos += size_t(M.Len);
  }
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream S;
  S << In.rdbuf();
  return S.str();
}

struct GrammarLexer {
  std::unique_ptr<AnalyzedGrammar> AG;
  std::unique_ptr<Lexer> Lex;
  std::string Source;
};

GrammarLexer loadGrammar(const std::string &Name) {
  GrammarLexer G;
  G.Source = readFile(std::string(LLSTAR_SOURCE_DIR) + "/grammars/" + Name);
  DiagnosticEngine Diags;
  G.AG = analyzeGrammarText(G.Source, Diags);
  EXPECT_TRUE(G.AG) << Name << ": " << Diags.str();
  if (G.AG)
    G.Lex = std::make_unique<Lexer>(G.AG->grammar().lexerSpec(), Diags);
  return G;
}

/// Seeded random text over the bytes of \p G's grammar source (which covers
/// its literals and character classes), with whole literals, long runs of
/// one byte, CRLF line ends, and stray bytes mixed in.
std::string randomInput(std::mt19937 &Rng, const GrammarLexer &G) {
  std::set<char> Seen(G.Source.begin(), G.Source.end());
  std::vector<char> Alphabet(Seen.begin(), Seen.end());
  std::vector<std::string> Literals;
  const Vocabulary &V = G.AG->grammar().vocabulary();
  for (TokenType T = TokenMinUserType; T <= V.maxTokenType(); ++T)
    if (V.isLiteral(T))
      Literals.push_back(V.literalText(T));
  const char Stray[] = {'\0', '\x7f', '\x80', '\xff', '@', '`', '\x01'};

  std::string Out;
  const int Pieces = int(Rng() % 120);
  for (int P = 0; P < Pieces; ++P) {
    const unsigned Kind = Rng() % 100;
    const char C = Alphabet[Rng() % Alphabet.size()];
    if (Kind < 20 && !Literals.empty())
      Out += Literals[Rng() % Literals.size()];
    else if (Kind < 35)
      Out.append(1 + Rng() % 60, C);
    else if (Kind < 42)
      Out += "\r\n";
    else if (Kind < 46)
      Out += Stray[Rng() % sizeof(Stray)];
    else if (Kind < 60)
      Out += ' ';
    else
      Out += C;
  }
  return Out;
}

class LexerDifferential : public ::testing::TestWithParam<const char *> {};

TEST_P(LexerDifferential, RandomInputsMatchNaiveReference) {
  GrammarLexer G = loadGrammar(GetParam());
  ASSERT_TRUE(G.Lex);
  std::mt19937 Rng(20240613u);
  for (int I = 0; I < 150; ++I) {
    std::string In = randomInput(Rng, G);
    checkAgainstReference(*G.Lex, In);
    // Truncations end the text inside whatever token was running there,
    // self-loop runs included.
    for (int Cut = 0; Cut < 3 && !In.empty(); ++Cut)
      checkAgainstReference(*G.Lex, In.substr(0, Rng() % In.size()));
    if (::testing::Test::HasFailure())
      return;
  }
}

INSTANTIATE_TEST_SUITE_P(ShippedGrammars, LexerDifferential,
                         ::testing::Values("csv.g", "dot.g", "ini.g",
                                           "json.g", "lambda.g", "lua.g",
                                           "sexpr.g"),
                         [](const auto &Info) {
                           std::string N = Info.param;
                           return N.substr(0, N.find('.'));
                         });

TEST(LexerDifferentialCases, JsonEdgeCases) {
  GrammarLexer G = loadGrammar("json.g");
  ASSERT_TRUE(G.Lex);
  for (const char *In : {
           // Overshoot back-off: the walk reads past the last accept.
           "1.", "1e+", "1.5e", "-", "[1., 2e-]", "0.5E+7x",
           // Unterminated strings end the text inside a self-loop run.
           "\"abc", "[\"", "\"a\\", "{\"k\": \"v\\u00",
           // CRLF, and tokens spanning lines.
           "[1,\r\n 2]\r\n", "\"multi\nline\r\nstring\"  \n\n 3",
           // Unrecognized bytes, alone, at the ends, and between tokens.
           "@", "[1 @ 2]@", "\x80\xff", "tru", "nulll",
           // A long self-loop run, and one cut off at the end.
           "   \t\t\r\n\r\n      [ ]      ",
       })
    checkAgainstReference(*G.Lex, In);
  std::string Long = "\"" + std::string(10000, 'x') + "\"";
  checkAgainstReference(*G.Lex, Long);
  checkAgainstReference(*G.Lex, Long.substr(0, 5000));
}

TEST(LexerDifferentialCases, HiddenChannelAndMultiLineTokens) {
  DiagnosticEngine Diags;
  auto AG = analyzeGrammarText(R"(
grammar H;
s       : ID* EOF ;
ID      : [a-z]+ ;
COMMENT : '/*' (~[*] | '*' ~[/])* '*/' -> hidden ;
LINE    : '//' ~[\n]* -> hidden ;
WS      : [ \t\r\n]+ -> skip ;
)",
                               Diags);
  ASSERT_TRUE(AG) << Diags.str();
  Lexer L(AG->grammar().lexerSpec(), Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  for (const char *In : {
           "a /* one\r\n two\n three */ b // tail\nc",
           "a /* unterminated\n comment",
           "// only a comment",
           "x/**/y/* * */z",
           "a\r\n\r\n/*\n*/\r\nb $ c",
       })
    checkAgainstReference(L, In);
}

} // namespace
