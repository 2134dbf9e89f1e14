//===- tests/RegexTests.cpp - Regex substrate tests -----------------------===//
//
// The regex engine (AST -> Thompson NFA -> subset-constructed DFA) is the
// lexer substrate. Property tests check the DFA against the NFA reference
// matcher on random inputs, and minimization against the unminimized DFA.
//
//===----------------------------------------------------------------------===//

#include "regex/CharDFA.h"
#include "regex/NFA.h"
#include "regex/RegexParser.h"
#include "support/Diagnostics.h"

#include <gtest/gtest.h>

#include <random>

using namespace llstar;
using namespace llstar::regex;

namespace {

RegexNode::Ptr parseOrFail(const std::string &Pattern) {
  DiagnosticEngine Diags;
  RegexNode::Ptr Re = parseRegex(Pattern, Diags);
  EXPECT_TRUE(Re) << "pattern /" << Pattern << "/ failed:\n" << Diags.str();
  return Re;
}

/// Compiles one pattern and checks acceptance of the whole input.
bool matches(const std::string &Pattern, const std::string &Input) {
  RegexNode::Ptr Re = parseOrFail(Pattern);
  if (!Re)
    return false;
  Nfa N;
  N.addPattern(*Re, /*Tag=*/0, /*Priority=*/0);
  return CharDfa::fromNfa(N).matchWhole(Input) == 0;
}

TEST(Regex, Literals) {
  EXPECT_TRUE(matches("abc", "abc"));
  EXPECT_FALSE(matches("abc", "ab"));
  EXPECT_FALSE(matches("abc", "abcd"));
  EXPECT_FALSE(matches("abc", ""));
}

TEST(Regex, Alternation) {
  EXPECT_TRUE(matches("cat|dog", "cat"));
  EXPECT_TRUE(matches("cat|dog", "dog"));
  EXPECT_FALSE(matches("cat|dog", "cow"));
}

TEST(Regex, Quantifiers) {
  EXPECT_TRUE(matches("a*", ""));
  EXPECT_TRUE(matches("a*", "aaaa"));
  EXPECT_FALSE(matches("a+", ""));
  EXPECT_TRUE(matches("a+", "a"));
  EXPECT_TRUE(matches("ab?c", "ac"));
  EXPECT_TRUE(matches("ab?c", "abc"));
  EXPECT_FALSE(matches("ab?c", "abbc"));
}

TEST(Regex, Classes) {
  EXPECT_TRUE(matches("[a-z]+", "hello"));
  EXPECT_FALSE(matches("[a-z]+", "Hello"));
  EXPECT_TRUE(matches("[^0-9]+", "abc!"));
  EXPECT_FALSE(matches("[^0-9]+", "ab1"));
  EXPECT_TRUE(matches("[a\\-z]", "-")); // escaped dash is literal
  EXPECT_TRUE(matches("[]x]", "]"));    // ']' first in class is literal
}

TEST(Regex, EscapesAndDot) {
  EXPECT_TRUE(matches("a\\.b", "a.b"));
  EXPECT_FALSE(matches("a\\.b", "axb"));
  EXPECT_TRUE(matches("a.b", "axb"));
  EXPECT_TRUE(matches("\\n", "\n"));
  EXPECT_TRUE(matches("\\x41", "A"));
}

TEST(Regex, Grouping) {
  EXPECT_TRUE(matches("(ab)+", "ababab"));
  EXPECT_FALSE(matches("(ab)+", "aba"));
  EXPECT_TRUE(matches("(a|b)*c", "abbac"));
}

TEST(Regex, ParseErrors) {
  DiagnosticEngine Diags;
  EXPECT_EQ(parseRegex("(a", Diags), nullptr);
  EXPECT_EQ(parseRegex("a)", Diags), nullptr);
  EXPECT_EQ(parseRegex("[a-", Diags), nullptr);
  EXPECT_EQ(parseRegex("*a", Diags), nullptr);
  EXPECT_EQ(parseRegex("[z-a]", Diags), nullptr);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Regex, MatchesEmptyComputation) {
  EXPECT_TRUE(parseOrFail("a*")->matchesEmpty());
  EXPECT_TRUE(parseOrFail("a?b*")->matchesEmpty());
  EXPECT_FALSE(parseOrFail("a+")->matchesEmpty());
  EXPECT_TRUE(parseOrFail("(a|b*)")->matchesEmpty());
  EXPECT_FALSE(parseOrFail("(a|b)c*")->matchesEmpty());
}

TEST(Regex, MultiPatternPriority) {
  // "if" (priority 0) must beat identifier (priority 1) on a tie.
  Nfa N;
  N.addPattern(*parseOrFail("if"), /*Tag=*/1, /*Priority=*/0);
  N.addPattern(*parseOrFail("[a-z]+"), /*Tag=*/2, /*Priority=*/1);
  CharDfa D = CharDfa::fromNfa(N);
  EXPECT_EQ(D.matchWhole("if"), 1);
  EXPECT_EQ(D.matchWhole("iff"), 2);
  EXPECT_EQ(D.matchWhole("x"), 2);
}

TEST(Regex, LongestPrefixMatch) {
  Nfa N;
  N.addPattern(*parseOrFail("a+"), 0, 0);
  CharDfa D = CharDfa::fromNfa(N);
  int32_t Tag = -1;
  EXPECT_EQ(D.matchLongestPrefix("aaab", Tag), 3);
  EXPECT_EQ(Tag, 0);
  EXPECT_EQ(D.matchLongestPrefix("b", Tag), -1);
}

/// Random-input agreement between the DFA, the minimized DFA, and the NFA
/// reference matcher.
struct PatternCase {
  const char *Pattern;
};

// Print the pattern, not the struct's bytes, so each case's name is stable
// from build to build.
void PrintTo(const PatternCase &C, std::ostream *OS) {
  *OS << ::testing::PrintToString(C.Pattern);
}

class RegexEquivalence : public ::testing::TestWithParam<PatternCase> {};

TEST_P(RegexEquivalence, DfaAgreesWithNfaAndMinimized) {
  RegexNode::Ptr Re = parseOrFail(GetParam().Pattern);
  ASSERT_TRUE(Re);
  Nfa N;
  N.addPattern(*Re, 0, 0);
  CharDfa D = CharDfa::fromNfa(N);
  CharDfa Min = D.minimized();
  EXPECT_LE(Min.size(), D.size());

  std::mt19937 Rng(1234);
  const char Alphabet[] = "abc01.";
  for (int Trial = 0; Trial < 500; ++Trial) {
    size_t Len = Rng() % 10;
    std::string Input;
    for (size_t I = 0; I < Len; ++I)
      Input += Alphabet[Rng() % (sizeof(Alphabet) - 1)];
    int32_t Expected = N.matchWhole(Input);
    EXPECT_EQ(D.matchWhole(Input), Expected) << "/" << GetParam().Pattern
                                             << "/ on \"" << Input << "\"";
    EXPECT_EQ(Min.matchWhole(Input), Expected)
        << "minimized /" << GetParam().Pattern << "/ on \"" << Input << "\"";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, RegexEquivalence,
    ::testing::Values(PatternCase{"a*b"}, PatternCase{"(a|b)*abb"},
                      PatternCase{"a?a?a?aaa"}, PatternCase{"[a-c]+[0-1]*"},
                      PatternCase{"(ab|ba)*"}, PatternCase{"a(b|c)*a|b+"},
                      PatternCase{"(a|b)(a|b)(a|b)"}, PatternCase{"[^a]b*"},
                      PatternCase{"((a)|(ab))(c|bc)"}));

TEST(Regex, MinimizationReachesMinimum) {
  // a?a?a? has a known 4-state minimal DFA (counting 0..3 a's) plus no dead
  // state in our representation.
  RegexNode::Ptr Re = parseOrFail("a?a?a?");
  Nfa N;
  N.addPattern(*Re, 0, 0);
  CharDfa Min = CharDfa::fromNfa(N).minimized();
  EXPECT_EQ(Min.size(), 4u);
}

} // namespace
