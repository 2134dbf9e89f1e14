//===- tests/GrammarPackTests.cpp - grammars/ directory sweep -------------===//
//
// Every grammar shipped in grammars/ must analyze cleanly and parse its
// sample inputs — the same files a user would feed `llstar analyze` and
// `llstar parse`.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace llstar;
using namespace llstar::test;

namespace {

std::string readGrammarFile(const std::string &Name) {
  std::string Path = std::string(LLSTAR_SOURCE_DIR) + "/grammars/" + Name;
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

struct PackCase {
  const char *File;
  const char *Start;
  std::vector<const char *> Good;
  std::vector<const char *> Bad;
};

// Print the grammar file, not the struct's bytes, so each case's name is
// stable from build to build.
void PrintTo(const PackCase &C, std::ostream *OS) {
  *OS << ::testing::PrintToString(C.File);
}

class GrammarPack : public ::testing::TestWithParam<PackCase> {};

TEST_P(GrammarPack, AnalyzesAndParses) {
  const PackCase &C = GetParam();
  auto AG = analyzeOrFail(readGrammarFile(C.File));
  ASSERT_TRUE(AG);
  for (const char *Input : C.Good)
    EXPECT_TRUE(parses(*AG, Input, C.Start))
        << C.File << " should accept: " << Input;
  for (const char *Input : C.Bad)
    EXPECT_FALSE(parses(*AG, Input, C.Start))
        << C.File << " should reject: " << Input;
}

INSTANTIATE_TEST_SUITE_P(
    Pack, GrammarPack,
    ::testing::Values(
        PackCase{"json.g",
                 "json",
                 {R"({"a": [1, 2.5e3, true], "b": {"c": null}})", "42",
                  R"("str")", "[[],[]]"},
                 {R"({"a":})", "[1,]", "{1: 2}"}},
        PackCase{"csv.g",
                 "file",
                 {"a,b,c\n1,2,3\n4,,6\n", "x\n",
                  "\"quoted, field\",\"with \"\"escapes\"\"\"\nplain,2\n"},
                 {"a,b\n\"q\"x\n"}},
        PackCase{"sexpr.g",
                 "program",
                 {"(define (sq x) (* x x))", "'(1 2 3)", "(+ 1 (- 2 3)) ; c",
                  "atom"},
                 {"(unbalanced", "())("}},
        PackCase{"dot.g",
                 "graph",
                 {"digraph G { a -> b; b -> c [label=\"e\"]; }",
                  "strict graph { node [shape=box] x; y; x -- y; }",
                  "digraph { subgraph cluster { a; } a -> b -> c; "
                  "rankdir = LR; }"},
                 {"digraph { a -> ; }", "graph a -- b"}},
        PackCase{"lambda.g",
                 "program",
                 {"lambda x . x", "let id = lambda x . x in id id 42",
                  "(lambda f . lambda x . f (f x)) succ 0"},
                 {"lambda . x", "let x = in x"}},
        PackCase{"ini.g",
                 "file",
                 {"[a]\nkey = 1\nlist = x, y, z\n[b]\ns = \"v\"\n",
                  "# only comments\n"},
                 {"[unclosed\n", "[a]\nnoequals\n"}}));

TEST(GrammarPack, LambdaApplicationIsLeftAssociative) {
  auto AG = analyzeOrFail(readGrammarFile("lambda.g"));
  ASSERT_TRUE(AG);
  // `f x y` must parse as ((f x) y): the rewritten app rule's loop form is
  // (app f x y) — flat, folded left by convention.
  EXPECT_EQ(parseToString(*AG, "f x y", "app"),
            "(app (atom f) (atom x) (atom y))");
}

} // namespace

namespace {

TEST(GrammarPack, LuaSubset) {
  auto AG = analyzeOrFail(readGrammarFile("lua.g"));
  ASSERT_TRUE(AG);

  // The assignment-vs-call decision: both start with a long prefixexp.
  EXPECT_TRUE(parses(*AG, "a.b[k].c = v", "chunk"));
  EXPECT_TRUE(parses(*AG, "a.b[k].c(x)", "chunk"));
  EXPECT_TRUE(parses(*AG, "a.b, c[1] = 1, 2", "chunk"));

  // Both for-forms.
  EXPECT_TRUE(parses(*AG, "for i = 1, 10, 2 do print(i) end", "chunk"));
  EXPECT_TRUE(parses(*AG, "for k, v in pairs(t) do print(k, v) end",
                     "chunk"));

  // A realistic snippet.
  EXPECT_TRUE(parses(*AG, R"(
-- fib
local function fib(n)
  if n < 2 then return n end
  return fib(n - 1) + fib(n - 2)
end

local t = { x = 1, [2] = "two", 3; nested = { a, b } }
while t.x < 10 do
  t.x = t.x + 1
end
repeat
  io.write("hello", "\n")
until done or #t > 5
print(fib(10), 2 ^ 3 ^ 2, "a" .. "b" .. "c", not flag)
obj:method(arg){ extra = 1 }
)",
                     "chunk"));

  // Rejections.
  EXPECT_FALSE(parses(*AG, "a.b = ", "chunk"));
  EXPECT_FALSE(parses(*AG, "if x then y() end end", "chunk"));
  EXPECT_FALSE(parses(*AG, "for = 1, 2 do end", "chunk"));
}

TEST(GrammarPack, LuaRightAssociativity) {
  auto AG = analyzeOrFail(readGrammarFile("lua.g"));
  ASSERT_TRUE(AG);
  // 2^3^2 nests right: (exp 2 ^ (exp 3 ^ (exp 2))).
  EXPECT_EQ(parseToString(*AG, "2^3^2", "exp"),
            "(exp 2 ^ (exp 3 ^ (exp 2)))");
  // .. nests right as well.
  std::string Concat = parseToString(*AG, "a .. b .. c", "exp");
  EXPECT_NE(Concat.find(".. (exp"), std::string::npos) << Concat;
}

} // namespace
