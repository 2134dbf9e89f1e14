//===- tests/IncrementalTests.cpp - Incremental lex + reparse -------------===//
//
// Coverage for src/incremental/: the EditScript JSON parser's typed
// rejections, token offset/line-column agreement between full and
// incremental tokenization on multi-line inputs, and the reuse-soundness
// contract of IncrementalSession — after every edit the session must be
// byte-identical to a from-scratch parse (scratchParse is the oracle) in
// every engine/tree/recovery mode. The adversarial cases aim edits
// directly at the subsystem's invariants: inside tokens, at
// maximal-munch boundaries, just outside the damage window where only
// maxLookaheadReach prevents unsound reuse, and into panic-recovered
// regions. `llstar-fuzz --edit-smoke` extends the same oracle to random
// edit scripts; these tests pin the targeted constructions.
//
//===----------------------------------------------------------------------===//

#include "incremental/IncrementalSession.h"
#include "service/GrammarBundleCache.h"

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <sstream>

using namespace llstar;
using namespace llstar::incremental;

namespace {

const char *ExprGrammar = R"(
grammar Expr;
s    : expr EOF ;
expr : term (('+' | '-') term)* ;
term : atom ('*' atom)* ;
atom : INT | ID | '(' expr ')' ;
INT  : [0-9]+ ;
ID   : [a-z] [a-z0-9]* ;
WS   : [ \t\r\n]+ -> skip ;
)";

std::shared_ptr<const GrammarBundle> bundleOrFail(const char *Text) {
  DiagnosticEngine Diags;
  auto Bundle = makeGrammarBundle(Text, Diags);
  EXPECT_TRUE(Bundle) << Diags.str();
  return Bundle;
}

/// All eight engine/tree/recovery combinations.
std::vector<SessionOptions> allModes() {
  std::vector<SessionOptions> Modes;
  for (int I = 0; I < 8; ++I) {
    SessionOptions SO;
    SO.UseCompiled = (I & 1) != 0;
    SO.UseArena = (I & 2) != 0;
    SO.Recover = (I & 4) == 0;
    Modes.push_back(SO);
  }
  return Modes;
}

std::string modeName(const SessionOptions &SO) {
  std::string M = SO.UseCompiled ? "compiled" : "interp";
  M += SO.UseArena ? "+arena" : "+heap";
  M += SO.Recover ? "+recover" : "+strict";
  return M;
}

/// The oracle check: the session's observable state must match a
/// from-scratch parse of the same text in the same mode, byte for byte.
void expectMatchesScratch(const IncrementalSession &S,
                          const SessionOptions &SO, const char *Where) {
  ScratchResult R = scratchParse(S.bundle(), S.text(), SO);
  const size_t Shown = 400; // large documents would flood the log
  SCOPED_TRACE(std::string(Where) + " [" + modeName(SO) + "] text <" +
               S.text().substr(0, Shown) +
               (S.text().size() > Shown ? "...>" : ">"));
  EXPECT_EQ(S.ok(), R.ParseOk);
  ASSERT_EQ(S.tokens().size(), R.Tokens.size());
  for (size_t I = 0; I < R.Tokens.size(); ++I) {
    const Token &A = S.tokens()[I];
    const Token &B = R.Tokens[I];
    EXPECT_EQ(A.Type, B.Type) << "token " << I;
    EXPECT_EQ(A.Text, B.Text) << "token " << I;
    EXPECT_EQ(A.Offset, B.Offset) << "token " << I;
    EXPECT_EQ(A.Loc.Line, B.Loc.Line) << "token " << I;
    EXPECT_EQ(A.Loc.Column, B.Loc.Column) << "token " << I;
    EXPECT_EQ(A.Index, B.Index) << "token " << I;
    if (::testing::Test::HasFailure())
      break; // one bad token usually means thousands
  }
  EXPECT_EQ(S.treeText(), R.TreeText);
  EXPECT_EQ(S.diags().str(), R.DiagText);
}

//===----------------------------------------------------------------------===//
// EditScript: typed rejections
//===----------------------------------------------------------------------===//

TEST(EditScriptTest, ParsesInitialTextSingleEditsAndBatches) {
  EditScriptParseResult R = parseEditScript(R"({
    "initial": "a A\n",
    "edits": [
      {"offset": 1, "oldLen": 0, "newText": "x"},
      [ {"offset": 0, "oldLen": 1, "newText": ""},
        {"offset": 2, "oldLen": 1, "newText": "yz"} ]
    ]
  })");
  ASSERT_TRUE(R) << R.Message;
  EXPECT_EQ(R.Script.Initial, "a A\n");
  ASSERT_EQ(R.Script.Batches.size(), 2u);
  EXPECT_EQ(R.Script.Batches[0].size(), 1u); // single edit = batch of one
  EXPECT_EQ(R.Script.Batches[1].size(), 2u);
  EXPECT_EQ(R.Script.Batches[1][1].NewText, "yz");
}

TEST(EditScriptTest, MalformedJsonIsBadJson) {
  for (const char *Bad :
       {"", "{", "[1]", "{\"edits\": [", "{\"edits\": []} trailing"}) {
    EditScriptParseResult R = parseEditScript(Bad);
    EXPECT_EQ(R.Error, EditScriptError::BadJson) << Bad << ": " << R.Message;
  }
}

TEST(EditScriptTest, MissingFieldsAreMissingField) {
  // No "edits" key at all, and an edit lacking each required field.
  for (const char *Bad :
       {"{}", "{} trailing", R"({"edits": [{"oldLen": 0, "newText": "x"}]})",
        R"({"edits": [{"offset": 0, "newText": "x"}]})",
        R"({"edits": [{"offset": 0, "oldLen": 0}]})"}) {
    EditScriptParseResult R = parseEditScript(Bad);
    EXPECT_EQ(R.Error, EditScriptError::MissingField)
        << Bad << ": " << R.Message;
  }
}

TEST(EditScriptTest, MistypedFieldsAreBadFieldType) {
  for (const char *Bad :
       {R"({"edits": [{"offset": "0", "oldLen": 0, "newText": "x"}]})",
        R"({"edits": [{"offset": 1.5, "oldLen": 0, "newText": "x"}]})",
        R"({"edits": [{"offset": 0, "oldLen": 0, "newText": 3}]})",
        R"({"edits": 7})", R"({"initial": 1, "edits": []})",
        "{\"edits\": [}"}) {
    EditScriptParseResult R = parseEditScript(Bad);
    EXPECT_EQ(R.Error, EditScriptError::BadFieldType)
        << Bad << ": " << R.Message;
  }
}

TEST(EditScriptTest, NegativeValuesAreNegativeValue) {
  for (const char *Bad :
       {R"({"edits": [{"offset": -1, "oldLen": 0, "newText": ""}]})",
        R"({"edits": [{"offset": 0, "oldLen": -2, "newText": ""}]})"}) {
    EditScriptParseResult R = parseEditScript(Bad);
    EXPECT_EQ(R.Error, EditScriptError::NegativeValue)
        << Bad << ": " << R.Message;
  }
}

TEST(EditScriptTest, OverlappingBatchSpansAreOverlap) {
  EditScriptParseResult R = parseEditScript(
      R"({"edits": [[{"offset": 0, "oldLen": 3, "newText": ""},
                     {"offset": 2, "oldLen": 1, "newText": "x"}]]})");
  EXPECT_EQ(R.Error, EditScriptError::Overlap) << R.Message;
}

TEST(EditScriptTest, NonMonotonicBatchOffsetsAreNonMonotonic) {
  EditScriptParseResult R = parseEditScript(
      R"({"edits": [[{"offset": 5, "oldLen": 0, "newText": "a"},
                     {"offset": 2, "oldLen": 0, "newText": "b"}]]})");
  EXPECT_EQ(R.Error, EditScriptError::NonMonotonic) << R.Message;
}

TEST(EditScriptTest, OutOfRangeIsCaughtAtApplyTimeAndLeavesSessionIntact) {
  EXPECT_EQ(validateEdit({10, 0, "x"}, 5), EditScriptError::OutOfRange);
  EXPECT_EQ(validateEdit({3, 4, ""}, 5), EditScriptError::OutOfRange);
  EXPECT_EQ(validateEdit({3, 2, ""}, 5), EditScriptError::None);

  auto Bundle = bundleOrFail(ExprGrammar);
  IncrementalSession S(Bundle, SessionOptions());
  ASSERT_TRUE(S.reset("1 + 2").ParseOk);
  std::string Before = S.treeText();
  EditOutcome O = S.applyEdit({99, 0, "x"});
  EXPECT_EQ(O.Error, EditScriptError::OutOfRange);
  EXPECT_EQ(S.text(), "1 + 2");       // session unchanged
  EXPECT_EQ(S.treeText(), Before);
}

//===----------------------------------------------------------------------===//
// Token offsets and line/column on multi-line inputs
//===----------------------------------------------------------------------===//

TEST(IncrementalLexTest, OffsetsAndLineColAgreeWithFullTokenizeAcrossEdits) {
  auto Bundle = bundleOrFail(ExprGrammar);
  SessionOptions SO;
  IncrementalSession S(Bundle, SO);
  ASSERT_TRUE(S.reset("one +\n  two * 3\n+ (four)\n").ParseOk);

  // Every token's byte offset must point at its own text, and line/column
  // must match a 1-based-line, 0-based-column walk of the string.
  auto CheckSelfConsistent = [&] {
    for (const Token &T : S.tokens()) {
      if (T.isEof())
        continue;
      ASSERT_LE(size_t(T.Offset) + T.Text.size(), S.text().size());
      EXPECT_EQ(S.text().substr(size_t(T.Offset), T.Text.size()), T.Text);
      uint32_t Line = 1, Col = 0;
      for (int64_t I = 0; I < T.Offset; ++I) {
        if (S.text()[size_t(I)] == '\n') {
          ++Line;
          Col = 0;
        } else {
          ++Col;
        }
      }
      EXPECT_EQ(T.Loc.Line, Line) << T.Text;
      EXPECT_EQ(T.Loc.Column, Col) << T.Text;
    }
  };
  CheckSelfConsistent();
  expectMatchesScratch(S, SO, "after reset");

  // Edits that shift offsets and line numbers of the retained suffix:
  // insert a line, delete across a newline, append at the end.
  ASSERT_EQ(S.applyEdit({6, 0, "9 *\n"}).Error, EditScriptError::None);
  CheckSelfConsistent();
  expectMatchesScratch(S, SO, "after line insert");
  ASSERT_EQ(S.applyEdit({4, 2, " "}).Error, EditScriptError::None);
  CheckSelfConsistent();
  expectMatchesScratch(S, SO, "after newline delete");
  ASSERT_EQ(S.applyEdit({int64_t(S.text().size()), 0, " * last\n"}).Error,
            EditScriptError::None);
  CheckSelfConsistent();
  expectMatchesScratch(S, SO, "after append");
}

//===----------------------------------------------------------------------===//
// Session equivalence in every mode
//===----------------------------------------------------------------------===//

TEST(IncrementalSessionTest, EditSequenceMatchesScratchInEveryMode) {
  auto Bundle = bundleOrFail(ExprGrammar);
  for (const SessionOptions &SO : allModes()) {
    IncrementalSession S(Bundle, SO);
    S.reset("1 + 2 * (3 + 4) + five");
    expectMatchesScratch(S, SO, "reset");
    struct {
      Edit E;
      const char *Label;
    } Steps[] = {
        {{4, 1, "7"}, "replace a token"},
        {{0, 0, "(9 + 8) * "}, "prefix insert"},
        {{int64_t(std::string("(9 + 8) * 1 + 7").size()), 0, " - 6"},
         "mid insert"},
        {{2, 3, ""}, "delete"},
        {{1, 1, "@"}, "lex-error byte"},
        {{1, 1, " "}, "repair"},
    };
    for (const auto &Step : Steps) {
      ASSERT_EQ(S.applyEdit(Step.E).Error, EditScriptError::None);
      expectMatchesScratch(S, SO, Step.Label);
    }
  }
}

TEST(IncrementalSessionTest, SmallEditsOnLargeInputReuseSubtrees) {
  auto Bundle = bundleOrFail(ExprGrammar);
  std::string Big;
  for (int I = 0; I < 200; ++I)
    Big += (I ? " + (" : "(") + std::to_string(I) + " * " +
           std::to_string(I + 1) + ")";
  for (bool Compiled : {false, true}) {
    SessionOptions SO;
    SO.UseCompiled = Compiled;
    IncrementalSession S(Bundle, SO);
    ASSERT_TRUE(S.reset(Big).ParseOk);
    // A one-byte edit in the middle: almost every paren group is disjoint
    // from the damage window and must be spliced, not reparsed.
    EditOutcome O = S.applyEdit({int64_t(Big.size() / 2), 1, "9"});
    ASSERT_EQ(O.Error, EditScriptError::None);
    EXPECT_GT(O.NodesReused, 100) << modeName(SO);
    EXPECT_LT(O.TokensRelexed, 10) << modeName(SO);
    expectMatchesScratch(S, SO, "small edit on large input");
    EXPECT_EQ(S.stats().NodesReused, O.NodesReused);
  }
}

TEST(IncrementalSessionTest, ApplyBatchSharesOneSnapshot) {
  auto Bundle = bundleOrFail(ExprGrammar);
  SessionOptions SO;
  IncrementalSession S(Bundle, SO);
  ASSERT_TRUE(S.reset("1 + 2 + 3").ParseOk);
  // Offsets address the same snapshot: both edits use pre-batch positions.
  EditOutcome O = S.applyBatch({{0, 1, "11"}, {8, 1, "33"}});
  ASSERT_EQ(O.Error, EditScriptError::None);
  EXPECT_EQ(S.text(), "11 + 2 + 33");
  expectMatchesScratch(S, SO, "after batch");
}

//===----------------------------------------------------------------------===//
// Adversarial reuse
//===----------------------------------------------------------------------===//

TEST(IncrementalSessionTest, EditInsideATokenSplitsIt) {
  auto Bundle = bundleOrFail(ExprGrammar);
  for (const SessionOptions &SO : allModes()) {
    IncrementalSession S(Bundle, SO);
    S.reset("abc + def");
    // " + 1 + " lands inside `def`, splitting it into de / f around new
    // tokens; and inserting inside `abc` extends a token in place.
    ASSERT_EQ(S.applyEdit({8, 0, " + 1 + "}).Error, EditScriptError::None);
    expectMatchesScratch(S, SO, "token split");
    ASSERT_EQ(S.applyEdit({1, 0, "xyz"}).Error, EditScriptError::None);
    expectMatchesScratch(S, SO, "token extend");
  }
}

TEST(IncrementalSessionTest, MaximalMunchWinnerFlipsAtTheDamageBoundary) {
  auto Bundle = bundleOrFail(ExprGrammar);
  SessionOptions SO;
  IncrementalSession S(Bundle, SO);
  // `1 2` is INT INT; deleting the space must re-lex to one INT `12`, and
  // `a1` / `a 1` flip between one ID and ID INT.
  S.reset("1 2 + a 1");
  ASSERT_EQ(S.applyEdit({1, 1, ""}).Error, EditScriptError::None);
  EXPECT_EQ(S.text(), "12 + a 1");
  expectMatchesScratch(S, SO, "INT INT fuses to INT");
  ASSERT_EQ(S.applyEdit({6, 1, ""}).Error, EditScriptError::None);
  EXPECT_EQ(S.text(), "12 + a1");
  expectMatchesScratch(S, SO, "ID INT fuses to ID");
  ASSERT_EQ(S.applyEdit({6, 0, " + "}).Error, EditScriptError::None);
  EXPECT_EQ(S.text(), "12 + a + 1");
  expectMatchesScratch(S, SO, "ID splits back apart");
}

TEST(IncrementalSessionTest, LookaheadReachBlocksReuseJustOutsideTheWindow) {
  // `a` ends after 'x' on input "x z", but predicting its optional ('y')?
  // examined the following token — that overshoot is a's reach. The edit
  // rewrites that token only: a's token span is disjoint from the damage,
  // so span-checking alone would splice the stale (a x) even though a must
  // now consume the new 'y'. Only maxLookaheadReach forbids the reuse.
  auto Bundle = bundleOrFail(R"(
grammar Reach;
s : a b EOF ;
a : 'x' ('y')? ;
b : 'w' | 'z' ;
)");
  for (const SessionOptions &SO : allModes()) {
    IncrementalSession S(Bundle, SO);
    S.reset("x z");
    expectMatchesScratch(S, SO, "reset");
    ASSERT_EQ(S.applyEdit({2, 1, "y w"}).Error, EditScriptError::None);
    EXPECT_EQ(S.text(), "x y w");
    // The oracle equivalence is the soundness proof: the new tree must
    // show a absorbing the 'y', i.e. (a x y), not a spliced stale (a x).
    expectMatchesScratch(S, SO, "edit inside a's lookahead reach");
    if (SO.Recover || S.ok()) {
      EXPECT_NE(S.treeText().find("x y"), std::string::npos) << S.treeText();
    }
  }
}

TEST(IncrementalSessionTest, EditsInPanicRecoveredRegionsStayConsistent) {
  auto Bundle = bundleOrFail(ExprGrammar);
  for (bool Arena : {false, true}) {
    SessionOptions SO;
    SO.Recover = true;
    SO.UseArena = Arena;
    IncrementalSession S(Bundle, SO);
    // `* *` forces panic recovery mid-expression; then edit inside, just
    // before, and just after the recovered region.
    S.reset("1 + * * 2 + 3");
    EXPECT_FALSE(S.ok());
    expectMatchesScratch(S, SO, "broken reset");
    ASSERT_EQ(S.applyEdit({4, 1, "9"}).Error, EditScriptError::None);
    expectMatchesScratch(S, SO, "edit inside recovered region");
    ASSERT_EQ(S.applyEdit({0, 1, "("}).Error, EditScriptError::None);
    expectMatchesScratch(S, SO, "edit before recovered region");
    ASSERT_EQ(S.applyEdit({int64_t(S.text().size()), 0, " +"}).Error,
              EditScriptError::None);
    expectMatchesScratch(S, SO, "edit after recovered region");
    // Repair the input completely: the session must converge back to a
    // clean parse identical to scratch.
    ASSERT_EQ(S.applyEdit({0, int64_t(S.text().size()), "1 + 2 * 3"}).Error,
              EditScriptError::None);
    EXPECT_TRUE(S.ok());
    expectMatchesScratch(S, SO, "repaired");
  }
}

TEST(IncrementalSessionTest, NoReuseBaselineMatchesToo) {
  auto Bundle = bundleOrFail(ExprGrammar);
  SessionOptions SO;
  SO.Reuse = false;
  IncrementalSession S(Bundle, SO);
  S.reset("1 + 2 * (3 + 4)");
  ASSERT_EQ(S.applyEdit({4, 1, "7"}).Error, EditScriptError::None);
  EditOutcome O = S.applyEdit({0, 0, "0 + "});
  ASSERT_EQ(O.Error, EditScriptError::None);
  EXPECT_EQ(O.NodesReused, 0); // baseline never splices
  expectMatchesScratch(S, SO, "no-reuse baseline");
}

//===----------------------------------------------------------------------===//
// Token text lifetime: tokens and heap leaves view the session's text
//===----------------------------------------------------------------------===//

std::shared_ptr<const GrammarBundle> shippedBundle(const std::string &Name) {
  std::ifstream In(std::string(LLSTAR_SOURCE_DIR) + "/grammars/" + Name);
  std::ostringstream Text;
  Text << In.rdbuf();
  return bundleOrFail(Text.str().c_str());
}

/// Every token and every heap-tree leaf must view its own span of the
/// session's current text — the same check as the offset test above, plus
/// pointer identity, so a view left in a freed buffer cannot pass by luck.
void expectViewsCurrentText(const IncrementalSession &S, const char *Where) {
  SCOPED_TRACE(Where);
  const std::string_view Text = S.text();
  // Reports the first bad view only: a missed rebase breaks thousands.
  auto ViewsOwnSpan = [&](const Token &T) {
    if (T.Offset >= 0 && size_t(T.Offset) + T.Text.size() <= Text.size() &&
        T.Text.data() == Text.data() + T.Offset &&
        T.Text == Text.substr(size_t(T.Offset), T.Text.size()))
      return true;
    ADD_FAILURE() << "token at offset " << T.Offset
                  << " does not view its span of the session text";
    return false;
  };
  for (const Token &T : S.tokens()) {
    if (T.isEof())
      EXPECT_EQ(T.Text, EofText);
    else if (!ViewsOwnSpan(T))
      return;
  }
  if (!S.heapTree())
    return;
  std::vector<const ParseTree *> Work = {S.heapTree()};
  while (!Work.empty()) {
    const ParseTree *N = Work.back();
    Work.pop_back();
    if (!N->isToken()) {
      for (const auto &C : N->children())
        if (C)
          Work.push_back(C.get());
      continue;
    }
    if (N->errorKind() == ErrorNodeKind::Missing)
      EXPECT_EQ(N->token().Text.substr(0, 9), "<missing ");
    else if (N->errorKind() == ErrorNodeKind::Marker)
      EXPECT_TRUE(N->token().Text.empty());
    else if (N->token().isEof())
      EXPECT_EQ(N->token().Text, EofText);
    else if (!ViewsOwnSpan(N->token()))
      return;
  }
}

/// Heap and arena trees, interpreted, with recovery.
std::vector<SessionOptions> heapAndArena() {
  SessionOptions Heap, Arena;
  Arena.UseArena = true;
  return {Heap, Arena};
}

TEST(IncrementalLifetimeTest, PasteThatMovesTheTextRebasesEveryView) {
  auto Bundle = shippedBundle("lua.g");
  ASSERT_TRUE(Bundle);
  // About 1 MB of mostly comment lines with a statement every so often:
  // enough to force the text to reallocate, cheap enough to parse.
  std::string Paste;
  for (int I = 0; Paste.size() < (1u << 20); ++I)
    Paste += I % 64 ? "-- filler line of a pasted block of lua\n"
                    : "z = z + " + std::to_string(I) + "\n";
  for (const SessionOptions &SO : heapAndArena()) {
    IncrementalSession S(Bundle, SO);
    ASSERT_TRUE(S.reset("local x = 1\nprint(x)\nlocal y = x\n").ParseOk);
    expectViewsCurrentText(S, "reset");

    const char *Before = S.text().data();
    const int64_t At = int64_t(S.text().find("print"));
    ASSERT_EQ(S.applyEdit({At, 0, Paste}).Error, EditScriptError::None);
    ASSERT_NE(S.text().data(), Before) << "the paste did not move the text";
    expectViewsCurrentText(S, "after paste");
    expectMatchesScratch(S, SO, "after paste");

    // Edits before and after the pasted block, in place and growing; each
    // offset is taken from the text as it stands.
    auto LocalY = [&] { return int64_t(S.text().rfind("local y")); };
    const std::function<Edit()> Steps[] = {
        [&] { return Edit{6, 1, "xx"}; },
        [&] { return Edit{LocalY() + 6, 1, "yy"}; },
        [&] { return Edit{0, 0, "-- head\n"}; },
        [&] { return Edit{LocalY() + 8, 0, "\n"}; },
        [&] { return Edit{int64_t(S.text().size()), 0, "w = 2\n"}; },
    };
    for (const auto &Step : Steps) {
      ASSERT_EQ(S.applyEdit(Step()).Error, EditScriptError::None);
      expectViewsCurrentText(S, "edit around the paste");
      expectMatchesScratch(S, SO, "edit around the paste");
    }
  }
}

TEST(IncrementalLifetimeTest, EditsInsideALongJsonString) {
  auto Bundle = shippedBundle("json.g");
  ASSERT_TRUE(Bundle);
  const std::string Body(10000, 'q');
  const std::string Doc = "{\"k\": \"" + Body + "\", \"n\": [1, 2]}";
  const int64_t Mid = int64_t(Doc.find('q')) + 5000;
  for (const SessionOptions &SO : heapAndArena()) {
    IncrementalSession S(Bundle, SO);
    ASSERT_TRUE(S.reset(Doc).ParseOk);
    // The string token's walk runs to its closing quote and one byte past,
    // so every edit inside the run damages it.
    const Edit Steps[] = {
        {Mid, 1, "r"},       // overtype: same length, suffix identical
        {Mid, 0, "ss"},      // grow inside the run
        {Mid, 2, ""},        // shrink back
        {Mid, 0, "\""},      // a quote splits the string: recovery
        {Mid, 1, ""},        // and joins it again
        {Mid, 0, "\n\t"},    // control bytes inside the string body
    };
    for (const Edit &E : Steps) {
      ASSERT_EQ(S.applyEdit(E).Error, EditScriptError::None);
      expectViewsCurrentText(S, "edit inside the string");
      expectMatchesScratch(S, SO, "edit inside the string");
    }
  }
}

} // namespace
