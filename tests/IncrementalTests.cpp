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
// regions. A long lua session checks the node and error-leaf counts that
// spliced subtrees carry from edit to edit, and a dense synthetic record
// checks the reuse index's lookups and probe runs. `llstar-fuzz
// --edit-smoke` extends the same oracle to random edit scripts; these
// tests pin the targeted constructions.
//
//===----------------------------------------------------------------------===//

#include "incremental/IncrementalSession.h"
#include "service/GrammarBundleCache.h"

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <sstream>
#include <tuple>

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
  std::string M = SO.UseCompiled ? "native" : "tables";
  M += SO.UseArena ? "+arena" : "+heap";
  M += SO.Recover ? "+recover" : "+strict";
  return M;
}

/// The oracle check: the session's observable state, and the counts its
/// last reset or edit \p O reported, must match a from-scratch parse of
/// the same text in the same mode, byte for byte.
void expectMatchesScratch(const IncrementalSession &S, const EditOutcome &O,
                          const SessionOptions &SO, const char *Where) {
  ScratchResult R = scratchParse(S.bundle(), S.text(), SO);
  const size_t Shown = 400; // large documents would flood the log
  SCOPED_TRACE(std::string(Where) + " [" + modeName(SO) + "] text <" +
               S.text().substr(0, Shown) +
               (S.text().size() > Shown ? "...>" : ">"));
  EXPECT_EQ(S.ok(), R.ParseOk);
  EXPECT_EQ(O.ParseOk, R.ParseOk);
  EXPECT_EQ(O.NumTokens, int64_t(R.Tokens.size()));
  EXPECT_EQ(O.TreeNodes, R.TreeNodes);
  EXPECT_EQ(O.ErrorLeaves, R.ErrorLeaves);
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
  EditOutcome O = S.reset("one +\n  two * 3\n+ (four)\n");
  ASSERT_TRUE(O.ParseOk);

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
  expectMatchesScratch(S, O, SO, "after reset");

  // Edits that shift offsets and line numbers of the retained suffix:
  // insert a line, delete across a newline, append at the end.
  O = S.applyEdit({6, 0, "9 *\n"});
  ASSERT_EQ(O.Error, EditScriptError::None);
  CheckSelfConsistent();
  expectMatchesScratch(S, O, SO, "after line insert");
  O = S.applyEdit({4, 2, " "});
  ASSERT_EQ(O.Error, EditScriptError::None);
  CheckSelfConsistent();
  expectMatchesScratch(S, O, SO, "after newline delete");
  O = S.applyEdit({int64_t(S.text().size()), 0, " * last\n"});
  ASSERT_EQ(O.Error, EditScriptError::None);
  CheckSelfConsistent();
  expectMatchesScratch(S, O, SO, "after append");
}

//===----------------------------------------------------------------------===//
// Session equivalence in every mode
//===----------------------------------------------------------------------===//

TEST(IncrementalSessionTest, EditSequenceMatchesScratchInEveryMode) {
  auto Bundle = bundleOrFail(ExprGrammar);
  for (const SessionOptions &SO : allModes()) {
    IncrementalSession S(Bundle, SO);
    expectMatchesScratch(S, S.reset("1 + 2 * (3 + 4) + five"), SO, "reset");
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
      EditOutcome O = S.applyEdit(Step.E);
      ASSERT_EQ(O.Error, EditScriptError::None);
      expectMatchesScratch(S, O, SO, Step.Label);
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
    expectMatchesScratch(S, O, SO, "small edit on large input");
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
  expectMatchesScratch(S, O, SO, "after batch");
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
    EditOutcome O = S.applyEdit({8, 0, " + 1 + "});
    ASSERT_EQ(O.Error, EditScriptError::None);
    expectMatchesScratch(S, O, SO, "token split");
    O = S.applyEdit({1, 0, "xyz"});
    ASSERT_EQ(O.Error, EditScriptError::None);
    expectMatchesScratch(S, O, SO, "token extend");
  }
}

TEST(IncrementalSessionTest, MaximalMunchWinnerFlipsAtTheDamageBoundary) {
  auto Bundle = bundleOrFail(ExprGrammar);
  SessionOptions SO;
  IncrementalSession S(Bundle, SO);
  // `1 2` is INT INT; deleting the space must re-lex to one INT `12`, and
  // `a1` / `a 1` flip between one ID and ID INT.
  S.reset("1 2 + a 1");
  EditOutcome O = S.applyEdit({1, 1, ""});
  ASSERT_EQ(O.Error, EditScriptError::None);
  EXPECT_EQ(S.text(), "12 + a 1");
  expectMatchesScratch(S, O, SO, "INT INT fuses to INT");
  O = S.applyEdit({6, 1, ""});
  ASSERT_EQ(O.Error, EditScriptError::None);
  EXPECT_EQ(S.text(), "12 + a1");
  expectMatchesScratch(S, O, SO, "ID INT fuses to ID");
  O = S.applyEdit({6, 0, " + "});
  ASSERT_EQ(O.Error, EditScriptError::None);
  EXPECT_EQ(S.text(), "12 + a + 1");
  expectMatchesScratch(S, O, SO, "ID splits back apart");
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
    expectMatchesScratch(S, S.reset("x z"), SO, "reset");
    EditOutcome O = S.applyEdit({2, 1, "y w"});
    ASSERT_EQ(O.Error, EditScriptError::None);
    EXPECT_EQ(S.text(), "x y w");
    // The oracle equivalence is the soundness proof: the new tree must
    // show a absorbing the 'y', i.e. (a x y), not a spliced stale (a x).
    expectMatchesScratch(S, O, SO, "edit inside a's lookahead reach");
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
    EditOutcome O = S.reset("1 + * * 2 + 3");
    EXPECT_FALSE(S.ok());
    expectMatchesScratch(S, O, SO, "broken reset");
    O = S.applyEdit({4, 1, "9"});
    ASSERT_EQ(O.Error, EditScriptError::None);
    expectMatchesScratch(S, O, SO, "edit inside recovered region");
    O = S.applyEdit({0, 1, "("});
    ASSERT_EQ(O.Error, EditScriptError::None);
    expectMatchesScratch(S, O, SO, "edit before recovered region");
    O = S.applyEdit({int64_t(S.text().size()), 0, " +"});
    ASSERT_EQ(O.Error, EditScriptError::None);
    expectMatchesScratch(S, O, SO, "edit after recovered region");
    // Repair the input completely: the session must converge back to a
    // clean parse identical to scratch.
    O = S.applyEdit({0, int64_t(S.text().size()), "1 + 2 * 3"});
    ASSERT_EQ(O.Error, EditScriptError::None);
    EXPECT_TRUE(S.ok());
    expectMatchesScratch(S, O, SO, "repaired");
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
  expectMatchesScratch(S, O, SO, "no-reuse baseline");
}

std::shared_ptr<const GrammarBundle> shippedBundle(const std::string &Name) {
  std::ifstream In(std::string(LLSTAR_SOURCE_DIR) + "/grammars/" + Name);
  std::ostringstream Text;
  Text << In.rdbuf();
  return bundleOrFail(Text.str().c_str());
}

//===----------------------------------------------------------------------===//
// Long sessions: counts stored in spliced subtrees compound across edits
//===----------------------------------------------------------------------===//

/// About \p Bytes of lua: locals, functions, loops and calls in turn.
std::string luaDocument(size_t Bytes) {
  std::string Doc;
  for (int I = 0; Doc.size() < Bytes; ++I) {
    const std::string N = std::to_string(I);
    switch (I % 4) {
    case 0:
      Doc += "local v" + N + " = " + N + " * (x + " + N + ")\n";
      break;
    case 1:
      Doc += "function f" + N + "(a, b)\n  if a < b then\n    return a .. \"" +
             N + "\"\n  end\n  return b\nend\n";
      break;
    case 2:
      Doc += "for i = 1, " + N + " do\n  t[i] = { k = i, \"v" + N +
             "\" }\nend\n";
      break;
    default:
      Doc += "print(v" + N + ", f" + N + "(1, 2))\n";
      break;
    }
  }
  return Doc;
}

TEST(IncrementalSessionTest, LongSessionCountsMatchAFreshWalk) {
  // Heap sessions count only the nodes each parse built; spliced subtrees
  // bring counts stored edits ago. Hundreds of edits over one document let
  // that reuse compound: typing, deleting, newlines and pasted statements,
  // each undone a few edits later.
  auto Bundle = shippedBundle("lua.g");
  ASSERT_TRUE(Bundle);
  const std::string Doc = luaDocument(20 * 1024);
  for (const SessionOptions &SO : allModes()) {
    IncrementalSession S(Bundle, SO);
    EditOutcome O = S.reset(Doc);
    ASSERT_TRUE(O.ParseOk) << modeName(SO);
    expectMatchesScratch(S, O, SO, "reset");
    std::mt19937 Rng(19);
    auto Below = [&](size_t N) { return size_t(Rng() % N); };
    std::vector<Edit> Undo; // inverses, most recent last
    for (int Step = 1; Step <= 320; ++Step) {
      const std::string &Text = S.text();
      Edit E;
      if (!Undo.empty() && (Undo.size() >= 4 || Below(3) == 0)) {
        E = Undo.back();
        Undo.pop_back();
      } else {
        const int64_t At = int64_t(Below(Text.size()));
        const size_t LineStart = Text.rfind('\n', size_t(At)) + 1;
        switch (Below(4)) {
        case 0:
          E = {At, 0, std::string(1, "az09_ "[Below(6)])};
          break;
        case 1:
          E = {At, 1, ""};
          break;
        case 2:
          E = {At, 0, "\n"};
          break;
        default:
          E = {int64_t(LineStart), 0, "local p = q .. \"x\" + 1\n"};
          break;
        }
        Undo.push_back({E.Offset, int64_t(E.NewText.size()),
                        Text.substr(size_t(E.Offset), size_t(E.OldLen))});
      }
      O = S.applyEdit(E);
      ASSERT_EQ(O.Error, EditScriptError::None);
      if (const ParseTree *T = S.heapTree()) {
        SCOPED_TRACE(modeName(SO) + " edit " + std::to_string(Step));
        ASSERT_EQ(O.TreeNodes, int64_t(T->size()));
        ASSERT_EQ(O.ErrorLeaves, int64_t(T->numErrorNodes()));
      }
      if (Step % 25 == 0) {
        expectMatchesScratch(S, O, SO, "long session");
        if (::testing::Test::HasFailure())
          return;
      }
    }
    EXPECT_GT(S.stats().NodesReused, 10000) << modeName(SO);
  }
}

//===----------------------------------------------------------------------===//
// The probe index of a parse record
//===----------------------------------------------------------------------===//

TEST(ParseRecordTest, DenseRecordFindsEveryKeyWithShortProbeRuns) {
  // A record as dense as a large document's: 30 rules, an innermost rule
  // starting at every token, nested in a second rule at every other token
  // and in one of 28 outer rules everywhere, and now and then an outer
  // node of the same rule as the one it wraps.
  ParseRecord Rec;
  auto Add = [&](int32_t Rule, int32_t Prec, int64_t Start) {
    NodeMeta M;
    M.Rule = Rule;
    M.Prec = Prec;
    M.Start = Start;
    M.Next = Start + 1;
    M.Reach = Start;
    M.SubtreeBegin = uint32_t(Rec.Metas.size());
    Rec.Metas.push_back(M);
  };
  for (int64_t Start = 0; Start < 20000; ++Start) {
    Add(0, 0, Start);
    if (Start % 2 == 0)
      Add(1, 0, Start);
    const int32_t Outer = int32_t(2 + Start * 7 % 28);
    const int32_t Prec = Start % 3 == 0;
    Add(Outer, Prec, Start);
    if (Start % 100 == 0)
      Add(Outer, Prec, Start); // a repeated key: the outermost wins
  }
  Rec.build();

  // Every key finds the last entry appended under it.
  std::map<std::tuple<int32_t, int32_t, int64_t>, uint32_t> Last;
  for (uint32_t I = 0; I < Rec.Metas.size(); ++I) {
    const NodeMeta &M = Rec.Metas[I];
    Last[{M.Rule, M.Prec, M.Start}] = I;
  }
  for (const auto &[Key, Index] : Last) {
    const auto &[Rule, Prec, Start] = Key;
    ASSERT_EQ(Rec.find(Rule, Prec, Start), Index)
        << "rule " << Rule << " prec " << Prec << " start " << Start;
  }
  EXPECT_EQ(Rec.find(0, 0, 20000), ParseRecord::Npos);
  EXPECT_EQ(Rec.find(30, 0, 5), ParseRecord::Npos);

  // A triple whose packed key equals a recorded one is a miss.
  const NodeMeta &Held = Rec.Metas[Last.begin()->second];
  const int32_t Other = Held.Rule + 1;
  const int64_t Colliding =
      Held.Start ^ int64_t(ParseRecord::packKey(Held.Rule, Held.Prec, 0) ^
                           ParseRecord::packKey(Other, Held.Prec, 0));
  ASSERT_EQ(ParseRecord::packKey(Other, Held.Prec, Colliding),
            ParseRecord::packKey(Held.Rule, Held.Prec, Held.Start));
  EXPECT_EQ(Rec.find(Other, Held.Prec, Colliding), ParseRecord::Npos);
  EXPECT_EQ(Rec.find(Held.Rule, Held.Prec, Held.Start),
            Last.begin()->second);

  // Keys that differ only in their start must not pile into one block of
  // slots: every find stays a short probe.
  EXPECT_LT(Rec.longestRun(), 64u);
}

//===----------------------------------------------------------------------===//
// Token text lifetime: tokens and heap leaves view the session's text
//===----------------------------------------------------------------------===//

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
    EditOutcome O = S.applyEdit({At, 0, Paste});
    ASSERT_EQ(O.Error, EditScriptError::None);
    ASSERT_NE(S.text().data(), Before) << "the paste did not move the text";
    expectViewsCurrentText(S, "after paste");
    expectMatchesScratch(S, O, SO, "after paste");

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
      O = S.applyEdit(Step());
      ASSERT_EQ(O.Error, EditScriptError::None);
      expectViewsCurrentText(S, "edit around the paste");
      expectMatchesScratch(S, O, SO, "edit around the paste");
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
      EditOutcome O = S.applyEdit(E);
      ASSERT_EQ(O.Error, EditScriptError::None);
      expectViewsCurrentText(S, "edit inside the string");
      expectMatchesScratch(S, O, SO, "edit inside the string");
    }
  }
}

} // namespace
