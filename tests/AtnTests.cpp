//===- tests/AtnTests.cpp - ATN construction tests ------------------------===//
//
// Structural checks of the grammar -> ATN transformation (paper Figure 7
// plus EBNF cycles, Section 5.5) and the invariants the analysis and the
// runtime rely on.
//
//===----------------------------------------------------------------------===//

#include "atn/ATN.h"
#include "atn/ATNBuilder.h"
#include "grammar/GrammarParser.h"

#include <gtest/gtest.h>

using namespace llstar;

namespace {

std::unique_ptr<Grammar> parseG(const std::string &Text) {
  DiagnosticEngine Diags;
  auto G = parseGrammarText(Text, Diags);
  EXPECT_TRUE(G) << Diags.str();
  return G;
}

TEST(Atn, InvariantOneTransitionPerNonDecisionState) {
  auto G = parseG(R"(
grammar T;
a : B c* (D | E)+ f? ;
c : C ;
f : F ;
B:'b'; C:'c'; D:'d'; E:'e'; F:'f';
)");
  ASSERT_TRUE(G);
  auto M = buildAtn(*G);
  for (size_t S = 0; S < M->numStates(); ++S) {
    const AtnState &State = M->state(int32_t(S));
    if (State.Kind == AtnStateKind::RuleStop) {
      EXPECT_TRUE(State.Transitions.empty()) << "state " << S;
      continue;
    }
    if (State.isDecision()) {
      EXPECT_GE(State.Transitions.size(), 2u) << "state " << S;
      for (const AtnTransition &T : State.Transitions)
        EXPECT_EQ(T.Kind, AtnTransitionKind::Epsilon)
            << "decision transitions must be epsilon; state " << S;
      EXPECT_GE(State.EndState, 0) << "decision needs an end state";
      continue;
    }
    EXPECT_EQ(State.Transitions.size(), 1u) << "state " << S;
  }
}

TEST(Atn, DecisionCountMatchesConstructs) {
  // rule a has 1 alt; decisions: c* loop, (D|E) block, + loopback, f? opt.
  auto G = parseG(R"(
grammar T;
a : B c* (D | E)+ f? ;
c : C ;
f : F ;
B:'b'; C:'c'; D:'d'; E:'e'; F:'f';
)");
  ASSERT_TRUE(G);
  auto M = buildAtn(*G);
  EXPECT_EQ(M->numDecisions(), 4u);
}

TEST(Atn, MultiAltRuleStartIsDecision) {
  auto G = parseG("grammar T; a : B | C | D ; B:'b'; C:'c'; D:'d';");
  ASSERT_TRUE(G);
  auto M = buildAtn(*G);
  const AtnState &Start = M->state(M->ruleStart(0));
  EXPECT_TRUE(Start.isDecision());
  EXPECT_EQ(Start.Transitions.size(), 3u);
  EXPECT_EQ(Start.EndState, M->ruleStop(0));
}

TEST(Atn, RuleTransitionsCarryFollowState) {
  auto G = parseG(R"(
grammar T;
a : b C ;
b : B ;
B:'b'; C:'c';
)");
  ASSERT_TRUE(G);
  auto M = buildAtn(*G);
  int32_t RuleB = G->findRule("b");
  const auto &Sites = M->callSitesOf(RuleB);
  ASSERT_EQ(Sites.size(), 1u);
  const AtnTransition &T =
      M->state(Sites[0].first).Transitions[size_t(Sites[0].second)];
  EXPECT_EQ(T.Kind, AtnTransitionKind::Rule);
  EXPECT_EQ(T.Target, M->ruleStart(RuleB));
  EXPECT_GE(T.FollowState, 0);
  // The follow state eventually leads to the C atom.
  const AtnState &Follow = M->state(T.FollowState);
  ASSERT_EQ(Follow.Transitions.size(), 1u);
  EXPECT_EQ(Follow.Transitions[0].Kind, AtnTransitionKind::Atom);
}

TEST(Atn, EofStateSelfLoops) {
  auto G = parseG("grammar T; a : B ; B:'b';");
  ASSERT_TRUE(G);
  auto M = buildAtn(*G);
  ASSERT_GE(M->eofState(), 0);
  const AtnState &Eof = M->state(M->eofState());
  ASSERT_EQ(Eof.Transitions.size(), 1u);
  EXPECT_EQ(Eof.Transitions[0].Kind, AtnTransitionKind::Atom);
  EXPECT_EQ(Eof.Transitions[0].Label, TokenEof);
  EXPECT_EQ(Eof.Transitions[0].Target, Eof.Id);
}

TEST(Atn, PredicatesAndActionsInterned) {
  auto G = parseG(R"(
grammar T;
a : {p}? B {act} | {p}? C {act} ;
B:'b'; C:'c';
)");
  ASSERT_TRUE(G);
  auto M = buildAtn(*G);
  // Same name -> same table entry.
  EXPECT_EQ(M->numPredicates(), 1u);
  EXPECT_EQ(M->predicate(0).Name, "p");
  EXPECT_FALSE(M->predicate(0).isPrecedence());
}

TEST(Atn, StarLoopShape) {
  auto G = parseG("grammar T; a : B* C ; B:'b'; C:'c';");
  ASSERT_TRUE(G);
  auto M = buildAtn(*G);
  // Find the star loop entry.
  const AtnState *Entry = nullptr;
  for (size_t S = 0; S < M->numStates(); ++S)
    if (M->state(int32_t(S)).Kind == AtnStateKind::StarLoopEntry)
      Entry = &M->state(int32_t(S));
  ASSERT_NE(Entry, nullptr);
  EXPECT_TRUE(Entry->isDecision());
  // Body alternative first, exit last; body loops back to the entry.
  ASSERT_EQ(Entry->Transitions.size(), 2u);
  EXPECT_EQ(Entry->EndState, Entry->Id);
  int32_t BodyLeft = Entry->Transitions[0].Target;
  // Walk the body: B atom then epsilon back to entry.
  const AtnState &Left = M->state(BodyLeft);
  ASSERT_EQ(Left.Transitions.size(), 1u);
  EXPECT_EQ(Left.Transitions[0].Kind, AtnTransitionKind::Atom);
  const AtnState &AfterB = M->state(Left.Transitions[0].Target);
  ASSERT_EQ(AfterB.Transitions.size(), 1u);
  EXPECT_EQ(AfterB.Transitions[0].Target, Entry->Id);
}

TEST(Atn, DumpContainsRuleNames) {
  auto G = parseG("grammar T; a : b ; b : B ; B:'b';");
  ASSERT_TRUE(G);
  auto M = buildAtn(*G);
  std::string S = M->str();
  EXPECT_NE(S.find("rule a"), std::string::npos);
  EXPECT_NE(S.find("-rule(b)->"), std::string::npos);
}

} // namespace
