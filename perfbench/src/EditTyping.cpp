//===- perfbench/src/EditTyping.cpp - The edit-typing workload ------------===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
//
// One IncrementalSession per document (default SessionOptions), driven by
// one thread: a seeded keystroke stream over a ~90 KB lua document and a
// ~40 KB json document. The stream is a sequence of episodes, two of every
// three on the lua document, each of which leaves the text as it found it:
//
//   type-snippet  (10%) type a one-line statement (lua) or a scalar array
//                 element (json) one character at a time at a statement
//                 boundary, then undo;
//   overtype      (20%) overtype a digit, then undo;
//   type-word     (25%) type 1-6 characters after a word, then undo or
//                 backspace;
//   delete-word   (20%) backspace a word one character at a time, then
//                 undo;
//   delete-chars  (5%) backspace 1-3 characters, then undo;
//   paste-line    (20%) paste a whole statement or element, then undo.
//
// Many intermediate states are invalid, so recovery runs. Because every
// episode ends on the base text, the stream can be cycled, and the text at
// a given stream position is the same on every cycle.
//
//===----------------------------------------------------------------------===//

#include "Generators.h"
#include "Harness.h"

#include "incremental/IncrementalSession.h"

#include <array>
#include <cctype>
#include <cmath>

using namespace llstar;
using namespace llstar::incremental;
using namespace perfbench;

namespace {

constexpr size_t StreamFloor = 1000;  ///< minimum edits per stream cycle
constexpr int64_t CheckEvery = 100;   ///< scratch comparison cadence
constexpr size_t ReplayEdits = 1000;  ///< edits replayed in a traced run

struct Step {
  int Doc;
  Edit E;
};

struct Workload {
  GrammarSource Grammars[2];
  gen::EditableDoc Docs[2];
  std::vector<Step> Steps;
  /// Text of the edited document after each check position's step.
  std::map<size_t, std::string> CheckTexts;
};

bool isWordChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}

/// The word nearest after a random offset: [Begin, End). Empty if none.
std::pair<size_t, size_t> findWord(Rng &R, const std::string &Text) {
  size_t P = size_t(R.below(Text.size()));
  while (P < Text.size() && !isWordChar(Text[P]))
    ++P;
  size_t End = P;
  while (End < Text.size() && isWordChar(Text[End]))
    ++End;
  return {P, End};
}

/// Episode kinds as percentiles: type-snippet < 10 <= overtype < 30 <=
/// type-word < 55 <= delete-word < 75 <= delete-chars < 80 <= paste-line.
/// Each deck of 20 episodes holds every kind in its exact share.
const int Deck[20] = {5,  5,  20, 20, 20, 20, 40, 40, 40, 40,
                      40, 60, 60, 60, 60, 77, 90, 90, 90, 90};

/// Where the line episodes of one document go: boundaries along a
/// golden-ratio sequence from a seeded start, so that on every seed they
/// spread evenly over the document; and the typed lines' forms in turn.
/// The costliest edits come from these episodes, so this keeps their cost
/// from depending on where a few of them happen to land.
struct Placement {
  double Next = 0;
  int Typed = 0;
};

void episode(Rng &R, int Kind, int D, const gen::EditableDoc &Doc,
             Placement &Pl, std::vector<Step> &Out) {
  const std::string &Base = Doc.Text;
  auto Push = [&](int64_t Offset, int64_t OldLen, std::string New) {
    Out.push_back({D, Edit{Offset, OldLen, std::move(New)}});
  };
  if (Kind < 10 || Kind >= 80) {
    // type-snippet / paste-line
    size_t At = Doc.Boundaries[size_t(Pl.Next * double(Doc.Boundaries.size()))];
    Pl.Next = std::fmod(Pl.Next + 0.6180339887498949, 1.0);
    std::string Text = Kind < 10 ? gen::typedLine(R, D == 0, Pl.Typed++)
                       : D == 0  ? gen::luaStatementLine(R)
                                 : gen::jsonElementItem(R);
    if (Kind < 10)
      for (size_t I = 0; I < Text.size(); ++I)
        Push(int64_t(At + I), 0, std::string(1, Text[I]));
    else
      Push(int64_t(At), 0, Text);
    Push(int64_t(At), int64_t(Text.size()), "");
    return;
  }
  if (Kind < 30) {
    // overtype a digit, then undo
    size_t P = size_t(R.below(Base.size()));
    while (P < Base.size() && !std::isdigit(static_cast<unsigned char>(Base[P])))
      ++P;
    if (P == Base.size())
      P = 0;
    Push(int64_t(P), 1, std::string(1, char('1' + R.below(9))));
    Push(int64_t(P), 1, Base.substr(P, 1));
    return;
  }
  auto [Begin, End] = findWord(R, Base);
  if (Begin == End) {
    Push(0, 1, Base.substr(0, 1));
    return;
  }
  if (Kind < 55) {
    // type-word
    static const char Chars[] = "abcdefghijklmnopqrstuvwxyz0123456789_";
    int N = R.range(1, 6);
    for (int I = 0; I < N; ++I)
      Push(int64_t(End) + I, 0, std::string(1, Chars[R.below(37)]));
    if (R.chance(50)) {
      Push(int64_t(End), N, "");
    } else {
      for (int I = N; I-- > 0;)
        Push(int64_t(End) + I, 1, "");
    }
    return;
  }
  if (Kind < 75) {
    // delete-word
    for (size_t P = End; P-- > Begin;)
      Push(int64_t(P), 1, "");
    Push(int64_t(Begin), 0, Base.substr(Begin, End - Begin));
    return;
  }
  // delete-chars
  size_t N = std::min<size_t>(size_t(R.range(1, 3)), End);
  for (size_t I = 0; I < N; ++I)
    Push(int64_t(End - 1 - I), 1, "");
  Push(int64_t(End - N), 0, Base.substr(End - N, N));
}

Workload makeWorkload(const Options &O) {
  Workload W;
  W.Grammars[0] = shippedGrammar(O, "lua");
  W.Grammars[1] = shippedGrammar(O, "json");
  Rng DocRng = Rng::derive(O.Seed, 2000);
  W.Docs[0] = gen::luaDocument(DocRng, 90 * 1024);
  W.Docs[1] = gen::jsonDocument(DocRng, 40 * 1024);

  // Two of every three episodes edit the lua document. A fixed share keeps
  // the median edit inside the lua cost range on every seed.
  Rng R = Rng::derive(O.Seed, 2001);
  std::vector<int> Kinds(std::begin(Deck), std::end(Deck));
  Placement Pl[2];
  for (Placement &P : Pl)
    P.Next = double(R.below(1u << 20)) / double(1u << 20);
  for (size_t Episode = 0; W.Steps.size() < StreamFloor; ++Episode) {
    if (Episode % Kinds.size() == 0)
      for (size_t I = Kinds.size(); I > 1; --I)
        std::swap(Kinds[I - 1], Kinds[R.below(I)]);
    int D = Episode % 3 == 2 ? 1 : 0;
    episode(R, Kinds[Episode % Kinds.size()], D, W.Docs[D], Pl[D], W.Steps);
  }
  // Pad to a whole number of check intervals with one-edit episodes that
  // retype a character over itself.
  while (W.Steps.size() % size_t(CheckEvery) != 0) {
    int D = int(R.below(2));
    const std::string &Base = W.Docs[D].Text;
    size_t P = size_t(R.below(Base.size()));
    W.Steps.push_back({D, Edit{int64_t(P), 1, Base.substr(P, 1)}});
  }

  std::string Text[2] = {W.Docs[0].Text, W.Docs[1].Text};
  for (size_t I = 0; I < W.Steps.size(); ++I) {
    const Step &S = W.Steps[I];
    Text[S.Doc].replace(size_t(S.E.Offset), size_t(S.E.OldLen), S.E.NewText);
    if ((I + 1) % size_t(CheckEvery) == 0)
      W.CheckTexts[I] = Text[S.Doc];
  }
  if (Text[0] != W.Docs[0].Text || Text[1] != W.Docs[1].Text) {
    std::fprintf(stderr, "perfbench: edit stream does not return to base\n");
    std::exit(2);
  }
  return W;
}

/// The texts after step \p Pos of the stream.
std::array<std::string, 2> textsAfter(const Workload &W, size_t Pos) {
  std::array<std::string, 2> Text = {W.Docs[0].Text, W.Docs[1].Text};
  for (size_t I = 0; I <= Pos; ++I) {
    const Step &S = W.Steps[I];
    Text[size_t(S.Doc)].replace(size_t(S.E.Offset), size_t(S.E.OldLen),
                                S.E.NewText);
  }
  return Text;
}

struct Ready {
  std::unique_ptr<GrammarBundleCache> Cache;
  std::shared_ptr<const GrammarBundle> Bundles[2];
  std::unique_ptr<IncrementalSession> Sessions[2];
};

Ready setUp(const Workload &W, Tracer &T, double &Analysis) {
  Ready Rd;
  ScopedSpan Setup(T, "setup", Tracer::NoParent);
  Rd.Cache = std::make_unique<GrammarBundleCache>();
  for (int D = 0; D < 2; ++D) {
    Rd.Bundles[D] =
        loadBundle(*Rd.Cache, W.Grammars[D], T, Setup.index(), &Analysis);
    ScopedSpan Reset(T, "incremental.reset", Setup.index());
    Rd.Sessions[D] =
        std::make_unique<IncrementalSession>(Rd.Bundles[D], SessionOptions());
    Rd.Sessions[D]->reset(W.Docs[D].Text);
  }
  return Rd;
}

/// A session's state at a check point, compared after timing.
struct Observed {
  size_t Pos;
  int Doc;
  uint64_t TokenHash;
  uint64_t TreeHash;
  bool Ok;
};

Observed observe(const Ready &Rd, size_t Pos, int D) {
  const IncrementalSession &S = *Rd.Sessions[D];
  return {Pos, D, hashTokens(S.tokens()), fnv1a(S.treeText()), S.ok()};
}

} // namespace

RunResult perfbench::runEditTyping(const Options &O, Tracer &T) {
  RunResult R;
  Workload W = makeWorkload(O);

  // The timed loop: applyEdit calls only; checks pause the clock. Each
  // check interval of the stream is one chunk, so a chunk's edits are the
  // same on every cycle, and every segment ends on a check.
  std::vector<double> AnalysisS;
  std::vector<Observed> Seen;
  int64_t Count = 0;
  size_t Chunks = W.Steps.size() / size_t(CheckEvery);
  Ready Rd;
  Measured M = measure(
      O, T, LoopFigures(W.Steps.size(), size_t(CheckEvery), Chunks), Rd,
      [&] {
        double Analysis = 0;
        Ready Fresh = setUp(W, T, Analysis);
        AnalysisS.push_back(Analysis);
        return Fresh;
      },
      [&](Ready &Serving, double Seconds, Tracer *Tr, LoopFigures &L) {
        L.segment(size_t(Count / CheckEvery) % Chunks);
        double Timed = 0;
        while (Timed < Seconds || Count % CheckEvery != 0) {
          size_t Pos = size_t(Count % int64_t(W.Steps.size()));
          const Step &S = W.Steps[Pos];
          auto T0 = Clock::now();
          EditOutcome Out = Serving.Sessions[S.Doc]->applyEdit(S.E);
          auto T1 = Clock::now();
          if (Tr)
            Tr->record("incremental.applyEdit", Tracer::NoParent, Count, T0,
                       T1);
          ++Count;
          Timed += secondsBetween(T0, T1);
          L.add(uint32_t(Pos), millisBetween(T0, T1), Timed, Out.NumTokens);
          if (Out.Error != EditScriptError::None) {
            ++R.Failed;
            R.problem("edit " + std::to_string(Pos) + " was rejected");
          }
          if (Count % CheckEvery == 0)
            Seen.push_back(observe(Serving, Pos, S.Doc));
        }
      });
  R.Attempted = Count;
  size_t LastPos = size_t((Count - 1) % int64_t(W.Steps.size()));
  Seen.push_back(observe(Rd, LastPos, 0));
  Seen.push_back(observe(Rd, LastPos, 1));

  // References: scratchParse and the packrat verdict of each checked text.
  std::map<std::pair<size_t, int>, Observed> Expected;
  std::array<std::string, 2> LastTexts = textsAfter(W, LastPos);
  for (const Observed &Ob : Seen) {
    auto Key = std::make_pair(Ob.Pos, Ob.Doc);
    auto It = Expected.find(Key);
    if (It == Expected.end()) {
      auto CT = W.CheckTexts.find(Ob.Pos);
      const std::string &Text =
          (Ob.Pos == LastPos || CT == W.CheckTexts.end())
              ? LastTexts[size_t(Ob.Doc)]
              : CT->second;
      const GrammarBundle &B = *Rd.Bundles[Ob.Doc];
      ScratchResult SR = scratchParse(B, Text, SessionOptions());
      bool Peg = packratAccepts(B, "", Text);
      if (Peg != SR.ParseOk)
        R.problem("stream position " + std::to_string(Ob.Pos) +
                  ": packrat and scratch parse disagree on the verdict");
      It = Expected
               .emplace(Key, Observed{Ob.Pos, Ob.Doc, hashTokens(SR.Tokens),
                                      fnv1a(SR.TreeText), Peg})
               .first;
    }
    const Observed &Want = It->second;
    if (Ob.TokenHash != Want.TokenHash || Ob.TreeHash != Want.TreeHash ||
        Ob.Ok != Want.Ok) {
      ++R.Failed;
      R.problem("stream position " + std::to_string(Ob.Pos) + " (" +
                W.Grammars[Ob.Doc].Name +
                "): session differs from a scratch parse");
    }
  }

  if (!O.Trace) {
    addEndToEnd(R, M);
    return R;
  }

  LayerFigures L;
  L.TraceOverheadPct = M.traceOverheadPct();
  L.AnalysisBusyS = median(AnalysisS);
  for (const auto &B : Rd.Bundles)
    L.DfaStates += B->analyzed().stats().TotalDfaStates;

  // Replay a fixed prefix of the stream on fresh sessions.
  size_t N = std::min(ReplayEdits, W.Steps.size());
  std::vector<double> EditMs;
  std::string FirstCounts;
  for (int Rep = 0; Rep < ReplayRepeats; ++Rep) {
    double UnusedAnalysis = 0;
    Tracer Off(false);
    Ready Fresh = setUp(W, Off, UnusedAnalysis);
    for (auto &S : Fresh.Sessions)
      S->takeStatsDelta();
    LayerFigures C;
    for (size_t I = 0; I < N; ++I) {
      const Step &S = W.Steps[I];
      auto T0 = Clock::now();
      EditOutcome Out = Fresh.Sessions[S.Doc]->applyEdit(S.E);
      T.record("incremental.replayEdit", Tracer::NoParent, int64_t(I), T0,
               Clock::now());
      EditMs.push_back(Out.Millis);
      C.TokensRelexed += Out.TokensRelexed;
      C.NodesReused += Out.NodesReused;
      C.DecisionsReparsed += Out.DecisionsReparsed;
      C.TreeNodes += Out.TreeNodes;
      C.ErrorEdits += Out.NumErrors > 0;
    }
    for (auto &S : Fresh.Sessions) {
      ParserStats Delta = S->takeStatsDelta();
      C.addParserCounts(Delta);
      C.Repairs += Delta.TokensDeleted + Delta.TokensInserted +
                   Delta.PanicSyncs;
    }
    if (Rep == 0) {
      FirstCounts = C.counts();
      L.TokensRelexed = C.TokensRelexed;
      L.NodesReused = C.NodesReused;
      L.DecisionsReparsed = C.DecisionsReparsed;
      L.TreeNodes = C.TreeNodes;
      L.ErrorEdits = C.ErrorEdits;
      L.Repairs = C.Repairs;
      L.DecisionEvents = C.DecisionEvents;
      L.LookaheadTokens = C.LookaheadTokens;
      L.BacktrackEvents = C.BacktrackEvents;
      L.SpeculationTokens = C.SpeculationTokens;
      L.MemoHits = C.MemoHits;
      L.MemoMisses = C.MemoMisses;
    } else if (C.counts() != FirstCounts) {
      R.problem("incremental counts differ between two replays");
    }
  }
  L.EditMsP50 = percentile(EditMs, 0.50);
  L.EditMsP99 = percentile(EditMs, 0.99);
  finishTraced(O, T, L, R);
  return R;
}
