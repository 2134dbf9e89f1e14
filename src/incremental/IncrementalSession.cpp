#include "incremental/IncrementalSession.h"

#include "runtime/LLStarParser.h"

#include <chrono>
#include <cstdint>
#include <utility>

using namespace llstar;
using namespace llstar::incremental;

namespace {

/// The native module code \p Opts asks its parses to use.
NativeCode nativeCode(const GrammarBundle &Bundle, const SessionOptions &Opts) {
  return Opts.UseCompiled ? Bundle.compiledTables().native() : NativeCode();
}

} // namespace

IncrementalSession::IncrementalSession(
    std::shared_ptr<const GrammarBundle> Bundle, SessionOptions Opts)
    : Bundle(std::move(Bundle)), Opts(std::move(Opts)),
      IncLex(this->Bundle->lexer()) {}

IncrementalSession::~IncrementalSession() = default;

ParserStats IncrementalSession::takeStatsDelta() {
  ParserStats Out = std::move(Delta);
  Delta = ParserStats();
  return Out;
}

std::string IncrementalSession::treeText() const {
  if (HeapRoot)
    return HeapRoot->str(Bundle->grammar());
  if (ArenaRoot && Stream)
    return ArenaRoot->str(Bundle->grammar(), *Stream);
  return "";
}

EditOutcome IncrementalSession::reset(std::string NewText) {
  auto StartTime = std::chrono::steady_clock::now();
  Text = std::move(NewText);
  IncLex.lexAll(Text);
  IncrementalLexer::Damage D;
  D.InvalidLo = 0;
  D.OldInvalidHi = 0;
  D.NewInvalidHi = int64_t(IncLex.tokens().size());
  D.TokenDelta = 0;
  D.Relexed = int64_t(IncLex.lexemes().size());
  Record.clear();
  return parseCurrent(D, /*Incremental=*/false, StartTime);
}

EditOutcome IncrementalSession::applyEdit(const Edit &E) {
  auto StartTime = std::chrono::steady_clock::now();
  if (EditScriptError VE = validateEdit(E, Text.size());
      VE != EditScriptError::None) {
    EditOutcome O;
    O.Error = VE;
    return O;
  }
  const auto OldData = reinterpret_cast<uintptr_t>(Text.data());
  Text.replace(size_t(E.Offset), size_t(E.OldLen), E.NewText);
  if (!Opts.Reuse) {
    // Baseline mode: behave like an editor without this subsystem —
    // tokenize and parse the whole new text every time.
    return reset(std::move(Text));
  }
  IncrementalLexer::Damage D =
      IncLex.relex(Text, E.Offset, E.OldLen, int64_t(E.NewText.size()));
  // Tokens and heap leaves view Text. Relex re-pointed what it re-lexed
  // or shifted; the retained prefix (and an unshifted suffix) still views
  // the old buffer, which is only wrong when replace() reallocated it.
  const bool Moved = reinterpret_cast<uintptr_t>(Text.data()) != OldData;
  if (Moved)
    IncLex.rebase(Text);
  EditOutcome O = parseCurrent(D, /*Incremental=*/true, StartTime);
  if (Moved && HeapRoot)
    rebaseLeaves(*HeapRoot);
  return O;
}

void IncrementalSession::rebaseLeaves(ParseTree &N) const {
  if (N.isToken()) {
    // Conjured and marker leaves carry no input text, and EOF views a
    // literal; every other leaf views its span of Text.
    const Token &T = N.token();
    if (T.isEof() || N.errorKind() == ErrorNodeKind::Missing ||
        N.errorKind() == ErrorNodeKind::Marker)
      return;
    Token Fixed = T;
    Fixed.Text =
        std::string_view(Text).substr(size_t(T.Offset), T.Text.size());
    N.setToken(Fixed);
    return;
  }
  for (size_t I = 0, E = N.numChildren(); I != E; ++I)
    if (ParseTree *Ch = N.child(I))
      rebaseLeaves(*Ch);
}

EditOutcome IncrementalSession::applyBatch(const std::vector<Edit> &Batch) {
  EditOutcome Sum;
  bool FirstOutcome = true;
  for (size_t I = Batch.size(); I-- > 0;) {
    EditOutcome O = applyEdit(Batch[I]);
    if (O.Error != EditScriptError::None)
      return O;
    O.Millis += Sum.Millis;
    O.NodesReused += Sum.NodesReused;
    O.TokensRelexed += Sum.TokensRelexed;
    O.DecisionsReparsed += Sum.DecisionsReparsed;
    Sum = O;
    FirstOutcome = false;
  }
  if (FirstOutcome) {
    // An empty batch is a no-op; report the current state.
    Sum.ParseOk = LastOk;
    Sum.NumTokens = int64_t(IncLex.tokens().size());
    Sum.NumErrors = Diags.errorCount();
  }
  return Sum;
}

/// The node and error-leaf counts of \p N's subtree, stored in every node
/// under it that has none: after a parse, exactly the nodes it built.
static std::pair<size_t, size_t> storeFreshCounts(ParseTree &N) {
  size_t Nodes, Errors;
  if (N.storedCounts(Nodes, Errors))
    return {Nodes, Errors};
  Nodes = 1;
  Errors = N.isError() ? 1 : 0;
  for (size_t I = 0, E = N.numChildren(); I != E; ++I)
    if (ParseTree *Ch = N.child(I)) {
      auto [ChNodes, ChErrors] = storeFreshCounts(*Ch);
      Nodes += ChNodes;
      Errors += ChErrors;
    }
  N.storeCounts(Nodes, Errors);
  return {Nodes, Errors};
}

EditOutcome IncrementalSession::parseCurrent(
    const IncrementalLexer::Damage &D, bool Incremental,
    std::chrono::steady_clock::time_point StartTime) {
  Diags.clear();
  IncLex.emitLexDiagnostics(Text, Diags);

  // The stream is a view over the master token vector — IncrementalLexer
  // splices that vector in place between parses, so copying it here would
  // put an O(tokens) tax on every edit. Nothing reads the previous stream
  // during the parse (arena renderings happen between edits, against the
  // committed stream).
  auto NewStream =
      std::make_unique<TokenStream>(IncLex.tokens(), TokenStream::Borrow{});

  Arena *BuildArena = nullptr;
  if (Opts.UseArena)
    BuildArena = LiveIsA ? &ArenaB : &ArenaA;

  const bool UseHooks = Opts.Reuse;
  ReuseRecorder::Config RC;
  if (Incremental && Opts.Reuse && (HeapRoot || ArenaRoot)) {
    RC.Prev = &Record;
    RC.InvalidLo = D.InvalidLo;
    RC.OldInvalidHi = D.OldInvalidHi;
    RC.NewInvalidHi = D.NewInvalidHi;
    RC.TokenDelta = D.TokenDelta;
    RC.SuffixIdentical = D.SuffixIdentical;
  }
  RC.NewTokens = &IncLex.tokens();
  RC.NewArena = BuildArena;
  ReuseRecorder Rec(RC);

  ParserOptions PO;
  PO.BuildTree = true;
  PO.CollectStats = true;
  PO.Recover = Opts.Recover;
  PO.TreeArena = BuildArena;
  if (UseHooks) {
    PO.Hooks = &Rec;
    // Memo hits replay speculative sub-parses without re-reporting their
    // lookahead, which would under-record reach; trees and diagnostics
    // are memoization-independent, so recording parses just turn it off.
    PO.Memoize = false;
  }

  const AnalyzedGrammar &AG = Bundle->analyzed();
  LLStarParser P(AG, *NewStream, /*Env=*/nullptr, Diags, PO,
                 nativeCode(*Bundle, Opts));
  std::unique_ptr<ParseTree> NewHeapRoot = P.parse(Opts.StartRule);
  const ArenaParseTree *NewArenaRoot = P.arenaTree();
  bool ParseOk = P.ok();
  ParserStats &S = P.stats();

  // Commit: the new tree replaces the old, the old arena is recycled.
  HeapRoot = std::move(NewHeapRoot);
  ArenaRoot = NewArenaRoot;
  Stream = std::move(NewStream);
  if (UseHooks)
    Record = Rec.take();
  else
    Record.clear();
  if (Opts.UseArena) {
    (LiveIsA ? ArenaA : ArenaB).reset();
    LiveIsA = !LiveIsA;
  }
  LastOk = ParseOk;

  S.TokensRelexed = D.Relexed;
  S.DecisionsReparsed = S.totalEvents();
  Cumulative.merge(S);
  Delta.merge(S);

  EditOutcome O;
  // Millis covers relex + reparse. The counts below are taken after the
  // clock stops, but every caller of applyEdit still waits for them.
  O.Millis = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - StartTime)
                 .count();
  O.ParseOk = ParseOk;
  O.NumTokens = int64_t(IncLex.tokens().size());
  O.NodesReused = S.NodesReused;
  O.TokensRelexed = S.TokensRelexed;
  O.DecisionsReparsed = S.DecisionsReparsed;
  // A heap tree is counted from its fresh nodes: spliced subtrees carry
  // the counts stored when an earlier parse built them. Arena splices are
  // copies, so an arena tree is counted whole.
  if (HeapRoot) {
    auto [Nodes, Errors] = storeFreshCounts(*HeapRoot);
    O.TreeNodes = int64_t(Nodes);
    O.ErrorLeaves = int64_t(Errors);
  } else if (ArenaRoot) {
    O.TreeNodes = int64_t(ArenaRoot->size());
    O.ErrorLeaves = int64_t(ArenaRoot->numErrorNodes());
  }
  O.NumErrors = Diags.errorCount();
  return O;
}

ScratchResult llstar::incremental::scratchParse(const GrammarBundle &Bundle,
                                               std::string_view Text,
                                               const SessionOptions &Opts) {
  ScratchResult R;
  DiagnosticEngine Diags;
  TokenStream Stream(Bundle.tokenize(Text, Diags));
  R.Tokens = Stream.tokens();

  Arena A;
  ParserOptions PO;
  PO.BuildTree = true;
  PO.CollectStats = true;
  PO.Recover = Opts.Recover;
  if (Opts.UseArena)
    PO.TreeArena = &A;

  const AnalyzedGrammar &AG = Bundle.analyzed();
  LLStarParser P(AG, Stream, /*Env=*/nullptr, Diags, PO,
                 nativeCode(Bundle, Opts));
  std::unique_ptr<ParseTree> Root = P.parse(Opts.StartRule);
  R.ParseOk = P.ok();
  if (Root) {
    R.TreeText = Root->str(AG.grammar());
    R.TreeNodes = int64_t(Root->size());
    R.ErrorLeaves = int64_t(Root->numErrorNodes());
  } else if (P.arenaTree()) {
    R.TreeText = P.arenaTree()->str(AG.grammar(), Stream);
    R.TreeNodes = int64_t(P.arenaTree()->size());
    R.ErrorLeaves = int64_t(P.arenaTree()->numErrorNodes());
  }
  R.DiagText = Diags.str();
  return R;
}
