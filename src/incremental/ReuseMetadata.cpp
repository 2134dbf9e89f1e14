#include "incremental/ReuseMetadata.h"

#include <algorithm>
#include <cassert>

using namespace llstar;
using namespace llstar::incremental;

void ParseRecord::build() {
  size_t Cap = 16;
  while (Cap < Metas.size() * 2)
    Cap <<= 1;
  Slots.assign(Cap, {0, Npos});
  Mask = Cap - 1;
  for (uint32_t I = 0; I < Metas.size(); ++I) {
    const NodeMeta &M = Metas[I];
    uint64_t K = packKey(M.Rule, M.Prec, M.Start);
    size_t S = slotOf(K);
    while (Slots[S].second != Npos && Slots[S].first != K)
      S = (S + 1) & Mask;
    // Later entries win: exits run innermost-first, so an (impossible for
    // a terminating parse, but cheap to be safe about) nested duplicate
    // resolves to the outermost node — the one a reparse reaches first.
    Slots[S] = {K, I};
  }
}

size_t ParseRecord::longestRun() const {
  size_t Longest = 0, Run = 0;
  // Two laps, so a run wrapping past the last slot is counted whole.
  for (size_t I = 0; I < 2 * Slots.size(); ++I) {
    Run = Slots[I & Mask].second == Npos ? 0 : Run + 1;
    Longest = std::max(Longest, Run);
  }
  return std::min(Longest, Slots.size());
}

void ParseRecord::clear() {
  Metas.clear();
  Slots.clear();
  Mask = 0;
}

void ReuseRecorder::enterRule(int32_t Rule, int32_t Precedence,
                              int64_t StartIndex) {
  Stack.push_back({Rule, Precedence, StartIndex, /*Reach=*/-1,
                   /*MetasMark=*/uint32_t(Metas.size()),
                   /*Opaque=*/false});
}

void ReuseRecorder::lookahead(int64_t MaxIndexInclusive) {
  // Lookahead reported while no recorded rule is active belongs to the
  // start rule's own body, which is never a reuse candidate.
  if (!Stack.empty() && Stack.back().Reach < MaxIndexInclusive)
    Stack.back().Reach = MaxIndexInclusive;
}

void ReuseRecorder::opaque() {
  if (!Stack.empty())
    Stack.back().Opaque = true;
}

void ReuseRecorder::exitRule(int32_t Rule, int64_t NextIndex,
                             ParseTree *HeapNode) {
  if (Stack.empty())
    return;
  Frame F = Stack.back();
  Stack.pop_back();
  assert(F.Rule == Rule && "engine enter/exit pairing broken");
  (void)Rule;
  F.Reach = std::max(F.Reach, NextIndex - 1);
  if (!Stack.empty()) {
    // A parent's outcome depends on everything its children examined.
    Frame &P = Stack.back();
    P.Reach = std::max(P.Reach, F.Reach);
    P.Opaque |= F.Opaque;
  }
  if (F.Opaque || NextIndex <= F.Start || !HeapNode)
    return; // tainted, consumed nothing, or no tree — never worth splicing
  Metas.push_back({F.Rule, F.Prec, F.Start, NextIndex, F.Reach, F.MetasMark,
                   HeapNode});
}

bool ReuseRecorder::tryReuse(int32_t Rule, int32_t Precedence,
                             int64_t StartIndex, Splice &Out) {
  if (!C.Prev)
    return false;
  // Most of the previous record usually carries forward; size for that
  // once instead of regrowing through thousands of splices.
  if (Metas.capacity() < C.Prev->Metas.size())
    Metas.reserve(C.Prev->Metas.size() + C.Prev->Metas.size() / 4);

  // Map the probe back to the previous parse's token coordinates. Note
  // that an edit replacing like with like has TokenDelta == 0, so Shift
  // alone cannot distinguish the two regions — the disjointness check
  // below branches on position, not on Shift.
  int64_t OldStart, Shift;
  bool BeforeDamage;
  if (StartIndex < C.InvalidLo) {
    OldStart = StartIndex;
    Shift = 0;
    BeforeDamage = true;
  } else if (StartIndex >= C.NewInvalidHi) {
    OldStart = StartIndex - C.TokenDelta;
    Shift = C.TokenDelta;
    BeforeDamage = false;
  } else {
    return false; // starts inside the damaged window
  }

  uint32_t MIdx = C.Prev->find(Rule, Precedence, OldStart);
  if (MIdx == ParseRecord::Npos)
    return false;
  const NodeMeta &M = C.Prev->Metas[MIdx];

  // Soundness: the node's entire examined window [Start, Reach] must be
  // disjoint from the damaged token range. Before the damage that means
  // the reach stopped short of it; after, that the node started past it
  // (everything examined from there on sits in the retained suffix).
  if (BeforeDamage) {
    if (M.Reach >= C.InvalidLo)
      return false;
  } else {
    if (M.Start < C.OldInvalidHi)
      return false;
  }

  if (!C.NewTokens)
    return false;
  std::unique_ptr<ParseTree> Sub = stealHeap(M, Shift, BeforeDamage);
  if (!Sub)
    return false;
  Out.Heap = std::move(Sub);
  // The nodes moved wholesale, so carried metadata keeps its pointers.
  carryRange(M.SubtreeBegin, MIdx, Shift);
  Out.NextIndex = M.Next + Shift;

  // The engine skips the child's body, so no exitRule will fold the
  // spliced subtree's window into the invoking rule; do it here, or a
  // later edit inside the subtree's overshoot could unsoundly reuse the
  // parent.
  if (!Stack.empty())
    Stack.back().Reach = std::max(Stack.back().Reach, M.Reach + Shift);
  return true;
}

std::unique_ptr<ParseTree> ReuseRecorder::stealHeap(const NodeMeta &M,
                                                    int64_t Shift,
                                                    bool BeforeDamage) {
  ParseTree *Node = M.HeapNode;
  ParseTree *Par = Node->parent();
  if (!Par)
    return nullptr; // the old root itself; unreachable via engine probes
  const bool Refresh = !BeforeDamage && !C.SuffixIdentical;
  // Every leaf index of the subtree lies in [Start, Next), so one range
  // check up front covers the whole refresh walk.
  if (Refresh && (M.Start + Shift < 0 ||
                  size_t(M.Next + Shift) > C.NewTokens->size()))
    return nullptr;
  std::unique_ptr<ParseTree> Sub = Par->releaseChild(Node->parentSlot());
  if (!Sub)
    return nullptr; // slot already emptied (defensive: stale metadata)
  assert(Sub.get() == Node && "parent/slot links out of sync");
  if (Refresh)
    refreshLeafTokens(*Sub, Shift);
  return Sub;
}

void ReuseRecorder::refreshLeafTokens(ParseTree &N, int64_t Shift) {
  if (N.isToken()) {
    // Recorded subtrees contain no error leaves: recovery reports opaque()
    // before attaching one, poisoning every ancestor.
    assert(!N.isError() && "error leaf inside a recorded subtree");
    N.setToken((*C.NewTokens)[size_t(N.token().Index + Shift)]);
    return;
  }
  for (size_t I = 0, E = N.numChildren(); I != E; ++I)
    if (ParseTree *Ch = N.child(I))
      refreshLeafTokens(*Ch, Shift);
}

void ReuseRecorder::carryRange(uint32_t B, uint32_t E, int64_t Shift) {
  // No per-call reserve: an exact reserve per splice would defeat the
  // vector's geometric growth and quadratize the carry.
  const size_t DstBase = Metas.size();
  for (uint32_t I = B; I <= E; ++I) {
    NodeMeta CM = C.Prev->Metas[I];
    CM.Start += Shift;
    CM.Next += Shift;
    CM.Reach += Shift;
    CM.SubtreeBegin = uint32_t(CM.SubtreeBegin - B + DstBase);
    Metas.push_back(CM);
  }
}

ParseRecord ReuseRecorder::take() {
  ParseRecord R;
  R.Metas = std::move(Metas);
  R.build();
  return R;
}
