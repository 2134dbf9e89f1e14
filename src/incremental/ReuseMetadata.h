//===- incremental/ReuseMetadata.h - Per-node reuse metadata ----*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The subscriber side of runtime/ReuseHooks.h: records per-node reuse
/// metadata during one parse and serves subtree splices to the next.
///
/// For every completed non-speculative rule invocation the recorder keeps
/// `(rule, precedence, startToken, nextToken, maxLookaheadReach)` — where
/// the reach is the highest token index *any* prediction under the node
/// examined, folded child-into-parent on exit. An LL(*) decision is a
/// pure function of its lookahead window, so a node whose `[start, reach]`
/// window is disjoint from an edit's damaged token range would parse to
/// the identical subtree; that is the entire soundness argument.
///
/// Nodes are dropped (never recorded) when anything broke that purity:
/// semantic predicates and actions consult mutable state, syntax-error
/// recovery consults the dynamic follow stack, deadline aborts truncate
/// the parse. The engines report those moments through
/// ReuseHooks::opaque(), and the poison propagates to every ancestor.
/// Zero-width invocations are also dropped — splicing a node that
/// consumed nothing can never make progress.
///
/// On the next parse, \ref ReuseRecorder::tryReuse maps the probe's new
/// start index back to old token coordinates (identity before the damage,
/// shifted by the token delta after it) and requires the recorded window
/// to be disjoint from the damaged range. The splice itself is built for
/// the editor loop's per-edit budget: the subtree is *stolen*. The old
/// tree is about to be discarded anyway, so the subtree is detached from
/// its old parent (the slot is left empty) and adopted wholesale — no
/// allocation, no walk. Only when the retained suffix actually shifted
/// (byte, token, or position delta) are the subtree's leaf tokens
/// refreshed from the new token vector, and only for suffix splices;
/// prefix tokens never change.
///
/// Metadata carries forward without any per-node map: exits append in
/// post-order, so a node's subtree occupies the contiguous metadata range
/// [SubtreeBegin, self] — splices carry that whole range, re-based, in
/// one pass, which is what lets reuse keep compounding across edits at
/// O(spliced metadata) instead of O(tree) cost.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_INCREMENTAL_REUSEMETADATA_H
#define LLSTAR_INCREMENTAL_REUSEMETADATA_H

#include "lexer/Token.h"
#include "runtime/ParseTree.h"
#include "runtime/ReuseHooks.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace llstar {
namespace incremental {

/// Reuse metadata for one parse-tree node (one completed rule
/// invocation). Indices are token-stream positions of the parse that
/// built the node. Only sound candidates are stored: opaque
/// (predicate/action/error/deadline-tainted) and zero-width invocations
/// are never recorded.
struct NodeMeta {
  int32_t Rule = -1;
  int32_t Prec = 0;
  int64_t Start = 0; ///< first token index of the invocation
  int64_t Next = 0;  ///< one past the last consumed token
  int64_t Reach = 0; ///< highest token index any decision under the node
                     ///< examined (inclusive; >= Next - 1)
  /// Index into the owning record's Metas of the first entry belonging to
  /// this node's subtree. Exits append post-order, so the subtree's
  /// entries are exactly Metas[SubtreeBegin .. self], self last.
  uint32_t SubtreeBegin = 0;
  ParseTree *HeapNode = nullptr;
};

/// All reuse metadata harvested from one parse, indexed for the next.
/// The probe index is a flat open-addressed table with linear probing
/// (the per-edit rebuild is on the incremental hot path; node-based maps
/// are too slow there).
struct ParseRecord {
  std::vector<NodeMeta> Metas;

  static uint64_t packKey(int32_t Rule, int32_t Prec, int64_t Start) {
    return (uint64_t(uint32_t(Rule)) * 0x9E3779B97F4A7C15ULL) ^
           (uint64_t(uint32_t(Prec)) * 0xC2B2AE3D27D4EB4FULL) ^
           uint64_t(Start);
  }

  /// Index into Metas of the entry for (rule, prec, start), or
  /// \ref Npos. Of entries sharing a packed key the later (outermost)
  /// one holds the slot; a probe for any other triple is a miss.
  uint32_t find(int32_t Rule, int32_t Prec, int64_t Start) const {
    if (Slots.empty())
      return Npos;
    uint64_t K = packKey(Rule, Prec, Start);
    for (size_t S = slotOf(K);; S = (S + 1) & Mask) {
      if (Slots[S].second == Npos)
        return Npos;
      if (Slots[S].first == K) {
        const NodeMeta &M = Metas[Slots[S].second];
        return M.Rule == Rule && M.Prec == Prec && M.Start == Start
                   ? Slots[S].second
                   : Npos;
      }
    }
  }

  static constexpr uint32_t Npos = UINT32_MAX;

  /// Rebuilds the probe index from Metas.
  void build();
  void clear();

  /// The longest run of occupied slots, wrapping around the table's end:
  /// the worst probe sequence a find can walk.
  size_t longestRun() const;

private:
  /// The slot a key's probe starts at. packKey leaves Start in the low
  /// bits, so one rule's entries would fill one aligned block of slots
  /// and the blocks of different rules would overlap; a 64-bit finalizer
  /// (MurmurHash3's fmix64) spreads them over the whole table.
  size_t slotOf(uint64_t K) const {
    K ^= K >> 33;
    K *= 0xFF51AFD7ED558CCDULL;
    K ^= K >> 33;
    K *= 0xC4CEB9FE1A85EC53ULL;
    K ^= K >> 33;
    return size_t(K) & Mask;
  }

  std::vector<std::pair<uint64_t, uint32_t>> Slots; ///< (key, Metas index)
  size_t Mask = 0;
};

/// The live ReuseHooks subscriber for one parse: records metadata for the
/// tree being built while serving splices out of the previous parse's
/// record. Construct one per parse; harvest with \ref take afterwards.
class ReuseRecorder : public ReuseHooks {
public:
  struct Config {
    /// Previous parse to harvest subtrees from; null disables reuse
    /// (first parse of a session, or reuse turned off).
    const ParseRecord *Prev = nullptr;
    /// Damaged token window, from IncrementalLexer::Damage: old tokens
    /// [0, InvalidLo) are unchanged, old tokens [OldInvalidHi, ...)
    /// survive shifted by TokenDelta (their new indices start at
    /// NewInvalidHi).
    int64_t InvalidLo = 0;
    int64_t OldInvalidHi = 0;
    int64_t NewInvalidHi = 0;
    int64_t TokenDelta = 0;
    /// True when the retained suffix tokens are bit-identical to the old
    /// ones (IncrementalLexer::Damage::SuffixIdentical): suffix steals
    /// can then skip refreshing their leaf tokens entirely.
    bool SuffixIdentical = false;
    /// The new master token vector; suffix splices refresh their leaf
    /// tokens from here when the suffix shifted.
    const std::vector<Token> *NewTokens = nullptr;
  };

  explicit ReuseRecorder(Config C) : C(C) {}

  bool tryReuse(int32_t Rule, int32_t Precedence, int64_t StartIndex,
                Splice &Out) override;
  void enterRule(int32_t Rule, int32_t Precedence,
                 int64_t StartIndex) override;
  void exitRule(int32_t Rule, int64_t NextIndex,
                ParseTree *HeapNode) override;
  void lookahead(int64_t MaxIndexInclusive) override;
  void opaque() override;

  /// Harvests the metadata recorded for the parse (with indices built);
  /// the recorder is spent afterwards.
  ParseRecord take();

private:
  struct Frame {
    int32_t Rule;
    int32_t Prec;
    int64_t Start;
    int64_t Reach;
    uint32_t MetasMark; ///< Metas.size() at enterRule: SubtreeBegin
    bool Opaque;
  };

  /// Detaches the recorded heap subtree from the previous tree and
  /// prepares it for adoption (refreshing leaf tokens if the suffix
  /// shifted). Null on refusal; the old tree is left untouched then.
  std::unique_ptr<ParseTree> stealHeap(const NodeMeta &M, int64_t Shift,
                                       bool BeforeDamage);
  /// Rewrites every token leaf from the new token vector, shifted.
  void refreshLeafTokens(ParseTree &N, int64_t Shift);
  /// Bulk-carries the previous record's metadata range [B, E] (a spliced
  /// subtree, post-order) into Metas, re-based by \p Shift. Node pointers
  /// are kept — steals move the nodes wholesale.
  void carryRange(uint32_t B, uint32_t E, int64_t Shift);

  Config C;
  std::vector<Frame> Stack;
  std::vector<NodeMeta> Metas;
};

} // namespace incremental
} // namespace llstar

#endif // LLSTAR_INCREMENTAL_REUSEMETADATA_H
