//===- runtime/ParserStats.h - Runtime decision statistics ------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-decision runtime profiling counters — the measurements behind the
/// paper's Tables 3 and 4: decision events, lookahead depth per event,
/// backtracking events and speculation depth, memoization traffic.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_RUNTIME_PARSERSTATS_H
#define LLSTAR_RUNTIME_PARSERSTATS_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace llstar {

/// Number of buckets in the bounded lookahead-depth histogram: bucket i
/// counts events with lookahead depth exactly i for i < KHistBuckets-1;
/// the last bucket collects everything deeper. Bounded so the histogram
/// is a fixed-size array — mergeable and JSON-stable regardless of the
/// grammar.
constexpr size_t KHistBuckets = 10;

/// Counters for one parsing decision.
struct DecisionStats {
  int64_t Events = 0;        ///< prediction events at this decision
  int64_t TotalK = 0;        ///< sum of lookahead depths over events
  int64_t MaxK = 0;          ///< deepest lookahead of any event
  int64_t BacktrackEvents = 0; ///< events that evaluated a syntactic pred
  int64_t BacktrackTotalK = 0; ///< sum of speculation depths (those events)
  /// Bounded histogram of lookahead depths (see \ref KHistBuckets).
  std::array<int64_t, KHistBuckets> KHist{};
  /// Events per predicted alternative, index 0 = alt 1. Prediction
  /// failures (no viable alternative) are counted in Events but not here.
  std::vector<int64_t> AltEvents;

  /// Records one prediction event, or \p Times (> 0) identical ones. \p Alt
  /// is the 1-based chosen alternative, or <= 0 when prediction failed.
  void record(int64_t K, bool Backtracked, int32_t Alt = 0,
              int64_t Times = 1) {
    Events += Times;
    TotalK += K * Times;
    MaxK = std::max(MaxK, K);
    KHist[size_t(std::clamp<int64_t>(K, 0, KHistBuckets - 1))] += Times;
    if (Backtracked) {
      BacktrackEvents += Times;
      BacktrackTotalK += K * Times;
    }
    if (Alt > 0) {
      if (AltEvents.size() < size_t(Alt))
        AltEvents.resize(size_t(Alt));
      AltEvents[size_t(Alt) - 1] += Times;
    }
  }

  void merge(const DecisionStats &O) {
    Events += O.Events;
    TotalK += O.TotalK;
    MaxK = std::max(MaxK, O.MaxK);
    BacktrackEvents += O.BacktrackEvents;
    BacktrackTotalK += O.BacktrackTotalK;
    for (size_t I = 0; I < KHistBuckets; ++I)
      KHist[I] += O.KHist[I];
    if (AltEvents.size() < O.AltEvents.size())
      AltEvents.resize(O.AltEvents.size());
    for (size_t I = 0; I < O.AltEvents.size(); ++I)
      AltEvents[I] += O.AltEvents[I];
  }
};

/// Stable identity of one decision, independent of global decision
/// numbering: the owning rule's name, the decision's ordinal within that
/// rule (in decision-number order), and the decision's source position.
/// Emitted alongside the raw index in stats JSON so profiles collected by
/// different workers/fleets against the same grammar text are joinable
/// (and diffable) even if unrelated rules were added or removed.
struct DecisionKey {
  std::string Rule;          ///< owning rule name ("" = unknown)
  int32_t DecisionInRule = 0; ///< 0-based ordinal within the rule
  uint32_t Line = 0;          ///< decision source line (1-based; 0 = none)
  uint32_t Column = 0;        ///< decision source column (0-based)
};

/// Counters for one whole parse (or many; they accumulate).
struct ParserStats {
  std::vector<DecisionStats> Decisions;
  int64_t SynPredEvals = 0;
  int64_t MemoHits = 0;
  int64_t MemoMisses = 0;
  int64_t TokensConsumed = 0;
  int64_t SyntaxErrors = 0;
  int64_t TokensDeleted = 0;  ///< single-token-deletion repairs
  int64_t TokensInserted = 0; ///< single-token-insertion repairs
  int64_t PanicSyncs = 0;     ///< sync-and-return recoveries
  int64_t NodesReused = 0;       ///< subtrees spliced by incremental reparse
  int64_t TokensRelexed = 0;     ///< tokens re-lexed inside damage windows
  int64_t DecisionsReparsed = 0; ///< prediction events incremental redid

  void ensure(size_t NumDecisions) {
    if (Decisions.size() < NumDecisions)
      Decisions.resize(NumDecisions);
  }

  /// Number of distinct decisions exercised at least once (Table 3's "n").
  int64_t decisionsCovered() const {
    int64_t N = 0;
    for (const DecisionStats &D : Decisions)
      N += D.Events > 0;
    return N;
  }
  int64_t totalEvents() const {
    int64_t N = 0;
    for (const DecisionStats &D : Decisions)
      N += D.Events;
    return N;
  }
  /// Average lookahead depth over all decision events (Table 3 "avg k").
  double avgLookahead() const {
    int64_t Events = totalEvents();
    int64_t K = 0;
    for (const DecisionStats &D : Decisions)
      K += D.TotalK;
    return Events ? double(K) / double(Events) : 0;
  }
  /// Average speculation depth over backtracking events (Table 3 "back k").
  double avgBacktrackLookahead() const {
    int64_t Events = 0, K = 0;
    for (const DecisionStats &D : Decisions) {
      Events += D.BacktrackEvents;
      K += D.BacktrackTotalK;
    }
    return Events ? double(K) / double(Events) : 0;
  }
  /// Deepest lookahead of any event (Table 3 "max k").
  int64_t maxLookahead() const {
    int64_t K = 0;
    for (const DecisionStats &D : Decisions)
      K = std::max(K, D.MaxK);
    return K;
  }
  /// Aggregate bounded lookahead-depth histogram over every decision
  /// (bucket semantics in \ref KHistBuckets).
  std::array<int64_t, KHistBuckets> kHistogram() const {
    std::array<int64_t, KHistBuckets> H{};
    for (const DecisionStats &D : Decisions)
      for (size_t I = 0; I < KHistBuckets; ++I)
        H[I] += D.KHist[I];
    return H;
  }
  int64_t backtrackEvents() const {
    int64_t N = 0;
    for (const DecisionStats &D : Decisions)
      N += D.BacktrackEvents;
    return N;
  }
  /// Fraction of decision events that backtracked (Table 4 "Backtrack").
  double backtrackEventFraction() const {
    int64_t Events = totalEvents();
    return Events ? double(backtrackEvents()) / double(Events) : 0;
  }
  /// Number of decisions that backtracked at least once (Table 4 "Did").
  int64_t decisionsThatBacktracked() const {
    int64_t N = 0;
    for (const DecisionStats &D : Decisions)
      N += D.BacktrackEvents > 0;
    return N;
  }

  /// Accumulates \p O into this. Decision vectors of different lengths are
  /// aligned by index; the service merges every worker's thread-local stats
  /// into one aggregate snapshot with this.
  void merge(const ParserStats &O);

  /// Renders all counters as a JSON object. Keys are emitted in a fixed,
  /// documented order so profile files diff cleanly across runs:
  ///
  ///   decisionEvents, decisionsCovered, avgLookahead,
  ///   maxLookahead, kHistogram, backtrackEvents, backtrackFraction,
  ///   avgBacktrackLookahead, synPredEvals, memoHits, memoMisses,
  ///   tokensConsumed, syntaxErrors, tokensDeleted, tokensInserted,
  ///   panicSyncs, nodesReused, tokensRelexed, decisionsReparsed
  ///   [, decisions]
  ///
  /// `kHistogram` is the bounded depth histogram as a fixed-length array
  /// of \ref KHistBuckets counts (index = depth, last bucket = deeper).
  /// \p IncludeDecisions adds a `decisions` array with one entry per
  /// decision that recorded at least one event, each with keys
  ///   decision [, rule, decisionInRule, line, column],
  ///   events, totalK, maxK, kHistogram, backtrackEvents, backtrackTotalK,
  ///   altEvents
  /// in that order. \p Keys, when non-null and long enough, supplies the
  /// stable \ref DecisionKey identity fields.
  std::string json(bool IncludeDecisions = false,
                   const std::vector<DecisionKey> *Keys = nullptr) const;

  void reset() { *this = ParserStats(); }
};

} // namespace llstar

#endif // LLSTAR_RUNTIME_PARSERSTATS_H
