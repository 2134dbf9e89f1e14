#include "runtime/ParserStats.h"

#include <cstdio>

using namespace llstar;

void ParserStats::merge(const ParserStats &O) {
  ensure(O.Decisions.size());
  for (size_t I = 0; I < O.Decisions.size(); ++I)
    Decisions[I].merge(O.Decisions[I]);
  SynPredEvals += O.SynPredEvals;
  MemoHits += O.MemoHits;
  MemoMisses += O.MemoMisses;
  TokensConsumed += O.TokensConsumed;
  SyntaxErrors += O.SyntaxErrors;
  TokensDeleted += O.TokensDeleted;
  TokensInserted += O.TokensInserted;
  PanicSyncs += O.PanicSyncs;
  NodesReused += O.NodesReused;
  TokensRelexed += O.TokensRelexed;
  DecisionsReparsed += O.DecisionsReparsed;
}

namespace {

void appendNum(std::string &Out, const char *Key, int64_t V) {
  Out += '"';
  Out += Key;
  Out += "\":";
  Out += std::to_string(V);
}

void appendDouble(std::string &Out, const char *Key, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "\"%s\":%.6g", Key, V);
  Out += Buf;
}

void appendQuoted(std::string &Out, const char *Key, const std::string &V) {
  Out += '"';
  Out += Key;
  Out += "\":\"";
  for (char C : V) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  Out += '"';
}

void appendHist(std::string &Out, const char *Key,
                const std::array<int64_t, KHistBuckets> &H) {
  Out += '"';
  Out += Key;
  Out += "\":[";
  for (size_t I = 0; I < H.size(); ++I) {
    if (I)
      Out += ',';
    Out += std::to_string(H[I]);
  }
  Out += ']';
}

} // namespace

std::string ParserStats::json(bool IncludeDecisions,
                              const std::vector<DecisionKey> *Keys) const {
  std::string Out = "{";
  appendNum(Out, "decisionEvents", totalEvents());
  Out += ',';
  appendNum(Out, "decisionsCovered", decisionsCovered());
  Out += ',';
  appendDouble(Out, "avgLookahead", avgLookahead());
  Out += ',';
  appendNum(Out, "maxLookahead", maxLookahead());
  Out += ',';
  appendHist(Out, "kHistogram", kHistogram());
  Out += ',';
  appendNum(Out, "backtrackEvents", backtrackEvents());
  Out += ',';
  appendDouble(Out, "backtrackFraction", backtrackEventFraction());
  Out += ',';
  appendDouble(Out, "avgBacktrackLookahead", avgBacktrackLookahead());
  Out += ',';
  appendNum(Out, "synPredEvals", SynPredEvals);
  Out += ',';
  appendNum(Out, "memoHits", MemoHits);
  Out += ',';
  appendNum(Out, "memoMisses", MemoMisses);
  Out += ',';
  appendNum(Out, "tokensConsumed", TokensConsumed);
  Out += ',';
  appendNum(Out, "syntaxErrors", SyntaxErrors);
  Out += ',';
  appendNum(Out, "tokensDeleted", TokensDeleted);
  Out += ',';
  appendNum(Out, "tokensInserted", TokensInserted);
  Out += ',';
  appendNum(Out, "panicSyncs", PanicSyncs);
  Out += ',';
  appendNum(Out, "nodesReused", NodesReused);
  Out += ',';
  appendNum(Out, "tokensRelexed", TokensRelexed);
  Out += ',';
  appendNum(Out, "decisionsReparsed", DecisionsReparsed);
  if (IncludeDecisions) {
    Out += ",\"decisions\":[";
    bool First = true;
    for (size_t I = 0; I < Decisions.size(); ++I) {
      const DecisionStats &D = Decisions[I];
      if (D.Events == 0)
        continue;
      if (!First)
        Out += ',';
      First = false;
      Out += "{";
      appendNum(Out, "decision", int64_t(I));
      if (Keys && I < Keys->size() && !(*Keys)[I].Rule.empty()) {
        const DecisionKey &K = (*Keys)[I];
        Out += ',';
        appendQuoted(Out, "rule", K.Rule);
        Out += ',';
        appendNum(Out, "decisionInRule", K.DecisionInRule);
        Out += ',';
        appendNum(Out, "line", int64_t(K.Line));
        Out += ',';
        appendNum(Out, "column", int64_t(K.Column));
      }
      Out += ',';
      appendNum(Out, "events", D.Events);
      Out += ',';
      appendNum(Out, "totalK", D.TotalK);
      Out += ',';
      appendNum(Out, "maxK", D.MaxK);
      Out += ',';
      appendHist(Out, "kHistogram", D.KHist);
      Out += ',';
      appendNum(Out, "backtrackEvents", D.BacktrackEvents);
      Out += ',';
      appendNum(Out, "backtrackTotalK", D.BacktrackTotalK);
      Out += ",\"altEvents\":[";
      for (size_t A = 0; A < D.AltEvents.size(); ++A) {
        if (A)
          Out += ',';
        Out += std::to_string(D.AltEvents[A]);
      }
      Out += "]}";
    }
    Out += "]";
  }
  Out += "}";
  return Out;
}
