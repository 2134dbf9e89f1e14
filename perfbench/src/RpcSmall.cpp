//===- perfbench/src/RpcSmall.cpp - The rpc-small workload ----------------===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
//
// An in-process Daemon with 1 worker on loopback; one thread drives one
// LlstarClient connection with up to 8 pipelined requests in flight. The
// inputs are seeded 5-50-token json and dot snippets, trees returned, so
// per-request overhead (wire codec, socket IO, reader/worker/writer
// handoffs) dominates rather than lexing or parsing.
//
//===----------------------------------------------------------------------===//

#include "Generators.h"
#include "Harness.h"

#include "net/Daemon.h"
#include "net/LlstarClient.h"
#include "net/WireFormat.h"

#include <unordered_map>

using namespace llstar;
using namespace llstar::net;
using namespace perfbench;

namespace {

constexpr size_t SnippetsPerGrammar = 256;
constexpr size_t Pipeline = 8;
/// The traced loop records every 8th request: at tens of thousands of
/// replies a second, a span for each would make the span file huge.
constexpr uint64_t SpanEvery = 8;

struct Snippet {
  int Grammar;
  std::string Text;
};

struct Ready {
  std::unique_ptr<Daemon> Server;
  std::unique_ptr<LlstarClient> Client;
  uint64_t Hashes[2] = {0, 0};
};

Ready setUp(const GrammarSource (&Grammars)[2], Tracer &T) {
  Ready Rd;
  ScopedSpan Setup(T, "setup", Tracer::NoParent);
  std::string Err;
  {
    ScopedSpan S(T, "daemon.start", Setup.index());
    DaemonConfig Config;
    Config.Service.Threads = 1;
    Rd.Server = std::make_unique<Daemon>(Config);
    if (!Rd.Server->start(&Err)) {
      std::fprintf(stderr, "perfbench: daemon: %s\n", Err.c_str());
      std::exit(2);
    }
  }
  Rd.Client = std::make_unique<LlstarClient>();
  if (!Rd.Client->connect("127.0.0.1", Rd.Server->port(), &Err)) {
    std::fprintf(stderr, "perfbench: connect: %s\n", Err.c_str());
    std::exit(2);
  }
  for (int G = 0; G < 2; ++G) {
    ScopedSpan S(T, "net.loadBundle", Setup.index());
    wire::LoadBundleReply Reply;
    if (!Rd.Client->loadBundle(Grammars[G].Text, Reply, &Err)) {
      std::fprintf(stderr, "perfbench: loadBundle: %s\n", Err.c_str());
      std::exit(2);
    }
    Rd.Hashes[G] = Reply.Hash;
  }
  return Rd;
}

wire::ParseArgs argsFor(const Ready &Rd, const Snippet &S) {
  wire::ParseArgs A;
  A.BundleHash = Rd.Hashes[S.Grammar];
  A.WantTree = true;
  A.Input = S.Text;
  return A;
}

/// Whether \p M is an `ok` parse reply carrying \p ExpectedTree.
bool replyMatches(const wire::Message &M, const std::string &ExpectedTree) {
  return M.Hdr.Op == wire::Opcode::ParseReply &&
         M.Parse.Status == uint8_t(ParseStatus::Ok) &&
         M.Parse.TreeText == ExpectedTree;
}

/// One segment of the pipelined closed loop, \p Seconds long. A chunk of
/// \p L is one pass over the snippets. Every reply is checked against
/// \p Expected as it arrives; mismatches count as failed operations in \p R.
void pipelinedLoop(Ready &Rd, const std::vector<Snippet> &Snippets,
                   const std::vector<std::string> &Expected, size_t &Cursor,
                   double Seconds, Tracer *T, LoopFigures &L, RunResult &R) {
  struct Pending {
    uint32_t Snippet;
    Clock::time_point Sent;
  };
  std::unordered_map<uint64_t, Pending> InFlight;
  L.segment();
  auto Start = Clock::now();
  auto Stop = Start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(Seconds));
  std::string Err;
  bool Open = true;
  while (Open || !InFlight.empty()) {
    while (Open && InFlight.size() < Pipeline) {
      uint32_t I = uint32_t(Cursor++ % Snippets.size());
      wire::ParseArgs Args = argsFor(Rd, Snippets[I]);
      auto Sent = Clock::now();
      uint64_t Id = Rd.Client->submitParse(Args, false, &Err);
      if (Id == 0) {
        R.problem("submit failed: " + Err);
        return;
      }
      InFlight[Id] = {I, Sent};
    }
    wire::Message M;
    if (!Rd.Client->waitAny(M, &Err)) {
      R.problem("receive failed: " + Err);
      return;
    }
    auto Now = Clock::now();
    Open = Now < Stop;
    auto It = InFlight.find(M.Hdr.RequestId);
    if (It == InFlight.end()) {
      R.problem("reply to an unknown request id");
      continue;
    }
    Pending P = It->second;
    InFlight.erase(It);
    if (T && M.Hdr.RequestId % SpanEvery == 0)
      T->record("net.request", Tracer::NoParent, int64_t(M.Hdr.RequestId),
                P.Sent, Now);
    L.add(P.Snippet, millisBetween(P.Sent, Now), secondsBetween(Start, Now),
          M.Parse.NumTokens);
    ++R.Attempted;
    if (!replyMatches(M, Expected[P.Snippet]) && ++R.Failed <= 5)
      R.problem("snippet " + std::to_string(P.Snippet) +
                ": reply differs from the in-process result");
  }
}

} // namespace

RunResult perfbench::runRpcSmall(const Options &O, Tracer &T) {
  RunResult R;
  const GrammarSource Grammars[2] = {shippedGrammar(O, "json"),
                                     shippedGrammar(O, "dot")};
  std::vector<Snippet> Snippets;
  for (int G = 0; G < 2; ++G) {
    Rng Gen = Rng::derive(O.Seed, 3000 + uint64_t(G));
    for (size_t I = 0; I < SnippetsPerGrammar; ++I) {
      int Tokens = Gen.range(5, 50);
      Snippets.push_back({G, G == 0 ? gen::jsonSnippet(Gen, Tokens)
                                    : gen::dotSnippet(Gen, Tokens)});
    }
  }
  Rng Shuffle = Rng::derive(O.Seed, 3002);
  for (size_t I = Snippets.size(); I > 1; --I)
    std::swap(Snippets[I - 1], Snippets[Shuffle.below(I)]);

  // The expected replies: an in-process ParseService with the daemon's
  // configuration, checked in turn against packrat.
  GrammarBundleCache LocalCache;
  std::shared_ptr<const GrammarBundle> Local[2];
  double LocalAnalysisS = 0;
  for (int G = 0; G < 2; ++G)
    Local[G] = loadBundle(LocalCache, Grammars[G], T, Tracer::NoParent,
                          &LocalAnalysisS);
  ServiceConfig LocalConfig;
  LocalConfig.Threads = 1;
  ParseService LocalService(LocalConfig);
  std::vector<ParseResult> Expected;
  std::vector<std::string> ExpectedTrees;
  for (size_t I = 0; I < Snippets.size(); ++I) {
    const Snippet &S = Snippets[I];
    ParseRequest Req;
    Req.Bundle = Local[S.Grammar];
    Req.Input = S.Text;
    Req.WantTree = true;
    ParseResult Res;
    serviceRoundTrip(LocalService, std::move(Req), &Res);
    Reference Ref = computeReference(*Local[S.Grammar], "", S.Text,
                                     Grammars[S.Grammar].Name + " snippet " +
                                         std::to_string(I),
                                     R.Problems);
    if (!Res.ok() || Res.TreeText != Ref.Tree)
      R.problem("snippet " + std::to_string(I) +
                ": in-process service result differs from packrat");
    ExpectedTrees.push_back(Res.TreeText);
    Expected.push_back(std::move(Res));
  }

  // Each cold set-up starts a new daemon.
  size_t Cursor = 0;
  Ready Rd;
  Measured M = measure(
      O, T, LoopFigures(Snippets.size(), /*ChunkOps=*/Snippets.size()), Rd,
      [&] { return setUp(Grammars, T); },
      [&](Ready &Serving, double Seconds, Tracer *Tr, LoopFigures &L) {
        pipelinedLoop(Serving, Snippets, ExpectedTrees, Cursor, Seconds, Tr,
                      L, R);
      });

  if (!O.Trace) {
    addEndToEnd(R, M);
    return R;
  }

  LayerFigures L;
  L.TraceOverheadPct = M.traceOverheadPct();
  L.AnalysisBusyS = LocalAnalysisS;
  for (const auto &B : Local)
    L.DfaStates += B->analyzed().stats().TotalDfaStates;

  // Replay each snippet: direct layers, in-process service, one rpc, and
  // the codec calls of its request and reply.
  ServiceReplay Replay(Snippets.size(), /*Compiled=*/false, /*WantTree=*/true);
  std::vector<std::vector<double>> RpcMs(Snippets.size()),
      CodecUs(Snippets.size());
  double Bytes = 0;
  std::string Err;
  for (int Rep = 0; Rep < ReplayRepeats; ++Rep) {
    for (size_t I = 0; I < Snippets.size(); ++I) {
      const Snippet &S = Snippets[I];
      const int64_t Req = int64_t(I);
      ScopedSpan Span(T, "replay", Tracer::NoParent, Req);
      Replay.add(I, LocalService, Local[S.Grammar], "", S.Text, T,
                 Span.index());

      wire::ParseArgs Args = argsFor(Rd, S);
      wire::Message M;
      {
        ScopedSpan Rpc(T, "net.rpc", Span.index(), Req);
        auto T0 = Clock::now();
        uint64_t Id = Rd.Client->submitParse(Args, false, &Err);
        if (Id == 0 || !Rd.Client->wait(Id, M, &Err)) {
          R.problem("replay rpc failed: " + Err);
          break;
        }
        RpcMs[I].push_back(millisBetween(T0, Clock::now()));
      }
      if (!replyMatches(M, ExpectedTrees[I]))
        R.problem("snippet " + std::to_string(I) +
                  ": replayed reply differs from the in-process result");

      // The codec: client encode, server decode, server encode, client
      // decode, each timed on its own.
      ScopedSpan Codec(T, "net.codec", Span.index(), Req);
      auto C0 = Clock::now();
      std::string ArgsRecord = wire::encodeParseArgs(1, Args, false);
      auto C1 = Clock::now();
      wire::ByteReader In(ArgsRecord);
      wire::MessageHeader Hdr;
      wire::ParseArgs Decoded;
      bool Good = wire::decodeHeader(In, Hdr) == wire::WireError::None &&
                  wire::decodeParseArgs(In, Hdr.Flags, Decoded);
      auto C2 = Clock::now();
      std::string ReplyRecord = wire::encodeParseReply(
          1, wire::makeParseReply(Expected[I]), false);
      auto C3 = Clock::now();
      wire::Message Back;
      std::string DecodeErr;
      Good = wire::decodeReply(ReplyRecord, Back, DecodeErr) && Good;
      auto C4 = Clock::now();
      if (!Good)
        R.problem("snippet " + std::to_string(I) + ": codec round trip failed");
      T.record("net.encodeParseArgs", Codec.index(), Req, C0, C1);
      T.record("net.decodeParseArgs", Codec.index(), Req, C1, C2);
      T.record("net.encodeParseReply", Codec.index(), Req, C2, C3);
      T.record("net.decodeReply", Codec.index(), Req, C3, C4);
      CodecUs[I].push_back(
          std::chrono::duration<double, std::micro>(C4 - C0).count());
      if (Rep == 0) {
        std::string Framed;
        wire::frameRecord(Framed, ArgsRecord);
        wire::frameRecord(Framed, ReplyRecord);
        Bytes += double(Framed.size());
      }
    }
  }
  Replay.fold(L, R.Problems);
  std::vector<double> NetOverhead, Codec;
  for (size_t I = 0; I < Snippets.size(); ++I) {
    NetOverhead.push_back(median(RpcMs[I]) - Replay.serviceMs(I));
    Codec.push_back(median(CodecUs[I]));
  }
  L.NetOverheadMs = median(NetOverhead);
  L.NetCodecUs = median(Codec);
  L.NetBytesPerOp = Bytes / double(Snippets.size());
  DaemonCounters DC = Rd.Server->counters();
  L.NetRejected = DC.RejectedPipelineCap + DC.RejectedDraining +
                  DC.ProtocolErrors +
                  Rd.Server->service().metrics().RejectedQueueFull;
  if (L.NetRejected != 0)
    R.problem("the daemon rejected " + std::to_string(L.NetRejected) +
              " requests");
  finishTraced(O, T, L, R);
  return R;
}
