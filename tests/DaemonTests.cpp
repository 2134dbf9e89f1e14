//===- tests/DaemonTests.cpp - llstard over the wire ----------------------===//
//
// Coverage for src/net/Daemon.h + LlstarClient.h: real sockets on an
// ephemeral loopback port (port 0 — tests never collide), driven through
// the client library. The headline suite is conformance: daemon responses
// must be byte-identical to in-process ParseService results — trees,
// diagnostics, structured recovery errors, and the stats JSON (modulo the
// wall-clock parseMillis fields) — across the fuzz-grammar corpus with
// and without `--compiled` (the parameter names keep the engines' old
// names). The rest pins down the daemon's
// concurrency contracts deterministically: request-id pipelining with
// out-of-order completion, per-connection and queue backpressure, graceful
// drain, version negotiation, and robustness against garbage bytes. All of
// it runs under the TSan CI job; keep it free of intentional races.
//
//===----------------------------------------------------------------------===//

#include "CompiledManifest.h"
#include "fuzz/SentenceSampler.h"
#include "incremental/IncrementalSession.h"
#include "net/Daemon.h"
#include "net/LlstarClient.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

using namespace llstar;
using namespace llstar::net;

namespace {

const char *ExprGrammar = R"(
grammar Expr;
s    : expr EOF ;
expr : term (('+' | '-') term)* ;
term : atom ('*' atom)* ;
atom : INT | '(' expr ')' ;
INT  : [0-9]+ ;
WS   : [ \t\r\n]+ -> skip ;
)";

/// Same language plus division — different bytes, different content hash;
/// the hot-reload test's "new version" of Expr.
const char *ExprGrammarV2 = R"(
grammar Expr;
s    : expr EOF ;
expr : term (('+' | '-') term)* ;
term : atom (('*' | '/') atom)* ;
atom : INT | '(' expr ')' ;
INT  : [0-9]+ ;
WS   : [ \t\r\n]+ -> skip ;
)";

std::vector<std::string> corpusFiles() {
  namespace fs = std::filesystem;
  std::vector<std::string> Paths;
  for (const auto &Entry : fs::directory_iterator(
           std::string(LLSTAR_SOURCE_DIR) + "/tests/corpus"))
    if (Entry.path().extension() == ".g")
      Paths.push_back(Entry.path().string());
  std::sort(Paths.begin(), Paths.end());
  return Paths;
}

std::string readFileOrFail(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In) << Path;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// Blanks every `"parseMillis":<number>` value — the only wall-clock-
/// dependent fields in the metrics JSON.
std::string stripParseMillis(std::string Json) {
  const std::string Key = "\"parseMillis\":";
  size_t At = 0;
  while ((At = Json.find(Key, At)) != std::string::npos) {
    size_t Begin = At + Key.size();
    size_t End = Begin;
    while (End < Json.size() &&
           (std::isdigit(uint8_t(Json[End])) || Json[End] == '.' ||
            Json[End] == '-' || Json[End] == '+' || Json[End] == 'e' ||
            Json[End] == 'E'))
      ++End;
    Json.replace(Begin, End - Begin, "X");
    At = Begin;
  }
  return Json;
}

/// A started daemon + connected client, torn down in order.
struct Harness {
  explicit Harness(DaemonConfig Config = {}) : Server(std::move(Config)) {
    std::string Error;
    Ok = Server.start(&Error);
    EXPECT_TRUE(Ok) << Error;
    if (Ok)
      Ok = Client.connect("127.0.0.1", Server.port(), &Error);
    EXPECT_TRUE(Ok) << Error;
  }
  ~Harness() {
    Client.close();
    Server.stop();
  }
  Daemon Server;
  LlstarClient Client;
  bool Ok = false;
};

uint64_t loadOrFail(LlstarClient &Client, std::string_view Bytes) {
  wire::LoadBundleReply Loaded;
  std::string Err;
  EXPECT_TRUE(Client.loadBundle(Bytes, Loaded, &Err)) << Err;
  return Loaded.Hash;
}

//===----------------------------------------------------------------------===//
// Basic round-trip
//===----------------------------------------------------------------------===//

TEST(DaemonTest, LoadsAGrammarAndParsesOverTheWire) {
  Harness H;
  ASSERT_TRUE(H.Ok);
  uint64_t Hash = loadOrFail(H.Client, ExprGrammar);
  EXPECT_NE(Hash, 0u);

  wire::ParseArgs Args;
  Args.BundleHash = Hash;
  Args.WantTree = true;
  Args.Input = "1 + 2 * 3";
  wire::Message Reply;
  std::string Err;
  ASSERT_TRUE(H.Client.parse(Args, /*Recover=*/false, Reply, &Err)) << Err;
  ASSERT_EQ(Reply.Hdr.Op, wire::Opcode::ParseReply);
  EXPECT_EQ(Reply.Parse.Status, uint8_t(ParseStatus::Ok));
  EXPECT_EQ(Reply.Parse.NumTokens, 5);
  EXPECT_NE(Reply.Parse.TreeText.find("(expr"), std::string::npos)
      << Reply.Parse.TreeText;

  // Hash 0 addresses the default (most recently loaded) bundle.
  Args.BundleHash = 0;
  ASSERT_TRUE(H.Client.parse(Args, false, Reply, &Err)) << Err;
  EXPECT_EQ(Reply.Parse.Status, uint8_t(ParseStatus::Ok));

  // Re-loading identical bytes is a cache hit with the same hash.
  wire::LoadBundleReply Again;
  ASSERT_TRUE(H.Client.loadBundle(ExprGrammar, Again, &Err)) << Err;
  EXPECT_EQ(Again.Hash, Hash);
  EXPECT_EQ(Again.Cached, 1);

  DaemonCounters C = H.Server.counters();
  EXPECT_EQ(C.ConnectionsAccepted, 1);
  EXPECT_EQ(C.BundlesLoaded, 1);
  EXPECT_EQ(C.ProtocolErrors, 0);
}

TEST(DaemonTest, UnknownBundleHashAndBadBundleBytesAreCleanErrors) {
  Harness H;
  ASSERT_TRUE(H.Ok);

  // No bundle loaded at all: hash 0 has no default to fall back to.
  wire::ParseArgs Args;
  Args.Input = "1";
  wire::Message Reply;
  std::string Err;
  ASSERT_TRUE(H.Client.parse(Args, false, Reply, &Err)) << Err;
  ASSERT_EQ(Reply.Hdr.Op, wire::Opcode::ErrorReply);
  EXPECT_EQ(Reply.Error.Code, wire::WireError::UnknownBundle);

  Args.BundleHash = 74565;
  ASSERT_TRUE(H.Client.parse(Args, false, Reply, &Err)) << Err;
  ASSERT_EQ(Reply.Hdr.Op, wire::Opcode::ErrorReply);
  EXPECT_EQ(Reply.Error.Code, wire::WireError::UnknownBundle);
  EXPECT_NE(Reply.Error.Message.find("74565"), std::string::npos)
      << Reply.Error.Message;

  // Unloadable bytes produce BadBundle with the loader's diagnostics.
  wire::LoadBundleReply Loaded;
  EXPECT_FALSE(H.Client.loadBundle("grammar Broken; s : ", Loaded, &Err));
  EXPECT_NE(Err.find("bad-bundle"), std::string::npos) << Err;

  // The connection is still healthy afterwards.
  uint64_t Hash = loadOrFail(H.Client, ExprGrammar);
  Args.BundleHash = Hash;
  ASSERT_TRUE(H.Client.parse(Args, false, Reply, &Err)) << Err;
  EXPECT_EQ(Reply.Parse.Status, uint8_t(ParseStatus::Ok));
}

//===----------------------------------------------------------------------===//
// Over-the-wire conformance: byte-identical to the in-process service
//===----------------------------------------------------------------------===//

class DaemonConformanceTest : public ::testing::TestWithParam<bool> {};

TEST_P(DaemonConformanceTest, CorpusResultsAreByteIdenticalToInProcess) {
  const bool UseCompiled = GetParam();
  if (UseCompiled)
    compiled::registerShippedGrammars();

  ServiceConfig SC;
  SC.Threads = 2;
  SC.UseCompiled = UseCompiled;

  // The reference: the exact same workload through an in-process service.
  ParseService Reference(SC);
  GrammarBundleCache ReferenceCache;

  DaemonConfig DC;
  DC.Service = SC;
  Harness H(DC);
  ASSERT_TRUE(H.Ok);

  std::vector<std::string> Paths = corpusFiles();
  ASSERT_FALSE(Paths.empty());
  std::string Err;
  for (const std::string &Path : Paths) {
    std::string Bytes = readFileOrFail(Path);
    DiagnosticEngine Diags;
    auto Bundle = ReferenceCache.get(Bytes, Diags);
    ASSERT_TRUE(Bundle) << Path << "\n" << Diags.str();

    wire::LoadBundleReply Loaded;
    ASSERT_TRUE(H.Client.loadBundle(Bytes, Loaded, &Err)) << Path << ": "
                                                          << Err;
    // The daemon keys bundles by the same content hash the cache uses.
    ASSERT_EQ(Loaded.Hash, Bundle->contentHash()) << Path;
    ASSERT_EQ(Loaded.Name, Bundle->name());

    fuzz::SentenceSampler Sampler(Bundle->grammar(), /*Seed=*/2026);
    for (int I = 0; I < 6; ++I) {
      std::string Input = fuzz::SentenceSampler::render(Sampler.sample());
      bool Recover = I % 2 == 1;

      // The daemon names requests after the wire request id; mirror that
      // so even id-bearing text would compare equal.
      uint64_t WireId = H.Client.nextRequestId();
      ParseRequest Req;
      Req.Bundle = Bundle;
      Req.Id = std::to_string(WireId);
      Req.Input = Input;
      Req.WantTree = true;
      Req.Recover = Recover;
      ParseResult Want = Reference.submit(std::move(Req)).get();

      wire::ParseArgs Args;
      Args.BundleHash = Loaded.Hash;
      Args.WantTree = true;
      Args.Input = Input;
      wire::Message Got;
      ASSERT_TRUE(H.Client.parse(Args, Recover, Got, &Err))
          << Path << "#" << I << ": " << Err;
      ASSERT_EQ(Got.Hdr.Op, Recover ? wire::Opcode::ParseRecoverReply
                                    : wire::Opcode::ParseReply)
          << Path << "#" << I;

      const wire::ParseReply &P = Got.Parse;
      EXPECT_EQ(ParseStatus(P.Status), Want.Status) << Path << "#" << I;
      EXPECT_EQ(P.TreeText, Want.TreeText) << Path << "#" << I;
      EXPECT_EQ(P.DiagText, Want.DiagText) << Path << "#" << I;
      EXPECT_EQ(P.NumTokens, Want.NumTokens) << Path << "#" << I;
      EXPECT_EQ(P.TreeNodes, Want.TreeNodes) << Path << "#" << I;
      ASSERT_EQ(P.Errors.size(), Want.Errors.size()) << Path << "#" << I;
      for (size_t E = 0; E < P.Errors.size(); ++E) {
        EXPECT_EQ(DiagSeverity(P.Errors[E].Severity),
                  Want.Errors[E].Severity);
        EXPECT_EQ(P.Errors[E].Line, Want.Errors[E].Loc.Line);
        EXPECT_EQ(P.Errors[E].Column, Want.Errors[E].Loc.Column);
        EXPECT_EQ(P.Errors[E].Message, Want.Errors[E].Message);
      }
    }
  }

  // The stats JSON agrees too: identical workloads yield identical merged
  // counters and ParserStats; only the parseMillis wall times may differ.
  std::string WireJson;
  ASSERT_TRUE(H.Client.stats(/*IncludeDecisions=*/true, WireJson, &Err))
      << Err;
  std::string ReferenceJson = Reference.metrics().json(true);
  EXPECT_EQ(stripParseMillis(WireJson), stripParseMillis(ReferenceJson));
}

INSTANTIATE_TEST_SUITE_P(InterpreterAndCompiled, DaemonConformanceTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool> &Info) {
                           return Info.param ? "Compiled" : "Interpreter";
                         });

TEST(DaemonTest, StatsReplyMatchesTheServiceMetricsSnapshot) {
  Harness H;
  ASSERT_TRUE(H.Ok);
  uint64_t Hash = loadOrFail(H.Client, ExprGrammar);
  wire::ParseArgs Args;
  Args.BundleHash = Hash;
  Args.Input = "1 + 2";
  wire::Message Reply;
  std::string Err;
  for (int I = 0; I < 3; ++I)
    ASSERT_TRUE(H.Client.parse(Args, false, Reply, &Err)) << Err;

  // Idle at snapshot time, same service: the strings are fully identical,
  // wall-clock fields included.
  std::string WireJson;
  ASSERT_TRUE(H.Client.stats(true, WireJson, &Err)) << Err;
  EXPECT_EQ(WireJson, H.Server.service().metrics().json(true));
  EXPECT_NE(WireJson.find("\"ok\":3"), std::string::npos) << WireJson;
}

//===----------------------------------------------------------------------===//
// Pipelining, backpressure, drain
//===----------------------------------------------------------------------===//

TEST(DaemonTest, PipelinedRepliesCompleteOutOfSubmissionOrder) {
  DaemonConfig DC;
  DC.Service.Threads = 2;
  Harness H(DC);
  ASSERT_TRUE(H.Ok);
  uint64_t Hash = loadOrFail(H.Client, ExprGrammar);

  // A parse that takes real work, then a trivial one: with two workers the
  // trivial reply overtakes the big one on the same connection.
  std::string Big = "1";
  for (int I = 0; I < 120000; ++I)
    Big += " + 1";
  wire::ParseArgs BigArgs;
  BigArgs.BundleHash = Hash;
  BigArgs.Input = Big;
  wire::ParseArgs TinyArgs;
  TinyArgs.BundleHash = Hash;
  TinyArgs.Input = "7";

  std::string Err;
  uint64_t BigId = H.Client.submitParse(BigArgs, false, &Err);
  ASSERT_NE(BigId, 0u) << Err;
  uint64_t TinyId = H.Client.submitParse(TinyArgs, false, &Err);
  ASSERT_NE(TinyId, 0u) << Err;

  wire::Message First;
  ASSERT_TRUE(H.Client.waitAny(First, &Err)) << Err;
  EXPECT_EQ(First.Hdr.RequestId, TinyId)
      << "trivial request did not overtake the expensive one";
  wire::Message Second;
  ASSERT_TRUE(H.Client.waitAny(Second, &Err)) << Err;
  EXPECT_EQ(Second.Hdr.RequestId, BigId);
  EXPECT_EQ(Second.Parse.Status, uint8_t(ParseStatus::Ok));

  // wait(id) out of arrival order also works: submit two, collect in
  // reverse.
  uint64_t A = H.Client.submitParse(TinyArgs, false, &Err);
  uint64_t B = H.Client.submitParse(TinyArgs, false, &Err);
  wire::Message RB, RA;
  ASSERT_TRUE(H.Client.wait(B, RB, &Err)) << Err;
  ASSERT_TRUE(H.Client.wait(A, RA, &Err)) << Err;
  EXPECT_EQ(RA.Hdr.RequestId, A);
  EXPECT_EQ(RB.Hdr.RequestId, B);
}

TEST(DaemonTest, ServiceQueueBackpressureIsDeterministic) {
  DaemonConfig DC;
  DC.Service.Threads = 1;
  DC.Service.QueueCapacity = 3;
  DC.Service.AutoStart = false; // nothing drains: the queue fills exactly
  Harness H(DC);
  ASSERT_TRUE(H.Ok);
  uint64_t Hash = loadOrFail(H.Client, ExprGrammar);

  wire::ParseArgs Args;
  Args.BundleHash = Hash;
  Args.Input = "1 + 2";
  std::string Err;
  std::vector<uint64_t> Ids;
  for (int I = 0; I < 5; ++I) {
    uint64_t Id = H.Client.submitParse(Args, false, &Err);
    ASSERT_NE(Id, 0u) << Err;
    Ids.push_back(Id);
  }

  // The reader handles records sequentially, so exactly requests 4 and 5
  // bounce — inline, in submission order, while 1-3 sit in the queue.
  for (size_t Overflow = 3; Overflow < 5; ++Overflow) {
    wire::Message Reply;
    ASSERT_TRUE(H.Client.waitAny(Reply, &Err)) << Err;
    EXPECT_EQ(Reply.Hdr.RequestId, Ids[Overflow]);
    EXPECT_EQ(Reply.Parse.Status, uint8_t(ParseStatus::QueueFull));
  }

  // Releasing the workers completes the three accepted requests.
  H.Server.service().start();
  for (size_t Accepted = 0; Accepted < 3; ++Accepted) {
    wire::Message Reply;
    ASSERT_TRUE(H.Client.wait(Ids[Accepted], Reply, &Err)) << Err;
    EXPECT_EQ(Reply.Parse.Status, uint8_t(ParseStatus::Ok));
  }
  EXPECT_EQ(H.Server.service().metrics().RejectedQueueFull, 2);
}

TEST(DaemonTest, PerConnectionPipelineCapBouncesDeterministically) {
  DaemonConfig DC;
  DC.MaxInFlightPerConn = 2;
  DC.Service.Threads = 1;
  DC.Service.AutoStart = false; // keep the first two requests in flight
  Harness H(DC);
  ASSERT_TRUE(H.Ok);
  uint64_t Hash = loadOrFail(H.Client, ExprGrammar);

  wire::ParseArgs Args;
  Args.BundleHash = Hash;
  Args.Input = "3 * 4";
  std::string Err;
  uint64_t Id1 = H.Client.submitParse(Args, false, &Err);
  uint64_t Id2 = H.Client.submitParse(Args, false, &Err);
  uint64_t Id3 = H.Client.submitParse(Args, false, &Err);

  // The third request exceeded the per-connection cap: a QueueFull parse
  // reply naming the limit, while 1 and 2 stay pending.
  wire::Message Reply;
  ASSERT_TRUE(H.Client.wait(Id3, Reply, &Err)) << Err;
  EXPECT_EQ(Reply.Parse.Status, uint8_t(ParseStatus::QueueFull));
  EXPECT_NE(Reply.Parse.DiagText.find("pipeline limit of 2"),
            std::string::npos)
      << Reply.Parse.DiagText;
  EXPECT_EQ(H.Server.counters().RejectedPipelineCap, 1);

  H.Server.service().start();
  ASSERT_TRUE(H.Client.wait(Id1, Reply, &Err)) << Err;
  EXPECT_EQ(Reply.Parse.Status, uint8_t(ParseStatus::Ok));
  ASSERT_TRUE(H.Client.wait(Id2, Reply, &Err)) << Err;
  EXPECT_EQ(Reply.Parse.Status, uint8_t(ParseStatus::Ok));
}

TEST(DaemonTest, GracefulDrainFinishesInFlightWorkFirst) {
  DaemonConfig DC;
  DC.Service.Threads = 2;
  DC.Service.AutoStart = false; // queue work, then drain releases it
  Harness H(DC);
  ASSERT_TRUE(H.Ok);
  uint64_t Hash = loadOrFail(H.Client, ExprGrammar);

  wire::ParseArgs Args;
  Args.BundleHash = Hash;
  Args.Input = "(1 + 2) * 3";
  std::string Err;
  uint64_t Id1 = H.Client.submitParse(Args, false, &Err);
  uint64_t Id2 = H.Client.submitParse(Args, false, &Err);
  ASSERT_NE(Id1, 0u);
  ASSERT_NE(Id2, 0u);

  // Drain starts the pool, finishes both queued parses, and only then
  // answers: on this connection both parse replies precede the DrainReply.
  ASSERT_TRUE(H.Client.sendRecord(wire::encodeDrainArgs(99), &Err)) << Err;
  wire::Message First, Second, Third;
  ASSERT_TRUE(H.Client.waitAny(First, &Err)) << Err;
  ASSERT_TRUE(H.Client.waitAny(Second, &Err)) << Err;
  ASSERT_TRUE(H.Client.waitAny(Third, &Err)) << Err;
  EXPECT_NE(First.Hdr.Op, wire::Opcode::DrainReply);
  EXPECT_NE(Second.Hdr.Op, wire::Opcode::DrainReply);
  EXPECT_EQ(First.Parse.Status, uint8_t(ParseStatus::Ok));
  EXPECT_EQ(Second.Parse.Status, uint8_t(ParseStatus::Ok));
  EXPECT_EQ(Third.Hdr.Op, wire::Opcode::DrainReply);
  EXPECT_EQ(Third.Hdr.RequestId, 99u);
  EXPECT_TRUE(H.Server.draining());

  // New work is refused deterministically; stats stay observable.
  wire::Message Refused;
  ASSERT_TRUE(H.Client.parse(Args, false, Refused, &Err)) << Err;
  ASSERT_EQ(Refused.Hdr.Op, wire::Opcode::ErrorReply);
  EXPECT_EQ(Refused.Error.Code, wire::WireError::Draining);
  std::string Json;
  EXPECT_TRUE(H.Client.stats(false, Json, &Err)) << Err;
  EXPECT_EQ(H.Server.counters().RejectedDraining, 1);

  // New connections are turned away while draining.
  LlstarClient Late;
  ASSERT_TRUE(Late.connect("127.0.0.1", H.Server.port(), &Err)) << Err;
  wire::Message Nothing;
  EXPECT_FALSE(Late.parse(Args, false, Nothing, &Err));
}

//===----------------------------------------------------------------------===//
// Protocol edges
//===----------------------------------------------------------------------===//

TEST(DaemonTest, VersionNegotiationNamesTheSupportedVersion) {
  Harness H;
  ASSERT_TRUE(H.Ok);
  uint64_t Hash = loadOrFail(H.Client, ExprGrammar);

  // Handcraft a version-7 parse request.
  std::string Record;
  wire::putU32(Record, wire::Magic);
  wire::putU16(Record, 7);
  wire::putU8(Record, uint8_t(wire::Opcode::Parse));
  wire::putU8(Record, 0);
  wire::putU64(Record, 31337);
  std::string Err;
  ASSERT_TRUE(H.Client.sendRecord(Record, &Err)) << Err;
  wire::Message Reply;
  ASSERT_TRUE(H.Client.readReply(Reply, &Err)) << Err;
  ASSERT_EQ(Reply.Hdr.Op, wire::Opcode::ErrorReply);
  EXPECT_EQ(Reply.Error.Code, wire::WireError::BadVersion);
  EXPECT_EQ(Reply.Hdr.RequestId, 31337u); // the id is echoed for pairing
  EXPECT_NE(Reply.Error.Message.find("version 1"), std::string::npos)
      << Reply.Error.Message;

  // The connection survives: correctly-versioned requests still work.
  wire::ParseArgs Args;
  Args.BundleHash = Hash;
  Args.Input = "5";
  ASSERT_TRUE(H.Client.parse(Args, false, Reply, &Err)) << Err;
  EXPECT_EQ(Reply.Parse.Status, uint8_t(ParseStatus::Ok));
}

TEST(DaemonTest, DuplicateInFlightRequestIdsAreRejected) {
  DaemonConfig DC;
  DC.Service.Threads = 1;
  DC.Service.AutoStart = false; // the first id stays in flight
  Harness H(DC);
  ASSERT_TRUE(H.Ok);
  uint64_t Hash = loadOrFail(H.Client, ExprGrammar);

  wire::ParseArgs Args;
  Args.BundleHash = Hash;
  Args.Input = "6 * 7";
  std::string Err;
  ASSERT_TRUE(
      H.Client.sendRecord(wire::encodeParseArgs(500, Args, false), &Err));
  ASSERT_TRUE(
      H.Client.sendRecord(wire::encodeParseArgs(500, Args, false), &Err));

  wire::Message Dup;
  ASSERT_TRUE(H.Client.readReply(Dup, &Err)) << Err;
  ASSERT_EQ(Dup.Hdr.Op, wire::Opcode::ErrorReply);
  EXPECT_EQ(Dup.Error.Code, wire::WireError::DuplicateRequestId);
  EXPECT_EQ(Dup.Hdr.RequestId, 500u);

  // The original request is unharmed; its id is reusable after completion.
  H.Server.service().start();
  wire::Message Done;
  ASSERT_TRUE(H.Client.readReply(Done, &Err)) << Err;
  EXPECT_EQ(Done.Hdr.RequestId, 500u);
  EXPECT_EQ(Done.Parse.Status, uint8_t(ParseStatus::Ok));
  ASSERT_TRUE(
      H.Client.sendRecord(wire::encodeParseArgs(500, Args, false), &Err));
  ASSERT_TRUE(H.Client.readReply(Done, &Err)) << Err;
  EXPECT_EQ(Done.Parse.Status, uint8_t(ParseStatus::Ok));
}

TEST(DaemonTest, BadMagicAnswersOnceAndHangsUp) {
  Harness H;
  ASSERT_TRUE(H.Ok);
  std::string Err;
  ASSERT_TRUE(H.Client.sendRecord("this is not LLSP at all", &Err));
  wire::Message Reply;
  ASSERT_TRUE(H.Client.readReply(Reply, &Err)) << Err;
  ASSERT_EQ(Reply.Hdr.Op, wire::Opcode::ErrorReply);
  EXPECT_EQ(Reply.Error.Code, wire::WireError::BadMagic);
  // Then EOF: the daemon refuses to keep decoding a non-LLSP stream.
  EXPECT_FALSE(H.Client.readReply(Reply, &Err));

  // The daemon itself is fine — fresh connections work.
  LlstarClient Fresh;
  ASSERT_TRUE(Fresh.connect("127.0.0.1", H.Server.port(), &Err)) << Err;
  wire::LoadBundleReply Loaded;
  EXPECT_TRUE(Fresh.loadBundle(ExprGrammar, Loaded, &Err)) << Err;
  EXPECT_GE(H.Server.counters().ProtocolErrors, 1);
}

TEST(DaemonTest, OversizedFramesAreRefusedWithoutBallooningMemory) {
  DaemonConfig DC;
  DC.MaxFragmentBytes = 1024;
  DC.MaxRecordBytes = 4096;
  Harness H(DC);
  ASSERT_TRUE(H.Ok);

  // A fragment header claiming 1 MiB against a 1 KiB limit.
  std::string Raw;
  wire::putU32(Raw, (1u << 20) | 0x80000000u);
  std::string Err;
  ASSERT_TRUE(H.Client.sendRaw(Raw, &Err));
  wire::Message Reply;
  ASSERT_TRUE(H.Client.readReply(Reply, &Err)) << Err;
  ASSERT_EQ(Reply.Hdr.Op, wire::Opcode::ErrorReply);
  EXPECT_EQ(Reply.Error.Code, wire::WireError::FrameTooLarge);
  EXPECT_FALSE(H.Client.readReply(Reply, &Err)); // connection closed
}

TEST(DaemonTest, GarbageBytesNeverTakeTheDaemonDown) {
  Harness H;
  ASSERT_TRUE(H.Ok);
  std::string Err;
  std::mt19937_64 Rng(0xDAE11013);

  // Raw noise across reconnects: most of it violates framing, which ends
  // that connection; the daemon must shrug all of it off.
  for (int Iter = 0; Iter < 64; ++Iter) {
    LlstarClient Noisy;
    ASSERT_TRUE(Noisy.connect("127.0.0.1", H.Server.port(), &Err)) << Err;
    std::string Junk(1 + Rng() % 192, 0);
    for (char &C : Junk)
      C = char(Rng() & 0xFF);
    Noisy.sendRaw(Junk, &Err); // outcome irrelevant; survival matters
  }

  // Well-framed records with hostile contents on one connection: every
  // record gets exactly one reply (almost always an error), and the
  // connection keeps going — random bodies cannot produce valid magic.
  LlstarClient Hostile;
  ASSERT_TRUE(Hostile.connect("127.0.0.1", H.Server.port(), &Err)) << Err;
  const wire::Opcode Requests[] = {wire::Opcode::Parse,
                                   wire::Opcode::ParseRecover,
                                   wire::Opcode::LoadBundle,
                                   wire::Opcode::Stats, wire::Opcode::Drain};
  for (int Iter = 0; Iter < 128; ++Iter) {
    std::string Record;
    wire::putU32(Record, wire::Magic);
    wire::putU16(Record, wire::ProtocolVersion);
    wire::putU8(Record, uint8_t(Requests[Rng() % 4])); // no Drain: see below
    wire::putU8(Record, uint8_t(Rng() & 0xFF));
    wire::putU64(Record, Rng());
    size_t BodyLen = Rng() % 64;
    for (size_t B = 0; B < BodyLen; ++B)
      Record += char(Rng() & 0xFF);
    ASSERT_TRUE(Hostile.sendRecord(Record, &Err)) << Err;
    wire::Message Reply;
    ASSERT_TRUE(Hostile.readReply(Reply, &Err)) << "iter " << Iter << ": "
                                                << Err;
  }

  // After the abuse, an honest client still gets full service.
  uint64_t Hash = loadOrFail(H.Client, ExprGrammar);
  wire::ParseArgs Args;
  Args.BundleHash = Hash;
  Args.WantTree = true;
  Args.Input = "(8 - 2) * 3";
  wire::Message Reply;
  ASSERT_TRUE(H.Client.parse(Args, false, Reply, &Err)) << Err;
  EXPECT_EQ(Reply.Parse.Status, uint8_t(ParseStatus::Ok));
}

//===----------------------------------------------------------------------===//
// Hot bundle reload
//===----------------------------------------------------------------------===//

TEST(DaemonTest, HotReloadKeysBundlesByContentHash) {
  Harness H;
  ASSERT_TRUE(H.Ok);
  std::string Err;

  uint64_t V1 = loadOrFail(H.Client, ExprGrammar);
  wire::ParseArgs Division;
  Division.Input = "8 / 2"; // only V2 accepts division
  wire::Message Reply;
  ASSERT_TRUE(H.Client.parse(Division, false, Reply, &Err)) << Err;
  EXPECT_EQ(Reply.Parse.Status, uint8_t(ParseStatus::LexError));

  // Changed grammar bytes: a different hash, and the new default.
  wire::LoadBundleReply V2Loaded;
  ASSERT_TRUE(H.Client.loadBundle(ExprGrammarV2, V2Loaded, &Err)) << Err;
  EXPECT_NE(V2Loaded.Hash, V1);
  EXPECT_EQ(V2Loaded.Cached, 0);
  ASSERT_TRUE(H.Client.parse(Division, false, Reply, &Err)) << Err;
  EXPECT_EQ(Reply.Parse.Status, uint8_t(ParseStatus::Ok));

  // The old version remains addressable by its hash — in-flight or
  // pinned-version clients are not broken by a reload.
  wire::ParseArgs OldStyle;
  OldStyle.BundleHash = V1;
  OldStyle.Input = "8 * 2";
  ASSERT_TRUE(H.Client.parse(OldStyle, false, Reply, &Err)) << Err;
  EXPECT_EQ(Reply.Parse.Status, uint8_t(ParseStatus::Ok));
  OldStyle.Input = "8 / 2";
  ASSERT_TRUE(H.Client.parse(OldStyle, false, Reply, &Err)) << Err;
  EXPECT_EQ(Reply.Parse.Status, uint8_t(ParseStatus::LexError));

  // Rolling back is a cache hit on the original hash.
  wire::LoadBundleReply Rollback;
  ASSERT_TRUE(H.Client.loadBundle(ExprGrammar, Rollback, &Err)) << Err;
  EXPECT_EQ(Rollback.Hash, V1);
  EXPECT_EQ(Rollback.Cached, 1);
  wire::ParseArgs DefaultNow;
  DefaultNow.Input = "8 / 2";
  ASSERT_TRUE(H.Client.parse(DefaultNow, false, Reply, &Err)) << Err;
  EXPECT_EQ(Reply.Parse.Status, uint8_t(ParseStatus::LexError));
}

//===----------------------------------------------------------------------===//
// Concurrent connections
//===----------------------------------------------------------------------===//

TEST(DaemonTest, ManyConnectionsParseConcurrently) {
  DaemonConfig DC;
  DC.Service.Threads = 2;
  Harness H(DC);
  ASSERT_TRUE(H.Ok);
  uint64_t Hash = loadOrFail(H.Client, ExprGrammar);

  std::vector<std::thread> Threads;
  std::atomic<int> Failures{0};
  for (int C = 0; C < 6; ++C)
    Threads.emplace_back([&, C] {
      LlstarClient Client;
      std::string Err;
      if (!Client.connect("127.0.0.1", H.Server.port(), &Err)) {
        ++Failures;
        return;
      }
      wire::ParseArgs Args;
      Args.BundleHash = Hash;
      for (int I = 0; I < 25; ++I) {
        Args.Input = std::to_string(C) + " + " + std::to_string(I) + " * 2";
        wire::Message Reply;
        if (!Client.parse(Args, false, Reply, &Err) ||
            Reply.Parse.Status != uint8_t(ParseStatus::Ok)) {
          ++Failures;
          return;
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(H.Server.service().metrics().Ok, 150);
  EXPECT_GE(H.Server.counters().ConnectionsAccepted, 7);
}

//===----------------------------------------------------------------------===//
// Incremental edit sessions
//===----------------------------------------------------------------------===//

/// Sends one Edit request and fails the test on transport errors.
wire::Message editOrFail(LlstarClient &Client, const wire::EditArgs &Args) {
  wire::Message Reply;
  std::string Err;
  EXPECT_TRUE(Client.edit(Args, Reply, &Err)) << Err;
  return Reply;
}

TEST(DaemonTest, EditSessionsMatchInProcessScratchParses) {
  Harness H;
  ASSERT_TRUE(H.Ok);
  uint64_t Hash = loadOrFail(H.Client, ExprGrammar);

  DiagnosticEngine Diags;
  auto Bundle = makeGrammarBundle(ExprGrammar, Diags);
  ASSERT_TRUE(Bundle) << Diags.str();
  incremental::SessionOptions SO; // recover, interpreted, heap — mode bit 1
  incremental::IncrementalSession Local(Bundle, SO);

  wire::EditArgs Args;
  Args.SessionId = 7;
  Args.Action = wire::EditActionReset;
  Args.Mode = wire::EditModeRecover;
  Args.BundleHash = Hash;
  Args.WantTree = true;
  Args.NewText = "1 + 2 * (3 + 4)";
  Local.reset(Args.NewText);

  auto CheckAgainstLocal = [&](const wire::Message &Reply) {
    ASSERT_EQ(Reply.Hdr.Op, wire::Opcode::EditReply)
        << wireErrorName(Reply.Error.Code) << ": " << Reply.Error.Message;
    EXPECT_EQ(Reply.Edit.EditError, 0);
    incremental::ScratchResult R =
        incremental::scratchParse(*Bundle, Local.text(), SO);
    EXPECT_EQ(Reply.Edit.Status, uint8_t(R.ParseOk ? ParseStatus::Ok
                                                   : ParseStatus::Recovered));
    EXPECT_EQ(Reply.Edit.NumTokens, int64_t(R.Tokens.size()));
    EXPECT_EQ(Reply.Edit.TreeNodes, R.TreeNodes);
    EXPECT_EQ(Reply.Edit.ErrorLeaves, R.ErrorLeaves);
    EXPECT_EQ(Reply.Edit.TreeText, R.TreeText);
    EXPECT_EQ(Reply.Edit.DiagText, R.DiagText);
  };
  CheckAgainstLocal(editOrFail(H.Client, Args));

  // A few edits, including one that breaks the input (recovery kicks in)
  // and one that repairs it. The wire session must track the local one.
  struct {
    uint64_t Offset, OldLen;
    const char *NewText;
  } Edits[] = {
      {4, 1, "77"},
      {0, 0, "("},   // unbalanced — recovered parse with diagnostics
      {0, 1, ""},    // repaired
      {8, 0, " * x + 0"}, // 'x' is not a token of this grammar
  };
  Args.Action = wire::EditActionApply;
  for (const auto &E : Edits) {
    Args.Offset = E.Offset;
    Args.OldLen = E.OldLen;
    Args.NewText = E.NewText;
    Local.applyEdit({int64_t(E.Offset), int64_t(E.OldLen), E.NewText});
    CheckAgainstLocal(editOrFail(H.Client, Args));
  }

  // Out-of-range edits are rejected with the typed error and leave the
  // session unchanged — the next valid edit still matches the local state.
  Args.Offset = 100000;
  Args.OldLen = 1;
  Args.NewText = "x";
  wire::Message Reply = editOrFail(H.Client, Args);
  ASSERT_EQ(Reply.Hdr.Op, wire::Opcode::EditReply);
  EXPECT_EQ(Reply.Edit.EditError,
            uint16_t(incremental::EditScriptError::OutOfRange));
  Args.Offset = 0;
  Args.OldLen = 0;
  Args.NewText = "0 + ";
  Local.applyEdit({0, 0, "0 + "});
  CheckAgainstLocal(editOrFail(H.Client, Args));

  // Edit-session work folds into the service metrics via
  // recordExternalStats: the stats JSON must show relexed tokens.
  std::string Json, Err;
  ASSERT_TRUE(H.Client.stats(false, Json, &Err)) << Err;
  EXPECT_NE(Json.find("\"tokensRelexed\":"), std::string::npos);
  EXPECT_EQ(Json.find("\"tokensRelexed\":0,"), std::string::npos) << Json;
}

TEST(DaemonTest, EditSessionLifecycleErrors) {
  Harness H;
  ASSERT_TRUE(H.Ok);
  uint64_t Hash = loadOrFail(H.Client, ExprGrammar);

  // Apply before any Reset: UnknownSession.
  wire::EditArgs Args;
  Args.SessionId = 3;
  Args.Action = wire::EditActionApply;
  Args.NewText = "x";
  wire::Message Reply = editOrFail(H.Client, Args);
  ASSERT_EQ(Reply.Hdr.Op, wire::Opcode::ErrorReply);
  EXPECT_EQ(Reply.Error.Code, wire::WireError::UnknownSession);

  // Reset against a bundle hash the daemon has never seen: UnknownBundle.
  Args.Action = wire::EditActionReset;
  Args.BundleHash = 0xBAD0BAD0BAD0BAD0ull;
  Args.NewText = "1";
  Reply = editOrFail(H.Client, Args);
  ASSERT_EQ(Reply.Hdr.Op, wire::Opcode::ErrorReply);
  EXPECT_EQ(Reply.Error.Code, wire::WireError::UnknownBundle);

  // Reset properly, Close, then Apply: the session is gone again.
  Args.BundleHash = Hash;
  Reply = editOrFail(H.Client, Args);
  ASSERT_EQ(Reply.Hdr.Op, wire::Opcode::EditReply);
  Args.Action = wire::EditActionClose;
  Reply = editOrFail(H.Client, Args);
  ASSERT_EQ(Reply.Hdr.Op, wire::Opcode::EditReply);
  Args.Action = wire::EditActionApply;
  Args.Offset = 0;
  Args.OldLen = 0;
  Args.NewText = "2";
  Reply = editOrFail(H.Client, Args);
  ASSERT_EQ(Reply.Hdr.Op, wire::Opcode::ErrorReply);
  EXPECT_EQ(Reply.Error.Code, wire::WireError::UnknownSession);

  // A draining daemon refuses Edit like any other work.
  H.Server.drain();
  Args.Action = wire::EditActionReset;
  Args.NewText = "3";
  Reply = editOrFail(H.Client, Args);
  ASSERT_EQ(Reply.Hdr.Op, wire::Opcode::ErrorReply);
  EXPECT_EQ(Reply.Error.Code, wire::WireError::Draining);
}

TEST(DaemonTest, ConcurrentConnectionsRunIndependentEditSessions) {
  // Six connections each drive their own incremental session (same
  // client-chosen id on purpose — ids are per-connection) while comparing
  // against a local session. This is the TSan target for the edit path.
  Harness H;
  ASSERT_TRUE(H.Ok);
  uint64_t Hash = loadOrFail(H.Client, ExprGrammar);

  DiagnosticEngine Diags;
  auto Bundle = makeGrammarBundle(ExprGrammar, Diags);
  ASSERT_TRUE(Bundle) << Diags.str();

  std::vector<std::thread> Threads;
  std::atomic<int> Failures{0};
  for (int C = 0; C < 6; ++C)
    Threads.emplace_back([&, C] {
      LlstarClient Client;
      std::string Err;
      if (!Client.connect("127.0.0.1", H.Server.port(), &Err)) {
        ++Failures;
        return;
      }
      incremental::SessionOptions SO;
      SO.UseCompiled = (C % 2) != 0;
      incremental::IncrementalSession Local(Bundle, SO);
      wire::EditArgs Args;
      Args.SessionId = 1;
      Args.Action = wire::EditActionReset;
      Args.Mode = wire::EditModeRecover |
                  (SO.UseCompiled ? wire::EditModeCompiled : 0);
      Args.BundleHash = Hash;
      Args.NewText = std::to_string(C) + " + 1 * (2 + 3)";
      Local.reset(Args.NewText);
      for (int I = 0; I < 20; ++I) {
        wire::Message Reply;
        if (!Client.edit(Args, Reply, &Err) ||
            Reply.Hdr.Op != wire::Opcode::EditReply ||
            Reply.Edit.NumTokens != int64_t(Local.tokens().size())) {
          ++Failures;
          return;
        }
        Args.Action = wire::EditActionApply;
        Args.Offset = uint64_t(I % 3);
        Args.OldLen = 1;
        Args.NewText = std::to_string((C + I) % 10);
        Local.applyEdit({int64_t(Args.Offset), 1, Args.NewText});
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
}

} // namespace
