//===- service/ParseService.h - Multi-threaded batch parsing ----*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A multi-threaded batch parsing engine over shared grammar bundles. The
/// paper's premise is that lookahead DFAs make prediction cheap enough for
/// production parsers (Sections 1, 6); this is the production harness: a
/// fixed pool of workers drains a bounded request queue, each request
/// parsing with
///
///   - shared immutable analysis tables (a \ref GrammarBundle),
///   - its own DiagnosticEngine (engines are mutated during parsing and
///     must never be shared across concurrent parses),
///   - an arena-allocated parse tree recycled per worker (O(1) release),
///   - a per-request deadline and token-count limit.
///
/// Overload is backpressure, not a crash: submissions beyond the queue
/// capacity, over the token limit, or past their deadline resolve to
/// rejected results. Each worker keeps thread-local ParserStats; a metrics
/// snapshot merges them (ParserStats::merge) with service counters into
/// one JSON-exposable aggregate.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_SERVICE_PARSESERVICE_H
#define LLSTAR_SERVICE_PARSESERVICE_H

#include "runtime/Arena.h"
#include "runtime/ParserStats.h"
#include "service/GrammarBundleCache.h"
#include "support/Diagnostics.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace llstar {

/// How one parse request ended.
enum class ParseStatus {
  Ok,               ///< Parsed without syntax errors.
  SyntaxError,      ///< Parsed; the input is not in the language.
  Recovered,        ///< Syntax errors, but recovery produced a partial tree.
  LexError,         ///< Tokenization failed.
  DeadlineExceeded, ///< Deadline passed while queued or mid-parse.
  TooManyTokens,    ///< Input exceeds the configured token limit.
  QueueFull,        ///< Rejected at submit: queue at capacity.
  ShuttingDown,     ///< Rejected: service stopped before the parse ran.
  BadRequest,       ///< Malformed request (no bundle, unknown start rule).
};

const char *statusName(ParseStatus S);

/// Service-wide knobs, fixed at construction.
struct ServiceConfig {
  /// Worker threads. 0 = one per hardware thread.
  int Threads = 0;
  /// Maximum queued (submitted but not started) requests before
  /// submissions bounce with QueueFull.
  size_t QueueCapacity = 1024;
  /// Reject inputs longer than this many tokens (0 = unlimited).
  int64_t MaxTokens = 0;
  /// Deadline applied to requests that don't carry their own (0 = none).
  std::chrono::milliseconds DefaultDeadline{0};
  /// Collect per-decision ParserStats (cheap; off for pure throughput).
  bool CollectStats = true;
  /// Start workers in the constructor. Tests set this false to fill the
  /// queue deterministically, then call start().
  bool AutoStart = true;
  /// Use the registered native module when its payload hash matches (see
  /// compiled/CompiledRegistry.h). Results are identical either way; only
  /// throughput changes. Every tool sets it; the field stays only because
  /// the perfbench package sets it per workload (true for validate-data,
  /// false for parse-code, which measures the table walk alone).
  bool UseCompiled = false;
};

/// One unit of work: parse Input against Bundle.
struct ParseRequest {
  std::shared_ptr<const GrammarBundle> Bundle;
  /// Caller's identifier, echoed into the result (e.g. a file path).
  std::string Id;
  std::string Input;
  /// Start rule name; empty = the grammar's start rule.
  std::string StartRule;
  /// Per-request deadline from the moment of submission; 0 = use the
  /// service default.
  std::chrono::milliseconds Deadline{0};
  /// Render the parse tree into ParseResult::TreeText.
  bool WantTree = false;
  /// Parse with error recovery: syntax errors resolve to Recovered with a
  /// partial tree and structured ParseResult::Errors instead of a bare
  /// SyntaxError.
  bool Recover = false;
};

struct ParseResult {
  std::string Id;
  ParseStatus Status = ParseStatus::ShuttingDown;
  /// LISP-style tree rendering (WantTree requests that parsed).
  std::string TreeText;
  /// Rendered diagnostics (syntax errors, warnings), one per line.
  std::string DiagText;
  /// Structured syntax errors (SyntaxError/Recovered results), sorted by
  /// (line, column).
  std::vector<Diagnostic> Errors;
  int64_t NumTokens = 0;
  /// Tree nodes built (arena mode); 0 when no tree was requested.
  int64_t TreeNodes = 0;
  double ParseMillis = 0;

  bool ok() const { return Status == ParseStatus::Ok; }
};

/// Aggregate service counters plus merged parser statistics.
struct ServiceMetrics {
  int64_t Submitted = 0;
  int64_t Completed = 0; ///< ran to Ok, Recovered, or SyntaxError/LexError
  int64_t Ok = 0;
  int64_t Recovered = 0;
  int64_t SyntaxErrors = 0;
  int64_t LexErrors = 0;
  int64_t RejectedQueueFull = 0;
  int64_t RejectedTooManyTokens = 0;
  int64_t DeadlineExceeded = 0;
  int64_t RejectedShutdown = 0;
  int64_t TokensParsed = 0;
  double ParseMillis = 0; ///< summed wall time inside parses
  int Threads = 0;
  /// Every worker's thread-local stats merged via ParserStats::merge.
  ParserStats Parser;

  /// One JSON object with all counters; \p IncludeDecisions and \p Keys
  /// forward to ParserStats::json so per-decision entries carry their
  /// stable (rule, decisionInRule, line, column) identity.
  std::string json(bool IncludeDecisions = false,
                   const std::vector<DecisionKey> *Keys = nullptr) const;
};

/// Invoked exactly once per submitted request with its final result.
/// Rejections (queue full, shutting down) run it inline on the submitting
/// thread; completions run it on the worker that parsed the request.
using ParseCallback = std::function<void(ParseResult)>;

/// The batch parsing engine. Construct, submit, read futures, shutdown
/// (or let the destructor drain).
class ParseService {
public:
  explicit ParseService(ServiceConfig Config = {});
  ~ParseService();

  ParseService(const ParseService &) = delete;
  ParseService &operator=(const ParseService &) = delete;

  /// Launches the worker pool (no-op if already running).
  void start();

  /// Enqueues \p Req. Always returns a valid future: over-capacity and
  /// post-shutdown submissions resolve immediately with QueueFull /
  /// ShuttingDown instead of blocking or throwing.
  std::future<ParseResult> submit(ParseRequest Req);

  /// Callback form of \ref submit, for callers that complete requests
  /// out of submission order (the network daemon). \p Done always runs
  /// exactly once — inline for rejections, on a worker otherwise — and
  /// must not block for long: it occupies the worker while it runs.
  void submitAsync(ParseRequest Req, ParseCallback Done);

  /// Blocks until every accepted request has finished *and its callback
  /// (or future) has been resolved*: the queue is empty and no worker is
  /// mid-job. Starts the worker pool if it was never started (otherwise
  /// queued work could never drain). Unlike \ref shutdown the service
  /// stays usable: workers keep running and later submissions are
  /// accepted. Submissions racing with drain may or may not be waited
  /// for; quiescence is only guaranteed for requests submitted before
  /// the call.
  void drain();

  /// Stops accepting work, finishes everything queued, joins workers.
  /// Safe to call repeatedly.
  void shutdown();

  /// Point-in-time aggregate across all workers. Callable any time, even
  /// mid-parse (counters are merged under their per-worker locks).
  ServiceMetrics metrics() const;

  /// Merges parser stats collected outside the worker pool into the
  /// metrics snapshot — the daemon's incremental edit sessions parse on
  /// its reader threads but still report here, so nodesReused /
  /// tokensRelexed / decisionsReparsed show up in the service JSON.
  void recordExternalStats(const ParserStats &S);

  int threads() const { return int(Workers.size()); }
  size_t queueDepth() const;

private:
  struct Job {
    ParseRequest Req;
    ParseCallback Done;
    std::chrono::steady_clock::time_point DeadlineAt;
    bool HasDeadline = false;
  };

  /// Per-worker mutable state. Stats are merged into snapshots under Mu;
  /// the arena is the worker's recycled tree region.
  struct WorkerState {
    mutable std::mutex Mu;
    ParserStats Stats;
    int64_t TokensParsed = 0;
    double ParseMillis = 0;
    Arena TreeArena;
  };

  void workerLoop(WorkerState &State);
  ParseResult runJob(Job &J, WorkerState &State);

  ServiceConfig Config;

  mutable std::mutex QueueMu;
  std::condition_variable QueueCv;
  /// Signalled whenever the service goes idle (empty queue, no worker
  /// mid-job); drain() waits on it.
  std::condition_variable IdleCv;
  std::deque<Job> Queue;
  /// Jobs popped from the queue whose callback has not yet returned;
  /// guarded by QueueMu.
  int64_t Active = 0;
  bool Stopping = false;
  bool Started = false;

  std::vector<std::thread> Workers;
  std::vector<std::unique_ptr<WorkerState>> WorkerStates;

  // Service-level counters (not per-worker); guarded by QueueMu.
  int64_t Submitted = 0;
  int64_t RejectedQueueFull = 0;
  int64_t RejectedShutdown = 0;

  /// Stats reported via recordExternalStats, guarded by ExternalMu.
  mutable std::mutex ExternalMu;
  ParserStats ExternalStats;

  // Completion counters, guarded by CountersMu (workers update them).
  mutable std::mutex CountersMu;
  int64_t Ok = 0;
  int64_t Recovered = 0;
  int64_t SyntaxErrors = 0;
  int64_t LexErrors = 0;
  int64_t RejectedTooManyTokens = 0;
  int64_t DeadlineExceeded = 0;
  int64_t ShutdownDrained = 0;
};

} // namespace llstar

#endif // LLSTAR_SERVICE_PARSESERVICE_H
