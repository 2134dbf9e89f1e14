//===- perfbench/src/Tracer.h - In-memory spans -----------------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its calls into each layer's
/// public functions. A span has a name, a start, an end, the span that
/// caused it and the request it belongs to. Spans stay in memory and are
/// written out once, when the run ends. A disabled tracer records nothing,
/// so the untraced run pays one branch per call site.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include "Common.h"

#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
public:
  static constexpr int32_t NoParent = -1;
  static constexpr int64_t NoRequest = -1;

  explicit Tracer(bool Enabled) : Enabled(Enabled), Epoch(Clock::now()) {}

  bool enabled() const { return Enabled; }

  /// Records a finished span; returns its index (NoParent when disabled).
  /// \p Name must be a string literal.
  int32_t record(const char *Name, int32_t Parent, int64_t Request,
                 Clock::time_point Start, Clock::time_point End);

  /// Opens a span whose end is filled in by \ref close.
  int32_t open(const char *Name, int32_t Parent,
               int64_t Request = NoRequest);
  void close(int32_t Index);

  /// Per span name: count, total duration and self time (duration minus
  /// the part of the span's interval its children cover).
  struct NameTotals {
    int64_t Count = 0;
    double TotalS = 0;
    double SelfS = 0;
  };
  std::map<std::string, NameTotals> totals() const;

  /// Writes every span plus the per-name totals as one JSON document.
  /// \p Header is spliced in verbatim as the first members of the object.
  bool write(const std::string &Path, const std::string &Header) const;

  size_t size() const;

private:
  struct Span {
    const char *Name;
    int64_t StartNs;
    int64_t EndNs;
    int32_t Parent;
    int64_t Request;
  };

  int64_t ns(Clock::time_point T) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(T - Epoch)
        .count();
  }

  bool Enabled;
  Clock::time_point Epoch;
  mutable std::mutex Mu;
  std::vector<Span> Spans;
};

/// RAII span around one call.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, const char *Name, int32_t Parent,
             int64_t Request = Tracer::NoRequest)
      : T(T), Index(T.open(Name, Parent, Request)) {}
  ~ScopedSpan() { T.close(Index); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  int32_t index() const { return Index; }

private:
  Tracer &T;
  int32_t Index;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_H
