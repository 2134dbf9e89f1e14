//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded randomness, clocks, order statistics, content hashes and the
/// result record every workload fills in.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace llstar {
struct Token;
} // namespace llstar

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}
inline double millisBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// splitmix64: the whole input set of a run derives from one seed through
/// this generator, so a seed names its inputs on every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}

  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N); N > 0.
  uint64_t below(uint64_t N) { return next() % N; }
  /// Uniform in [Lo, Hi].
  int range(int Lo, int Hi) { return Lo + int(below(uint64_t(Hi - Lo + 1))); }
  bool chance(int Percent) { return int(below(100)) < Percent; }
  template <class T> const T &pick(const std::vector<T> &V) {
    return V[size_t(below(V.size()))];
  }

  /// An independent stream for \p Salt, so adding draws to one generator
  /// never shifts the inputs of another.
  static Rng derive(uint64_t Seed, uint64_t Salt) {
    Rng R(Seed ^ (Salt * 0xD6E8FEB86659FD93ull));
    R.next();
    return R;
  }

private:
  uint64_t State;
};

/// Sizes spread log-uniformly over [Lo, Hi] at fixed quantiles: the i-th
/// of N sizes sits at quantile (i + 0.5) / N. Every seed therefore gets the
/// same size distribution (and the same largest documents, which set the
/// latency tail); the seed varies the content.
inline std::vector<size_t> logUniformSizes(size_t N, double Lo, double Hi) {
  std::vector<size_t> Out;
  for (size_t I = 0; I < N; ++I) {
    double Q = (double(I) + 0.5) / double(N);
    Out.push_back(size_t(std::exp(std::log(Lo) + Q * (std::log(Hi) -
                                                       std::log(Lo)))));
  }
  return Out;
}

/// Linear-interpolated percentile, \p P in [0, 1]. Sorts \p V.
inline double percentile(std::vector<double> &V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = P * double(V.size() - 1);
  size_t Lo = size_t(Rank);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Rank - double(Lo));
}
inline double median(std::vector<double> V) { return percentile(V, 0.5); }

/// FNV-1a, for comparing outputs by content.
inline uint64_t fnv1a(std::string_view S, uint64_t H = 0xCBF29CE484222325ull) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001B3ull;
  }
  return H;
}

/// Content hash of a token vector: type, text, position and offset.
uint64_t hashTokens(const std::vector<llstar::Token> &Tokens);

/// Peak resident set size of this process so far, in MiB.
double peakRssMb();

/// One named figure of a run.
struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
};

/// What one run reports: the final JSON line is built from this.
struct RunResult {
  int64_t Attempted = 0;
  int64_t Failed = 0;
  /// Every check that did not hold, one line each (printed to stderr).
  std::vector<std::string> Problems;
  std::vector<Metric> Metrics;

  void add(std::string Name, std::string Unit, double Value) {
    Metrics.push_back({std::move(Name), std::move(Unit), Value});
  }
  void problem(std::string What) { Problems.push_back(std::move(What)); }
  bool correct() const { return Problems.empty() && Failed == 0; }
};

/// Every operation of a closed loop, in completion order. The loop cycles
/// through a fixed input set, so the same work recurs many times in one
/// run; the figures are medians over those recurrences, which keeps a few
/// seconds of a slow host from moving them.
///
/// The loop runs in segments with pauses between them; only the time
/// inside segments counts. Memory stays bounded however long the run: per
/// chunk one time and one token count, per input a fixed-size uniform
/// sample of its latencies.
class LoopFigures {
public:
  /// Operations are grouped in chunks of \p ChunkOps in completion order.
  /// A chunk has a position in a cycle of \p ChunksPerCycle, and the
  /// chunks at one position hold the same work.
  LoopFigures(size_t Inputs = 0, size_t ChunkOps = 1,
              size_t ChunksPerCycle = 1);

  /// Starts a segment whose first chunk sits at cycle position \p Position;
  /// the chunk the previous segment left unfinished is dropped.
  void segment(size_t Position = 0);

  /// Records one completed operation: its input, latency, the measured
  /// seconds since the segment began, and the input tokens it completed.
  void add(uint32_t In, double Ms, double SegmentS, int64_t Tokens);

  int64_t ops() const { return Ops; }
  /// Measured seconds of all segments.
  double seconds() const { return LastDoneS; }

  /// Throughput of one cycle: for each cycle position the median time of
  /// its chunks, summed over positions; tokens and operations of one
  /// cycle divided by that time.
  struct Rates {
    double TokensPerS = 0;
    double OpsPerS = 0;
    size_t Cycles = 0; ///< complete cycles measured
  };
  Rates rates() const;

  /// Each input's median latency over the run, one value per input seen.
  std::vector<double> inputMedians() const;

  size_t chunksPerCycle() const { return ChunksPerCycle; }

private:
  static constexpr size_t SamplesPerInput = 31;

  size_t ChunkOps, ChunksPerCycle;
  std::vector<double> ChunkS;
  std::vector<int64_t> ChunkTokens;
  std::vector<size_t> ChunkPos;
  std::vector<std::vector<float>> Samples; ///< per input, a reservoir
  std::vector<int64_t> Seen;               ///< per input, samples offered
  Rng Reservoir{0x5EED};
  int64_t Ops = 0;
  size_t InChunk = 0;
  size_t NextPos = 0;
  int64_t ChunkTokenSum = 0;
  double SegmentBaseS = 0;
  double ChunkStartS = 0;
  double LastDoneS = 0;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
