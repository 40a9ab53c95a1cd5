// Streaming summary statistics for experiment measurements (response times,
// throughput samples). Matches what the paper reports: averages with standard
// deviations across iterations.

#ifndef SDW_COMMON_STATS_H_
#define SDW_COMMON_STATS_H_

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace sdw {

/// Monotonic event counter shared across threads. Hot paths Add() with a
/// relaxed atomic (no synchronization cost); readers take point-in-time
/// snapshots and difference them against a base recorded at reset (see
/// CjoinPipeline's per-run stat bases). Used for the CJOIN distributor
/// scratch-reuse and admission-scan counters.
class Counter {
 public:
  void Add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Accumulates samples and exposes mean / stddev / min / max / percentiles.
class Stats {
 public:
  /// Adds one sample.
  void Add(double v) { samples_.push_back(v); }

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double Sum() const;
  double Mean() const;
  /// Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples.
  double Stddev() const;
  double Min() const;
  double Max() const;
  /// Percentile in [0,100] by nearest-rank on a sorted copy.
  double Percentile(double p) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

}  // namespace sdw

#endif  // SDW_COMMON_STATS_H_
