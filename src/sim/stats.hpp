// Statistics collection used by every benchmark harness.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace nestv::sim {

/// Streaming mean / variance / extrema via Welford's algorithm.
/// Used where only summary moments are needed (cheap, O(1) memory).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset();

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;   ///< population variance
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Coefficient of variation (stddev/mean); the paper reports latency
  /// stdevs as a fraction of the average (e.g. section 5.2.2).
  [[nodiscard]] double cv() const;

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Exact latency distribution stored as runs of equal values.  Used for
/// per-transaction latencies (netperf RR, wrk2-style RPC reports) and the
/// fig 8 boot-time boxplots.
///
/// Samples are kept in insertion order as runs of bit-identical values
/// (compared by bit pattern, so -0.0 and +0.0 never merge): a simulated RR
/// path whose every transaction takes the same time is one run, however
/// long it ran.  mean() and stddev() replay the runs in insertion order,
/// so they perform the same additions in the same order as a loop over
/// every sample and return bit-identical doubles.  min(), max() and
/// percentile() select from a value-sorted view of the runs; values that
/// compare equal (only -0.0 and +0.0) keep their insertion order there.
///
/// Memory is O(runs): 8 B value + 4 B count per run, plus a 4 B index per
/// run for the sorted view once a quantile is asked for.  The worst case,
/// no two neighbours equal, is 16 B per sample: the cost of keeping one
/// double per sample plus a sorted copy, and the ceiling.
class Samples {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Exact percentile by linear interpolation, p in [0, 100].
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

  /// Every sample in insertion order, expanded from the runs on demand.
  /// Quantile queries never reorder it.
  [[nodiscard]] std::vector<double> values() const;

  /// Number of runs of equal values held (what the memory scales with).
  [[nodiscard]] std::size_t runs() const { return run_value_.size(); }

 private:
  const std::vector<std::uint32_t>& by_value() const;

  std::vector<double> run_value_;        ///< insertion order
  std::vector<std::uint32_t> run_count_;  ///< samples in each run, >= 1
  std::uint64_t n_ = 0;
  /// Lazy run indices sorted by (value, insertion order).  Extending the
  /// last run leaves it valid; opening a run does not.
  mutable std::vector<std::uint32_t> by_value_;
  mutable bool by_value_valid_ = true;
};

/// Five-number summary + mean, as the paper's fig 8b table reports.
struct BoxStats {
  double min = 0, q1 = 0, median = 0, q3 = 0, max = 0, mean = 0, stddev = 0;
};
BoxStats box_stats(const Samples& s);

/// Hit/miss counter for cache-style subsystems (flow cache, conntrack);
/// benches report the ratio alongside throughput so cache effectiveness is
/// visible in the same table.
class HitRateCounter {
 public:
  void hit() { ++hits_; }
  void miss() { ++misses_; }
  void reset() { hits_ = misses_ = 0; }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t total() const { return hits_ + misses_; }
  /// Hits / (hits + misses); 0 when nothing was recorded.
  [[nodiscard]] double ratio() const {
    return total() ? static_cast<double>(hits_) / static_cast<double>(total())
                   : 0.0;
  }

 private:
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Fixed-width histogram for the fig 9 cost-savings frequency plot.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);  ///< out-of-range values clamp into the edge bins

  [[nodiscard]] std::uint64_t bin(std::size_t i) const { return counts_[i]; }
  [[nodiscard]] double bin_lo(std::size_t i) const;
  [[nodiscard]] double bin_hi(std::size_t i) const;
  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// Renders "lo..hi | count | ###" rows for benchmark stdout.
  [[nodiscard]] std::string render(int max_width = 50) const;

 private:
  double lo_, hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace nestv::sim
