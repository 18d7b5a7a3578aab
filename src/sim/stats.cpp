#include "sim/stats.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace nestv::sim {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::cv() const {
  const double m = mean();
  return m != 0.0 ? stddev() / m : 0.0;
}

void Samples::add(double x) {
  ++n_;
  if (!run_value_.empty() &&
      std::bit_cast<std::uint64_t>(run_value_.back()) ==
          std::bit_cast<std::uint64_t>(x) &&
      run_count_.back() != std::numeric_limits<std::uint32_t>::max()) {
    ++run_count_.back();
    return;
  }
  // by_value_ indexes runs with 32 bits.
  if (run_value_.size() == std::numeric_limits<std::uint32_t>::max())
    throw std::length_error("Samples: more than 2^32-1 runs");
  run_value_.push_back(x);
  run_count_.push_back(1);
  by_value_valid_ = false;
}

const std::vector<std::uint32_t>& Samples::by_value() const {
  if (!by_value_valid_) {
    by_value_.assign(run_value_.size(), 0);
    std::iota(by_value_.begin(), by_value_.end(), 0u);
    std::sort(by_value_.begin(), by_value_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                if (run_value_[a] < run_value_[b]) return true;
                if (run_value_[b] < run_value_[a]) return false;
                return a < b;
              });
    by_value_valid_ = true;
  }
  return by_value_;
}

double Samples::mean() const {
  if (n_ == 0) return 0.0;
  double s = 0.0;
  for (std::size_t r = 0; r < run_value_.size(); ++r) {
    const double x = run_value_[r];
    for (std::uint32_t i = 0; i < run_count_[r]; ++i) s += x;
  }
  return s / static_cast<double>(n_);
}

double Samples::stddev() const {
  if (n_ < 2) return 0.0;
  const double m = mean();
  double s = 0.0;
  for (std::size_t r = 0; r < run_value_.size(); ++r) {
    const double x = run_value_[r];
    for (std::uint32_t i = 0; i < run_count_[r]; ++i) s += (x - m) * (x - m);
  }
  return std::sqrt(s / static_cast<double>(n_));
}

double Samples::min() const {
  if (n_ == 0) return 0.0;
  return run_value_[by_value().front()];
}

double Samples::max() const {
  if (n_ == 0) return 0.0;
  return run_value_[by_value().back()];
}

double Samples::percentile(double p) const {
  if (n_ == 0) return 0.0;
  if (p <= 0.0) return min();
  if (p >= 100.0) return max();
  const double rank = p / 100.0 * static_cast<double>(n_ - 1);
  const auto lo = static_cast<std::uint64_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= n_) return max();
  // Walk the sorted runs to sample `lo` and its successor `lo + 1`.
  const std::vector<std::uint32_t>& order = by_value();
  std::uint64_t end = 0;  // samples in the runs walked so far
  std::size_t k = 0;
  while ((end += run_count_[order[k]]) <= lo) ++k;
  const double v_lo = run_value_[order[k]];
  const double v_hi = lo + 1 < end ? v_lo : run_value_[order[k + 1]];
  return v_lo * (1.0 - frac) + v_hi * frac;
}

std::vector<double> Samples::values() const {
  std::vector<double> out;
  out.reserve(n_);
  for (std::size_t r = 0; r < run_value_.size(); ++r)
    out.insert(out.end(), run_count_[r], run_value_[r]);
  return out;
}

BoxStats box_stats(const Samples& s) {
  BoxStats b;
  b.min = s.min();
  b.q1 = s.percentile(25.0);
  b.median = s.percentile(50.0);
  b.q3 = s.percentile(75.0);
  b.max = s.max();
  b.mean = s.mean();
  b.stddev = s.stddev();
  return b;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  assert(hi > lo && bins > 0);
}

void Histogram::add(double x) {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  double pos = (x - lo_) / width;
  if (pos < 0.0) pos = 0.0;
  auto idx = static_cast<std::size_t>(pos);
  if (idx >= counts_.size()) idx = counts_.size() - 1;
  ++counts_[idx];
  ++total_;
}

double Histogram::bin_lo(std::size_t i) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(i);
}

double Histogram::bin_hi(std::size_t i) const { return bin_lo(i + 1); }

std::string Histogram::render(int max_width) const {
  std::uint64_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::string out;
  char line[160];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const int bar =
        static_cast<int>(static_cast<double>(counts_[i]) /
                         static_cast<double>(peak) * max_width);
    std::snprintf(line, sizeof line, "%10.3f .. %10.3f | %8llu | ",
                  bin_lo(i), bin_hi(i),
                  static_cast<unsigned long long>(counts_[i]));
    out += line;
    out.append(static_cast<std::size_t>(bar), '#');
    out += '\n';
  }
  return out;
}

}  // namespace nestv::sim
