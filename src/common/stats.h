// Descriptive statistics used across the evaluation harness: moments,
// percentiles, empirical CDFs, and Shannon entropy of discrete symbol
// streams (the quantity Figure 5 of the paper reports per grouping
// strategy).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

namespace cachegen {

double Mean(std::span<const double> xs);
double Variance(std::span<const double> xs);  // population variance
double StdDev(std::span<const double> xs);

// p in [0, 1]; linear interpolation between order statistics.
double Percentile(std::vector<double> xs, double p);

// Empirical CDF evaluated at the given points. Returns fractions <= x.
std::vector<double> EmpiricalCdf(std::vector<double> xs, std::span<const double> at);

// Shannon entropy (bits per symbol) of a discrete symbol stream. With
// `miller_madow`, applies the Miller-Madow bias correction
// (+ (K_observed - 1) / (2 N ln 2)) — important when comparing groupings
// whose groups have very different sample counts (plug-in entropy is biased
// low for small groups, which would flatter fine-grained groupings).
double EntropyBits(std::span<const int32_t> symbols, bool miller_madow = false);

// Entropy of a pre-computed histogram (counts of each symbol).
double EntropyBitsFromCounts(const std::map<int32_t, uint64_t>& counts);

// Average entropy when the stream is partitioned into groups: computes the
// entropy of each group separately and returns the element-weighted mean.
// This is the "bits per element under grouping" metric of paper Fig. 5.
double GroupedEntropyBits(std::span<const int32_t> symbols,
                          std::span<const uint32_t> group_of_symbol,
                          uint32_t num_groups, bool miller_madow = false);

// One Welford step: folds x, the n-th value (n >= 1), into (mean, m2).
// RunningStats and RunningStatsRow both use it, so they agree bit for bit.
inline void WelfordAdd(double x, double n, double& mean, double& m2) {
  const double delta = x - mean;
  mean += delta / n;
  m2 += delta * (x - mean);
}

// Online accumulator for streaming mean/variance (Welford).
class RunningStats {
 public:
  void Add(double x) {
    if (n_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    ++n_;
    WelfordAdd(x, static_cast<double>(n_), mean_, m2_);
  }
  uint64_t Count() const { return n_; }
  double Mean() const { return n_ ? mean_ : 0.0; }
  double Variance() const { return n_ ? m2_ / static_cast<double>(n_) : 0.0; }
  double StdDev() const;
  double Min() const { return min_; }
  double Max() const { return max_; }

 private:
  uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// A row of independent Welford accumulators that receive one value each
// per row — e.g. one per channel of a (tokens x channels) tensor walked
// token by token. The accumulators are kept as arrays and advanced a whole
// row at a time, so the row loop vectorizes; accumulator i's mean and
// variance equal those of a RunningStats fed the same values.
class RunningStatsRow {
 public:
  explicit RunningStatsRow(size_t width) : mean_(width, 0.0), m2_(width, 0.0) {}

  // Accumulator i receives double(x[i]) (minus double(ref[i])).
  void AddRow(const float* x) {
    const double n = static_cast<double>(++n_);
    for (size_t i = 0; i < mean_.size(); ++i) WelfordAdd(x[i], n, mean_[i], m2_[i]);
  }
  void AddRowDelta(const float* x, const float* ref) {
    const double n = static_cast<double>(++n_);
    for (size_t i = 0; i < mean_.size(); ++i) {
      WelfordAdd(static_cast<double>(x[i]) - ref[i], n, mean_[i], m2_[i]);
    }
  }

  uint64_t Count() const { return n_; }
  double Mean(size_t i) const { return n_ ? mean_[i] : 0.0; }
  double Variance(size_t i) const { return n_ ? m2_[i] / static_cast<double>(n_) : 0.0; }
  double StdDev(size_t i) const;

 private:
  uint64_t n_ = 0;
  std::vector<double> mean_;
  std::vector<double> m2_;
};

}  // namespace cachegen
