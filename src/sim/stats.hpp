#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace vnet::sim {

/// Running summary statistics (count / mean / min / max / stddev) using
/// Welford's numerically stable update. Used throughout the benches for
/// latency and throughput series.
class Summary {
 public:
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }

  void reset() { *this = Summary{}; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Least-squares fit y = a*x + b over accumulated points; used to recover
/// the paper's round-trip-time model RTT(n) = 0.1112 n + 61.02 us (Fig 4).
class LinearFit {
 public:
  void add(double x, double y) {
    ++n_;
    sx_ += x;
    sy_ += y;
    sxx_ += x * x;
    sxy_ += x * y;
    syy_ += y * y;
  }

  double slope() const {
    const double d = static_cast<double>(n_) * sxx_ - sx_ * sx_;
    return d != 0.0 ? (static_cast<double>(n_) * sxy_ - sx_ * sy_) / d : 0.0;
  }

  double intercept() const {
    return n_ ? (sy_ - slope() * sx_) / static_cast<double>(n_) : 0.0;
  }

  /// Coefficient of determination R^2.
  double r_squared() const {
    const double d1 = static_cast<double>(n_) * sxx_ - sx_ * sx_;
    const double d2 = static_cast<double>(n_) * syy_ - sy_ * sy_;
    if (d1 <= 0.0 || d2 <= 0.0) return 0.0;
    const double num = static_cast<double>(n_) * sxy_ - sx_ * sy_;
    return (num * num) / (d1 * d2);
  }

  std::uint64_t count() const { return n_; }

 private:
  std::uint64_t n_ = 0;
  double sx_ = 0, sy_ = 0, sxx_ = 0, sxy_ = 0, syy_ = 0;
};

}  // namespace vnet::sim
