#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

namespace musa {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double total = static_cast<double>(n_ + other.n_);
  const double delta = other.mean_ - mean_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                         static_cast<double>(other.n_) / total;
  mean_ += delta * static_cast<double>(other.n_) / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double geomean(const std::vector<double>& xs, std::size_t* skipped) {
  if (skipped) *skipped = 0;
  double log_sum = 0.0;
  std::size_t n = 0;
  for (double x : xs) {
    // log() of a non-positive (or NaN) sample is -inf/NaN and used to leak
    // straight into the mean; such samples carry no geometric information,
    // so they are skipped and counted instead.
    if (!(x > 0.0)) {
      if (skipped) ++*skipped;
      continue;
    }
    log_sum += std::log(x);
    ++n;
  }
  if (n == 0) return 0.0;
  return std::exp(log_sum / static_cast<double>(n));
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double stddev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

}  // namespace musa
