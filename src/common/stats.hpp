// Streaming statistics used throughout result aggregation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace musa {

/// Welford's online algorithm: numerically stable running mean/variance.
///
/// Spread convention (shared with the free stddev() below, and locked in by
/// TestRunningStats): *sample* variance with the n-1 denominator, and 0.0
/// for fewer than two samples — n == 0 and n == 1 both report zero spread
/// rather than NaN, so aggregation code never has to special-case a
/// single-sample accumulator. merge() preserves this exactly: merging any
/// split of a sample set — including singletons — yields the same
/// count/mean/variance/min/max as accumulating the whole set into one.
class RunningStats {
 public:
  void add(double x);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  /// Merge another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other);

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Geometric mean of the *positive* entries of xs. Non-positive or NaN
/// entries have no defined log and are skipped (counted into *skipped when
/// provided) instead of silently poisoning the result with NaN/-inf — the
/// bug this signature replaces. Returns 0 when no positive entry remains.
double geomean(const std::vector<double>& xs,
               std::size_t* skipped = nullptr);

/// Arithmetic mean; returns 0 if empty.
double mean(const std::vector<double>& xs);

/// Sample standard deviation (n-1 denominator); 0 for fewer than two
/// samples — the same convention as RunningStats::stddev, so the two are
/// interchangeable at every n.
double stddev(const std::vector<double>& xs);

}  // namespace musa
