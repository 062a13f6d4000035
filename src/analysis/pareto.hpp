// Pareto-frontier extraction over simulation results — the decision layer
// a co-design study ends with: of 864 configurations, which are not
// dominated in the (execution time, energy) plane?
#pragma once

#include <cstddef>
#include <vector>

namespace musa::analysis {

/// A point in a minimisation problem: both coordinates are costs.
struct CostPoint {
  double x = 0.0;       // e.g. execution time
  double y = 0.0;       // e.g. energy to solution
  std::size_t tag = 0;  // caller's index into its own result set
};

/// Indices (tags) of the non-dominated points, sorted by ascending x.
/// A point is dominated if another point is <= in both coordinates and
/// strictly < in at least one.
std::vector<CostPoint> pareto_front(std::vector<CostPoint> points);

/// Proven lower bounds on both costs over a *region* of the design space
/// (e.g. verify::MetricBounds::min_time_s over an analyzer box): every
/// achievable point in the region has x >= x_lo and y >= y_lo.
struct CostBound {
  double x_lo = 0.0;
  double y_lo = 0.0;
  std::size_t tag = 0;  // caller's index into its own region list
};

/// Dominance pruning for guided search: drops every candidate region whose
/// best corner (x_lo, y_lo) is already matched-or-beaten in both costs by a
/// point of `front` — no point of such a region can strictly improve the
/// front, so it need not be simulated. Returns the surviving candidates in
/// input order. Sound with lower bounds only: regions are pruned, never
/// points invented.
std::vector<CostBound> prune_dominated(const std::vector<CostPoint>& front,
                                       std::vector<CostBound> candidates);

}  // namespace musa::analysis
