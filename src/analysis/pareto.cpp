#include "analysis/pareto.hpp"

#include <algorithm>
#include <limits>

namespace musa::analysis {

std::vector<CostPoint> pareto_front(std::vector<CostPoint> points) {
  if (points.empty()) return {};
  // Sort by x ascending, then y ascending: sweeping left to right, a point
  // is on the front iff its y is strictly below every y seen so far.
  std::sort(points.begin(), points.end(),
            [](const CostPoint& a, const CostPoint& b) {
              return a.x != b.x ? a.x < b.x : a.y < b.y;
            });
  std::vector<CostPoint> front;
  double best_y = std::numeric_limits<double>::infinity();
  for (const auto& p : points) {
    if (p.y < best_y) {
      front.push_back(p);
      best_y = p.y;
    }
  }
  return front;
}

std::vector<CostBound> prune_dominated(const std::vector<CostPoint>& front,
                                       std::vector<CostBound> candidates) {
  if (front.empty()) return candidates;
  // Re-derive the non-dominated subset sorted by ascending x (callers may
  // pass any point set, not just pareto_front output); its y values are
  // then strictly descending, so the strongest competitor against a corner
  // (x_lo, y_lo) is the front point with the largest x <= x_lo.
  const std::vector<CostPoint> f = pareto_front(front);
  std::vector<CostBound> kept;
  kept.reserve(candidates.size());
  for (auto& c : candidates) {
    auto it = std::upper_bound(
        f.begin(), f.end(), c.x_lo,
        [](double x, const CostPoint& p) { return x < p.x; });
    const bool dominated = it != f.begin() && std::prev(it)->y <= c.y_lo;
    if (!dominated) kept.push_back(c);
  }
  return kept;
}

}  // namespace musa::analysis
