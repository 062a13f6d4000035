// Unit tests for PCA and timeline rendering.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/pareto.hpp"
#include "analysis/pca.hpp"
#include "analysis/timeline.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"

namespace musa::analysis {
namespace {

TEST(Pca, PerfectlyCorrelatedVariablesLoadTogether) {
  std::vector<std::vector<double>> obs;
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.next_double();
    obs.push_back({x, 2.0 * x + 1.0});
  }
  const PcaResult r = pca(obs, {"a", "b"});
  // One component explains everything; loadings have equal magnitude.
  EXPECT_GT(r.explained_variance[0], 0.99);
  EXPECT_NEAR(std::abs(r.components[0][0]), std::abs(r.components[0][1]),
              1e-6);
  // Same sign: they evolve together.
  EXPECT_GT(r.components[0][0] * r.components[0][1], 0.0);
}

TEST(Pca, AntiCorrelatedVariablesLoadOpposite) {
  std::vector<std::vector<double>> obs;
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.next_double();
    obs.push_back({x, -x});
  }
  const PcaResult r = pca(obs, {"up", "down"});
  EXPECT_LT(r.components[0][0] * r.components[0][1], 0.0);
}

TEST(Pca, IndependentVariablesSplitVariance) {
  std::vector<std::vector<double>> obs;
  Rng rng(3);
  for (int i = 0; i < 2000; ++i)
    obs.push_back({rng.next_double(), rng.next_double()});
  const PcaResult r = pca(obs, {"a", "b"});
  EXPECT_NEAR(r.explained_variance[0], 0.5, 0.1);
}

TEST(Pca, ConstantVariableGetsZeroLoading) {
  std::vector<std::vector<double>> obs;
  Rng rng(4);
  for (int i = 0; i < 50; ++i) obs.push_back({rng.next_double(), 7.0});
  const PcaResult r = pca(obs, {"x", "const"});
  EXPECT_NEAR(r.components[0][1], 0.0, 1e-9);
}

TEST(Pca, ExplainedVarianceSumsToOne) {
  std::vector<std::vector<double>> obs;
  Rng rng(5);
  for (int i = 0; i < 200; ++i)
    obs.push_back({rng.next_double(), rng.next_double() * 3,
                   rng.next_double() + 0.5 * rng.next_double()});
  const PcaResult r = pca(obs, {"a", "b", "c"});
  double total = 0.0;
  for (double v : r.explained_variance) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Components are ordered by decreasing variance.
  for (std::size_t k = 1; k < r.explained_variance.size(); ++k)
    EXPECT_LE(r.explained_variance[k], r.explained_variance[k - 1] + 1e-12);
}

TEST(Pca, ComponentsAreUnitVectors) {
  std::vector<std::vector<double>> obs;
  Rng rng(6);
  for (int i = 0; i < 100; ++i)
    obs.push_back({rng.next_double(), rng.next_double(), rng.next_double()});
  const PcaResult r = pca(obs, {"a", "b", "c"});
  for (const auto& comp : r.components) {
    double norm = 0.0;
    for (double c : comp) norm += c * c;
    EXPECT_NEAR(norm, 1.0, 1e-6);
  }
}

TEST(Pca, RejectsDegenerateInput) {
  EXPECT_THROW(pca({}, {"a"}), SimError);
  EXPECT_THROW(pca({{1.0}}, {"a"}), SimError);
  EXPECT_THROW(pca({{1.0}, {2.0, 3.0}}, {"a"}), SimError);  // ragged
}

TEST(Pareto, ExtractsNonDominatedPoints) {
  const auto front = pareto_front({
      {1.0, 10.0, 0},  // fastest
      {2.0, 5.0, 1},   // on front
      {3.0, 6.0, 2},   // dominated by 1
      {4.0, 1.0, 3},   // most frugal
      {1.5, 11.0, 4},  // dominated by 0
  });
  ASSERT_EQ(front.size(), 3u);
  EXPECT_EQ(front[0].tag, 0u);
  EXPECT_EQ(front[1].tag, 1u);
  EXPECT_EQ(front[2].tag, 3u);
}

TEST(Pareto, SinglePointIsItsOwnFront) {
  const auto front = pareto_front({{3.0, 3.0, 7}});
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(front[0].tag, 7u);
  EXPECT_TRUE(pareto_front({}).empty());
}

TEST(Pareto, DuplicateCoordinatesKeepOne) {
  const auto front = pareto_front({{1.0, 1.0, 0}, {1.0, 1.0, 1}});
  EXPECT_EQ(front.size(), 1u);
}

TEST(Pareto, PrunesRegionsThatCannotImproveTheFront) {
  // Front {(1,3),(2,1)}. A region whose best corner is dominated (or merely
  // matched) by a front point is pruned; a corner strictly better in either
  // coordinate survives.
  const auto front = pareto_front({{1.0, 3.0, 0}, {2.0, 1.0, 1}});
  const auto kept = prune_dominated(front, {
      {3.0, 2.0, 10},   // (2,1) <= (3,2): pruned
      {2.0, 1.0, 11},   // exactly matched by (2,1): cannot *strictly* improve
      {0.5, 9.0, 12},   // left of the whole front: survives
      {1.5, 2.0, 13},   // beats (1,3) in y before (2,1) applies: survives
      {9.0, 0.5, 14},   // below the whole front: survives
  });
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].tag, 12u);
  EXPECT_EQ(kept[1].tag, 13u);
  EXPECT_EQ(kept[2].tag, 14u);
}

TEST(Pareto, PruneWithEmptyFrontKeepsEverything) {
  const auto kept = prune_dominated({}, {{1.0, 1.0, 0}, {2.0, 2.0, 1}});
  EXPECT_EQ(kept.size(), 2u);
}

TEST(Pareto, PruneToleratesUnsortedDominatedFrontInput) {
  // Callers may pass any point set as "front"; the dominated subset is
  // re-derived internally.
  const std::vector<CostPoint> messy = {
      {5.0, 5.0, 0}, {2.0, 1.0, 1}, {1.0, 3.0, 2}, {2.5, 2.5, 3}};
  const auto kept = prune_dominated(messy, {{3.0, 3.0, 7}, {0.5, 0.5, 8}});
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].tag, 8u);
}

TEST(Timeline, CoreTimelinePaintsBusySegments) {
  std::vector<cpusim::TimelineSeg> segs = {
      {.core = 0, .start = 0.0, .end = 1.0, .task_type = 0},
      {.core = 1, .start = 0.5, .end = 1.0, .task_type = 0},
  };
  const std::string out = render_core_timeline(segs, 4, 1.0, {.width = 20});
  EXPECT_NE(out.find("cpu  0 |####################"), std::string::npos);
  EXPECT_NE(out.find("occupancy: 37.5%"), std::string::npos);
  // Idle cores render as dots.
  EXPECT_NE(out.find("cpu  3 |...................."), std::string::npos);
}

TEST(Timeline, RankTimelineMarksPhases) {
  std::vector<netsim::RankSeg> segs = {
      {.rank = 0, .start = 0.0, .end = 0.5,
       .kind = netsim::RankSeg::Kind::kCompute},
      {.rank = 0, .start = 0.5, .end = 1.0,
       .kind = netsim::RankSeg::Kind::kCollective},
      {.rank = 1, .start = 0.0, .end = 1.0,
       .kind = netsim::RankSeg::Kind::kP2p},
  };
  const std::string out = render_rank_timeline(segs, 2, 1.0, {.width = 10});
  EXPECT_NE(out.find("CCCCC"), std::string::npos);
  EXPECT_NE(out.find("BBBBB"), std::string::npos);
  EXPECT_NE(out.find("pppppppppp"), std::string::npos);
}

TEST(Timeline, DownsamplesManyRanks) {
  std::vector<netsim::RankSeg> segs;
  for (int r = 0; r < 256; ++r)
    segs.push_back({.rank = r, .start = 0.0, .end = 1.0,
                    .kind = netsim::RankSeg::Kind::kCompute});
  const std::string out =
      render_rank_timeline(segs, 256, 1.0, {.width = 20, .max_rows = 16});
  // 16 rows rendered, strided by 16.
  EXPECT_NE(out.find("rank   0"), std::string::npos);
  EXPECT_NE(out.find("rank 240"), std::string::npos);
  EXPECT_EQ(out.find("rank   1 "), std::string::npos);
}

TEST(Timeline, RejectsEmptyInput) {
  EXPECT_THROW(render_core_timeline({}, 0, 1.0), SimError);
  EXPECT_THROW(render_rank_timeline({}, 4, 0.0), SimError);
}

}  // namespace
}  // namespace musa::analysis
