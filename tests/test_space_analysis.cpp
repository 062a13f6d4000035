// Static design-space analyzer (verify/absdomain + verify/space_analysis):
// abstract-rule coverage, exact agreement with pointwise lint on the paper
// grid, O(boxes) analysis of the extended grid, randomized soundness over
// arbitrary sub-boxes, and the monotone metric bounds against computed rows
// from the committed sweep cache.
#include <algorithm>
#include <array>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/csv.hpp"
#include "core/config_space.hpp"
#include "core/dse.hpp"
#include "core/pipeline.hpp"
#include "verify/absdomain.hpp"
#include "verify/config_rules.hpp"
#include "verify/space_analysis.hpp"

namespace {

using musa::core::ConfigSpace;
using musa::core::MachineConfig;
using musa::core::SpaceAxes;
using musa::verify::AgreementReport;
using musa::verify::AnalysisReport;
using musa::verify::Box;
using musa::verify::BoxClass;
using musa::verify::BoxVerdict;
using musa::verify::Tri;

TEST(AbsDomain, EveryConcreteRuleHasAnAbstractCounterpart) {
  const std::vector<std::string>& concrete = musa::verify::machine_rule_ids();
  const auto& abstract = musa::verify::abstract_machine_rules();
  ASSERT_EQ(concrete.size(), abstract.size());
  for (std::size_t i = 0; i < concrete.size(); ++i)
    EXPECT_EQ(concrete[i], abstract[i].id) << "catalogue order diverged at " << i;
}

TEST(AbsDomain, RuleIdsAreUniqueAndDotted) {
  std::vector<std::string> ids = musa::verify::machine_rule_ids();
  for (const auto& id : ids)
    EXPECT_NE(id.find('.'), std::string::npos) << id << " is not dotted";
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
      << "duplicate rule id";
}

TEST(AbsDomain, FullPaperBoxClassifiesSat) {
  const SpaceAxes axes = SpaceAxes::paper();
  const BoxVerdict v = musa::verify::classify_box(axes, Box::full(axes));
  EXPECT_EQ(v.status, Tri::kSat);
  EXPECT_TRUE(v.rule.empty());
}

TEST(SpaceAnalysis, PaperGridIsOneFeasibleBox) {
  const SpaceAxes axes = SpaceAxes::paper();
  const AnalysisReport report = musa::verify::analyze(axes);
  EXPECT_EQ(report.total_points, 864u);
  EXPECT_EQ(report.feasible_points, 864u);
  ASSERT_EQ(report.boxes.size(), 1u);
  EXPECT_EQ(report.boxes[0].cls, BoxClass::kFeasible);
  for (const auto& [rule, count] : report.kill_counts)
    EXPECT_EQ(count, 0u) << rule;
  for (int d = 0; d < SpaceAxes::kDims; ++d)
    for (int i = 0; i < axes.dim_size(d); ++i)
      EXPECT_TRUE(report.dim_feasible[d][i])
          << axes.dim_name(d) << "[" << i << "]";
}

TEST(SpaceAnalysis, PaperGridAgreesExactlyWithPointwiseLint) {
  const SpaceAxes axes = SpaceAxes::paper();
  const AnalysisReport report = musa::verify::analyze(axes);
  const AgreementReport agree = musa::verify::check_agreement(axes, report);
  EXPECT_EQ(agree.points, 864u);
  EXPECT_EQ(agree.disagreements, 0u)
      << (agree.examples.empty() ? "" : agree.examples[0]);
}

TEST(SpaceAnalysis, ExtendedGridAnalyzedWithoutEnumeratingPoints) {
  const SpaceAxes axes = SpaceAxes::extended();
  ASSERT_GE(axes.points(), 1000000u) << "extended grid shrank below 10^6";
  const AnalysisReport report = musa::verify::analyze(axes);
  EXPECT_EQ(report.total_points, axes.points());

  // O(boxes): the partition must be orders of magnitude below the point
  // count (the acceptance claim "without enumerating points").
  EXPECT_LT(report.boxes_classified, 10000u);
  EXPECT_LT(report.boxes.size(), 1000u);

  // The grid deliberately contains infeasible regions; each expected killer
  // must claim points, and kill counts + feasible must cover the grid.
  std::uint64_t killed = 0;
  std::uint64_t by_rule[4] = {0, 0, 0, 0};
  for (const auto& [rule, count] : report.kill_counts) {
    killed += count;
    if (rule == "vector.width") by_rule[0] = count;
    if (rule == "mem.channels") by_rule[1] = count;
    if (rule == "machine.size") by_rule[2] = count;
    if (rule == "cache.inclusion") by_rule[3] = count;
  }
  EXPECT_EQ(report.feasible_points + killed, report.total_points);
  EXPECT_GT(by_rule[0], 0u) << "vector.width";
  EXPECT_GT(by_rule[1], 0u) << "mem.channels";
  EXPECT_GT(by_rule[2], 0u) << "machine.size";
  EXPECT_GT(by_rule[3], 0u) << "cache.inclusion";
  EXPECT_GT(report.feasible_points, 0u);
  EXPECT_LT(report.feasible_points, report.total_points);
}

/// The grid restricted to one box: per-dimension slices of the axis lists.
SpaceAxes slice(const SpaceAxes& axes, const Box& box) {
  SpaceAxes out;
  const auto cut = [&box](auto& dst, const auto& src, int dim) {
    dst.assign(src.begin() + box.begin[dim], src.begin() + box.end[dim]);
  };
  cut(out.core_presets, axes.core_presets, SpaceAxes::kDimCore);
  cut(out.cache_labels, axes.cache_labels, SpaceAxes::kDimCache);
  cut(out.freqs_ghz, axes.freqs_ghz, SpaceAxes::kDimFreq);
  cut(out.vector_bits, axes.vector_bits, SpaceAxes::kDimVector);
  cut(out.mem_channels, axes.mem_channels, SpaceAxes::kDimChannels);
  cut(out.mem_techs, axes.mem_techs, SpaceAxes::kDimTech);
  cut(out.core_counts, axes.core_counts, SpaceAxes::kDimCores);
  cut(out.rank_counts, axes.rank_counts, SpaceAxes::kDimRanks);
  return out;
}

// Randomized soundness property: for ~200 random boxes of the extended grid
// the partition must agree with exhaustive pointwise check_machine() at
// every point inside — no box labelled feasible may contain a violating
// point and vice versa, and the killing rule must equal the first pointwise
// violation. Widths are capped so the exhaustive cross-check stays cheap.
TEST(SpaceAnalysis, RandomBoxesAgreeWithExhaustivePointwiseCheck) {
  const SpaceAxes axes = SpaceAxes::extended();
  std::mt19937 rng(20260808u);
  for (int trial = 0; trial < 200; ++trial) {
    Box box;
    for (int d = 0; d < SpaceAxes::kDims; ++d) {
      const int size = axes.dim_size(d);
      std::uniform_int_distribution<int> width_dist(1, std::min(2, size));
      const int width = width_dist(rng);
      std::uniform_int_distribution<int> begin_dist(0, size - width);
      box.begin[d] = begin_dist(rng);
      box.end[d] = box.begin[d] + width;
    }
    const SpaceAxes sub = slice(axes, box);
    const AnalysisReport report = musa::verify::analyze(sub);
    const AgreementReport agree = musa::verify::check_agreement(sub, report);
    ASSERT_EQ(agree.disagreements, 0u)
        << "trial " << trial << " box " << box.str() << ": "
        << (agree.examples.empty() ? "" : agree.examples[0]);

    // classify_box on the *unsplit* box must itself be sound: a decided
    // verdict has to match every point (kUnknown is always allowed).
    const BoxVerdict v = musa::verify::classify_box(sub, Box::full(sub));
    if (v.status == Tri::kSat) {
      ASSERT_EQ(report.feasible_points, report.total_points)
          << "trial " << trial << ": kSat box contains violating points";
    }
    if (v.status == Tri::kViolated) {
      ASSERT_EQ(report.feasible_points, 0u)
          << "trial " << trial << ": kViolated box contains feasible points";
    }
  }
}

TEST(SpaceAnalysis, SingletonBoxesAlwaysDecide) {
  const SpaceAxes axes = SpaceAxes::extended();
  std::mt19937 rng(7u);
  for (int trial = 0; trial < 64; ++trial) {
    Box box;
    for (int d = 0; d < SpaceAxes::kDims; ++d) {
      std::uniform_int_distribution<int> dist(0, axes.dim_size(d) - 1);
      box.begin[d] = dist(rng);
      box.end[d] = box.begin[d] + 1;
    }
    const BoxVerdict v = musa::verify::classify_box(axes, box);
    ASSERT_NE(v.status, Tri::kUnknown)
        << "exactness-at-singletons contract broken at " << box.str();
    std::array<int, SpaceAxes::kDims> idx{};
    for (int d = 0; d < SpaceAxes::kDims; ++d) idx[d] = box.begin[d];
    const MachineConfig config = axes.config_at(idx);
    const auto violations = musa::verify::check_machine(config);
    if (v.status == Tri::kSat) {
      EXPECT_TRUE(violations.empty()) << config.id();
    } else {
      ASSERT_FALSE(violations.empty()) << config.id();
      EXPECT_EQ(v.rule, violations[0].rule) << config.id();
    }
  }
}

TEST(SpaceAnalysis, MetricBoundsAreMonotoneInBoxInclusion) {
  const SpaceAxes axes = SpaceAxes::extended();
  const Box full = Box::full(axes);
  const musa::verify::MetricBounds outer =
      musa::verify::bound_metrics(axes, full);
  std::mt19937 rng(99u);
  for (int trial = 0; trial < 32; ++trial) {
    Box box;
    for (int d = 0; d < SpaceAxes::kDims; ++d) {
      const int size = axes.dim_size(d);
      std::uniform_int_distribution<int> begin_dist(0, size - 1);
      box.begin[d] = begin_dist(rng);
      std::uniform_int_distribution<int> end_dist(box.begin[d] + 1, size);
      box.end[d] = end_dist(rng);
    }
    const musa::verify::MetricBounds inner =
        musa::verify::bound_metrics(axes, box);
    EXPECT_LE(inner.ipc_hi, outer.ipc_hi);
    EXPECT_LE(inner.instr_per_s_hi, outer.instr_per_s_hi);
    EXPECT_LE(inner.bw_gbps_hi, outer.bw_gbps_hi);
    // The roofline lower bound is anti-monotone: a subset can only be
    // slower-or-equal at its best corner.
    EXPECT_GE(inner.min_time_s(1e12, 1e12), outer.min_time_s(1e12, 1e12));
  }
}

/// Locates the committed sweep cache: tests run from the build tree, the
/// cache lives at the repo root (or wherever MUSA_DSE_CACHE points).
std::string find_cache() {
  if (const char* env = std::getenv("MUSA_DSE_CACHE"))
    if (musa::CsvDoc::file_exists(env)) return env;
  for (const char* p : {"dse_cache.csv", "../dse_cache.csv",
                        "../../dse_cache.csv", "../../../dse_cache.csv"})
    if (musa::CsvDoc::file_exists(p)) return p;
  return {};
}

// The default plan (no configs, no axes: the paper grid through the
// analyzer) must enumerate its 864 configs in exactly the row order of the
// committed cache, app block by app block — otherwise a fresh sweep could
// not reproduce the committed bytes.
TEST(SpaceAnalysis, DefaultPlanMatchesCommittedCacheOrder) {
  const std::string path = find_cache();
  if (path.empty()) GTEST_SKIP() << "committed dse_cache.csv not found";
  const musa::CsvDoc doc = musa::CsvDoc::load(path);
  ASSERT_EQ(doc.header(), musa::core::DseEngine::csv_header());

  musa::core::SweepOptions options;
  options.verbose = false;
  const musa::core::SweepPlan plan = musa::core::make_sweep_plan(options);
  ASSERT_EQ(plan.configs.size(), 864u);
  ASSERT_EQ(doc.rows().size(), plan.size());
  for (std::size_t i = 0; i < doc.rows().size(); ++i) {
    const musa::core::SimResult r =
        musa::core::DseEngine::from_row(doc.rows()[i]);
    ASSERT_EQ(r.app, plan.app_of(i).name) << "app order diverged at row " << i;
    ASSERT_EQ(r.config.id(), plan.config_of(i).id())
        << "config order diverged at row " << i;
  }
}

// Monotone-bound property against real computed rows: every row of the
// committed cache must sit under the static bounds of its singleton box —
// the per-point result invariants, re-derived through the analyzer's
// region-level lifting.
TEST(SpaceAnalysis, StaticBoundsHoldForCommittedCacheRows) {
  const std::string path = find_cache();
  if (path.empty()) GTEST_SKIP() << "committed dse_cache.csv not found";
  const musa::CsvDoc doc = musa::CsvDoc::load(path);
  ASSERT_EQ(doc.header(), musa::core::DseEngine::csv_header());

  const SpaceAxes axes = SpaceAxes::paper();
  const auto index_of = [](const auto& values, const auto& v) {
    for (std::size_t i = 0; i < values.size(); ++i)
      if (values[i] == v) return static_cast<int>(i);
    return -1;
  };
  std::size_t checked = 0;
  for (const auto& row : doc.rows()) {
    const musa::core::SimResult r = musa::core::DseEngine::from_row(row);
    std::array<int, SpaceAxes::kDims> idx{};
    int core = -1;
    for (std::size_t i = 0; i < axes.core_presets.size(); ++i)
      if (axes.core_presets[i].label == r.config.core.label)
        core = static_cast<int>(i);
    idx[SpaceAxes::kDimCore] = core;
    idx[SpaceAxes::kDimCache] = index_of(axes.cache_labels, r.config.cache_label);
    idx[SpaceAxes::kDimFreq] = index_of(axes.freqs_ghz, r.config.freq_ghz);
    idx[SpaceAxes::kDimVector] = index_of(axes.vector_bits, r.config.vector_bits);
    idx[SpaceAxes::kDimChannels] =
        index_of(axes.mem_channels, r.config.mem_channels);
    idx[SpaceAxes::kDimTech] = index_of(axes.mem_techs, r.config.mem_tech);
    idx[SpaceAxes::kDimCores] = index_of(axes.core_counts, r.config.cores);
    idx[SpaceAxes::kDimRanks] = index_of(axes.rank_counts, r.config.ranks);
    ASSERT_TRUE(std::all_of(idx.begin(), idx.end(),
                            [](int i) { return i >= 0; }))
        << "cache row off the paper grid: " << r.config.id();

    Box box;
    for (int d = 0; d < SpaceAxes::kDims; ++d) {
      box.begin[d] = idx[d];
      box.end[d] = idx[d] + 1;
    }
    const musa::verify::MetricBounds b = musa::verify::bound_metrics(axes, box);
    EXPECT_LE(r.ipc, b.ipc_hi * (1.0 + 1e-6)) << r.config.id();
    // result.bandwidth grants the model 2% slack over the aggregate peak;
    // the static bound inherits it.
    EXPECT_LE(r.mem_gbps, b.bw_gbps_hi * 1.02 * (1.0 + 1e-6)) << r.config.id();
    ++checked;
  }
  EXPECT_EQ(checked, doc.rows().size());
}

TEST(DseEngine, AxesDrivenPlanSkipsInfeasibleBoxes) {
  // A 2-point grid with one statically-infeasible value (8192-bit vectors):
  // the analyzer must cut it at plan construction, before any simulation.
  SpaceAxes axes;
  axes.core_presets = {musa::cpusim::core_high()};
  axes.cache_labels = {"64M:512K"};
  axes.freqs_ghz = {2.0};
  axes.vector_bits = {512, 8192};
  axes.mem_channels = {8};
  axes.mem_techs = {musa::dramsim::MemTech::kDdr4_2666};
  axes.core_counts = {8};
  axes.rank_counts = {256};

  musa::core::SweepOptions opts;
  opts.axes = axes;
  opts.apps = {"hydro"};
  opts.verbose = false;
  musa::core::Pipeline pipeline;
  musa::core::DseEngine dse(pipeline, /*cache_path=*/"", opts);
  const musa::core::SweepReport rep = dse.sweep();
  EXPECT_EQ(rep.statically_skipped, 1u);
  EXPECT_GE(rep.analysis_boxes, 1u);
  EXPECT_EQ(rep.total, 1u);
  const auto& results = dse.results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].config.vector_bits, 512);
}

TEST(DseEngine, AxesIgnoredWhenVerificationIsOff) {
  SpaceAxes axes;
  axes.core_presets = {musa::cpusim::core_high()};
  axes.cache_labels = {"64M:512K"};
  axes.freqs_ghz = {2.0};
  axes.vector_bits = {512, 8192};
  axes.mem_channels = {8};
  axes.mem_techs = {musa::dramsim::MemTech::kDdr4_2666};
  axes.core_counts = {8};
  axes.rank_counts = {256};

  musa::core::SweepOptions opts;
  opts.axes = axes;
  opts.apps = {"hydro"};
  opts.verbose = false;
  opts.verify = false;  // --no-verify sweeps the grid unlinted, as before
  musa::core::Pipeline pipeline;
  musa::core::DseEngine dse(pipeline, /*cache_path=*/"", opts);
  const musa::core::SweepReport rep = dse.sweep();
  EXPECT_EQ(rep.statically_skipped, 0u);
  EXPECT_EQ(rep.total, 2u);
}

}  // namespace
