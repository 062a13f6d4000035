#include "verify/space_analysis.hpp"

#include <algorithm>
#include <chrono>
#include <map>

#include "common/check.hpp"
#include "verify/config_rules.hpp"

namespace musa::verify {

namespace {

using core::SpaceAxes;

/// Split dimension for an undecided box: the widest dimension among the
/// undecided rule's dependencies (the rule cannot stay undecided once all
/// its dependency dims are singletons — transfer functions are exact
/// there — so a splittable dep dim always exists).
int pick_split_dim(const Box& box, std::uint32_t deps) {
  int best = -1;
  int best_width = 1;
  for (int d = 0; d < SpaceAxes::kDims; ++d) {
    if ((deps & (1u << static_cast<unsigned>(d))) == 0) continue;
    if (box.width(d) > best_width) {
      best = d;
      best_width = box.width(d);
    }
  }
  MUSA_CHECK_MSG(best >= 0,
                 "space analysis: rule undecided on a singleton box — a "
                 "transfer function broke the exactness contract");
  return best;
}

}  // namespace

AnalysisReport analyze(const core::SpaceAxes& axes, AnalysisOptions opts) {
  const auto t0 = std::chrono::steady_clock::now();
  AnalysisReport report;
  report.total_points = axes.points();
  MUSA_CHECK_MSG(report.total_points > 0, "space analysis: empty grid");
  for (int d = 0; d < SpaceAxes::kDims; ++d)
    report.dim_feasible[d].assign(static_cast<std::size_t>(axes.dim_size(d)),
                                  false);
  std::map<std::string, std::uint64_t> kills;

  std::vector<Box> work{Box::full(axes)};
  while (!work.empty()) {
    const Box box = work.back();
    work.pop_back();
    ++report.boxes_classified;
    MUSA_CHECK_MSG(report.boxes_classified <= opts.max_boxes,
                   "space analysis: box budget exceeded (max_boxes)");
    const BoxVerdict v = classify_box(axes, box);
    switch (v.status) {
      case Tri::kSat: {
        report.feasible_points += box.points();
        for (int d = 0; d < SpaceAxes::kDims; ++d)
          for (int i = box.begin[d]; i < box.end[d]; ++i)
            report.dim_feasible[d][static_cast<std::size_t>(i)] = true;
        report.boxes.push_back({box, BoxClass::kFeasible, {}, {}});
        break;
      }
      case Tri::kViolated: {
        kills[v.rule] += box.points();
        report.boxes.push_back(
            {box, BoxClass::kInfeasible, v.rule, v.detail});
        break;
      }
      case Tri::kUnknown: {
        const int dim = pick_split_dim(box, v.deps);
        const int mid = box.begin[dim] + box.width(dim) / 2;
        Box lo = box;
        Box hi = box;
        lo.end[dim] = mid;
        hi.begin[dim] = mid;
        work.push_back(lo);
        work.push_back(hi);
        break;
      }
    }
  }

  // Kill counts in catalogue order, zero-count rules included so two
  // reports (or a report and a pointwise lint) always line up row-by-row.
  for (const auto& id : machine_rule_ids())
    report.kill_counts.emplace_back(id, kills.count(id) ? kills[id] : 0);

  report.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return report;
}

std::vector<std::uint64_t> feasible_indices(const core::SpaceAxes& axes,
                                            const AnalysisReport& report) {
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(report.feasible_points));
  std::array<int, SpaceAxes::kDims> idx{};
  for (const auto& leaf : report.boxes) {
    if (leaf.cls != BoxClass::kFeasible) continue;
    // Odometer over the box's index ranges.
    idx = leaf.box.begin;
    while (true) {
      out.push_back(axes.linear_of(idx));
      int d = SpaceAxes::kDims - 1;
      for (; d >= 0; --d) {
        if (++idx[d] < leaf.box.end[d]) break;
        idx[d] = leaf.box.begin[d];
      }
      if (d < 0) break;
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

AgreementReport check_agreement(const core::SpaceAxes& axes,
                                const AnalysisReport& report,
                                std::size_t max_examples) {
  AgreementReport agree;
  std::array<int, SpaceAxes::kDims> idx{};
  for (const auto& leaf : report.boxes) {
    idx = leaf.box.begin;
    while (true) {
      ++agree.points;
      const core::MachineConfig config = axes.config_at(idx);
      const std::vector<Violation> v = check_machine(config);
      const bool point_feasible = v.empty();
      const bool box_feasible = leaf.cls == BoxClass::kFeasible;
      std::string why;
      if (point_feasible != box_feasible)
        why = std::string("pointwise ") +
              (point_feasible ? "feasible" : "infeasible") + " but box says " +
              (box_feasible ? "feasible" : "infeasible");
      else if (!point_feasible && v.front().rule != leaf.killing_rule)
        why = "pointwise first rule " + v.front().rule +
              " != box killing rule " + leaf.killing_rule;
      if (!why.empty()) {
        ++agree.disagreements;
        if (agree.examples.size() < max_examples)
          agree.examples.push_back(config.id() + ": " + why);
      }
      int d = SpaceAxes::kDims - 1;
      for (; d >= 0; --d) {
        if (++idx[d] < leaf.box.end[d]) break;
        idx[d] = leaf.box.begin[d];
      }
      if (d < 0) break;
    }
  }
  return agree;
}

double MetricBounds::min_time_s(double instructions, double dram_bytes) const {
  double t = 0.0;
  if (instr_per_s_hi > 0.0) t = std::max(t, instructions / instr_per_s_hi);
  if (bw_gbps_hi > 0.0) t = std::max(t, dram_bytes / (bw_gbps_hi * 1e9));
  return t;
}

MetricBounds bound_metrics(const core::SpaceAxes& axes, const Box& box) {
  MUSA_CHECK_MSG(box.points() > 0, "bound_metrics: empty box");
  MetricBounds b;

  // result.ipc-bound lifted: IPC <= issue_width × lanes, lanes =
  // max(1, vector_bits / 64); both factors are maximised at the box's
  // upper corner of their axes.
  int vec_hi = axes.vector_bits[box.begin[SpaceAxes::kDimVector]];
  for (int i = box.begin[SpaceAxes::kDimVector];
       i < box.end[SpaceAxes::kDimVector]; ++i)
    vec_hi = std::max(vec_hi, axes.vector_bits[i]);
  const double lanes = std::max(1, vec_hi / 64);
  for (int i = box.begin[SpaceAxes::kDimCore]; i < box.end[SpaceAxes::kDimCore];
       ++i)
    b.ipc_hi = std::max(b.ipc_hi, axes.core_presets[i].issue_width * lanes);

  double freq_hi = 0.0;
  for (int i = box.begin[SpaceAxes::kDimFreq]; i < box.end[SpaceAxes::kDimFreq];
       ++i)
    freq_hi = std::max(freq_hi, axes.freqs_ghz[i]);
  int cores_hi = 0;
  for (int i = box.begin[SpaceAxes::kDimCores];
       i < box.end[SpaceAxes::kDimCores]; ++i)
    cores_hi = std::max(cores_hi, axes.core_counts[i]);
  b.instr_per_s_hi = cores_hi * freq_hi * 1e9 * b.ipc_hi;

  // result.bandwidth lifted: achieved GB/s <= channels × per-channel peak.
  double peak_hi = 0.0;
  for (int i = box.begin[SpaceAxes::kDimTech]; i < box.end[SpaceAxes::kDimTech];
       ++i)
    peak_hi = std::max(peak_hi,
                       dramsim::timing_for(axes.mem_techs[i]).peak_gbps());
  int ch_hi = 0;
  for (int i = box.begin[SpaceAxes::kDimChannels];
       i < box.end[SpaceAxes::kDimChannels]; ++i)
    ch_hi = std::max(ch_hi, axes.mem_channels[i]);
  b.bw_gbps_hi = ch_hi * peak_hi;
  return b;
}

}  // namespace musa::verify
