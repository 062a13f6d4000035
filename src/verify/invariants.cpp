#include "verify/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "core/dse.hpp"

namespace musa::verify {

namespace {

// Tolerances: kRelEps absorbs the %.9g round-trip through the CSV cache
// (values are stored to 9 significant digits); kModelSlack absorbs benign
// model-side rounding in bounds that compare across independently computed
// quantities (e.g. achieved vs peak bandwidth).
constexpr double kRelEps = 1e-6;
constexpr double kModelSlack = 0.02;

bool close(double a, double b) {
  return std::abs(a - b) <= kRelEps * std::max({std::abs(a), std::abs(b), 1.0});
}

/// Scalar-IPC upper bound: the core commits at most issue_width fused
/// instructions per cycle, and vector fusion packs at most
/// vector_bits / 64 scalar (64-bit element) operations into each.
double ipc_bound(const core::MachineConfig& c) {
  const double lanes = std::max(1, c.vector_bits / 64);
  return c.core.issue_width * lanes;
}

}  // namespace

const RuleSet<core::SimResult>& result_rules() {
  static const RuleSet<core::SimResult> rules = [] {
    using core::SimResult;
    RuleSet<SimResult> r;
    r.add("result.finite", "every metric is a finite number (no NaN/inf)",
          [](const SimResult& s) -> std::string {
            const std::pair<const char*, double> fields[] = {
                {"region_s", s.region_seconds}, {"wall_s", s.wall_seconds},
                {"ipc", s.ipc},                 {"concurrency", s.avg_concurrency},
                {"busy_frac", s.busy_fraction}, {"contention", s.contention_factor},
                {"mpki_l1", s.mpki_l1},         {"mpki_l2", s.mpki_l2},
                {"mpki_l3", s.mpki_l3},         {"gmem_req_s", s.gmem_req_s},
                {"mem_gbps", s.mem_gbps},       {"core_l1_w", s.core_l1_w},
                {"l2_l3_w", s.l2_l3_w},         {"dram_w", s.dram_w},
                {"node_w", s.node_w},           {"energy_j", s.energy_j}};
            for (const auto& [name, v] : fields)
              if (!std::isfinite(v)) return std::string(name) + " is not finite";
            return {};
          });
    r.add("result.nonnegative", "no metric is negative",
          [](const SimResult& s) -> std::string {
            const std::pair<const char*, double> fields[] = {
                {"region_s", s.region_seconds}, {"wall_s", s.wall_seconds},
                {"ipc", s.ipc},                 {"concurrency", s.avg_concurrency},
                {"busy_frac", s.busy_fraction}, {"mpki_l1", s.mpki_l1},
                {"mpki_l2", s.mpki_l2},         {"mpki_l3", s.mpki_l3},
                {"gmem_req_s", s.gmem_req_s},   {"mem_gbps", s.mem_gbps},
                {"core_l1_w", s.core_l1_w},     {"l2_l3_w", s.l2_l3_w},
                {"dram_w", s.dram_w},           {"node_w", s.node_w},
                {"energy_j", s.energy_j}};
            for (const auto& [name, v] : fields)
              if (v < 0.0) return kv(name, v) + " is negative";
            return {};
          });
    r.add("result.time-order",
          "positive region time; wall time covers the compute region",
          [](const SimResult& s) -> std::string {
            if (!(s.region_seconds > 0.0))
              return kv("region_s", s.region_seconds) + " must be positive";
            if (s.wall_seconds < s.region_seconds * (1.0 - kModelSlack))
              return kv("wall_s", s.wall_seconds) + " < " +
                     kv("region_s", s.region_seconds);
            return {};
          });
    r.add("result.ipc-bound",
          "CPI >= 1 / (issue width x vector lanes): IPC below the core peak",
          [](const SimResult& s) -> std::string {
            const double bound = ipc_bound(s.config);
            if (!(s.ipc > 0.0))
              return kv("ipc", s.ipc) + " must be positive";
            if (s.ipc > bound * (1.0 + kRelEps))
              return kv("ipc", s.ipc) + " exceeds " +
                     kv("issue_width*lanes", bound);
            return {};
          });
    r.add("result.bandwidth",
          "achieved DRAM bandwidth below the channel-aggregate peak",
          [](const SimResult& s) -> std::string {
            const double peak =
                dramsim::timing_for(s.config.mem_tech).peak_gbps() *
                s.config.mem_channels;
            if (s.mem_gbps > peak * (1.0 + kModelSlack))
              return kv("mem_gbps", s.mem_gbps) + " exceeds " +
                     kv("channels*peak_gbps", peak);
            return {};
          });
    r.add("result.utilization",
          "busy fraction <= 1, concurrency <= cores, contention >= 1",
          [](const SimResult& s) -> std::string {
            if (s.busy_fraction > 1.0 + kRelEps)
              return kv("busy_frac", s.busy_fraction) + " exceeds 1";
            if (s.avg_concurrency > s.config.cores * (1.0 + kRelEps))
              return kv("concurrency", s.avg_concurrency) + " exceeds " +
                     kv("cores", s.config.cores);
            if (s.contention_factor < 1.0 - kRelEps)
              return kv("contention", s.contention_factor) + " below 1";
            return {};
          });
    r.add("result.mpki-order",
          "miss rates thin down the hierarchy: MPKI L1 >= L2 >= L3",
          [](const SimResult& s) -> std::string {
            if (s.mpki_l1 < s.mpki_l2 * (1.0 - kRelEps) ||
                s.mpki_l2 < s.mpki_l3 * (1.0 - kRelEps))
              return kv("mpki_l1", s.mpki_l1) + ", " +
                     kv("mpki_l2", s.mpki_l2) + ", " +
                     kv("mpki_l3", s.mpki_l3) + " not monotone";
            return {};
          });
    r.add("result.power-split",
          "node power is the sum of its components; unknown DRAM power "
          "reports zero watts",
          [](const SimResult& s) -> std::string {
            if (!close(s.node_w, s.core_l1_w + s.l2_l3_w + s.dram_w))
              return kv("node_w", s.node_w) + " != " +
                     kv("core_l1_w", s.core_l1_w) + " + " +
                     kv("l2_l3_w", s.l2_l3_w) + " + " + kv("dram_w", s.dram_w);
            if (!s.dram_power_known && s.dram_w != 0.0)
              return kv("dram_w", s.dram_w) +
                     " reported with dram_power_known=false";
            return {};
          });
    r.add("result.energy-conservation",
          "energy equals node power x wall time (zero when power unknown)",
          [](const SimResult& s) -> std::string {
            if (!s.dram_power_known) {
              if (s.energy_j != 0.0)
                return kv("energy_j", s.energy_j) +
                       " reported with dram_power_known=false";
              return {};
            }
            if (!close(s.energy_j, s.node_w * s.wall_seconds))
              return kv("energy_j", s.energy_j) + " != " +
                     kv("node_w", s.node_w) + " * " +
                     kv("wall_s", s.wall_seconds);
            return {};
          });
    return r;
  }();
  return rules;
}

std::vector<Violation> check_result(const core::SimResult& r) {
  return result_rules().check(r, core::DseEngine::point_key(r.app, r.config));
}

void verify_result(const core::SimResult& r) {
  raise_if(check_result(r), ErrorClass::kInvariant);
}

std::vector<Violation> check_core_timeline(
    const std::vector<cpusim::TimelineSeg>& segs, int cores, double makespan,
    const std::string& subject) {
  std::vector<Violation> out;
  const double limit = makespan * (1.0 + kRelEps);
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const auto& s = segs[i];
    const std::string where = "segment " + std::to_string(i);
    if (s.core < 0 || s.core >= cores)
      out.push_back({"timeline.core-range", subject,
                     where + ": " + kv("core", s.core) + " outside [0, " +
                         std::to_string(cores) + ")"});
    if (!(s.start >= 0.0) || s.end < s.start)
      out.push_back({"timeline.monotone", subject,
                     where + ": " + kv("start", s.start) + ", " +
                         kv("end", s.end) + " not ordered"});
    if (s.end > limit)
      out.push_back({"timeline.bounds", subject,
                     where + ": " + kv("end", s.end) + " exceeds " +
                         kv("makespan", makespan)});
  }
  return out;
}

std::vector<Violation> check_rank_timeline(
    const std::vector<netsim::RankSeg>& segs, int ranks, double makespan,
    const std::string& subject) {
  std::vector<Violation> out;
  const double limit = makespan * (1.0 + kRelEps);
  std::map<int, double> last_end;  // per-rank monotonicity cursor
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const auto& s = segs[i];
    const std::string where = "segment " + std::to_string(i);
    if (s.rank < 0 || s.rank >= ranks) {
      out.push_back({"timeline.rank-range", subject,
                     where + ": " + kv("rank", s.rank) + " outside [0, " +
                         std::to_string(ranks) + ")"});
      continue;
    }
    if (!(s.start >= 0.0) || s.end < s.start)
      out.push_back({"timeline.monotone", subject,
                     where + ": " + kv("start", s.start) + ", " +
                         kv("end", s.end) + " not ordered"});
    double& cursor = last_end[s.rank];
    if (s.start < cursor * (1.0 - kRelEps))
      out.push_back({"timeline.overlap", subject,
                     where + ": " + kv("start", s.start) +
                         " overlaps previous segment ending at " +
                         kv("end", cursor) + " on rank " +
                         std::to_string(s.rank)});
    cursor = std::max(cursor, s.end);
    if (s.end > limit)
      out.push_back({"timeline.bounds", subject,
                     where + ": " + kv("end", s.end) + " exceeds " +
                         kv("makespan", makespan)});
  }
  return out;
}

}  // namespace musa::verify
