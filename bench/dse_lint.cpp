// Offline linter and static analyzer for the DSE tool-chain: checks machine
// configurations, presets, result caches and crash-recovery journals against
// the src/verify rule sets, and classifies whole design-space grids through
// the interval abstract domain — all without running a single simulation.
//
// Exits 0 when clean, 1 on any violation / disagreement / blown budget,
// 2 on usage errors or unreadable input.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/csv.hpp"
#include "common/journal.hpp"
#include "fig_common.hpp"
#include "verify/config_rules.hpp"
#include "verify/invariants.hpp"
#include "verify/space_analysis.hpp"

namespace {

using musa::verify::Violation;

constexpr const char* kUsage =
    R"(usage: dse_lint [MODE...] [OPTION...]

Pointwise lint modes (default: --presets --space + default cache if present):
  --presets        lint every built-in preset (cores, caches, DRAM techs)
  --space          lint the paper's 864-point grid and Table II configs
  --cache FILE     lint a result CSV: parse + config + result invariants
  --journal FILE   lint a sweep journal the same way, and reconcile its
                   lease records (an elastic run's <cache>.leases)
  --rules          print the rule catalogue and exit

Static space analysis (verify/space_analysis.hpp):
  --analyze        partition the grid into feasible/infeasible boxes; report
                   feasible fraction, per-rule kill counts, and per-dimension
                   feasibility intervals. O(boxes), never O(points).
  --agree          with --analyze: exhaustively cross-check the partition
                   against pointwise lint at every grid point (CI gate);
                   any disagreement exits 1
  --explain POINT  classify one machine-config id (e.g. "high|64M:512K|
                   2.0GHz|512b|8ch-DDR4-2666|64c") and print the violated
                   rule ids, one per line
  --extended       run the grid modes on the ~2.9M-point extended grid
                   (SpaceAxes::extended()) instead of the paper's 864
  --budget-s SEC   exit 1 if --analyze takes longer than SEC seconds
                   (CI perf tripwire for the O(boxes) claim)

Options:
  -q               suppress per-violation output (summary + exit status only)
  --help           print this message and exit
)";

int usage_error() {
  std::fputs(kUsage, stderr);
  return 2;
}

struct LintStats {
  std::size_t subjects = 0;
  std::vector<Violation> violations;
  bool quiet = false;

  void merge(std::vector<Violation> v, const char* where) {
    for (auto& violation : v) {
      if (!quiet)
        std::fprintf(stderr, "%s: %s\n", where, violation.str().c_str());
      violations.push_back(std::move(violation));
    }
  }
};

void lint_config(const musa::core::MachineConfig& config, const char* where,
                 LintStats& stats) {
  ++stats.subjects;
  stats.merge(musa::verify::check_machine(config), where);
}

void lint_presets(LintStats& stats) {
  using namespace musa;
  for (const auto& core : cpusim::core_presets()) {
    ++stats.subjects;
    stats.merge(verify::core_rules().check(core, core.label), "preset");
  }
  for (const auto& label : core::ConfigSpace::cache_labels())
    for (int cores : core::ConfigSpace::core_counts()) {
      core::MachineConfig c;
      c.cache_label = label;
      c.cores = cores;
      ++stats.subjects;
      stats.merge(verify::hierarchy_rules().check(
                      c.cache_config(cores),
                      label + "@" + std::to_string(cores) + "c"),
                  "preset");
    }
  for (auto tech :
       {dramsim::MemTech::kDdr4_2333, dramsim::MemTech::kDdr4_2666,
        dramsim::MemTech::kLpddr4_3200, dramsim::MemTech::kWideIo2,
        dramsim::MemTech::kHbm2}) {
    ++stats.subjects;
    const dramsim::DramTiming t = dramsim::timing_for(tech);
    stats.merge(verify::dram_rules().check(t, t.name), "preset");
  }
}

void lint_space(LintStats& stats) {
  using namespace musa;
  for (const auto& config : core::ConfigSpace::full_space())
    lint_config(config, "space", stats);
  for (const char* app : {"spmz", "lulesh"})
    for (const auto& [label, config] : core::ConfigSpace::unconventional(app))
      lint_config(config, ("table2 " + label).c_str(), stats);
}

/// Shared row lint for caches and journal entries: parse, then config rules,
/// then result invariants.
void lint_row(const std::vector<std::string>& row, const std::string& where,
              LintStats& stats) {
  ++stats.subjects;
  musa::core::SimResult r;
  try {
    r = musa::core::DseEngine::from_row(row);
  } catch (const musa::SimError& e) {
    stats.merge({{"row.parse", "row", e.what()}}, where.c_str());
    return;
  }
  stats.merge(musa::verify::check_machine(r.config), where.c_str());
  stats.merge(musa::verify::check_result(r), where.c_str());
}

int lint_cache(const std::string& path, LintStats& stats) {
  using namespace musa;
  CsvDoc doc;
  try {
    doc = CsvDoc::load(path);
  } catch (const SimError& e) {
    std::fprintf(stderr, "dse_lint: %s\n", e.what());
    return 2;
  }
  if (doc.header() != core::DseEngine::csv_header()) {
    stats.merge({{"cache.schema", path,
                  "header does not match the DSE result schema"}},
                path.c_str());
    return 0;
  }
  for (std::size_t i = 0; i < doc.rows().size(); ++i)
    lint_row(doc.rows()[i], path + ":" + std::to_string(i + 2), stats);
  return 0;
}

int lint_journal(const std::string& path, LintStats& stats) {
  using namespace musa;
  if (!CsvDoc::file_exists(path)) {
    std::fprintf(stderr, "dse_lint: no such journal: %s\n", path.c_str());
    return 2;
  }
  const ResultJournal::LoadResult lr =
      ResultJournal::read(path, core::DseEngine::csv_header());
  if (lr.schema_mismatch) {
    stats.merge({{"journal.schema", path,
                  "journal header does not match the DSE result schema"}},
                path.c_str());
    return 0;
  }
  if (lr.dropped > 0)
    stats.merge({{"journal.corrupt", path,
                  std::to_string(lr.dropped) +
                      " record(s) failed their checksum (crash damage)"}},
                path.c_str());
  std::string counts = std::to_string(lr.entries.size()) + " point(s)";
  if (!lr.fails.empty())
    counts += ", " + std::to_string(lr.fails.size()) + " quarantined";
  if (!lr.leases.empty())
    counts += ", " + std::to_string(lr.leases.size()) + " lease record(s)";
  std::printf("dse_lint: %s: %s\n", path.c_str(), counts.c_str());
  // Quarantine (FAIL) rows: informational, not violations by themselves —
  // containment working as designed — but an unknown error class means a
  // writer/reader version skew and is flagged.
  for (const auto& [key, fail] : lr.fails) {
    ++stats.subjects;
    const std::string cls = fail.error_class;
    if (musa::error_class_name(musa::error_class_from_name(cls)) != cls)
      stats.merge({{"journal.fail-class", key,
                    "unknown quarantine error class \"" + cls + "\""}},
                  path.c_str());
    if (!stats.quiet)
      std::printf("  FAIL %s: class=%s stage=%s attempts=%d %s\n",
                  key.c_str(), cls.c_str(),
                  fail.stage.empty() ? "unknown" : fail.stage.c_str(),
                  fail.attempts, fail.message.c_str());
  }
  // Lease records (elastic controller audit trail, DESIGN.md §7h) must
  // reconcile: a chunk a lease touched but nothing committed, or an event
  // name outside the known vocabulary (writer/reader version skew, the
  // same policy as quarantine error classes), exits 1.
  for (const auto& lease : lr.leases) {
    ++stats.subjects;
    if (!stats.quiet)
      std::printf("  LEASE %-10s chunk=%-3d worker=%-3d [%llu,%llu)%s%s\n",
                  lease.event.c_str(), lease.chunk, lease.worker,
                  static_cast<unsigned long long>(lease.begin),
                  static_cast<unsigned long long>(lease.end),
                  lease.detail.empty() ? "" : " ", lease.detail.c_str());
  }
  if (!lr.leases.empty()) {
    const LeaseAccounting acc = reconcile_leases(lr.leases);
    std::string events;
    for (const auto& [event, n] : acc.counts)
      events += (events.empty() ? "" : ", ") + std::to_string(n) + " " + event;
    std::printf("lease accounting: %s -> %s\n", events.c_str(),
                acc.ok() ? "OK" : "BAD");
    for (const auto& event : acc.unknown)
      stats.merge({{"journal.lease-event", event,
                    "unknown lease event (writer/reader version skew)"}},
                  path.c_str());
    for (int c : acc.unaccounted)
      stats.merge({{"journal.lease-unaccounted", "chunk " + std::to_string(c),
                    "touched by a lease but never committed"}},
                  path.c_str());
  }
  for (const auto& [key, row] : lr.entries)
    lint_row(row, path + "[" + key + "]", stats);
  return 0;
}

void print_rules() {
  using namespace musa;
  const auto dump = [](const char* set, const auto& rules) {
    std::printf("%s:\n", set);
    for (const auto& rule : rules.rules())
      std::printf("  %-26s %s\n", rule.id.c_str(), rule.summary.c_str());
  };
  dump("core (cpusim::CoreConfig)", verify::core_rules());
  dump("cache (cachesim::HierarchyConfig)", verify::hierarchy_rules());
  dump("dram (dramsim::DramTiming)", verify::dram_rules());
  dump("machine (core::MachineConfig)", verify::machine_rules());
  dump("result (core::SimResult)", verify::result_rules());
}

/// --analyze: box partition of the grid, printed rule-by-rule and
/// dimension-by-dimension. Returns the process exit code.
int run_analyze(const musa::core::SpaceAxes& axes, const char* space_name,
                bool agree, double budget_s, bool quiet) {
  using namespace musa;
  const verify::AnalysisReport report = verify::analyze(axes);

  std::printf("dse_lint --analyze: %s space\n", space_name);
  std::printf("  points    %llu total, %llu feasible (%.4f of space)\n",
              static_cast<unsigned long long>(report.total_points),
              static_cast<unsigned long long>(report.feasible_points),
              report.feasible_fraction());
  std::printf("  boxes     %zu leaves (%llu classified) in %.3f s\n",
              report.boxes.size(),
              static_cast<unsigned long long>(report.boxes_classified),
              report.wall_s);
  std::printf("  kill counts (points per first-violated rule):\n");
  for (const auto& [rule, count] : report.kill_counts)
    if (count > 0 || !quiet)
      std::printf("    %-26s %llu\n", rule.c_str(),
                  static_cast<unsigned long long>(count));
  std::printf("  per-dimension feasible values:\n");
  for (int d = 0; d < core::SpaceAxes::kDims; ++d) {
    std::string live, dead;
    for (int i = 0; i < axes.dim_size(d); ++i) {
      std::string& dst = report.dim_feasible[d][i] ? live : dead;
      if (!dst.empty()) dst += " ";
      dst += axes.value_name(d, i);
    }
    std::printf("    %-9s %s%s%s\n", axes.dim_name(d),
                live.empty() ? "(none)" : live.c_str(),
                dead.empty() ? "" : "  | infeasible: ",
                dead.c_str());
  }

  int rc = 0;
  if (budget_s > 0.0 && report.wall_s > budget_s) {
    std::fprintf(stderr,
                 "dse_lint: analysis took %.3f s, over the %.3f s budget\n",
                 report.wall_s, budget_s);
    rc = 1;
  }
  if (agree) {
    const verify::AgreementReport ag = verify::check_agreement(axes, report);
    std::printf("  agreement %llu point(s) cross-checked, %llu "
                "disagreement(s)\n",
                static_cast<unsigned long long>(ag.points),
                static_cast<unsigned long long>(ag.disagreements));
    for (const auto& ex : ag.examples)
      std::fprintf(stderr, "  disagree: %s\n", ex.c_str());
    if (ag.disagreements > 0) rc = 1;
  }
  return rc;
}

/// --explain POINT: pointwise classification of one config id, with the
/// violated rule ids on their own lines (machine-readable, diffable against
/// --analyze kill counts).
int run_explain(const std::string& point) {
  using namespace musa;
  core::MachineConfig config;
  try {
    config = core::MachineConfig::parse_id(point);
  } catch (const SimError& e) {
    std::fprintf(stderr, "dse_lint: --explain: %s\n", e.what());
    return 2;
  }
  const std::vector<Violation> violations = verify::check_machine(config);
  if (violations.empty()) {
    std::printf("%s: FEASIBLE (all %zu rules satisfied)\n",
                config.id().c_str(), verify::machine_rule_ids().size());
    return 0;
  }
  std::printf("%s: INFEASIBLE (%zu rule(s) violated)\n", config.id().c_str(),
              violations.size());
  for (const auto& v : violations)
    std::printf("  %-26s %s\n", v.rule.c_str(), v.detail.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool presets = false, space = false, rules = false, quiet = false;
  bool analyze = false, agree = false, extended = false;
  double budget_s = 0.0;
  std::string explain_point;
  std::vector<std::string> caches, journals;
  for (int a = 1; a < argc; ++a) {
    const char* arg = argv[a];
    if (std::strcmp(arg, "--help") == 0) {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (std::strcmp(arg, "--presets") == 0) {
      presets = true;
    } else if (std::strcmp(arg, "--space") == 0) {
      space = true;
    } else if (std::strcmp(arg, "--rules") == 0) {
      rules = true;
    } else if (std::strcmp(arg, "--analyze") == 0) {
      analyze = true;
    } else if (std::strcmp(arg, "--agree") == 0) {
      agree = true;
    } else if (std::strcmp(arg, "--extended") == 0) {
      extended = true;
    } else if (std::strcmp(arg, "-q") == 0) {
      quiet = true;
    } else if (std::strcmp(arg, "--cache") == 0 && a + 1 < argc) {
      caches.emplace_back(argv[++a]);
    } else if (std::strcmp(arg, "--journal") == 0 && a + 1 < argc) {
      journals.emplace_back(argv[++a]);
    } else if (std::strcmp(arg, "--explain") == 0 && a + 1 < argc) {
      explain_point = argv[++a];
    } else if (std::strcmp(arg, "--budget-s") == 0 && a + 1 < argc) {
      char* end = nullptr;
      budget_s = std::strtod(argv[++a], &end);
      if (end == argv[a] || *end != '\0' || budget_s <= 0.0)
        return usage_error();
    } else {
      return usage_error();
    }
  }
  if ((agree || extended || budget_s > 0.0) && !analyze &&
      explain_point.empty())
    return usage_error();

  try {
    if (rules) {
      print_rules();
      return 0;
    }
    if (!explain_point.empty()) return run_explain(explain_point);
    if (analyze) {
      const musa::core::SpaceAxes axes = extended
                                             ? musa::core::SpaceAxes::extended()
                                             : musa::core::SpaceAxes::paper();
      return run_analyze(axes, extended ? "extended" : "paper", agree,
                         budget_s, quiet);
    }
  } catch (const musa::SimError& e) {
    std::fprintf(stderr, "dse_lint: %s\n", e.what());
    return 2;
  }

  if (!presets && !space && caches.empty() && journals.empty()) {
    presets = space = true;
    const std::string default_cache = musa::bench::dse_cache_path();
    if (musa::CsvDoc::file_exists(default_cache))
      caches.push_back(default_cache);
  }

  LintStats stats;
  stats.quiet = quiet;
  try {
    if (presets) lint_presets(stats);
    if (space) lint_space(stats);
    for (const auto& path : caches)
      if (int rc = lint_cache(path, stats); rc != 0) return rc;
    for (const auto& path : journals)
      if (int rc = lint_journal(path, stats); rc != 0) return rc;
  } catch (const musa::SimError& e) {
    std::fprintf(stderr, "dse_lint: %s\n", e.what());
    return 2;
  }

  std::printf("dse_lint: %zu subject(s) checked, %zu violation(s)\n",
              stats.subjects, stats.violations.size());
  if (!stats.violations.empty()) {
    // Per-rule tally keyed on the stable rule ids — the same vocabulary
    // --analyze reports kill counts in, so the two outputs diff directly.
    std::map<std::string, std::size_t> by_rule;
    for (const auto& v : stats.violations) ++by_rule[v.rule];
    for (const auto& [rule, count] : by_rule)
      std::printf("  %-26s %zu\n", rule.c_str(), count);
  }
  return stats.violations.empty() ? 0 : 1;
}
