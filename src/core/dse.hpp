// Design-space-exploration engine (paper §IV/§V-B).
//
// Runs the full 864-configuration × 5-application sweep through the MUSA
// pipeline as a *resumable* job: every completed point is appended to a
// crash-safe journal (common/journal.hpp) keyed by (app, config-id), so a
// killed sweep resumes exactly where it stopped instead of restarting all
// 4320 points, and the final CSV cache is written atomically only once the
// point set is complete. Sibling journals next to the cache (the elastic
// workers' `<cache>.worker-N.journal`, src/sweep) merge into the same cache
// the moment the union covers the plan. Missing points run as one job on a
// core::PointScheduler (core/scheduler.hpp).
//
// Figures 5–10 all normalise over the same sweep, using the paper's
// methodology: every simulation is divided by the simulation sharing *all
// other* architectural parameters but holding the swept parameter at its
// baseline value; bars report the mean (and stddev) of those ratios — 96
// samples per bar at the paper's grid.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/journal.hpp"
#include "core/config_space.hpp"
#include "core/pipeline.hpp"

namespace musa::core {

/// Extracts the plotted quantity from one simulation result.
using MetricFn = std::function<double(const SimResult&)>;

/// A metric plus the guard the power figures need: HBM2 points carry
/// dram_power_known == false (the paper has no vendor power data, §V-D), so
/// any power- or energy-derived metric must skip them — folding a
/// partial node_w into a normalised ratio would silently skew every bar
/// that mixes memory technologies.
class Metric {
 public:
  Metric(MetricFn fn, bool needs_power = false)  // NOLINT: implicit by design
      : fn_(std::move(fn)), needs_power_(needs_power) {}

  double operator()(const SimResult& r) const { return fn_(r); }

  /// True if the metric reads power/energy fields; samples with
  /// dram_power_known == false are excluded from aggregation.
  bool needs_power() const { return needs_power_; }

  /// Whether `r` may contribute to an aggregate of this metric.
  bool admits(const SimResult& r) const {
    return !needs_power_ || r.dram_power_known;
  }

 private:
  MetricFn fn_;
  bool needs_power_;
};

/// Canonical metrics for the figure reproductions.
namespace metrics {
inline const Metric region_time{
    [](const SimResult& r) { return r.region_seconds; }};
inline const Metric wall_time{
    [](const SimResult& r) { return r.wall_seconds; }};
inline const Metric node_power{[](const SimResult& r) { return r.node_w; },
                               /*needs_power=*/true};
inline const Metric region_energy{
    [](const SimResult& r) { return r.node_w * r.region_seconds; },
    /*needs_power=*/true};
}  // namespace metrics

struct NormStat {
  double mean = 0.0;
  double sd = 0.0;
  int n = 0;
};

/// How a sweep is executed. Defaults reproduce the paper's full grid in one
/// process; multi-process runs go through the elastic controller
/// (src/sweep), whose worker journals merge into the same cache.
struct SweepOptions {
  bool verbose = true;  // progress / repair warnings on stderr

  /// Cross-layer verification (src/verify): every config in the plan is
  /// linted before any simulation runs, every freshly computed point is
  /// checked against the physical-consistency invariants (violations throw
  /// SimError naming the point), and cache/journal rows that violate them
  /// are dropped and recomputed like any other corrupt record. Off =
  /// `run_dse --no-verify`, for perf experiments only.
  bool verify = true;

  /// Cross-point stage memoization (core/stage_memo.hpp): all workers share
  /// one StageMemo, so the burst pre-pass, kernel streams, warm-up cache
  /// states, perfect-memory runs and region/trace generation are computed
  /// once per distinct input instead of once per point. Results are
  /// bit-identical either way; `run_dse --no-memo` turns it off to bisect
  /// a suspected staleness bug (DESIGN.md explains the argument).
  bool memoize = true;

  /// Failure containment (DESIGN.md "Failure model"). By default a point
  /// that throws is *quarantined*: journaled as a checksummed FAIL row
  /// carrying {error class, stage, attempts, message}, and the sweep keeps
  /// going — one pathological point must not discard thousands of healthy
  /// ones. `fail_fast` (run_dse --strict) restores the old behaviour: the
  /// first failure stops the sweep's scheduler job and rethrows.
  bool fail_fast = false;

  /// Re-run points with a FAIL row. Off, a quarantined point counts as
  /// "known" on resume (the sweep does not retry it run after run); on
  /// (run_dse --retry-failed), exactly the quarantined points recompute.
  bool retry_failed = false;

  /// Wall-clock budget per point in seconds (0 = unlimited). Enforced by
  /// the cooperative watchdog (common/deadline.hpp): a point that exceeds
  /// it throws SimError{timeout} from a hot-loop poll and quarantines.
  double point_timeout_s = 0.0;

  /// Retry policy for *transient* failures: an `io`-class error is retried
  /// up to max_io_attempts times with exponential backoff before the point
  /// quarantines. Deterministic classes (model, invariant, config, timeout,
  /// injected) never retry — the same inputs would fail the same way.
  int max_io_attempts = 3;
  double retry_backoff_s = 0.05;

  /// Test hooks: restrict the plan to these configs / app names
  /// (empty → the `axes` grid / every registry app).
  std::vector<MachineConfig> configs;
  std::vector<std::string> apps;

  /// Grid description of the config plan, used when `configs` is empty
  /// (unset → SpaceAxes::paper()). Plan construction runs the static space
  /// analyzer (verify/space_analysis.hpp) instead of linting per point: the
  /// grid is partitioned into feasible/infeasible boxes in O(boxes · rules),
  /// statically-infeasible boxes are excluded from the plan wholesale
  /// (SweepReport::statically_skipped counts their points), and the
  /// surviving points skip the per-point lint entirely — their boxes are
  /// *proved* feasible. Plan order is the grid's row-major enumeration.
  /// When `verify` is off the analyzer does not run (it exists to enforce
  /// the rules): the described grid is swept in full, every point unlinted.
  std::optional<SpaceAxes> axes;
};

/// The enumerated sweep plan: app-major over (apps × configs), the same
/// layout DseEngine::results() uses. Public because the elastic sweep
/// controller and its workers (src/sweep) must agree with the engine on the
/// exact point enumeration — both sides build it independently from the
/// same SweepOptions, and the journal keys line up by construction.
struct SweepPlan {
  std::vector<const apps::AppModel*> app_list;
  std::vector<MachineConfig> configs;
  std::vector<std::string> keys;  // point_key per plan index
  bool statically_verified = false;  // configs proved feasible box-wise
  std::uint64_t statically_skipped = 0;  // grid points the analyzer cut
  std::uint64_t analysis_boxes = 0;      // boxes it classified doing so

  std::uint64_t size() const { return keys.size(); }
  const apps::AppModel& app_of(std::uint64_t i) const {
    return *app_list[i / configs.size()];
  }
  const MachineConfig& config_of(std::uint64_t i) const {
    return configs[i % configs.size()];
  }
};

/// Builds the plan a sweep with `options` would run: explicit configs/apps
/// when given, otherwise the analyzer-filtered `options.axes` grid (the
/// paper's grid when unset). With `verify`, explicit configs are linted
/// here: the first one breaking a rule throws SimError{config}.
/// Deterministic — equal options produce an identical plan, which is what
/// makes independently-built controller and worker plans interchangeable.
SweepPlan make_sweep_plan(const SweepOptions& options);

/// One quarantined sweep point, for the post-sweep report.
struct QuarantinePoint {
  std::string key;          // "app|config-id"
  std::string error_class;  // error_class_name() of the final failure
  std::string stage;        // stage marker at failure ("" when unknown)
  int attempts = 0;         // attempts consumed before quarantine
  std::string message;      // sanitised exception text
};

/// What one sweep() call did — the engine's observability surface.
struct SweepReport {
  std::uint64_t total = 0;         // points in the full plan
  std::uint64_t resumed = 0;       // points already in cache/journals
  std::uint64_t computed = 0;      // points simulated successfully this call
  std::uint64_t dropped = 0;       // corrupt journal records discarded
  std::uint64_t invalid = 0;       // loaded rows failing invariant checks
  std::uint64_t quarantined = 0;   // points with a FAIL row after this call
  std::uint64_t retries = 0;       // extra attempts spent on io-class errors
  std::uint64_t statically_skipped = 0;  // grid points excluded by the
                                         // static space analyzer
  std::uint64_t analysis_boxes = 0;      // boxes the analyzer classified
  bool finalized = false;          // cache CSV written (plan fully covered)
  int workers = 0;                 // scheduler threads the compute phase used
  double wall_s = 0.0;             // wall time of the compute phase
  StageTimes stages;               // per-stage wall time of computed points
  MemoStats memo;                  // shared-memo hit/miss counters
  std::vector<QuarantinePoint> quarantine;  // sorted by key
};

/// Where a sweep of a plan stands before anything computes: what the cache
/// and every journal beside it already answer.
struct ResumeState {
  /// The engine journal "<cache>.journal", seeded with every row a partial
  /// cache salvages. Null when the cache alone covers the plan exactly.
  std::unique_ptr<ResultJournal> journal;
  ResultJournal::Entries known;  // good rows, all journals, invariant-clean
  ResultJournal::Fails fails;    // FAIL rows no journal has a good row for
  std::vector<std::uint64_t> missing;  // plan indices left to compute
  std::uint64_t quarantined = 0;  // FAIL keys skipped (not retry_failed)
  std::uint64_t dropped = 0;      // corrupt journal records discarded
  std::uint64_t invalid = 0;      // rows failing the result invariants
};

class DseEngine {
 public:
  /// `cache_path`: CSV file for result caching ("" disables caching and
  /// journaling).
  DseEngine(Pipeline& pipeline, std::string cache_path,
            SweepOptions options = {});

  /// Sweep results, computed on first use (or loaded from the cache file).
  /// Throws if quarantined points keep the plan from being fully covered.
  const std::vector<SimResult>& results();

  /// Ensures every plan point exists, resuming from the journals and a
  /// (possibly partial) cache: a truncated or under-sampled cache is
  /// detected, warned about, and repaired by recomputing exactly the
  /// missing points. With `force`, cache and journals are deleted first.
  /// Finalizes (atomically writes the cache, removes journals) as soon as
  /// the union of cache + all sibling journals covers the whole plan.
  SweepReport sweep(bool force = false);

  /// Deletes the cache file and every journal belonging to it.
  void clear_cache();

  /// Resume state of `plan`: a complete cache fills results() and removes
  /// stale journals; otherwise the cache's valid rows seed the engine
  /// journal, sibling journals (elastic workers') merge in, a good row
  /// beats a FAIL row, and invariant-violating rows are dropped so their
  /// points compute again. sweep() computes `missing`; the elastic
  /// controller (src/sweep) leases it.
  ResumeState resume(const SweepPlan& plan);

  /// Report of the most recent sweep() (empty before the first one).
  const SweepReport& report() const { return report_; }

  /// Journal key of one sweep point: "app|config-id".
  static std::string point_key(const std::string& app,
                               const MachineConfig& config);

  /// CSV/journal schema and row codecs (exact string round-trip:
  /// from_row(to_row(r)) reproduces every field).
  static std::vector<std::string> csv_header();
  static std::vector<std::string> to_row(const SimResult& r);
  static SimResult from_row(const std::vector<std::string>& row);

  /// Value of a config along one sweep dimension, e.g. dimension "vector"
  /// → "512b". Dimensions: core, cache, freq, vector, channels, cores.
  static std::string dimension_value(const MachineConfig& config,
                                     const std::string& dimension);

  /// Paper-style normalised average for one bar of a figure:
  /// mean over all configuration pairs (app, cores panel fixed) of
  /// metric(config with dimension=value) / metric(partner with
  /// dimension=baseline). Points the metric does not admit (unknown DRAM
  /// power under a power/energy metric) are skipped.
  NormStat normalized_ratio(const std::string& app, int cores,
                            const std::string& dimension,
                            const std::string& value,
                            const std::string& baseline,
                            const Metric& metric);

  /// Average of a metric over all sweep points matching (app, cores, and
  /// dimension=value); used for absolute quantities such as power splits.
  NormStat average(const std::string& app, int cores,
                   const std::string& dimension, const std::string& value,
                   const Metric& metric);

  /// Component-wise power-share average (Core+L1 / L2+L3 / Memory),
  /// normalised to the baseline dimension value's total power. Points with
  /// unknown DRAM power are skipped on both sides of the ratio.
  struct PowerSplit {
    double core_l1 = 0.0, l2_l3 = 0.0, dram = 0.0;
  };
  PowerSplit power_split(const std::string& app, int cores,
                         const std::string& dimension,
                         const std::string& value,
                         const std::string& baseline);

 private:
  void ensure_results();

  /// Tries to load `cache_path_` as a complete, exactly-covering result
  /// set; on success fills results_ (plan order) and returns true. On any
  /// mismatch (missing/duplicate/foreign rows, unparsable rows) salvages
  /// what is valid into `salvage` and returns false.
  bool load_cache(const SweepPlan& plan,
                  std::vector<std::pair<std::string,
                                        std::vector<std::string>>>* salvage,
                  std::size_t* invalid_out = nullptr);

  /// Rows and FAIL records of `journal` plus every sibling journal, good
  /// beating FAIL, invariant-violating rows dropped. Counts corrupt sibling
  /// records and dropped rows into `state` when `count` is set.
  void merge_journals(const ResultJournal& journal, ResumeState* state,
                      bool count) const;

  Pipeline& pipeline_;
  std::string cache_path_;
  SweepOptions options_;
  std::vector<SimResult> results_;
  SweepReport report_;
  bool ready_ = false;
};

}  // namespace musa::core
