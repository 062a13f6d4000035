#include "core/dse.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "common/check.hpp"
#include "common/csv.hpp"
#include "common/journal.hpp"
#include "common/parallel.hpp"
#include "common/progress.hpp"
#include "common/stats.hpp"
#include "core/point_runner.hpp"
#include "core/scheduler.hpp"
#include "verify/config_rules.hpp"
#include "verify/faultpoint.hpp"
#include "verify/invariants.hpp"
#include "verify/space_analysis.hpp"

namespace musa::core {

namespace {
std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}
double num(const std::string& s) { return std::strtod(s.c_str(), nullptr); }
}  // namespace

DseEngine::DseEngine(Pipeline& pipeline, std::string cache_path,
                     SweepOptions options)
    : pipeline_(pipeline),
      cache_path_(std::move(cache_path)),
      options_(std::move(options)) {}

std::vector<std::string> DseEngine::csv_header() {
  return {"app",        "core",      "cache",     "freq_ghz", "vector_bits",
          "channels",   "tech",      "cores",     "ranks",    "region_s",
          "wall_s",     "ipc",       "concurrency", "busy_frac",
          "contention", "mpki_l1",   "mpki_l2",   "mpki_l3",  "gmem_req_s",
          "mem_gbps",   "core_l1_w", "l2_l3_w",   "dram_w",   "dram_known",
          "node_w",     "energy_j"};
}

std::vector<std::string> DseEngine::to_row(const SimResult& r) {
  return {r.app,
          r.config.core.label,
          r.config.cache_label,
          fmt(r.config.freq_ghz),
          std::to_string(r.config.vector_bits),
          std::to_string(r.config.mem_channels),
          dramsim::mem_tech_name(r.config.mem_tech),
          std::to_string(r.config.cores),
          std::to_string(r.config.ranks),
          fmt(r.region_seconds),
          fmt(r.wall_seconds),
          fmt(r.ipc),
          fmt(r.avg_concurrency),
          fmt(r.busy_fraction),
          fmt(r.contention_factor),
          fmt(r.mpki_l1),
          fmt(r.mpki_l2),
          fmt(r.mpki_l3),
          fmt(r.gmem_req_s),
          fmt(r.mem_gbps),
          fmt(r.core_l1_w),
          fmt(r.l2_l3_w),
          fmt(r.dram_w),
          r.dram_power_known ? "1" : "0",
          fmt(r.node_w),
          fmt(r.energy_j)};
}

SimResult DseEngine::from_row(const std::vector<std::string>& row) {
  MUSA_CHECK_MSG(row.size() == csv_header().size(),
                 "cached result row has wrong width");
  SimResult r;
  std::size_t i = 0;
  r.app = row[i++];
  const std::string core_label = row[i++];
  bool found = false;
  for (const auto& preset : cpusim::core_presets())
    if (preset.label == core_label) {
      r.config.core = preset;
      found = true;
    }
  MUSA_CHECK_MSG(found, "cached result has unknown core: " + core_label);
  r.config.cache_label = row[i++];
  r.config.freq_ghz = num(row[i++]);
  r.config.vector_bits = static_cast<int>(num(row[i++]));
  r.config.mem_channels = static_cast<int>(num(row[i++]));
  const std::string tech = row[i++];
  bool tech_found = false;
  for (auto t : {dramsim::MemTech::kDdr4_2333, dramsim::MemTech::kDdr4_2666,
                 dramsim::MemTech::kLpddr4_3200, dramsim::MemTech::kWideIo2,
                 dramsim::MemTech::kHbm2})
    if (tech == dramsim::mem_tech_name(t)) {
      r.config.mem_tech = t;
      tech_found = true;
    }
  MUSA_CHECK_MSG(tech_found, "cached result has unknown memory tech: " + tech);
  r.config.cores = static_cast<int>(num(row[i++]));
  r.config.ranks = static_cast<int>(num(row[i++]));
  r.region_seconds = num(row[i++]);
  r.wall_seconds = num(row[i++]);
  r.ipc = num(row[i++]);
  r.avg_concurrency = num(row[i++]);
  r.busy_fraction = num(row[i++]);
  r.contention_factor = num(row[i++]);
  r.mpki_l1 = num(row[i++]);
  r.mpki_l2 = num(row[i++]);
  r.mpki_l3 = num(row[i++]);
  r.gmem_req_s = num(row[i++]);
  r.mem_gbps = num(row[i++]);
  r.core_l1_w = num(row[i++]);
  r.l2_l3_w = num(row[i++]);
  r.dram_w = num(row[i++]);
  r.dram_power_known = row[i++] == "1";
  r.node_w = num(row[i++]);
  r.energy_j = num(row[i++]);
  return r;
}

std::string DseEngine::point_key(const std::string& app,
                                 const MachineConfig& config) {
  return app + "|" + config.id();
}

SweepPlan make_sweep_plan(const SweepOptions& options) {
  SweepPlan plan;
  if (options.apps.empty()) {
    for (const auto& app : apps::registry()) plan.app_list.push_back(&app);
  } else {
    for (const auto& name : options.apps)
      plan.app_list.push_back(&apps::find_app(name));
  }
  if (!options.configs.empty()) {
    plan.configs = options.configs;
    // Lint before anything simulates or queues; analyzer-built plans below
    // need no lint: their boxes are *proved* feasible.
    if (options.verify)
      for (const auto& config : plan.configs) verify::validate_machine(config);
  } else {
    const SpaceAxes axes = options.axes ? *options.axes : SpaceAxes::paper();
    if (options.verify) {
      // Static space analysis instead of per-point lint: classify the grid
      // box-wise, drop infeasible boxes wholesale, and enumerate only the
      // feasible points, in row-major grid order.
      const verify::AnalysisReport analysis = verify::analyze(axes);
      plan.configs.reserve(
          static_cast<std::size_t>(analysis.feasible_points));
      for (std::uint64_t linear : verify::feasible_indices(axes, analysis))
        plan.configs.push_back(axes.config_at(linear));
      plan.statically_verified = true;
      plan.statically_skipped =
          analysis.total_points - analysis.feasible_points;
      plan.analysis_boxes = analysis.boxes_classified;
      if (options.verbose && plan.statically_skipped > 0)
        std::fprintf(
            stderr,
            "[dse] static space analysis: %llu of %llu grid point(s) "
            "infeasible, skipped without simulation (%llu boxes)\n",
            static_cast<unsigned long long>(analysis.total_points -
                                            analysis.feasible_points),
            static_cast<unsigned long long>(analysis.total_points),
            static_cast<unsigned long long>(analysis.boxes_classified));
    } else {
      // --no-verify: the grid description still defines the plan; every
      // point is swept unlinted, feasible or not.
      plan.configs.reserve(static_cast<std::size_t>(axes.points()));
      for (std::uint64_t linear = 0; linear < axes.points(); ++linear)
        plan.configs.push_back(axes.config_at(linear));
    }
  }
  MUSA_CHECK_MSG(!plan.app_list.empty() && !plan.configs.empty(),
                 "empty sweep plan");
  plan.keys.reserve(plan.app_list.size() * plan.configs.size());
  for (const auto* app : plan.app_list)
    for (const auto& config : plan.configs)
      plan.keys.push_back(DseEngine::point_key(app->name, config));
  return plan;
}

bool DseEngine::load_cache(
    const SweepPlan& plan,
    std::vector<std::pair<std::string, std::vector<std::string>>>* salvage,
    std::size_t* invalid_out) {
  // Tolerant parse: a kill -9 during a non-atomic write (e.g. an external
  // tool touched the file) can leave a truncated last line. Salvage every
  // intact row rather than discarding hours of results over one bad line.
  CsvDoc doc;
  std::size_t bad = 0;
  try {
    doc = CsvDoc::load_tolerant(cache_path_, &bad);
  } catch (const SimError& e) {
    if (options_.verbose)
      std::fprintf(stderr, "[dse] unreadable cache %s (%s); rebuilding\n",
                   cache_path_.c_str(), e.what());
    return false;
  }
  // A different schema is a deliberate code change, not crash damage:
  // refuse loudly rather than recompute hours of results behind the
  // caller's back.
  MUSA_CHECK_MSG(doc.header() == csv_header(),
                 "stale DSE cache (schema changed): delete " + cache_path_);

  std::unordered_map<std::string, std::uint64_t> index_of;
  index_of.reserve(plan.size());
  for (std::uint64_t i = 0; i < plan.size(); ++i) index_of[plan.keys[i]] = i;

  std::vector<SimResult> parsed(plan.size());
  std::vector<char> seen(plan.size(), 0);
  std::size_t valid = 0, foreign = 0, duplicate = 0, invalid = 0;
  for (const auto& row : doc.rows()) {
    SimResult r;
    try {
      r = from_row(row);
    } catch (const SimError&) {
      ++bad;
      continue;
    }
    // A parsable row that breaks the result invariants (negative energy,
    // NaN IPC, super-peak bandwidth, ...) is corruption or a stale model:
    // drop it like a checksum failure so the point is recomputed.
    if (options_.verify && !verify::check_result(r).empty()) {
      ++invalid;
      continue;
    }
    const auto it = index_of.find(point_key(r.app, r.config));
    if (it == index_of.end()) {
      ++foreign;
      continue;
    }
    if (seen[it->second]) {
      ++duplicate;
      continue;
    }
    seen[it->second] = 1;
    parsed[it->second] = std::move(r);
    ++valid;
    if (salvage) salvage->emplace_back(plan.keys[it->second], row);
  }

  if (invalid_out) *invalid_out = invalid;
  if (valid == plan.size() && bad == 0 && foreign == 0 && duplicate == 0 &&
      invalid == 0) {
    results_ = std::move(parsed);
    return true;
  }
  if (options_.verbose)
    std::fprintf(stderr,
                 "[dse] cache %s is incomplete: %zu/%llu points "
                 "(%zu unparsable, %zu foreign, %zu duplicate, "
                 "%zu invariant-violating rows); "
                 "resuming the missing points via the journal\n",
                 cache_path_.c_str(), valid,
                 static_cast<unsigned long long>(plan.size()), bad, foreign,
                 duplicate, invalid);
  return false;
}

SweepReport DseEngine::sweep(bool force) {
  if (force) {
    clear_cache();
    ready_ = false;
    results_.clear();
  }
  const SweepPlan plan = make_sweep_plan(options_);
  SweepReport rep;
  rep.statically_skipped = plan.statically_skipped;
  rep.analysis_boxes = plan.analysis_boxes;
  rep.total = plan.size();

  if (ready_) {
    rep.resumed = rep.total;
    rep.finalized = true;
    report_ = rep;
    return rep;
  }

  // Every simulation point is independent: the missing points run as one
  // job on the point scheduler, whose threads share one thread-safe
  // StageMemo (unless --no-memo), so cross-point-redundant stages are
  // computed once per distinct input.
  std::shared_ptr<StageMemo> memo;
  if (options_.memoize)
    memo = pipeline_.memo() ? pipeline_.memo()
                            : std::make_shared<StageMemo>(
                                  pipeline_options_fingerprint(
                                      pipeline_.options()));
  // Per-point containment (budget, verify, retry-with-jitter, quarantine)
  // lives in PointRunner — the same executor the elastic workers run, so
  // journal rows are byte-identical no matter which process computed them.
  PointRunner runner(plan, options_);

  const auto run_points = [&](const std::vector<std::uint64_t>& todo,
                              ResultJournal* journal) {
    if (todo.empty()) return;
    ProgressReporter progress("dse sweep", todo.size(), 2.0,
                              options_.verbose);
    const int threads = static_cast<int>(std::min<std::uint64_t>(
        std::max(1, default_thread_count()), todo.size()));
    const auto wall_t0 = std::chrono::steady_clock::now();
    PointScheduler scheduler(threads, pipeline_.options(), memo);
    // A point that cannot quarantine (--strict, or no journal) throws: the
    // job stops dispatching and wait() rethrows the first failure.
    scheduler.wait(scheduler.submit(
        todo.size(), 0, [&](Pipeline& local, std::uint64_t t) {
          runner.run(local, todo[t], journal,
                     journal ? nullptr : &results_[todo[t]]);
          progress.tick();
        }));
    rep.stages = scheduler.stage_times();
    rep.workers = threads;
    rep.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - wall_t0)
                     .count();
    rep.computed = runner.succeeded();
    rep.retries = runner.io_retries();
    if (memo) rep.memo = memo->stats();
  };

  if (cache_path_.empty()) {
    // Caching disabled: plain in-memory sweep.
    results_.assign(plan.size(), SimResult{});
    std::vector<std::uint64_t> all(plan.size());
    for (std::uint64_t i = 0; i < plan.size(); ++i) all[i] = i;
    run_points(all, nullptr);
    ready_ = true;
    rep.finalized = true;
    report_ = rep;
    return rep;
  }

  ResumeState state = resume(plan);
  rep.dropped = state.dropped;
  rep.invalid = state.invalid;
  if (!state.journal) {
    ready_ = true;
    rep.resumed = rep.total;
    rep.finalized = true;
    report_ = rep;
    return rep;
  }
  ResultJournal& journal = *state.journal;
  verify::arm_journal_corruption(journal);

  rep.resumed = rep.total - state.missing.size() - state.quarantined;
  if (options_.verbose && state.quarantined > 0)
    std::fprintf(stderr,
                 "[dse] skipping %llu quarantined point(s); rerun with "
                 "--retry-failed to retry them\n",
                 static_cast<unsigned long long>(state.quarantined));
  if (options_.verbose && rep.resumed > 0)
    std::fprintf(stderr,
                 "[dse] resuming: %llu of %llu points already journaled\n",
                 static_cast<unsigned long long>(rep.resumed),
                 static_cast<unsigned long long>(rep.total));

  run_points(state.missing, &journal);

  // Finalize the moment cache-worthy coverage exists: cache rows are
  // emitted in plan order from the journalled strings, so an interrupted
  // (or multi-process) sweep produces a byte-identical cache to an
  // uninterrupted one.
  merge_journals(journal, &state, /*count=*/false);
  const ResultJournal::Entries& known = state.known;
  const ResultJournal::Fails& fails = state.fails;

  // The quarantine set after this call, sorted for a stable report.
  rep.quarantined = fails.size();
  rep.quarantine.reserve(fails.size());
  for (const auto& [key, fail] : fails)
    rep.quarantine.push_back(
        {key, fail.error_class, fail.stage, fail.attempts, fail.message});
  std::sort(rep.quarantine.begin(), rep.quarantine.end(),
            [](const QuarantinePoint& a, const QuarantinePoint& b) {
              return a.key < b.key;
            });

  // Finalize only on *good* coverage: quarantined points keep the cache
  // unwritten (the journal carries the sweep's full state) so a later
  // --retry-failed run can still converge to a byte-identical cache.
  bool complete = true;
  for (const auto& key : plan.keys)
    if (known.find(key) == known.end()) {
      complete = false;
      break;
    }

  if (complete) {
    results_.assign(plan.size(), SimResult{});
    CsvDoc doc(csv_header());
    for (std::uint64_t i = 0; i < plan.size(); ++i) {
      const auto& row = known.at(plan.keys[i]);
      results_[i] = from_row(row);
      doc.add_row(row);
    }
    doc.save(cache_path_);
    journal.discard();
    for (const auto& path : find_journals(cache_path_))
      std::remove(path.c_str());
    ready_ = true;
    rep.finalized = true;
  } else if (options_.verbose) {
    std::fprintf(stderr,
                 "[dse] sweep incomplete: %llu point(s) quarantined "
                 "(%llu known of %llu total); cache not finalized\n",
                 static_cast<unsigned long long>(rep.quarantined),
                 static_cast<unsigned long long>(known.size()),
                 static_cast<unsigned long long>(plan.size()));
  }
  report_ = rep;
  return rep;
}

ResumeState DseEngine::resume(const SweepPlan& plan) {
  ResumeState state;
  std::vector<std::pair<std::string, std::vector<std::string>>> salvage;
  std::size_t cache_invalid = 0;
  if (CsvDoc::file_exists(cache_path_) &&
      load_cache(plan, &salvage, &cache_invalid)) {
    // A crash between cache finalize and journal cleanup can leave stale
    // journals behind; the complete cache supersedes them.
    for (const auto& path : find_journals(cache_path_))
      std::remove(path.c_str());
    return state;
  }
  state.invalid = cache_invalid;

  state.journal =
      std::make_unique<ResultJournal>(cache_path_ + ".journal", csv_header());
  ResultJournal& journal = *state.journal;
  state.dropped = journal.dropped_on_load();
  if (options_.verbose && journal.dropped_on_load() > 0)
    std::fprintf(stderr,
                 "[dse] journal %s: dropped %zu corrupt record(s) from a "
                 "previous crash\n",
                 journal.path().c_str(), journal.dropped_on_load());
  for (const auto& [key, row] : salvage)
    if (!journal.contains(key)) journal.append(key, row);

  merge_journals(journal, &state, /*count=*/true);
  for (std::uint64_t i = 0; i < plan.size(); ++i) {
    if (state.known.count(plan.keys[i]) != 0) continue;
    // A quarantined point is "known to fail": skip it on resume so a
    // deterministic failure is not re-simulated run after run — unless the
    // caller explicitly asked to retry the quarantine set.
    if (!options_.retry_failed && state.fails.count(plan.keys[i]) != 0) {
      ++state.quarantined;
      continue;
    }
    state.missing.push_back(i);
  }
  return state;
}

void DseEngine::merge_journals(const ResultJournal& journal,
                               ResumeState* state, bool count) const {
  state->known = journal.entries();
  state->fails = journal.fails();
  for (const auto& path : find_journals(cache_path_)) {
    if (path == journal.path()) continue;
    ResultJournal::LoadResult lr = ResultJournal::read(path, csv_header());
    if (lr.schema_mismatch) {
      if (options_.verbose && count)
        std::fprintf(stderr, "[dse] ignoring schema-mismatched journal %s\n",
                     path.c_str());
      continue;
    }
    if (count) state->dropped += lr.dropped;
    for (auto& [key, row] : lr.entries)
      state->known.emplace(key, std::move(row));
    for (auto& [key, fail] : lr.fails)
      state->fails.emplace(key, std::move(fail));
  }
  // Good beats FAIL across journals too: a point one journal quarantined
  // but a sibling later completed is not quarantined.
  for (auto it = state->fails.begin(); it != state->fails.end();)
    it = state->known.count(it->first) != 0 ? state->fails.erase(it) : ++it;

  // Journaled rows passed their checksum, but may still predate a model fix
  // or carry invariant-violating metrics: drop those so the points recompute
  // (appending under the same key supersedes the bad record).
  if (!options_.verify) return;
  for (auto it = state->known.begin(); it != state->known.end();) {
    bool ok;
    try {
      ok = verify::check_result(from_row(it->second)).empty();
    } catch (const SimError&) {
      ok = false;
    }
    if (ok) {
      ++it;
    } else {
      if (count) ++state->invalid;
      it = state->known.erase(it);
    }
  }
}

void DseEngine::clear_cache() {
  if (cache_path_.empty()) return;
  std::remove(cache_path_.c_str());
  for (const auto& path : find_journals(cache_path_))
    std::remove(path.c_str());
}

void DseEngine::ensure_results() {
  if (!ready_) sweep();
  if (!ready_)
    throw SimError("sweep results unavailable: " +
                       std::to_string(report_.quarantined) +
                       " point(s) are quarantined; inspect the quarantine "
                       "report and rerun with --retry-failed once the cause "
                       "is fixed",
                   ErrorClass::kModel);
}

const std::vector<SimResult>& DseEngine::results() {
  ensure_results();
  return results_;
}

std::string DseEngine::dimension_value(const MachineConfig& config,
                                       const std::string& dimension) {
  if (dimension == "core") return config.core.label;
  if (dimension == "cache") return config.cache_label;
  if (dimension == "freq") {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%.1fGHz", config.freq_ghz);
    return buf;
  }
  if (dimension == "vector") return std::to_string(config.vector_bits) + "b";
  if (dimension == "channels")
    return std::to_string(config.mem_channels) + "ch-" +
           dramsim::mem_tech_name(config.mem_tech);
  if (dimension == "cores") return std::to_string(config.cores) + "c";
  throw SimError("unknown sweep dimension: " + dimension);
}

NormStat DseEngine::normalized_ratio(const std::string& app, int cores,
                                     const std::string& dimension,
                                     const std::string& value,
                                     const std::string& baseline,
                                     const Metric& metric) {
  ensure_results();
  // Map normalisation partner key -> baseline metric value.
  std::unordered_map<std::string, double> base;
  for (const auto& r : results_) {
    if (r.app != app || r.config.cores != cores) continue;
    if (!metric.admits(r)) continue;
    if (dimension_value(r.config, dimension) != baseline) continue;
    base[r.config.id_without(dimension)] = metric(r);
  }
  RunningStats acc;
  for (const auto& r : results_) {
    if (r.app != app || r.config.cores != cores) continue;
    if (!metric.admits(r)) continue;
    if (dimension_value(r.config, dimension) != value) continue;
    const auto it = base.find(r.config.id_without(dimension));
    if (it == base.end() || it->second == 0.0) continue;
    acc.add(metric(r) / it->second);
  }
  return {acc.mean(), acc.stddev(), static_cast<int>(acc.count())};
}

NormStat DseEngine::average(const std::string& app, int cores,
                            const std::string& dimension,
                            const std::string& value,
                            const Metric& metric) {
  ensure_results();
  RunningStats acc;
  for (const auto& r : results_) {
    if (r.app != app || r.config.cores != cores) continue;
    if (!metric.admits(r)) continue;
    if (!dimension.empty() &&
        dimension_value(r.config, dimension) != value)
      continue;
    acc.add(metric(r));
  }
  return {acc.mean(), acc.stddev(), static_cast<int>(acc.count())};
}

DseEngine::PowerSplit DseEngine::power_split(const std::string& app,
                                             int cores,
                                             const std::string& dimension,
                                             const std::string& value,
                                             const std::string& baseline) {
  ensure_results();
  // Power shares only make sense where every component is known: HBM2
  // points (dram_power_known == false) are excluded from both sides.
  std::unordered_map<std::string, double> base;
  for (const auto& r : results_) {
    if (r.app != app || r.config.cores != cores) continue;
    if (!r.dram_power_known) continue;
    if (dimension_value(r.config, dimension) != baseline) continue;
    base[r.config.id_without(dimension)] = r.node_w;
  }
  RunningStats core_acc, cache_acc, dram_acc;
  for (const auto& r : results_) {
    if (r.app != app || r.config.cores != cores) continue;
    if (!r.dram_power_known) continue;
    if (dimension_value(r.config, dimension) != value) continue;
    const auto it = base.find(r.config.id_without(dimension));
    if (it == base.end() || it->second == 0.0) continue;
    core_acc.add(r.core_l1_w / it->second);
    cache_acc.add(r.l2_l3_w / it->second);
    dram_acc.add(r.dram_w / it->second);
  }
  return {core_acc.mean(), cache_acc.mean(), dram_acc.mean()};
}

}  // namespace musa::core
