// Batch workloads: the paper's full sweep in-process (paper_sweep) and a
// seeded sample of the extended grid through the elastic controller
// (extended_elastic).
#include <sys/resource.h>

#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "obs/export.hpp"
#include "serve/wire.hpp"
#include "sweep/controller.hpp"
#include "verify/space_analysis.hpp"

namespace bench {

namespace core = musa::core;

namespace {

constexpr int kSetupSamples = 11;
constexpr int kWorkers = 4;               // elastic worker processes
constexpr std::size_t kExtendedConfigs = 576;
constexpr std::size_t kLightPoints = 120;  // paper: warm single-point sample
constexpr std::size_t kRecheckConfigs = 24;  // x 5 apps: the recheck set
constexpr std::size_t kProbeRows = 200;
constexpr std::size_t kProbeLines = 512;
constexpr std::size_t kProbeConfigs = 8;
constexpr std::size_t kProbeElasticConfigs = 2;  // x 5 apps, probe_elastic
constexpr int kProbeWorkers = 2;
// Left out of the extended draw: configs with this many memory channels and
// at least this many cores. The static analyzer calls them feasible, but the
// model's achieved bandwidth exceeds the channel peak there and the point
// quarantines on the result.bandwidth invariant (README "Findings"). Drop the
// exclusion when that is fixed, and measure the workload's baseline again.
constexpr int kExcludedChannels = 1;
constexpr int kExcludedMinCores = 128;

std::uint64_t options_fp() {
  return core::pipeline_options_fingerprint(core::PipelineOptions{});
}

/// Row-major stride of one grid dimension in a linear index.
std::uint64_t dim_stride(const core::SpaceAxes& axes, int dim) {
  std::uint64_t stride = 1;
  for (int d = core::SpaceAxes::kDims - 1; d > dim; --d)
    stride *= static_cast<std::uint64_t>(axes.dim_size(d));
  return stride;
}

/// Whether to start another sweep job: always a first one; when traced,
/// only that one; else while a job as long as the last ends within the
/// run's time.
bool another_job(const Ctx& ctx, bool traced, Clock::time_point start,
                 const std::vector<double>& walls) {
  if (walls.empty()) return true;
  return !traced && secs(start, Clock::now()) + walls.back() <= ctx.seconds;
}

/// The sweep.* figures of one elastic job: its lease phase and finalize.
void set_elastic_layers(Run& run, const musa::sweep::ElasticReport& elastic,
                        double lease_s, double finalize_s) {
  run.per_layer["sweep.lease_phase_s"] = lease_s;
  run.per_layer["sweep.finalize_s"] = finalize_s;
  run.per_layer["sweep.chunks"] = elastic.chunks;
  run.per_layer["sweep.respawns"] = elastic.respawns;
  run.per_layer["sweep.revocations"] = elastic.revocations;
}

/// The job figures of a sweep workload. A batch user waits for the whole
/// job, so its latency is the job's wall time: p50/p99 over the run's jobs
/// carry the same signal as the throughput (`points` per median job).
void set_job_metrics(Run& run, std::size_t points,
                     const std::vector<double>& walls,
                     const std::vector<double>& peaks) {
  std::vector<double> walls_ms;
  for (const double w : walls) walls_ms.push_back(1e3 * w);
  run.end_to_end["throughput"] = static_cast<double>(points) / median(walls);
  run.end_to_end["p50_ms"] = quantile(walls_ms, 0.50);
  run.end_to_end["p99_ms"] = quantile(walls_ms, 0.99);
  run.end_to_end["peak_rss_mb"] = median(peaks);
}

/// Simulated detailed instructions per computed point: the measured slice
/// of every phase (warm-up and perfect-memory runs are memoized away).
double plan_minstr(const core::SweepPlan& plan) {
  double instrs = 0.0;
  const double slice = static_cast<double>(core::PipelineOptions{}.measure_instrs);
  for (const auto* app : plan.app_list)
    instrs += slice * static_cast<double>(app->phases().size()) *
              static_cast<double>(plan.configs.size());
  return instrs / 1e6;
}

/// Fills the probe inputs shared by both sweeps from a plan and its rows.
void sweep_probe_inputs(const Ctx& ctx, const core::SweepPlan& plan,
                        const std::unordered_map<std::string, std::string>& rows,
                        ProbeInputs& in) {
  in.configs = draw(plan.configs, kProbeConfigs, ctx.seed * 31 + 7);
  const std::vector<std::string> keys =
      draw(plan.keys, kProbeLines, ctx.seed * 37 + 11);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    std::string id = "p";
    id += std::to_string(i);
    in.request_lines.push_back("{\"id\":\"" + id + "\"," +
                               point_body(keys[i]) + "}");
    const auto row = rows.find(keys[i]);
    if (row == rows.end()) continue;
    in.replies.push_back({id, keys[i], row->second, false});
    if (in.rows.size() < kProbeRows)
      in.rows.emplace_back(keys[i], split(row->second, ','));
  }
}

/// Checks a finalized sweep cache row by row against `expect`; returns the
/// number of plan rows that are wrong or missing.
std::uint64_t check_rows(const std::string& cache, const core::SweepPlan& plan,
                         const std::unordered_map<std::string, std::string>&
                             expect) {
  const auto rows = read_cache_rows(cache);
  std::uint64_t bad = 0;
  for (const auto& key : plan.keys) {
    const auto got = rows.find(key);
    const auto want = expect.find(key);
    if (got == rows.end() || want == expect.end() ||
        got->second != want->second)
      ++bad;
  }
  return bad;
}

}  // namespace

// ---------------------------------------------------------------- paper_sweep

double paper_sweep(const Ctx& ctx, bool traced, Run& run, SpanLog& log,
                   ProbeInputs& in) {
  core::SweepOptions opts;
  opts.verbose = false;
  if (ctx.smoke) {
    // 72 configs x 3 apps = 216 points.
    const auto full = core::ConfigSpace::full_space();
    for (std::size_t i = 0; i < full.size(); i += 12) opts.configs.push_back(full[i]);
    opts.apps = {"hydro", "spmz", "lulesh"};
  } else {
    opts.axes = core::SpaceAxes::paper();
  }

  // Ready for work: plan built, pipeline and engine constructed.
  std::vector<double> setups;
  core::SweepPlan plan;
  for (int i = 0; i < static_cast<int>(ctx.size(kSetupSamples, 3)); ++i) {
    Scope span(log, "bench.setup");
    const PinnedTo pin(i);
    const auto t0 = Clock::now();
    plan = core::make_sweep_plan(opts);
    core::Pipeline pipeline({}, std::make_shared<core::StageMemo>(options_fp()));
    core::DseEngine engine(pipeline, ctx.work + "/setup.csv", opts);
    setups.push_back(secs(t0, Clock::now()));
  }

  // Whole sweep jobs while the run's time lasts (one when traced). Memo and
  // cache start empty every time: users pay that on every sweep.
  std::vector<double> walls, peaks;
  std::shared_ptr<core::StageMemo> memo;
  core::SweepReport report;
  const auto start = Clock::now();
  for (int rep = 0; another_job(ctx, traced, start, walls); ++rep) {
    const std::string cache = ctx.work + "/paper-" + std::to_string(rep) + ".csv";
    reset_peak_rss();
    memo = std::make_shared<core::StageMemo>(options_fp());
    core::Pipeline pipeline({}, memo);
    core::DseEngine engine(pipeline, cache, opts);
    {
      Scope span(log, "bench.sweep");
      const auto t0 = Clock::now();
      report = engine.sweep(/*force=*/true);
      walls.push_back(secs(t0, Clock::now()));
    }
    peaks.push_back(peak_rss_mb());

    Scope span(log, "bench.verify");
    run.attempted += plan.size();
    if (!report.finalized || report.quarantined > 0) {
      run.fail(std::max<std::uint64_t>(1, report.quarantined),
               "paper sweep not finalized (" +
                   std::to_string(report.quarantined) + " quarantined)");
      continue;
    }
    if (!ctx.smoke && read_file(cache) != ctx.ref->text)
      run.fail(1, "finalized cache differs from the committed dse_cache.csv");
    if (const std::uint64_t bad = check_rows(cache, plan, ctx.ref->row_of))
      run.fail(bad, "paper sweep rows differ from dse_cache.csv");
    if (rep == 0) sweep_probe_inputs(ctx, plan, read_cache_rows(cache), in);
    std::remove(cache.c_str());
  }

  if (traced) {
    const double occupancy =
        report.wall_s > 0 && report.workers > 0
            ? report.stages.total_s() / (report.wall_s * report.workers)
            : 0.0;
    set_stage_layers(run, report.stages, plan_minstr(plan), occupancy);
    const core::MemoStats& m = report.memo;
    const auto memo_layer = [&](const char* table, std::uint64_t hits,
                                std::uint64_t misses) {
      run.per_layer[std::string("core.memo_hit_rate.") + table] =
          core::MemoStats::rate(hits, misses);
      run.per_layer[std::string("core.memo_lookups.") + table] =
          static_cast<double>(hits + misses);
    };
    memo_layer("stream", m.stream_hits, m.stream_misses);
    memo_layer("warm", m.warm_hits, m.warm_misses);
    memo_layer("perfect", m.perfect_hits, m.perfect_misses);
    memo_layer("burst", m.burst_hits, m.burst_misses);
    in.plans = {opts};
    return walls.front();
  }

  // Light load: one point at a time on one thread, memo warm from the last
  // job. Run after the timed jobs, so it cannot disturb them.
  std::vector<double> light;
  {
    Scope span(log, "bench.light");
    core::Pipeline pipeline({}, memo);
    const std::size_t stride = std::max<std::size_t>(1, plan.size() / kLightPoints);
    for (std::size_t i = 0; i < plan.size(); i += stride) {
      const PinnedTo pin(static_cast<int>(i / stride));
      const auto t0 = Clock::now();
      const core::SimResult r = pipeline.run(plan.app_of(i), plan.config_of(i));
      light.push_back(ms(t0, Clock::now()));
      ++run.attempted;
      const std::string& want = ctx.ref->row_of.at(plan.keys[i]);
      if (join_cells(core::DseEngine::to_row(r)) != want)
        run.fail(1, "warm single-point row differs: " + plan.keys[i]);
    }
  }

  set_job_metrics(run, plan.size(), walls, peaks);
  run.end_to_end["light_p50_ms"] = median(light);
  run.end_to_end["setup_s"] = median(setups);
  return median(walls);
}

// ----------------------------------------------------------- extended_elastic

double extended_elastic(const Ctx& ctx, bool traced, Run& run, SpanLog& log,
                        ProbeInputs& in) {
  // The seed draws distinct feasible configs of the extended grid; the
  // program sees only the resulting config list.
  core::SweepOptions opts;
  opts.verbose = false;
  std::vector<double> setups;
  core::SweepPlan plan;
  std::size_t excluded = 0;
  for (int i = 0; i < static_cast<int>(ctx.size(kSetupSamples, 3)); ++i) {
    Scope span(log, "bench.setup");
    const PinnedTo pin(i);
    const auto t0 = Clock::now();
    const core::SpaceAxes axes = core::SpaceAxes::extended();
    std::vector<std::uint64_t> pool =
        musa::verify::feasible_indices(axes, musa::verify::analyze(axes));
    const std::uint64_t channels_stride = dim_stride(axes, core::SpaceAxes::kDimChannels);
    const std::uint64_t cores_stride = dim_stride(axes, core::SpaceAxes::kDimCores);
    excluded = std::erase_if(pool, [&](std::uint64_t linear) {
      const int channels =
          axes.mem_channels[(linear / channels_stride) % axes.mem_channels.size()];
      const int cores =
          axes.core_counts[(linear / cores_stride) % axes.core_counts.size()];
      return channels == kExcludedChannels && cores >= kExcludedMinCores;
    });
    const std::vector<std::uint64_t> picked =
        draw(pool, ctx.size(kExtendedConfigs, 29), ctx.seed);
    opts.configs.clear();
    for (const std::uint64_t linear : picked)
      opts.configs.push_back(axes.config_at(linear));
    plan = core::make_sweep_plan(opts);
    setups.push_back(secs(t0, Clock::now()));
  }
  std::fprintf(stderr,
               "musa_bench: extended_elastic: %zu feasible configs with %d "
               "channel and >= %d cores left out of the draw\n",
               excluded, kExcludedChannels, kExcludedMinCores);

  std::vector<double> walls, peaks;
  musa::sweep::ElasticReport elastic;
  double lease_s = 0.0, finalize_s = 0.0;
  std::unordered_map<std::string, std::string> rows;
  const std::string trace_path = ctx.work + "/elastic.trace.json";
  const auto start = Clock::now();
  for (int rep = 0; another_job(ctx, traced, start, walls); ++rep) {
    const std::string cache = ctx.work + "/ext-" + std::to_string(rep) + ".csv";
    reset_peak_rss();
    core::Pipeline pipeline;  // options only: every worker builds its memo
    musa::sweep::ElasticOptions eopts;
    eopts.workers = kWorkers;
    if (traced) eopts.trace_path = trace_path;
    core::SweepReport fin;
    {
      Scope span(log, "bench.sweep");
      const auto t0 = Clock::now();
      {
        Scope lease(log, "bench.elastic.lease_phase");
        musa::sweep::ElasticController controller(pipeline, cache, opts, eopts);
        elastic = controller.run();
      }
      const auto t1 = Clock::now();
      {
        Scope finalize(log, "bench.elastic.finalize");
        core::DseEngine engine(pipeline, cache, opts);
        fin = engine.sweep(/*force=*/false);
      }
      const auto t2 = Clock::now();
      walls.push_back(secs(t0, t2));
      lease_s = secs(t0, t1);
      finalize_s = secs(t1, t2);
    }
    // The controller's peak: the in-process recheck below is the benchmark's.
    peaks.push_back(peak_rss_mb());
    run.attempted += plan.size();
    if (!fin.finalized || fin.quarantined > 0) {
      run.fail(std::max<std::uint64_t>(1, fin.quarantined),
               "elastic sweep not finalized (" +
                   std::to_string(fin.quarantined) + " quarantined)");
      for (const core::QuarantinePoint& q : fin.quarantine)
        run.problems.push_back("quarantined " + q.key + " [" + q.error_class +
                               "/" + q.stage + "] " + q.message);
    } else {
      rows = read_cache_rows(cache);
    }
    std::remove(cache.c_str());
  }
  sweep_probe_inputs(ctx, plan, rows, in);

  if (traced) {
    // Stage busy time as the workers recorded it in their trace sidecars.
    in.sidecars = musa::obs::find_trace_sidecars(trace_path);
    core::StageTimes st;
    for (const std::string& path : in.sidecars)
      for (const std::string& line : split(read_file(path), '\n')) {
        musa::serve::JsonValue ev;
        std::string err;
        if (line.empty() || !musa::serve::parse_json(line, &ev, &err)) continue;
        const musa::serve::JsonValue* name = ev.find("name");
        const musa::serve::JsonValue* dur = ev.find("dur");
        if (name == nullptr || dur == nullptr) continue;
        const double s = dur->number / 1e6;
        if (name->string == "kernel") st.kernel_s += s;
        else if (name->string == "replay") st.replay_s += s;
        else if (name->string == "burst") st.burst_s += s;
        else if (name->string == "power") {
          st.power_s += s;
          ++st.points;
        }
      }
    set_stage_layers(run, st, plan_minstr(plan),
                     lease_s > 0 ? st.total_s() / (lease_s * kWorkers) : 0.0);
    set_elastic_layers(run, elastic, lease_s, finalize_s);
    rusage ru{};
    getrusage(RUSAGE_CHILDREN, &ru);
    run.per_layer["sweep.worker_peak_rss_mb"] =
        static_cast<double>(ru.ru_maxrss) / 1024.0;
    in.plans = {opts};
    return walls.front();
  }

  // A seeded subset — the same configs for every app, so the app mix never
  // varies with the seed — recomputed by an in-process sweep on a fresh
  // pipeline, must match the finalized cache byte for byte. One more pass
  // over the same points, memo now warm, is the light-load latency.
  std::vector<double> light;
  if (!rows.empty()) {
    Scope span(log, "bench.verify");
    core::SweepOptions sub;
    sub.verbose = false;
    sub.configs = draw(plan.configs, kRecheckConfigs, ctx.seed * 41 + 3);
    const core::SweepPlan recheck = core::make_sweep_plan(sub);
    core::Pipeline pipeline({}, std::make_shared<core::StageMemo>(options_fp()));
    core::DseEngine engine(pipeline, "", sub);
    const std::vector<core::SimResult>& results = engine.results();
    for (std::size_t i = 0; i < recheck.size(); ++i) {
      ++run.attempted;
      const auto want = rows.find(recheck.keys[i]);
      if (want == rows.end() ||
          join_cells(core::DseEngine::to_row(results[i])) != want->second)
        run.fail(1, "in-process recompute differs from elastic row: " +
                        recheck.keys[i]);
    }
    for (std::size_t i = 0; i < recheck.size(); ++i) {
      const PinnedTo pin(static_cast<int>(i));
      const auto t0 = Clock::now();
      pipeline.run(recheck.app_of(i), recheck.config_of(i));
      light.push_back(ms(t0, Clock::now()));
    }
  }

  set_job_metrics(run, plan.size(), walls, peaks);
  run.end_to_end["light_p50_ms"] = median(light);
  run.end_to_end["setup_s"] = median(setups);
  return median(walls);
}

// --------------------------------------------------------------- layer probe

void probe_elastic(const Ctx& ctx, Run& run, SpanLog& log) {
  Scope span(log, "probe.sweep.elastic");
  core::SweepOptions opts;
  opts.verbose = false;
  opts.configs = draw(core::ConfigSpace::full_space(),
                      ctx.size(kProbeElasticConfigs, 1), ctx.seed * 73 + 4);
  const core::SweepPlan plan = core::make_sweep_plan(opts);
  const std::string cache = ctx.work + "/probe-elastic.csv";
  core::Pipeline pipeline;
  musa::sweep::ElasticOptions eopts;
  eopts.workers = kProbeWorkers;
  const auto t0 = Clock::now();
  musa::sweep::ElasticReport elastic;
  {
    musa::sweep::ElasticController controller(pipeline, cache, opts, eopts);
    elastic = controller.run();
  }
  const auto t1 = Clock::now();
  const core::SweepReport fin = core::DseEngine(pipeline, cache, opts).sweep();
  set_elastic_layers(run, elastic, secs(t0, t1), secs(t1, Clock::now()));
  run.attempted += plan.size();
  if (!fin.finalized || fin.quarantined > 0)
    run.fail(std::max<std::uint64_t>(1, fin.quarantined), "elastic probe not finalized");
  else if (const std::uint64_t bad = check_rows(cache, plan, ctx.ref->row_of))
    run.fail(bad, "elastic probe rows differ from dse_cache.csv");
  std::remove(cache.c_str());
}

}  // namespace bench
