// Benchmarks the cross-point stage memoization (core/stage_memo.hpp) on a
// fixed 24-point sub-sweep and writes the measurements to BENCH_sweep.json,
// which CI uploads as an artifact so memo regressions show up as a number,
// not a feeling.
//
// The 24 points are one app (hydro) across 4 core presets x 3 frequencies
// x 2 channel counts — the shape the memo is built for: every point shares
// the trace-generation, burst, stream, and warm-up work, so the memoized
// sweep should pay the measured detailed run per point and little else.
//
// The bench runs the sweep four times — memo off, memo on, memo on with
// the span tracer armed, and memo on forced through the core model's
// single-step reference path — checks the result sets are byte-identical
// across all four (the memo's core contract; tracing and the batched block
// replay must never perturb results either), and reports wall time,
// points/s, the per-stage and worker-occupancy breakdown, the memo hit
// rates, the tracing overhead ratio (the DESIGN.md §7e budget: armed
// tracing within ~2% of untraced), and kernel_speedup — the kernel-stage
// time of the single-step reference over the batched block path
// (DESIGN.md §7f).
//
// Usage: sweep_bench [--check-regression BASELINE.json] [output.json]
//   (output defaults to BENCH_sweep.json; any other argument prints the
//   usage and exits 2)
//
// With --check-regression, the memo run's points_per_s and kernel_s are
// compared against the named baseline (a previously committed
// BENCH_sweep.json): a >10% regression on either exits nonzero, so a CI
// leg can catch replay-path slowdowns as a number, not a feeling. kernel_s
// is busy time summed over the sweep's threads, so the fresh memo run must
// use the baseline's thread count (set MUSA_THREADS); a mismatch exits
// nonzero without comparing. The fresh run is never written over the
// baseline: naming the same file for both exits 2 before anything runs.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/fsio.hpp"
#include "core/dse.hpp"
#include "fig_common.hpp"
#include "obs/span.hpp"
#include "sweep/controller.hpp"

namespace {

using musa::core::DseEngine;
using musa::core::MachineConfig;
using musa::core::MemoStats;
using musa::core::Pipeline;
using musa::core::StageTimes;
using musa::core::SweepOptions;
using musa::core::SweepReport;

struct Run {
  double wall_s = 0.0;
  SweepReport report;
  std::vector<std::string> rows;  // one to_row per point, plan order
};

/// Best-of-N timing: each repetition recomputes the sweep from scratch (a
/// fresh Pipeline and memo every time), and the fastest repetition is
/// reported — the standard way to keep scheduler noise out of the ratio.
constexpr int kReps = 3;

Run run_sweep(bool memoize, bool trace = false, bool single_step = false) {
  SweepOptions opts;
  opts.verbose = false;
  opts.memoize = memoize;
  opts.apps = {musa::bench::bench_app()};
  opts.configs = musa::bench::bench_space();

  Run r;
  for (int rep = 0; rep < kReps; ++rep) {
    if (trace) musa::obs::Tracer::install();  // re-install clears the ring
    Pipeline pipeline(musa::core::PipelineOptions{.single_step_core =
                                                      single_step});
    // No cache path: pure compute, no journal fsyncs in the timing.
    DseEngine dse(pipeline, "", opts);
    const auto t0 = std::chrono::steady_clock::now();
    dse.sweep(/*force=*/true);
    const auto t1 = std::chrono::steady_clock::now();

    const double wall_s = std::chrono::duration<double>(t1 - t0).count();
    if (rep > 0 && wall_s >= r.wall_s) continue;
    r.wall_s = wall_s;
    r.report = dse.report();
    r.rows.clear();
    for (const auto& res : dse.results()) {
      std::string joined;
      for (const auto& cell : DseEngine::to_row(res)) {
        if (!joined.empty()) joined += ',';
        joined += cell;
      }
      r.rows.push_back(std::move(joined));
    }
  }
  return r;
}

void json_stages(std::FILE* f, const StageTimes& st) {
  std::fprintf(f,
               "{\"burst_s\": %.6f, \"kernel_s\": %.6f, \"replay_s\": %.6f, "
               "\"power_s\": %.6f}",
               st.burst_s, st.kernel_s, st.replay_s, st.power_s);
}

void json_run(std::FILE* f, const char* name, const Run& r) {
  const double pps =
      r.wall_s > 0 ? static_cast<double>(r.report.computed) / r.wall_s : 0.0;
  // Worker occupancy: stage compute time over workers × compute-phase wall.
  // The gap is queue idle + journal/merge time — the tail the trace view
  // makes visible per worker.
  const double occupancy =
      r.report.workers > 0 && r.report.wall_s > 0.0
          ? r.report.stages.total_s() /
                (r.report.wall_s * static_cast<double>(r.report.workers))
          : 0.0;
  std::fprintf(f,
               "  \"%s\": {\n"
               "    \"wall_s\": %.4f,\n"
               "    \"points\": %llu,\n"
               "    \"points_per_s\": %.3f,\n"
               "    \"workers\": %d,\n"
               "    \"occupancy\": %.4f,\n"
               "    \"stages\": ",
               name, r.wall_s,
               static_cast<unsigned long long>(r.report.computed), pps,
               r.report.workers, occupancy);
  json_stages(f, r.report.stages);
  const MemoStats& m = r.report.memo;
  std::fprintf(
      f,
      ",\n    \"memo_hit_rate\": {\"burst\": %.4f, \"region\": %.4f, "
      "\"trace\": %.4f, \"stream\": %.4f, \"warm\": %.4f, "
      "\"perfect\": %.4f, \"overall\": %.4f}\n  }",
      MemoStats::rate(m.burst_hits, m.burst_misses),
      MemoStats::rate(m.region_hits, m.region_misses),
      MemoStats::rate(m.trace_hits, m.trace_misses),
      MemoStats::rate(m.stream_hits, m.stream_misses),
      MemoStats::rate(m.warm_hits, m.warm_misses),
      MemoStats::rate(m.perfect_hits, m.perfect_misses),
      MemoStats::rate(m.total_hits(), m.total_misses()));
}

/// One elastic controller/worker run (DESIGN.md §7h) over the same
/// 24-point space: forks `workers` processes, leases them 4-point chunks,
/// finalizes through the normal engine, and returns the result rows for
/// the byte-identity check against the in-process runs.
struct ElasticRun {
  double wall_s = 0.0;
  musa::sweep::ElasticReport report;
  std::vector<std::string> rows;
};

ElasticRun run_elastic(int workers, const std::string& cache_path) {
  SweepOptions opts;
  opts.verbose = false;
  opts.apps = {musa::bench::bench_app()};
  opts.configs = musa::bench::bench_space();

  musa::sweep::ElasticOptions eopts;
  eopts.workers = workers;
  eopts.lease_points = 4;
  eopts.heartbeat_s = 0.1;

  ElasticRun r;
  Pipeline pipeline;
  DseEngine dse(pipeline, cache_path, opts);
  dse.clear_cache();  // time a cold sweep, not a cache hit
  const auto t0 = std::chrono::steady_clock::now();
  musa::sweep::ElasticController controller(pipeline, cache_path, opts,
                                            eopts);
  r.report = controller.run();
  dse.sweep(/*force=*/false);  // merge worker journals, write the cache
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  for (const auto& res : dse.results()) {
    std::string joined;
    for (const auto& cell : DseEngine::to_row(res)) {
      if (!joined.empty()) joined += ',';
      joined += cell;
    }
    r.rows.push_back(std::move(joined));
  }
  std::remove(cache_path.c_str());
  std::remove(
      musa::sweep::ElasticController::lease_log_path(cache_path).c_str());
  return r;
}

void json_elastic(std::FILE* f, const ElasticRun& r, int workers,
                  double serial_wall_s) {
  const double pps =
      r.wall_s > 0 ? static_cast<double>(r.report.resolved) / r.wall_s : 0.0;
  // Occupancy here is parallel efficiency against the serial in-process
  // run: serial wall over workers × elastic wall. The gap is fork +
  // journal-fsync + lease-bookkeeping overhead.
  const double occupancy =
      r.wall_s > 0 && workers > 0
          ? serial_wall_s / (r.wall_s * static_cast<double>(workers))
          : 0.0;
  std::fprintf(f,
               "    \"workers_%d\": {\"wall_s\": %.4f, \"points\": %llu, "
               "\"points_per_s\": %.3f, \"occupancy\": %.4f, "
               "\"respawns\": %d, \"revocations\": %d}",
               workers, r.wall_s,
               static_cast<unsigned long long>(r.report.resolved), pps,
               occupancy, r.report.respawns, r.report.revocations);
}

/// Pulls `points_per_s`, `workers` and `stages.kernel_s` of the "memo" run
/// out of a BENCH_sweep.json written by this program. Plain string scanning — the
/// format is our own, flat, and covered by the identity checks above; a
/// JSON library for two numbers would be a dependency for nothing.
bool parse_baseline(const std::string& path, double& points_per_s,
                    double& workers, double& kernel_s) {
  const std::string text = musa::read_file_from(path, 0);  // "" if missing
  // "no_memo" precedes "memo" but does not contain the quoted key.
  const std::size_t memo = text.find("\"memo\": {");
  if (memo == std::string::npos) return false;
  const auto field = [&](const char* key, double& out) {
    const std::string needle = std::string("\"") + key + "\": ";
    const std::size_t p = text.find(needle, memo);
    if (p == std::string::npos) return false;
    out = std::strtod(text.c_str() + p + needle.size(), nullptr);
    return true;
  };
  return field("points_per_s", points_per_s) && field("workers", workers) &&
         field("kernel_s", kernel_s);
}

/// The "serve" entry is owned by dse_loadtest, which merges it into this
/// file as the always-last key. Carry it across a rewrite so a batch re-run
/// does not erase the serving-latency numbers. Returns the flat
/// "{...}" object text, or "" when the file has none.
std::string read_serve_entry(const std::string& path) {
  const std::string text = musa::read_file_from(path, 0);  // "" if missing
  const std::size_t start = text.find("\"serve\": {");
  if (start == std::string::npos) return {};
  const std::size_t open = text.find('{', start);
  const std::size_t close = text.find('}', open);
  if (close == std::string::npos) return {};
  return text.substr(open, close - open + 1);
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "usage: sweep_bench [--check-regression BASELINE.json] [output.json]\n"
      "  output defaults to BENCH_sweep.json and must not be BASELINE.json\n";
  std::string out_path = "BENCH_sweep.json";
  std::string baseline_path;
  bool out_given = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check-regression") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("%s", kUsage);
      return 0;
    } else if (argv[i][0] != '-' && !out_given) {
      out_path = argv[i];
      out_given = true;
    } else {
      std::fprintf(stderr, "sweep_bench: unexpected argument '%s'\n%s",
                   argv[i], kUsage);
      return 2;
    }
  }
  if (!baseline_path.empty()) {
    std::error_code ec;
    const auto canon = [&ec](const std::string& path) {
      return std::filesystem::weakly_canonical(
          std::filesystem::absolute(path, ec), ec);
    };
    if (canon(baseline_path) == canon(out_path)) {
      std::fprintf(stderr,
                   "sweep_bench: the fresh run would overwrite the baseline "
                   "%s; name another output file\n%s",
                   baseline_path.c_str(), kUsage);
      return 2;
    }
  }
  double base_pps = 0.0, base_workers = 0.0, base_kernel_s = 0.0;
  if (!baseline_path.empty() &&
      !parse_baseline(baseline_path, base_pps, base_workers, base_kernel_s)) {
    std::fprintf(stderr, "cannot parse baseline %s\n", baseline_path.c_str());
    return 1;
  }

  std::printf("sweep_bench: fixed 24-point sweep (hydro, 4 presets x 3 "
              "freqs x 2 channel counts)\n");
  const Run plain = run_sweep(/*memoize=*/false);
  std::printf("  no-memo: %6.2fs  (%.2f points/s)\n", plain.wall_s,
              plain.report.computed / plain.wall_s);
  const Run memo = run_sweep(/*memoize=*/true);
  std::printf("  memo:    %6.2fs  (%.2f points/s)\n", memo.wall_s,
              memo.report.computed / memo.wall_s);
  const Run traced = run_sweep(/*memoize=*/true, /*trace=*/true);
  const std::size_t trace_events = musa::obs::Tracer::drain().size();
  musa::obs::Tracer::shutdown();
  std::printf("  traced:  %6.2fs  (%.2f points/s, %zu events)\n",
              traced.wall_s, traced.report.computed / traced.wall_s,
              trace_events);
  const Run reference =
      run_sweep(/*memoize=*/true, /*trace=*/false, /*single_step=*/true);
  std::printf("  single-step reference: %6.2fs  (%.2f points/s)\n",
              reference.wall_s, reference.report.computed / reference.wall_s);

  // The memo is only a win if it is *free* in results: identical bytes.
  // The tracer must be invisible in results too — it only observes. And the
  // batched block replay is only an optimisation if the single-step
  // reference path produces the very same rows.
  if (plain.rows != memo.rows || memo.rows != traced.rows ||
      traced.rows != reference.rows) {
    std::fprintf(stderr,
                 "FAIL: sweep results differ across memo/tracing/replay "
                 "modes — staleness, observer-effect, or batching bug\n");
    return 1;
  }
  // Elastic controller scaling: the same 24 points through 1/2/4 forked
  // workers. Byte-identity across worker counts is the §7h contract — the
  // journal-merge finalize must land the exact rows the in-process sweep
  // computes, no matter how the points were partitioned into leases.
  std::vector<ElasticRun> elastic;
  const std::vector<int> worker_counts = {1, 2, 4};
  if (musa::sweep::elastic_supported()) {
    const std::string cache = out_path + ".elastic.cache.csv";
    for (const int w : worker_counts) {
      elastic.push_back(run_elastic(w, cache));
      const ElasticRun& e = elastic.back();
      std::printf("  elastic %dw: %5.2fs  (%.2f points/s)\n", w, e.wall_s,
                  e.wall_s > 0 ? e.report.resolved / e.wall_s : 0.0);
      if (e.rows != memo.rows) {
        std::fprintf(stderr,
                     "FAIL: elastic %d-worker sweep rows differ from the "
                     "in-process sweep — journal merge broke byte "
                     "identity\n",
                     w);
        return 1;
      }
    }
  }

  const double speedup = memo.wall_s > 0 ? plain.wall_s / memo.wall_s : 0.0;
  const double trace_overhead =
      memo.wall_s > 0 ? traced.wall_s / memo.wall_s : 0.0;
  // Kernel-stage time of the single-step reference over the batched block
  // path — same memo state, same results, only the replay loop differs.
  const double kernel_speedup =
      memo.report.stages.kernel_s > 0
          ? reference.report.stages.kernel_s / memo.report.stages.kernel_s
          : 0.0;
  std::printf("  results byte-identical; speedup %.2fx, "
              "tracing overhead %.3fx, kernel_speedup %.2fx\n",
              speedup, trace_overhead, kernel_speedup);

  const std::string serve_entry = read_serve_entry(out_path);
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  json_run(f, "no_memo", plain);
  std::fprintf(f, ",\n");
  json_run(f, "memo", memo);
  std::fprintf(f, ",\n");
  json_run(f, "traced", traced);
  std::fprintf(f, ",\n");
  json_run(f, "reference", reference);
  if (!elastic.empty()) {
    std::fprintf(f, ",\n  \"elastic\": {\n");
    for (std::size_t i = 0; i < elastic.size(); ++i) {
      json_elastic(f, elastic[i], worker_counts[i], memo.wall_s);
      std::fprintf(f, i + 1 < elastic.size() ? ",\n" : "\n");
    }
    std::fprintf(f, "  }");
  }
  std::fprintf(f,
               ",\n  \"speedup\": %.3f,\n  \"trace_overhead\": %.4f,\n"
               "  \"kernel_speedup\": %.3f,\n"
               "  \"trace_events\": %zu,\n  \"identical\": true",
               speedup, trace_overhead, kernel_speedup, trace_events);
  if (!serve_entry.empty())
    std::fprintf(f, ",\n  \"serve\": %s", serve_entry.c_str());
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (!baseline_path.empty()) {
    if (memo.report.workers != static_cast<int>(base_workers)) {
      std::fprintf(stderr,
                   "FAIL: the memo run used %d threads but %s was recorded "
                   "with %d; kernel_s sums busy time over threads, so the "
                   "two do not compare. Rerun with MUSA_THREADS=%d.\n",
                   memo.report.workers, baseline_path.c_str(),
                   static_cast<int>(base_workers),
                   static_cast<int>(base_workers));
      return 1;
    }
    const double new_pps =
        memo.wall_s > 0
            ? static_cast<double>(memo.report.computed) / memo.wall_s
            : 0.0;
    const double new_kernel_s = memo.report.stages.kernel_s;
    std::printf("regression check vs %s: points/s %.2f -> %.2f, "
                "kernel_s %.4f -> %.4f\n",
                baseline_path.c_str(), base_pps, new_pps, base_kernel_s,
                new_kernel_s);
    bool failed = false;
    if (new_pps < 0.9 * base_pps) {
      std::fprintf(stderr,
                   "FAIL: memo throughput regressed >10%% "
                   "(%.2f -> %.2f points/s)\n",
                   base_pps, new_pps);
      failed = true;
    }
    if (new_kernel_s > 1.1 * base_kernel_s) {
      std::fprintf(stderr,
                   "FAIL: kernel stage regressed >10%% (%.4fs -> %.4fs)\n",
                   base_kernel_s, new_kernel_s);
      failed = true;
    }
    if (failed) return 1;
    std::printf("regression check passed\n");
  }
  return 0;
}
