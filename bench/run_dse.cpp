// Runs (or resumes) the full 864-configuration × 5-application design space
// sweep and writes the shared result cache that dse_figures reads.
//
// The sweep is crash-safe: every completed point is fsync'd to an
// append-only journal next to the cache, so a killed run resumes exactly
// where it stopped. By default it runs in-process on MUSA_THREADS threads;
// `--workers N` spreads it over N forked processes (see below).
//
// Failures are *contained* by default (DESIGN.md "Failure model"): a point
// that throws is quarantined as a journaled FAIL row and the sweep keeps
// going; the run then exits 3 with a quarantine report instead of losing
// the other points. `--strict` restores fail-fast; `--retry-failed` re-runs
// exactly the quarantined points; `--timeout` arms a per-point watchdog;
// `--inject` (or MUSA_FAULT) arms the deterministic fault harness.
//
// Tracing (DESIGN.md §7e): `--trace-out sweep.json` (or MUSA_TRACE=path)
// arms the span tracer and exports a Chrome trace_event JSON loadable in
// Perfetto / chrome://tracing. A run that does not finalize the sweep
// (quarantined points hold the cache back) writes a
// `<trace>.run.events.jsonl` sidecar instead, as elastic workers write
// `<trace>.worker-N.events.jsonl`; the run that finalizes splices every
// sidecar plus its own events into the single merged `<trace>` JSON and
// removes the sidecars. `--metrics-out path`
// (default `<cache>.metrics.json` when tracing) writes the flat metric
// snapshot, and a one-screen summary table prints at exit.
//
// Elastic sweeps (DESIGN.md §7h): `--workers N` runs a controller that
// forks N worker processes, leases them bounded point chunks, and
// revokes/re-leases on death, hang, or straggle. Chunks commit only on
// durable journal coverage, so kill -9 of any worker at any time still
// converges to the byte-identical cache.
//
// Usage: run_dse [--force] [--workers N] [--lease-points K]
//                [--heartbeat-ms MS] [--straggler-factor F] [--no-verify]
//                [--no-memo] [--bench] [--strict] [--retry-failed]
//                [--timeout S] [--inject SPEC] [--trace-out PATH]
//                [--metrics-out PATH] [--help]
//   --force        discard the cache and all journals, then sweep fresh
//   --workers N    elastic sweep with N forked worker processes; excludes
//                  --strict, needs a cache path. Without it (or with N=1)
//                  the sweep runs in-process
//   --lease-points K  points per leased chunk (default 8)
//   --heartbeat-ms MS interval of the controller's worker pings (default 250)
//   --straggler-factor F  revoke leases older than F x the median
//                  committed-chunk time (default 4)
//   --no-verify    skip config lint and result-invariant enforcement
//                  (src/verify); for performance experiments only —
//                  `dse_lint` can re-check the cache afterwards
//   --no-memo      disable the shared cross-point stage memo
//                  (core/stage_memo.hpp): every stage recomputes per point.
//                  Results are bit-identical with or without it; use this
//                  to bisect a suspected memo-staleness bug
//   --bench        sweep the fixed 24-point bench space (hydro x 4 core
//                  presets x 3 freqs x 2 channel counts) instead of the
//                  full grid — the chaos-test harness in CI uses this
//   --strict       fail fast: the first failing point aborts the sweep
//                  (exit 1) instead of quarantining
//   --retry-failed re-run points quarantined by a previous run (they are
//                  otherwise skipped on resume as known-bad)
//   --timeout S    per-point wall-clock budget in seconds; a runaway point
//                  quarantines as class `timeout`
//   --inject SPEC  arm fault injection, SPEC = site:kind:seed:prob[:param]
//                  [,spec...] (see src/verify/faultpoint.hpp); overrides
//                  the MUSA_FAULT environment variable
//   --trace-out P  arm span tracing; write the Chrome trace (or, for a
//                  run that does not finalize, its JSONL sidecar) to P. The
//                  MUSA_TRACE environment variable supplies a default path
//   --metrics-out P  write the flat metric snapshot JSON to P (defaults to
//                  `<cache>.metrics.json` whenever tracing is armed)
//   --help         print this usage text and exit 0
//
// Exit codes: 0 success, 1 strict-mode abort, 2 bad usage, 3 sweep
// completed with quarantined points.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/csv.hpp"
#include "common/progress.hpp"
#include "fig_common.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sweep/controller.hpp"
#include "verify/faultpoint.hpp"

namespace {

constexpr const char* kUsage =
    "usage: run_dse [--force] [--workers N] [--lease-points K]\n"
    "               [--heartbeat-ms MS] [--straggler-factor F] [--no-verify]\n"
    "               [--no-memo] [--bench] [--strict] [--retry-failed]\n"
    "               [--timeout S] [--inject SPEC] [--trace-out PATH]\n"
    "               [--metrics-out PATH] [--help]\n"
    "  --force         discard the cache and all journals, sweep fresh\n"
    "  --workers N     elastic sweep: fork N worker processes, lease them\n"
    "                  bounded point chunks, revoke + re-lease on death,\n"
    "                  hang, or straggle (DESIGN.md §7h). Excludes --strict;\n"
    "                  needs a cache path. Without it (or with N=1) the\n"
    "                  sweep runs in-process\n"
    "  --lease-points K   points per leased chunk (default 8)\n"
    "  --heartbeat-ms MS  interval of the controller's worker pings; a worker\n"
    "                  silent for 8 intervals is killed (default 250)\n"
    "  --straggler-factor F  revoke leases older than F x the median\n"
    "                  committed-chunk time (default 4)\n"
    "  --no-verify     skip config lint and result-invariant enforcement\n"
    "  --no-memo       disable the shared cross-point stage memo\n"
    "  --bench         sweep the fixed 24-point bench space\n"
    "  --strict        fail fast: first failing point aborts (exit 1)\n"
    "  --retry-failed  re-run points quarantined by a previous run\n"
    "  --timeout S     per-point wall-clock budget in seconds\n"
    "  --inject SPEC   arm fault injection (site:kind:seed:prob[:param],...);\n"
    "                  overrides MUSA_FAULT\n"
    "  --trace-out P   arm span tracing; write the Chrome trace_event JSON\n"
    "                  (Perfetto-loadable) to P. A run that does not\n"
    "                  finalize the sweep writes P.run.events.jsonl instead;\n"
    "                  the finalizing run merges every sidecar into the\n"
    "                  single P. MUSA_TRACE=path supplies a default\n"
    "  --metrics-out P write the flat metric snapshot JSON to P (defaults\n"
    "                  to <cache>.metrics.json whenever tracing is armed)\n"
    "  --help          print this text and exit 0\n"
    "exit codes: 0 success, 1 strict-mode abort, 2 bad usage, 3 sweep\n"
    "completed with quarantined points\n";

/// Strict non-negative decimal parse: the whole string must be digits.
/// sscanf-style parsing accepts "4x" and "0x4"; flag values that are not
/// pure numbers must die with exit 2 instead of running a different sweep
/// than the one asked for.
bool parse_uint(const char* s, long* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || v < 0) return false;
  *out = v;
  return true;
}

bool parse_positive(const char* s, double* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0' || !(v > 0.0)) return false;
  *out = v;
  return true;
}

void print_elastic(const musa::sweep::ElasticReport& er) {
  std::printf("elastic phase: %llu point(s) in %d chunk(s), %llu key(s) "
              "resolved in %s\n",
              static_cast<unsigned long long>(er.points), er.chunks,
              static_cast<unsigned long long>(er.resolved),
              musa::format_duration(er.wall_s).c_str());
  if (er.spawned > 0)
    std::printf("  workers: %d forked (%d respawn(s)), %d died, %d killed "
                "stale\n",
                er.spawned, er.respawns, er.deaths, er.killed);
  if (er.revocations > 0 || er.inprocess_chunks > 0)
    std::printf("  leases: %d revoked (%d straggler(s)); %d chunk(s) "
                "finished in-process by the controller\n",
                er.revocations, er.stragglers, er.inprocess_chunks);
  if (er.tail_dropped > 0)
    std::printf("  tailers dropped %llu corrupt worker record(s) "
                "(recomputed elsewhere)\n",
                static_cast<unsigned long long>(er.tail_dropped));
}

void print_report(const musa::core::SweepReport& rep) {
  std::printf("sweep report: %llu total, %llu resumed, %llu computed%s\n",
              static_cast<unsigned long long>(rep.total),
              static_cast<unsigned long long>(rep.resumed),
              static_cast<unsigned long long>(rep.computed),
              rep.finalized ? ", cache finalized" : "");
  if (rep.analysis_boxes > 0)
    std::printf("  static space analysis: plan proved feasible in %llu "
                "box(es); %llu infeasible grid config(s) skipped, per-point "
                "lint elided\n",
                static_cast<unsigned long long>(rep.analysis_boxes),
                static_cast<unsigned long long>(rep.statically_skipped));
  if (rep.dropped > 0)
    std::printf("  recovered from crash damage: %llu corrupt journal "
                "record(s) dropped and recomputed\n",
                static_cast<unsigned long long>(rep.dropped));
  if (rep.invalid > 0)
    std::printf("  verification: %llu cached row(s) violated result "
                "invariants; dropped and recomputed\n",
                static_cast<unsigned long long>(rep.invalid));
  if (rep.retries > 0)
    std::printf("  retried %llu transient io-class failure(s)\n",
                static_cast<unsigned long long>(rep.retries));
  if (rep.workers > 0 && rep.wall_s > 0.0 && rep.computed > 0)
    std::printf("  compute phase: %d worker(s), %s wall, occupancy %.1f%%\n",
                rep.workers, musa::format_duration(rep.wall_s).c_str(),
                100.0 * rep.stages.total_s() /
                    (rep.wall_s * static_cast<double>(rep.workers)));
  const musa::core::StageTimes& st = rep.stages;
  if (st.points > 0) {
    std::printf("stage breakdown over %llu simulated points "
                "(%s total compute):\n",
                static_cast<unsigned long long>(st.points),
                musa::format_duration(st.total_s()).c_str());
    const auto line = [&](const char* name, double s) {
      std::printf("  %-12s %8.2fs  (%5.1f%%)\n", name, s,
                  st.total_s() > 0 ? 100.0 * s / st.total_s() : 0.0);
    };
    line("burst", st.burst_s);
    line("kernel sim", st.kernel_s);
    line("MPI replay", st.replay_s);
    line("power", st.power_s);
  }
  const musa::core::MemoStats& m = rep.memo;
  if (m.total_hits() + m.total_misses() > 0) {
    std::printf("stage memo hit rates (hits/lookups):\n");
    const auto line = [](const char* name, std::uint64_t hits,
                         std::uint64_t misses) {
      std::printf("  %-12s %8llu/%-8llu (%5.1f%%)\n", name,
                  static_cast<unsigned long long>(hits),
                  static_cast<unsigned long long>(hits + misses),
                  100.0 * musa::core::MemoStats::rate(hits, misses));
    };
    line("burst", m.burst_hits, m.burst_misses);
    line("region", m.region_hits, m.region_misses);
    line("trace", m.trace_hits, m.trace_misses);
    line("stream", m.stream_hits, m.stream_misses);
    line("warm state", m.warm_hits, m.warm_misses);
    line("perfect mem", m.perfect_hits, m.perfect_misses);
  }
}

/// The post-sweep quarantine report: every FAIL row, with enough context
/// (class, stage, attempts, message) to debug the point without rerunning.
void print_quarantine(const musa::core::SweepReport& rep) {
  if (rep.quarantined == 0) return;
  std::printf("QUARANTINED: %llu point(s) failed and were contained:\n",
              static_cast<unsigned long long>(rep.quarantined));
  for (const auto& q : rep.quarantine)
    std::printf("  %-28s class=%-9s stage=%-7s attempts=%d  %s\n",
                q.key.c_str(), q.error_class.c_str(),
                q.stage.empty() ? "unknown" : q.stage.c_str(), q.attempts,
                q.message.c_str());
  std::printf("fix the cause (or clear the fault) and rerun with "
              "--retry-failed to recompute exactly these points\n");
}

/// Export pass run after every sweep, successful or quarantined. A run that
/// did not finalize the sweep (quarantines holding the cache back) parks
/// its events in a JSONL sidecar; the finalizing run splices every sidecar
/// (elastic workers leave theirs too) plus its own events into the single
/// merged Chrome trace and removes the sidecars. Export failures are
/// reported, never fatal — observability must not turn a finished sweep
/// into an error.
void export_observability(const std::string& trace_out,
                          const std::string& metrics_path,
                          const musa::core::SweepReport& rep) {
  using namespace musa;
  try {
    if (!trace_out.empty()) {
      const std::vector<obs::TraceEvent> events = obs::Tracer::drain();
      if (obs::Tracer::dropped() > 0)
        std::fprintf(stderr,
                     "[obs] trace ring wrapped: %llu oldest event(s) lost\n",
                     static_cast<unsigned long long>(obs::Tracer::dropped()));
      obs::TraceMeta meta;
      meta.process_name = "run_dse";
      const std::vector<std::string> sidecars =
          obs::find_trace_sidecars(trace_out);
      if (!rep.finalized) {
        const std::string sidecar = obs::trace_sidecar_path(trace_out, "run");
        obs::write_trace_jsonl(sidecar, events, obs::Tracer::epoch_unix_us(),
                               meta);
        std::printf("trace sidecar written: %s (%zu event(s); merges into "
                    "%s when the sweep finalizes)\n",
                    sidecar.c_str(), events.size(), trace_out.c_str());
      } else if (events.empty() && sidecars.empty() &&
                 CsvDoc::file_exists(trace_out)) {
        // A pure cache-hit rerun after the trace was already merged: leave
        // the merged timeline alone instead of overwriting it with nothing.
        std::printf("trace already merged: %s (left untouched)\n",
                    trace_out.c_str());
      } else {
        obs::write_chrome_trace(trace_out, events,
                                obs::Tracer::epoch_unix_us(), meta, sidecars);
        for (const auto& p : sidecars) std::remove(p.c_str());
        std::printf("trace written: %s (%zu local event(s), %zu sidecar(s) "
                    "merged; load in Perfetto or chrome://tracing)\n",
                    trace_out.c_str(), events.size(), sidecars.size());
      }
    }
    if (!metrics_path.empty()) {
      const obs::MetricsSnapshot snap = obs::MetricRegistry::global().snapshot();
      obs::write_metrics_json(metrics_path, snap);
      std::printf("metrics written: %s\n", metrics_path.c_str());
      std::printf("%s", obs::summary_table(snap).c_str());
    }
  } catch (const musa::SimError& e) {
    std::fprintf(stderr, "[obs] export failed: %s\n", e.what());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace musa;
  bool force = false;
  bool bench_sweep = false;
  const char* inject_spec = nullptr;
  std::string trace_out;
  std::string metrics_out;
  core::SweepOptions opts;
  sweep::ElasticOptions elastic;
  bool workers_flag = false;   // --workers given (any N)
  bool elastic_tuning = false; // a lease/heartbeat/straggler knob given
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--force") == 0) {
      force = true;
    } else if (std::strcmp(argv[a], "--help") == 0) {
      std::printf("%s", kUsage);
      return 0;
    } else if (std::strcmp(argv[a], "--trace-out") == 0 && a + 1 < argc) {
      trace_out = argv[++a];
    } else if (std::strcmp(argv[a], "--metrics-out") == 0 && a + 1 < argc) {
      metrics_out = argv[++a];
    } else if (std::strcmp(argv[a], "--no-verify") == 0) {
      opts.verify = false;
    } else if (std::strcmp(argv[a], "--no-memo") == 0) {
      opts.memoize = false;
    } else if (std::strcmp(argv[a], "--bench") == 0) {
      bench_sweep = true;
    } else if (std::strcmp(argv[a], "--strict") == 0) {
      opts.fail_fast = true;
    } else if (std::strcmp(argv[a], "--retry-failed") == 0) {
      opts.retry_failed = true;
    } else if (std::strcmp(argv[a], "--timeout") == 0 && a + 1 < argc) {
      if (!parse_positive(argv[++a], &opts.point_timeout_s)) {
        std::fprintf(stderr, "bad --timeout '%s' (want seconds > 0)\n%s",
                     argv[a], kUsage);
        return 2;
      }
    } else if (std::strcmp(argv[a], "--inject") == 0 && a + 1 < argc) {
      inject_spec = argv[++a];
    } else if (std::strcmp(argv[a], "--workers") == 0 && a + 1 < argc) {
      long n = 0;
      if (!parse_uint(argv[++a], &n) || n < 1) {
        std::fprintf(stderr, "bad --workers '%s' (want an integer >= 1)\n%s",
                     argv[a], kUsage);
        return 2;
      }
      elastic.workers = static_cast<int>(n);
      workers_flag = true;
    } else if (std::strcmp(argv[a], "--lease-points") == 0 && a + 1 < argc) {
      long k = 0;
      if (!parse_uint(argv[++a], &k) || k < 1) {
        std::fprintf(stderr,
                     "bad --lease-points '%s' (want an integer >= 1)\n%s",
                     argv[a], kUsage);
        return 2;
      }
      elastic.lease_points = static_cast<int>(k);
      elastic_tuning = true;
    } else if (std::strcmp(argv[a], "--heartbeat-ms") == 0 && a + 1 < argc) {
      double ms = 0.0;
      if (!parse_positive(argv[++a], &ms)) {
        std::fprintf(stderr,
                     "bad --heartbeat-ms '%s' (want milliseconds > 0)\n%s",
                     argv[a], kUsage);
        return 2;
      }
      elastic.heartbeat_s = ms / 1e3;
      elastic_tuning = true;
    } else if (std::strcmp(argv[a], "--straggler-factor") == 0 &&
               a + 1 < argc) {
      if (!parse_positive(argv[++a], &elastic.straggler_factor)) {
        std::fprintf(stderr,
                     "bad --straggler-factor '%s' (want a factor > 0)\n%s",
                     argv[a], kUsage);
        return 2;
      }
      elastic_tuning = true;
    } else {
      std::fprintf(stderr, "%s", kUsage);
      return 2;
    }
  }

  // Flag-combination validation, all exit 2: containment is load-bearing
  // for the elastic convergence argument (a --strict worker that aborted on
  // the first fault-injected point could never drain a poisoned chunk).
  // Only an explicit --workers N with N > 1 forks; ElasticOptions' default
  // worker count must not turn a bare run into a multi-process one.
  const bool elastic_run = workers_flag && elastic.workers > 1;
  if (workers_flag && opts.fail_fast) {
    std::fprintf(stderr, "--workers is incompatible with --strict: elastic "
                         "workers must contain failures as FAIL rows\n%s",
                 kUsage);
    return 2;
  }
  if (elastic_tuning && !workers_flag) {
    std::fprintf(stderr,
                 "--lease-points / --heartbeat-ms / --straggler-factor "
                 "tune the elastic controller; add --workers N\n%s",
                 kUsage);
    return 2;
  }

  // MUSA_TRACE supplies a default trace path when --trace-out is absent —
  // the env route exists so wrappers (CI, sweep_bench) can arm tracing
  // without plumbing a flag through.
  if (trace_out.empty())
    if (const char* env = std::getenv("MUSA_TRACE"))
      trace_out = env;

  try {
    verify::FaultPlan plan = inject_spec != nullptr
                                 ? verify::FaultPlan::parse(inject_spec)
                                 : verify::FaultPlan::from_env();
    if (!plan.empty())
      std::printf("fault injection ARMED: %s\n", plan.str().c_str());
    verify::FaultPlan::install(std::move(plan));
  } catch (const SimError& e) {
    std::fprintf(stderr, "bad fault spec: %s\n", e.what());
    return 2;
  }

  // Without --bench the plan is the paper grid (SweepOptions::axes unset),
  // built through the static space analyzer.
  if (bench_sweep) {
    opts.apps = {bench::bench_app()};
    opts.configs = bench::bench_space();
  }

  core::Pipeline pipeline;
  if (elastic_run && bench::dse_cache_path().empty()) {
    std::fprintf(stderr,
                 "--workers needs a cache path: worker results travel "
                 "through its journals; set MUSA_DSE_CACHE\n");
    return 2;
  }
  if (elastic_run && !sweep::elastic_supported()) {
    std::fprintf(stderr,
                 "--workers needs fork + socketpair; this platform has "
                 "neither — run without it\n");
    return 2;
  }
  // The elastic finalize pass never retries FAIL rows: a --retry-failed
  // elastic run already handed the quarantined keys back to the workers,
  // so retrying again in-process would compute them a third time.
  core::SweepOptions finalize_opts = opts;
  if (elastic_run) finalize_opts.retry_failed = false;
  core::DseEngine dse(pipeline, bench::dse_cache_path(), finalize_opts);

  if (bench_sweep)
    std::printf("MUSA-DSE bench sweep (24 configs x 1 app = 24 points)\n");
  else
    std::printf("MUSA-DSE full sweep (864 configs x 5 apps = 4320 points)\n");
  std::printf("cache file: %s\n", bench::dse_cache_path().c_str());
  if (elastic_run)
    std::printf("elastic controller: %d workers, %d-point leases, "
                "heartbeat %.0fms, straggler factor %.1fx\n",
                elastic.workers, elastic.lease_points,
                elastic.heartbeat_s * 1e3, elastic.straggler_factor);
  if (opts.point_timeout_s > 0.0)
    std::printf("per-point watchdog: %.3gs\n", opts.point_timeout_s);
  if (!trace_out.empty()) {
    obs::Tracer::install();
    if (metrics_out.empty()) {
      const std::string& cache = bench::dse_cache_path();
      metrics_out = (cache.empty() ? trace_out : cache) + ".metrics.json";
    }
    std::printf("tracing ARMED: spans -> %s, metrics -> %s\n",
                trace_out.c_str(), metrics_out.c_str());
  }
  if (!opts.verify)
    std::printf("verification DISABLED (--no-verify): configs and results "
                "will not be checked; lint the cache with dse_lint later\n");

  core::SweepReport rep;
  try {
    if (elastic_run) {
      // Lease phase first: workers resolve every pending key into durable
      // journal rows. --force must discard *before* the controller runs or
      // the finalize sweep would throw the workers' journals away.
      if (force) dse.clear_cache();
      elastic.trace_path = trace_out;
      sweep::ElasticController controller(pipeline, bench::dse_cache_path(),
                                          opts, elastic);
      print_elastic(controller.run());
      // Finalize: a plain in-process sweep merges the worker journals,
      // recomputes any residue, and writes the cache — the same authority
      // a fault-free single-process run ends with.
      rep = dse.sweep(/*force=*/false);
    } else {
      rep = dse.sweep(force);
    }
  } catch (const SimError& e) {
    std::fprintf(stderr, "sweep aborted%s: %s\n",
                 opts.fail_fast ? " (--strict)" : "", e.what());
    return 1;
  }
  print_report(rep);
  print_quarantine(rep);
  // Export before any early exit: quarantined runs are exactly the ones
  // whose timelines are worth inspecting.
  export_observability(trace_out, metrics_out, rep);
  if (rep.quarantined > 0) return 3;

  const auto& results = dse.results();
  std::printf("sweep complete: %zu simulation results available\n",
              results.size());

  // Quick integrity summary: per-app result counts and time ranges.
  for (const auto& app : apps::registry()) {
    double tmin = 1e30, tmax = 0;
    int n = 0;
    for (const auto& r : results) {
      if (r.app != app.name) continue;
      ++n;
      tmin = std::min(tmin, r.wall_seconds);
      tmax = std::max(tmax, r.wall_seconds);
    }
    if (n == 0) continue;  // app not in this plan (--bench sweeps one app)
    std::printf("  %-8s %4d points, wall time %8.2f .. %8.2f ms\n",
                app.name.c_str(), n, tmin * 1e3, tmax * 1e3);
  }
  return 0;
}
