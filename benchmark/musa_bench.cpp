// The repository benchmark (benchmark/README.md): four workloads over the
// MUSA design-space explorer, every metric printed by name with its unit,
// every output row checked against the committed dse_cache.csv.
//
//   musa_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1|DIR]
//              [--smoke] [--out FILE]
//     Runs one workload. The last line of standard output is one JSON
//     object {"correct", "attempted", "failed", "metrics"}: the end-to-end
//     metrics, or with --trace the per-layer metrics of a traced re-run
//     (which also writes DIR/<workload>.trace.json and DIR/layers.json).
//
//   musa_bench [--seed N] [--seconds S] [--trace 0|1|DIR] [--smoke]
//              [--repeat N] [--out FILE]
//     The suite: every workload in its own child process (10 s each unless
//     --seconds says otherwise), `workload metric value unit` per line.
//     --repeat N alternates the workload order and
//     prints median and quartiles per metric, flagging any whose spread
//     exceeds half its BENCHMARK.json bound.
//
// Exit status: 0 when every output was correct, 1 on any wrong, missing or
// refused answer, 2 on bad usage or a run that could not complete.
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "bench_common.hpp"
#include "common/parse.hpp"
#include "obs/span.hpp"
#include "serve/wire.hpp"

namespace {

using namespace bench;
namespace fs = std::filesystem;
using musa::serve::JsonValue;

// Measuring time of one workload run: BENCHMARK.json's run_seconds, and
// less in the suite, so that all four run untraced within a minute.
constexpr double kRunSeconds = 20.0;
constexpr double kSuiteSeconds = 10.0;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json; benchmark/smoke.sh checks that it does.
constexpr MetricDef kEndToEnd[] = {
    {"throughput", "1/s"},      {"p50_ms", "ms"},
    {"p99_ms", "ms"},           {"light_p50_ms", "ms"},
    {"peak_rss_mb", "MiB"},     {"setup_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    {"core.kernel_busy_s", "s"},
    {"core.replay_busy_s", "s"},
    {"core.burst_busy_s", "s"},
    {"core.power_busy_s", "s"},
    {"core.points_timed", "count"},
    {"core.occupancy", "fraction"},
    {"core.memo_hit_rate.stream", "fraction"},
    {"core.memo_hit_rate.warm", "fraction"},
    {"core.memo_hit_rate.perfect", "fraction"},
    {"core.memo_hit_rate.burst", "fraction"},
    {"core.memo_lookups.stream", "count"},
    {"core.memo_lookups.warm", "count"},
    {"core.memo_lookups.perfect", "count"},
    {"core.memo_lookups.burst", "count"},
    {"core.plan_ms", "ms"},
    {"core.sim_minstr_per_s", "Minstr/s"},
    {"isa.fusion_ns_per_instr", "ns"},
    {"isa.fusion_instrs", "count"},
    {"cpusim.core_ns_per_instr", "ns"},
    {"cpusim.core_instrs", "count"},
    {"cpusim.mem_ns_per_access", "ns"},
    {"cpusim.mem_accesses", "count"},
    {"cachesim.hier_ns_per_access", "ns"},
    {"cachesim.hier_accesses", "count"},
    {"dramsim.ns_per_request", "ns"},
    {"dramsim.requests", "count"},
    {"cpusim.runtime_us_per_region", "us"},
    {"netsim.replay_ms_per_trace", "ms"},
    {"common.journal_append_us_p50", "us"},
    {"common.journal_append_us_p99", "us"},
    {"common.journal_appends", "count"},
    {"sweep.lease_phase_s", "s"},
    {"sweep.finalize_s", "s"},
    {"sweep.chunks", "count"},
    {"sweep.respawns", "count"},
    {"sweep.revocations", "count"},
    {"sweep.worker_peak_rss_mb", "MiB"},
    {"serve.parse_us", "us"},
    {"serve.reply_us", "us"},
    {"serve.server_p50_us", "us"},
    {"serve.io_p50_us", "us"},
    {"serve.computed", "count"},
    {"serve.cache_hits", "count"},
    {"serve.dedup_hits", "count"},
    {"serve.busy", "count"},
    {"gen.late_p99_ms", "ms"},
    {"obs.trace_overhead", "ratio"},
};

struct Workload {
  const char* name;
  WorkloadFn fn;
};
constexpr Workload kWorkloads[] = {
    {"paper_sweep", paper_sweep},
    {"extended_elastic", extended_elastic},
    {"serve_cold", serve_cold},
    {"serve_cached", serve_cached},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = -1.0;  // < 0: default
  std::string trace = "0";
  std::string out;
  int repeat = 1;
  bool smoke = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: musa_bench [--workload NAME] [--seed N] [--seconds S]\n"
               "                  [--trace 0|1|DIR] [--smoke] [--repeat N]\n"
               "                  [--out FILE]\n"
               "workloads: paper_sweep extended_elastic serve_cold "
               "serve_cached\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      if (!musa::parse_u64(v, &a->seed)) return false;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      a->seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a->seconds > 0) ||
          a->seconds > 600)
        return false;
    } else if (flag == "--trace") {
      a->trace = v;
    } else if (flag == "--out") {
      a->out = v;
    } else if (flag == "--repeat") {
      if (!musa::parse_u64(v, &n) || n == 0 || n > 100) return false;
      a->repeat = static_cast<int>(n);
    } else {
      return false;
    }
  }
  return true;
}

std::string exe_path() {
  return fs::read_symlink("/proc/self/exe").string();
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::map<std::string, double>& values,
                         const MetricDef* defs, std::size_t n) {
  std::string out = "{";
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = values.find(defs[i].name);
    out += std::string(i ? ", " : "") + "\"" + defs[i].name +
           "\": {\"value\": " + num(it == values.end() ? 0.0 : it->second) +
           ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  return out + "}";
}

/// Non-finite values are a measurement bug: zero them and count a failure.
void sanitize(std::map<std::string, double>& values, Run& run) {
  for (auto& [name, v] : values)
    if (!std::isfinite(v)) {
      run.fail(1, "metric " + name + " is not finite");
      v = 0.0;
    }
}

// ------------------------------------------------------------ one workload

int run_one(const Args& a, const Workload& w) {
  Ctx ctx;
  ctx.workload = w.name;
  ctx.seed = a.seed;
  ctx.smoke = a.smoke;
  ctx.seconds = a.seconds > 0 ? a.seconds : a.smoke ? 2.0 : kRunSeconds;
  ctx.root = fs::current_path().string();
  ctx.exe_dir = fs::path(exe_path()).parent_path().string();
  ctx.trace = a.trace != "0";
  ctx.trace_dir = a.trace == "1" ? ctx.root + "/benchmark/build/traces"
                                 : fs::absolute(a.trace).string();
  ctx.work = ctx.exe_dir + "/work-" + std::to_string(::getpid());
  const std::string out_path =
      a.out.empty() ? "" : fs::absolute(a.out).string();

  // At most four compute threads, whatever the host offers.
  ::setenv("MUSA_THREADS", "4", 1);
  const Reference ref = Reference::load(ctx.root + "/dse_cache.csv");
  ctx.ref = &ref;
  fs::create_directories(ctx.work);
  // Sockets live in the work dir under short relative names.
  if (::chdir(ctx.work.c_str()) != 0) {
    std::fprintf(stderr, "musa_bench: cannot enter %s\n", ctx.work.c_str());
    return 2;
  }

  Run run;
  SpanLog log;
  try {
    ProbeInputs untraced_in;
    const double untraced = w.fn(ctx, false, run, log, untraced_in);
    if (ctx.trace) {
      // The traced pass starts from empty caches of its own.
      Ctx tctx = ctx;
      tctx.work += "/traced";
      fs::create_directories(tctx.work);
      musa::obs::Tracer::install();
      log.arm();
      ProbeInputs in;
      const double traced = w.fn(tctx, true, run, log, in);
      run_probes(tctx, in, run, log);
      run.per_layer["obs.trace_overhead"] = untraced > 0 ? traced / untraced : 0.0;
      export_trace(tctx, in, log, run);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "musa_bench: %s: %s\n", w.name, e.what());
    if (::chdir(ctx.root.c_str()) == 0) fs::remove_all(ctx.work);
    return 2;
  }
  if (::chdir(ctx.root.c_str()) == 0) fs::remove_all(ctx.work);

  sanitize(run.end_to_end, run);
  sanitize(run.per_layer, run);
  for (const std::string& p : run.problems)
    std::fprintf(stderr, "musa_bench: %s: FAIL %s\n", w.name, p.c_str());
  for (const auto& d : kEndToEnd)
    std::printf("%s %s %s %s\n", w.name, d.name,
                num(run.end_to_end[d.name]).c_str(), d.unit);
  if (ctx.trace)
    for (const auto& d : kPerLayer)
      std::printf("%s %s %s %s\n", w.name, d.name,
                  num(run.per_layer[d.name]).c_str(), d.unit);
  const bool correct = run.failed == 0;
  const std::string e2e = metrics_json(run.end_to_end, kEndToEnd, std::size(kEndToEnd));
  const std::string layers =
      metrics_json(run.per_layer, kPerLayer, std::size(kPerLayer));
  const std::string head = std::string("\"correct\": ") +
                           (correct ? "true" : "false") +
                           ", \"attempted\": " + std::to_string(run.attempted) +
                           ", \"failed\": " + std::to_string(run.failed);
  if (!out_path.empty()) {
    std::string problems;
    for (const std::string& p : run.problems)
      problems += (problems.empty() ? "" : ", ") + std::string("\"") +
                  musa::serve::json_escape(p) + "\"";
    std::ofstream(out_path) << "{\"workload\": \"" << w.name
                            << "\", \"seed\": " << ctx.seed
                            << ", \"seconds\": " << num(ctx.seconds) << ", "
                            << head << ", \"problems\": [" << problems
                            << "], \"end_to_end\": " << e2e
                            << (ctx.trace ? ", \"per_layer\": " + layers : "")
                            << "}\n";
  }
  std::printf("{%s, \"metrics\": %s}\n", head.c_str(),
              ctx.trace ? layers.c_str() : e2e.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// ------------------------------------------------------------------- suite

/// Bounds of the end-to-end metrics, from BENCHMARK.json.
std::map<std::string, double> read_bounds() {
  std::map<std::string, double> bounds;
  const JsonValue doc = parse_json_file("BENCHMARK.json");
  if (const JsonValue* e2e = doc.find("end_to_end"))
    for (const JsonValue& m : e2e->array)
      bounds[m.find("name")->string] = m.find("bound")->number;
  return bounds;
}

int run_suite(const Args& a) {
  const std::map<std::string, double> bounds = read_bounds();
  const std::string self = exe_path();
  const std::string tmp_dir = fs::path(self).parent_path().string() +
                              "/suite-" + std::to_string(::getpid());
  fs::create_directories(tmp_dir);
  const std::string trace =
      a.trace == "0" || a.trace == "1" ? a.trace : fs::absolute(a.trace).string();

  std::map<std::string, std::map<std::string, std::vector<double>>> samples;
  std::string runs_json;
  bool ok = true;
  for (int rep = 0; rep < a.repeat; ++rep) {
    std::vector<const Workload*> order;
    for (const Workload& w : kWorkloads) order.push_back(&w);
    if (rep % 2 == 1) std::reverse(order.begin(), order.end());
    for (const Workload* w : order) {
      const std::string out = tmp_dir + "/" + w->name + ".json";
      std::vector<std::string> args = {self,    "--workload", w->name,
                                       "--seed", std::to_string(a.seed),
                                       "--trace", trace,     "--out", out};
      if (a.seconds > 0 || !a.smoke) {
        args.push_back("--seconds");
        args.push_back(num(a.seconds > 0 ? a.seconds : kSuiteSeconds));
      }
      if (a.smoke) args.push_back("--smoke");
      const pid_t pid = spawn_child(args);
      int status = 0;
      if (pid < 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
          WEXITSTATUS(status) != 0) {
        std::printf("%s FAILED (exit status %d)\n", w->name,
                    WIFEXITED(status) ? WEXITSTATUS(status) : -1);
        ok = false;
      }
      if (!fs::exists(out)) {
        std::printf("%s produced no result\n", w->name);
        std::fflush(stdout);
        ok = false;
        continue;
      }
      const JsonValue rec = parse_json_file(out);
      runs_json += (runs_json.empty() ? "\n  " : ",\n  ") + read_file(out);
      while (runs_json.back() == '\n') runs_json.pop_back();
      const double attempted = rec.find("attempted")->number;
      const double failed = rec.find("failed")->number;
      std::printf("%s error_rate %s fraction\n", w->name,
                  num(attempted > 0 ? failed / attempted : 1.0).c_str());
      for (const char* section : {"end_to_end", "per_layer"}) {
        const JsonValue* metrics = rec.find(section);
        if (metrics == nullptr) continue;
        for (const auto& [name, m] : metrics->object) {
          std::printf("%s %s %s %s\n", w->name, name.c_str(),
                      num(m.find("value")->number).c_str(),
                      m.find("unit")->string.c_str());
          samples[w->name][name].push_back(m.find("value")->number);
        }
      }
      std::fflush(stdout);
    }
  }
  fs::remove_all(tmp_dir);

  std::string summary;
  if (a.repeat > 1) {
    std::printf("\n%-17s %-14s %12s %12s %12s %8s %6s\n", "workload", "metric",
                "median", "q1", "q3", "iqr/med", "bound");
    for (const Workload& w : kWorkloads)
      for (const auto& d : kEndToEnd) {
        const std::vector<double>& v = samples[w.name][d.name];
        const double med = median(v), q1 = quantile(v, 0.25),
                     q3 = quantile(v, 0.75);
        const double spread = med != 0 ? (q3 - q1) / std::fabs(med) : 0.0;
        const double bound = bounds.count(d.name) ? bounds.at(d.name) : 0.0;
        const bool flag = spread > bound / 2;
        std::printf("%-17s %-14s %12.5g %12.5g %12.5g %8.4f %6.2f%s\n", w.name,
                    d.name, med, q1, q3, spread, bound,
                    flag ? "  SPREAD > bound/2: lengthen the run" : "");
        summary += std::string(summary.empty() ? "\n  " : ",\n  ") + "\"" +
                   w.name + "." + d.name + "\": {\"median\": " + num(med) +
                   ", \"q1\": " + num(q1) + ", \"q3\": " + num(q3) +
                   ", \"spread\": " + num(spread) +
                   ", \"flag\": " + (flag ? "true" : "false") + "}";
      }
  }
  if (!a.out.empty())
    std::ofstream(a.out) << "{\"seed\": " << a.seed << ", \"repeat\": "
                         << a.repeat << ", \"runs\": [" << runs_json
                         << "\n], \"summary\": {" << summary << "\n}}\n";
  std::printf("suite: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a)) return usage();
  try {
    if (a.workload.empty()) return run_suite(a);
    for (const Workload& w : kWorkloads)
      if (a.workload == w.name) return run_one(a, w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "musa_bench: %s\n", e.what());
    return 2;
  }
  return usage();
}
