// Traced-pass layer probes: each substrate timed through its public API on
// the workload's own configs, rows and request lines, plus the trace and
// per-layer self-time export.
#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bench_common.hpp"
#include "cachesim/hierarchy.hpp"
#include "common/journal.hpp"
#include "cpusim/core_model.hpp"
#include "cpusim/runtime.hpp"
#include "dramsim/dram.hpp"
#include "isa/vector_fusion.hpp"
#include "netsim/dimemas.hpp"
#include "obs/export.hpp"
#include "obs/span.hpp"
#include "serve/wire.hpp"
#include "trace/instr_source.hpp"
#include "trace/kernel.hpp"

namespace bench {

namespace core = musa::core;

namespace {

constexpr std::uint64_t kComponentInstrs = 131072;
constexpr double kMinProbeS = 0.02;  // repeat cheap probes at least this long

double ns_since(Clock::time_point t0) { return 1e9 * secs(t0, Clock::now()); }

// The pipeline's reduced-scale working sets and caches (DESIGN.md §8). These
// mirror file-local helpers of core/pipeline.cpp; the component rates below
// are therefore an approximation of the kernel stage, not an exact split.
musa::trace::KernelProfile scaled_profile(musa::trace::KernelProfile p,
                                          int factor) {
  p.vec_ws_bytes = std::max<std::uint64_t>(256, p.vec_ws_bytes / factor);
  for (auto& st : p.streams)
    st.ws_bytes = std::max<std::uint64_t>(256, st.ws_bytes / factor);
  return p;
}

musa::cachesim::HierarchyConfig scaled_caches(
    const musa::cachesim::HierarchyConfig& c, int factor, double l3_share) {
  musa::cachesim::HierarchyConfig s = c;
  s.num_cores = 1;
  s.l1.size_bytes = std::max<std::uint64_t>(
      musa::cachesim::kLineBytes * s.l1.ways,
      c.l1.size_bytes / std::max(1, factor / 2));
  s.l2.size_bytes = std::max<std::uint64_t>(
      musa::cachesim::kLineBytes * s.l2.ways, c.l2.size_bytes / factor);
  s.l3.size_bytes = std::max<std::uint64_t>(
      musa::cachesim::kLineBytes * s.l3.ways,
      static_cast<std::uint64_t>(static_cast<double>(c.l3.size_bytes) /
                                 factor * l3_share));
  return s;
}

/// Component replay: for each app and each probe config, the kernel stream
/// through vector fusion, the core model with perfect memory and against
/// the cache hierarchy + DRAM, the hierarchy and DRAM on their own, the
/// runtime scheduler and the 256-rank MPI replay.
void probe_components(const std::vector<core::MachineConfig>& configs,
                      Run& run, SpanLog& log) {
  const core::PipelineOptions opts;
  double fusion_ns = 0, core_ns = 0, mem_ns = 0, hier_ns = 0, dram_ns = 0,
         runtime_us = 0, replay_ms = 0;
  double fusion_n = 0, core_n = 0, mem_n = 0, hier_n = 0, dram_n = 0,
         regions = 0, traces = 0;
  for (const auto& app : musa::apps::registry()) {
    const musa::trace::AppTrace burst_trace =
        musa::apps::make_burst_trace(app, 256, opts.seed + 1);
    const musa::trace::Region region =
        musa::apps::make_region(app.phases().front(), opts.seed);
    const musa::trace::KernelProfile profile =
        scaled_profile(app.kernel, opts.cache_scale);
    std::vector<musa::isa::Instr> stream;
    {
      musa::trace::KernelSource src(profile, kComponentInstrs,
                                    opts.seed * 7919 + 17);
      for (musa::isa::Instr i; src.next(i);) stream.push_back(i);
    }
    for (const core::MachineConfig& config : configs) {
      const double share = config.cores > 1 ? 1.0 / config.cores : 1.0;
      const auto caches =
          scaled_caches(config.cache_config(1), opts.cache_scale, share);
      musa::dramsim::DramTiming timing = musa::dramsim::timing_for(config.mem_tech);
      if (config.cores > 1) timing.bytes_per_clock /= config.cores;
      const musa::Frequency freq{config.freq_ghz};
      {
        Scope span(log, "probe.isa.fusion");
        musa::trace::SpanSource src(stream);
        musa::isa::VectorFusion fusion(src, config.vector_bits);
        musa::isa::FusedBlock block;
        const auto t0 = Clock::now();
        while (fusion.next_block(block)) {
        }
        fusion_ns += ns_since(t0);
        fusion_n += static_cast<double>(fusion.stats().in_instrs);
      }
      double perfect_ns = 0;
      {
        Scope span(log, "probe.cpusim.core_perfect");
        musa::cachesim::MemHierarchy h(caches);
        musa::dramsim::DramSystem dram(timing, config.mem_channels);
        musa::cpusim::CoreModel model(config.core, freq, h, dram);
        musa::trace::SpanSource src(stream);
        const auto t0 = Clock::now();
        const auto stats = model.run(
            src, {.vector_bits = config.vector_bits, .perfect_memory = true});
        perfect_ns = ns_since(t0);
        core_ns += perfect_ns;
        core_n += static_cast<double>(stats.scalar_instrs);
      }
      {
        Scope span(log, "probe.cpusim.core_memory");
        musa::cachesim::MemHierarchy h(caches);
        musa::dramsim::DramSystem dram(timing, config.mem_channels);
        musa::cpusim::CoreModel model(config.core, freq, h, dram);
        musa::trace::SpanSource src(stream);
        const auto t0 = Clock::now();
        const auto stats = model.run(src, {.vector_bits = config.vector_bits});
        mem_ns += ns_since(t0) - perfect_ns;
        mem_n += static_cast<double>(stats.l1_accesses);
      }
      std::vector<std::uint64_t> misses;
      {
        Scope span(log, "probe.cachesim.hierarchy");
        musa::cachesim::MemHierarchy h(caches);
        const auto t0 = Clock::now();
        for (const musa::isa::Instr& in : stream) {
          if (!musa::isa::is_mem(in.op)) continue;
          const auto out =
              h.access(0, in.addr, in.op == musa::isa::OpClass::kStore);
          if (out.dram_read) misses.push_back(in.addr);
          ++hier_n;
        }
        hier_ns += ns_since(t0);
      }
      {
        Scope span(log, "probe.dramsim.requests");
        musa::dramsim::DramSystem dram(timing, config.mem_channels);
        double now = 0.0;
        const auto t0 = Clock::now();
        for (const std::uint64_t addr : misses) dram.request(now += 2.0, addr, false);
        dram_ns += ns_since(t0);
        dram_n += static_cast<double>(misses.size());
      }
      {
        Scope span(log, "probe.cpusim.runtime");
        const musa::cpusim::RuntimeSim sim;
        const auto t0 = Clock::now();
        sim.run(region, {{.seconds_per_work = 1e-5}},
                {.cores = config.cores,
                 .dispatch_overhead_s = app.dispatch_overhead_s});
        runtime_us += ns_since(t0) / 1e3;
        ++regions;
      }
      {
        Scope span(log, "probe.netsim.replay");
        const musa::netsim::DimemasEngine net(opts.network);
        const auto t0 = Clock::now();
        net.replay(burst_trace, {.region_scale = {1.0}});
        replay_ms += ns_since(t0) / 1e6;
        ++traces;
      }
    }
  }
  const auto per = [](double total, double n) { return n > 0 ? total / n : 0.0; };
  run.per_layer["isa.fusion_ns_per_instr"] = per(fusion_ns, fusion_n);
  run.per_layer["isa.fusion_instrs"] = fusion_n;
  run.per_layer["cpusim.core_ns_per_instr"] = per(core_ns, core_n);
  run.per_layer["cpusim.core_instrs"] = core_n;
  run.per_layer["cpusim.mem_ns_per_access"] = per(mem_ns, mem_n);
  run.per_layer["cpusim.mem_accesses"] = mem_n;
  run.per_layer["cachesim.hier_ns_per_access"] = per(hier_ns, hier_n);
  run.per_layer["cachesim.hier_accesses"] = hier_n;
  run.per_layer["dramsim.ns_per_request"] = per(dram_ns, dram_n);
  run.per_layer["dramsim.requests"] = dram_n;
  run.per_layer["cpusim.runtime_us_per_region"] = per(runtime_us, regions);
  run.per_layer["netsim.replay_ms_per_trace"] = per(replay_ms, traces);
}

/// ResultJournal::append (fsync'd) of the workload's own rows.
void probe_journal(const Ctx& ctx, const ProbeInputs& in, Run& run,
                   SpanLog& log) {
  Scope span(log, "probe.common.journal_append");
  const std::string path = ctx.work + "/probe.journal";
  std::vector<double> us;
  {
    musa::ResultJournal journal(path, core::DseEngine::csv_header());
    for (const auto& [key, cells] : in.rows) {
      const auto t0 = Clock::now();
      journal.append(key, cells);
      us.push_back(ns_since(t0) / 1e3);
    }
    journal.discard();
  }
  run.per_layer["common.journal_append_us_p50"] = quantile(us, 0.50);
  run.per_layer["common.journal_append_us_p99"] = quantile(us, 0.99);
  run.per_layer["common.journal_appends"] = static_cast<double>(us.size());
}

/// serve::parse_request on request lines, serve::reply_result on replies.
void probe_wire(const ProbeInputs& in, Run& run, SpanLog& log) {
  {
    Scope span(log, "probe.serve.parse_request");
    std::size_t calls = 0;
    const auto t0 = Clock::now();
    do {
      for (const std::string& line : in.request_lines) {
        musa::serve::Request req;
        std::string err;
        if (!musa::serve::parse_request(line, &req, &err))
          run.fail(1, "own request line rejected: " + err);
        ++calls;
      }
    } while (calls > 0 && secs(t0, Clock::now()) < kMinProbeS);
    run.per_layer["serve.parse_us"] =
        calls > 0 ? ns_since(t0) / 1e3 / static_cast<double>(calls) : 0.0;
  }
  Scope span(log, "probe.serve.reply_result");
  std::size_t calls = 0, bytes = 0;
  const auto t0 = Clock::now();
  do {
    for (const auto& r : in.replies) {
      bytes += musa::serve::reply_result(r.id, r.key, r.row, r.cached).size();
      ++calls;
    }
  } while (calls > 0 && secs(t0, Clock::now()) < kMinProbeS);
  run.per_layer["serve.reply_us"] =
      calls > 0 ? ns_since(t0) / 1e3 / static_cast<double>(calls) : 0.0;
  if (calls > 0 && bytes == 0) run.fail(1, "empty reply lines");
}

/// core::make_sweep_plan on the workload's plan shapes, mean per plan.
void probe_plans(const ProbeInputs& in, Run& run, SpanLog& log) {
  Scope span(log, "probe.core.plan");
  std::size_t calls = 0;
  const auto t0 = Clock::now();
  do {
    for (const core::SweepOptions& shape : in.plans) {
      core::make_sweep_plan(shape);
      ++calls;
    }
  } while (calls > 0 && secs(t0, Clock::now()) < kMinProbeS);
  run.per_layer["core.plan_ms"] =
      calls > 0 ? ns_since(t0) / 1e6 / static_cast<double>(calls) : 0.0;
}

// ------------------------------------------------------------ trace export

/// One complete span of the merged timeline, for self-time accounting.
struct Ev {
  std::string name;
  long long pid = 0, tid = 0;
  std::uint64_t ts = 0, dur = 0;
};

std::string json_str(const std::string& s) {
  std::string out = "\"";
  out += musa::serve::json_escape(s);
  out += '"';
  return out;
}

/// Self time per span name: a span's duration minus the time its direct
/// children cover. Children are the spans nested inside it on the same
/// (pid, tid) lane.
std::map<std::string, std::array<double, 3>> self_times(std::vector<Ev> evs) {
  std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
    if (a.pid != b.pid) return a.pid < b.pid;
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.dur > b.dur;
  });
  std::vector<std::uint64_t> covered(evs.size(), 0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < evs.size(); ++i) {
    if (i > 0 && (evs[i].pid != evs[i - 1].pid || evs[i].tid != evs[i - 1].tid))
      stack.clear();
    while (!stack.empty() &&
           evs[stack.back()].ts + evs[stack.back()].dur <= evs[i].ts)
      stack.pop_back();
    if (!stack.empty() &&
        evs[i].ts + evs[i].dur <= evs[stack.back()].ts + evs[stack.back()].dur)
      covered[stack.back()] += evs[i].dur;
    stack.push_back(i);
  }
  std::map<std::string, std::array<double, 3>> out;  // count, total, self (ms)
  for (std::size_t i = 0; i < evs.size(); ++i) {
    auto& slot = out[evs[i].name];
    slot[0] += 1;
    slot[1] += static_cast<double>(evs[i].dur) / 1e3;
    slot[2] += static_cast<double>(evs[i].dur - std::min(evs[i].dur, covered[i])) / 1e3;
  }
  return out;
}

}  // namespace

void run_probes(const Ctx& ctx, const ProbeInputs& in, Run& run, SpanLog& log) {
  std::vector<core::MachineConfig> configs = in.configs;
  configs.resize(std::min(configs.size(), ctx.size(configs.size(), 2)));
  probe_components(configs, run, log);
  probe_journal(ctx, in, run, log);
  probe_wire(in, run, log);
  probe_plans(in, run, log);
  // A layer the workload did not run reads a probe, not a constant 0.
  if (run.per_layer.count("core.kernel_busy_s") == 0) probe_stages(ctx, run, log);
  if (run.per_layer.count("sweep.lease_phase_s") == 0) probe_elastic(ctx, run, log);
  if (run.per_layer.count("serve.server_p50_us") == 0) probe_serve(ctx, run, log);
}

void export_trace(const Ctx& ctx, const ProbeInputs& in, const SpanLog& log,
                  Run& run) {
  namespace fs = std::filesystem;
  fs::create_directories(ctx.trace_dir);
  const std::vector<musa::obs::TraceEvent> events = musa::obs::Tracer::drain();
  const std::uint64_t epoch = musa::obs::Tracer::epoch_unix_us();
  const long long pid = ::getpid();

  // The benchmark's spans as a JSONL sidecar spliced into the Chrome trace.
  std::vector<Ev> evs;
  const std::string spans_path = ctx.work + "/bench.events.jsonl";
  {
    std::ofstream out(spans_path);
    for (const SpanLog::Span& s : log.spans()) {
      const std::string common =
          ",\"pid\":" + std::to_string(pid) + ",\"tid\":" + std::to_string(s.tid);
      const std::string args = ",\"args\":{\"id\":" + std::to_string(s.id) +
                               ",\"parent\":" + std::to_string(s.parent) +
                               (s.async ? ",\"req\":" + json_str(s.req) : "") +
                               "}";
      if (s.async) {
        // Requests overlap on their connection: async begin/end pairs.
        out << "{\"name\":" << json_str(s.name)
            << ",\"cat\":\"request\",\"ph\":\"b\",\"id\":" << json_str(s.req)
            << ",\"ts\":" << epoch + s.ts_us << common << args << "}\n";
        out << "{\"name\":" << json_str(s.name)
            << ",\"cat\":\"request\",\"ph\":\"e\",\"id\":" << json_str(s.req)
            << ",\"ts\":" << epoch + s.ts_us + s.dur_us << common << "}\n";
        continue;
      }
      out << "{\"name\":" << json_str(s.name) << ",\"cat\":\"bench\",\"ph\":\"X\""
          << ",\"ts\":" << epoch + s.ts_us << ",\"dur\":" << s.dur_us << common
          << args << "}\n";
      evs.push_back({s.name, pid, s.tid, epoch + s.ts_us, s.dur_us});
    }
  }
  std::vector<std::string> sidecars = {spans_path};
  sidecars.insert(sidecars.end(), in.sidecars.begin(), in.sidecars.end());
  musa::obs::write_chrome_trace(ctx.trace_dir + "/" + ctx.workload + ".trace.json",
                                events, epoch, {static_cast<int>(pid), "musa_bench"},
                                sidecars);
  std::remove(spans_path.c_str());

  // Self time per layer over the program's spans and the benchmark's.
  for (const auto& e : events)
    if (e.phase == 'X') evs.push_back({e.name, pid, e.tid, epoch + e.ts_us, e.dur_us});
  for (const std::string& path : in.sidecars)
    for (const std::string& line : split(read_file(path), '\n')) {
      musa::serve::JsonValue v;
      std::string err;
      if (line.empty() || !musa::serve::parse_json(line, &v, &err)) continue;
      const auto* ph = v.find("ph");
      if (ph == nullptr || ph->string != "X") continue;
      evs.push_back({v.find("name")->string,
                     static_cast<long long>(v.find("pid")->number),
                     static_cast<long long>(v.find("tid")->number),
                     static_cast<std::uint64_t>(v.find("ts")->number),
                     static_cast<std::uint64_t>(v.find("dur")->number)});
    }
  std::map<std::string, std::array<double, 3>> layers = self_times(std::move(evs));
  for (const SpanLog::Span& s : log.spans())
    if (s.async) {
      auto& slot = layers[s.name];
      slot[0] += 1;
      slot[1] += static_cast<double>(s.dur_us) / 1e3;
      slot[2] += static_cast<double>(s.dur_us) / 1e3;  // waiting, no children
    }

  std::string body = "{\"workload\":" + json_str(ctx.workload) +
                     ",\"spans_dropped\":" + std::to_string(log.dropped()) +
                     ",\"layers\":{";
  bool first = true;
  for (const auto& [name, v] : layers) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"count\":%.0f,\"total_ms\":%.3f,\"self_ms\":%.3f", v[0], v[1],
                  v[2]);
    body += (first ? "\n  " : ",\n  ") + json_str(name) + ":{" + buf + "}";
    first = false;
  }
  body += "\n}}\n";
  std::ofstream(ctx.trace_dir + "/" + ctx.workload + ".layers.json") << body;

  // layers.json: every workload's table traced into this directory so far.
  std::string merged = "{";
  first = true;
  for (const char* w : {"paper_sweep", "extended_elastic", "serve_cold", "serve_cached"}) {
    const std::string path = ctx.trace_dir + "/" + w + ".layers.json";
    if (!fs::exists(path)) continue;
    std::string text = read_file(path);
    while (!text.empty() && text.back() == '\n') text.pop_back();
    merged += (first ? "\n" : ",\n") + json_str(w) + ": " + text;
    first = false;
  }
  std::ofstream(ctx.trace_dir + "/layers.json") << merged << "\n}\n";
  musa::obs::Tracer::shutdown();
  if (events.empty() && in.sidecars.empty() && log.spans().empty())
    run.fail(1, "traced run recorded no spans");
}

}  // namespace bench
