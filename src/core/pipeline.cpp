#include "core/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/check.hpp"
#include "common/deadline.hpp"
#include "common/units.hpp"
#include "obs/span.hpp"
#include "cpusim/core_model.hpp"
#include "isa/vector_fusion.hpp"
#include "powersim/power.hpp"
#include "trace/kernel.hpp"
#include "verify/faultpoint.hpp"

namespace musa::core {

trace::KernelProfile scale_profile(const trace::KernelProfile& p,
                                   int factor) {
  trace::KernelProfile s = p;
  s.vec_ws_bytes = std::max<std::uint64_t>(256, p.vec_ws_bytes / factor);
  for (auto& st : s.streams)
    st.ws_bytes = std::max<std::uint64_t>(256, st.ws_bytes / factor);
  return s;
}

cachesim::HierarchyConfig scale_caches(const cachesim::HierarchyConfig& c,
                                       int factor, double l3_share) {
  cachesim::HierarchyConfig s = c;
  s.num_cores = 1;  // detailed mode simulates one core of the node
  // The L1 shrinks by half the factor: its reuse distances are short
  // already, and an over-scaled L1 cannot even hold the per-task resident
  // slice (no application stream sits between 32 kB and 64 kB, so the
  // level-classification of every stream is preserved).
  s.l1.size_bytes = std::max<std::uint64_t>(
      cachesim::kLineBytes * s.l1.ways,
      c.l1.size_bytes / std::max(1, factor / 2));
  s.l2.size_bytes = std::max<std::uint64_t>(
      cachesim::kLineBytes * s.l2.ways, c.l2.size_bytes / factor);
  const auto l3 = static_cast<std::uint64_t>(
      static_cast<double>(c.l3.size_bytes) / factor * l3_share);
  s.l3.size_bytes =
      std::max<std::uint64_t>(cachesim::kLineBytes * s.l3.ways, l3);
  return s;
}

namespace {
/// Seed of every kernel stream a phase generates (warm-up + measured slice,
/// and the perfect-memory slice).
std::uint64_t kernel_seed(const PipelineOptions& options) {
  return options.seed * 7919 + 17;
}
}  // namespace

trace::KernelSource measured_slice(const trace::KernelProfile& profile,
                                   const PipelineOptions& options) {
  trace::KernelSource source(profile,
                             options.warm_instrs + options.measure_instrs,
                             kernel_seed(options));
  const isa::Instr* block = nullptr;
  for (std::uint64_t left = options.warm_instrs; left > 0;) {
    const std::size_t n =
        source.take_block(&block, static_cast<std::size_t>(left));
    if (n == 0) break;
    left -= n;
  }
  return source;
}

namespace {

/// Functional cache warm-up: touches the hierarchy with the stream's memory
/// accesses without simulating timing — an order of magnitude cheaper than
/// a timed run, and all the measured run needs is warm array state.
void functional_warm(trace::InstrSource& source,
                     cachesim::MemHierarchy& hierarchy,
                     std::uint64_t instrs) {
  // Bulk path: the take_block cap consumes *exactly* `instrs` instructions,
  // leaving the source positioned where the measured run must begin.
  std::uint64_t left = instrs;
  const isa::Instr* block = nullptr;
  std::size_t n;
  while (left > 0 && (n = source.take_block(
                          &block, static_cast<std::size_t>(left))) > 0) {
    deadline::poll();
    for (std::size_t i = 0; i < n; ++i)
      if (isa::is_mem(block[i].op))
        hierarchy.access(0, block[i].addr,
                         block[i].op == isa::OpClass::kStore);
    left -= n;
  }
  // Sources that cannot hand out blocks fall back to one next() per instr.
  isa::Instr in;
  for (; left > 0 && source.next(in); --left) {
    deadline::poll();
    if (isa::is_mem(in.op))
      hierarchy.access(0, in.addr, in.op == isa::OpClass::kStore);
  }
}

/// Seconds of wall time since `t0`, advancing `t0` to now — one call per
/// stage boundary turns a time point into a stage duration.
double lap_s(std::chrono::steady_clock::time_point& t0) {
  const auto now = std::chrono::steady_clock::now();
  const double s = std::chrono::duration<double>(now - t0).count();
  t0 = now;
  return s;
}

/// Tracer-side twin of lap_s: emits one complete span for the stage that
/// just ended (start `t0_us`, keyed by the point) and returns the timestamp
/// the next stage starts from. No-op while tracing is disarmed.
std::uint64_t trace_lap(const char* stage, const std::string& point,
                        std::uint64_t t0_us) {
  if (!obs::Tracer::enabled()) return 0;
  const std::uint64_t now = obs::Tracer::now_us();
  obs::TraceEvent ev;
  ev.name = stage;
  ev.ts_us = t0_us;
  ev.dur_us = now - t0_us;
  ev.outcome = obs::Outcome::kOk;
  obs::set_event_key(ev, point);
  obs::Tracer::emit(ev);
  return now;
}

/// Node-makespan lumpiness: with few tasks per core, the per-rank region
/// duration varies iteration to iteration (CLT over tasks/core); collectives
/// turn that variance into wait time (see ReplayOptions::region_jitter_sigma).
double makespan_jitter_sigma(const apps::AppModel& app, int cores) {
  if (cores <= 1) return 0.0;
  const double tasks_per_core =
      std::max(1.0, static_cast<double>(app.tasks_per_region) / cores);
  return std::min(0.35, app.task_imbalance / std::sqrt(tasks_per_core));
}

}  // namespace

std::uint64_t pipeline_options_fingerprint(const PipelineOptions& o) {
  std::uint64_t h = fnv1a_bytes(&o.seed, sizeof(o.seed));
  h = fnv1a_bytes(&o.warm_instrs, sizeof(o.warm_instrs), h);
  h = fnv1a_bytes(&o.measure_instrs, sizeof(o.measure_instrs), h);
  h = fnv1a_bytes(&o.cache_scale, sizeof(o.cache_scale), h);
  h = fnv1a_bytes(&o.node_bw_efficiency, sizeof(o.node_bw_efficiency), h);
  return h;
}

Pipeline::Pipeline(PipelineOptions options, std::shared_ptr<StageMemo> memo)
    : options_(options), memo_(std::move(memo)) {
  MUSA_CHECK_MSG(options_.measure_instrs > 0, "need a measured trace slice");
  MUSA_CHECK_MSG(options_.cache_scale >= 1, "cache scale must be >= 1");
  if (memo_)
    MUSA_CHECK_MSG(memo_->options_fingerprint() ==
                       pipeline_options_fingerprint(options_),
                   "stage memo was built for different pipeline options");
}

const trace::Region& Pipeline::region_of(const apps::AppModel& app,
                                         std::size_t phase) {
  auto make = [&] {
    const char* prev = deadline::set_stage("trace");
    verify::fault_point("pipeline.trace", app.name);
    auto region =
        apps::make_region(app.phases().at(phase), options_.seed + phase);
    deadline::set_stage(prev);
    return region;
  };
  if (memo_) return memo_->region(app, phase, make);
  const MemoKey key{app_fingerprint(app), phase};
  auto it = regions_.find(key);
  if (it == regions_.end()) it = regions_.emplace(key, make()).first;
  return it->second;
}

const trace::AppTrace& Pipeline::trace_of(const apps::AppModel& app,
                                          int ranks) {
  auto make = [&] {
    const char* prev = deadline::set_stage("trace");
    verify::fault_point("pipeline.trace", app.name);
    auto trace = apps::make_burst_trace(app, ranks, options_.seed + 1);
    deadline::set_stage(prev);
    return trace;
  };
  if (memo_) return memo_->trace(app, ranks, make);
  const MemoKey key{app_fingerprint(app), static_cast<std::uint64_t>(ranks)};
  auto it = traces_.find(key);
  if (it == traces_.end()) it = traces_.emplace(key, make()).first;
  return it->second;
}

BurstResult Pipeline::run_burst(const apps::AppModel& app, int cores,
                                int ranks, cpusim::NodeResult* node_out,
                                netsim::ReplayResult* replay_out) {
  const std::vector<apps::Phase> phases = app.phases();
  cpusim::RuntimeSim runtime;
  std::vector<double> scales;
  BurstResult out;

  for (std::size_t ph = 0; ph < phases.size(); ++ph) {
    const trace::Region& region = region_of(app, ph);
    // Hardware-agnostic: per-task duration straight from the reference trace.
    const std::vector<cpusim::TaskTiming> timing = {
        {.seconds_per_work =
             phases[ph].ref_region_seconds / region.total_work(),
         .mem_stall_frac = 0.0,
         .dram_gbps = 0.0}};
    const cpusim::NodeResult node = runtime.run(
        region, timing,
        {.cores = cores, .dispatch_overhead_s = app.dispatch_overhead_s,
         .bw_capacity_gbps = 0.0});
    out.region_seconds += node.seconds;
    scales.push_back(node.seconds / phases[ph].ref_region_seconds);
    if (node_out && ph == 0) *node_out = node;
  }

  netsim::DimemasEngine net(options_.network);
  netsim::ReplayOptions ropts;
  ropts.region_scale = std::move(scales);
  ropts.region_jitter_sigma = makespan_jitter_sigma(app, cores);
  ropts.record_timeline = replay_out != nullptr;
  const netsim::ReplayResult replay = net.replay(trace_of(app, ranks), ropts);
  out.wall_seconds = replay.total_seconds;

  if (replay_out) *replay_out = replay;
  return out;
}

Pipeline::DetailedTiming Pipeline::simulate_kernel(
    const apps::AppModel& app, std::size_t phase_index,
    const apps::Phase& phase, const MachineConfig& config,
    double active_cores) {
  const Frequency freq{config.freq_ghz};

  // The detailed simulation models one core of the node; the shared L3 is
  // represented by this core's capacity share given the cores that are
  // actually populated with tasks (idle cores do not pollute the L3).
  const double l3_share =
      config.cores > 1 ? 1.0 / std::max(1.0, active_cores) : 1.0;
  const cachesim::HierarchyConfig caches =
      scale_caches(config.cache_config(1), options_.cache_scale, l3_share);

  const trace::KernelProfile profile =
      scale_profile(phase.kernel, options_.cache_scale);

  // The DRAM system is genuinely per-point (technology, channels and the
  // active-core bandwidth share all vary), so it is never memoized.
  verify::fault_point("dram.sim", app.name + "|" + config.id());
  dramsim::DramTiming dram_timing = dramsim::timing_for(config.mem_tech);
  if (config.cores > 1)
    dram_timing.bytes_per_clock /= std::max(1.0, active_cores);
  dramsim::DramSystem dram(dram_timing, config.mem_channels);

  const cpusim::CoreRunOptions measure_opts{
      .vector_bits = config.vector_bits,
      .single_step = options_.single_step_core};
  const cpusim::CoreRunOptions perfect_opts{
      .vector_bits = config.vector_bits,
      .perfect_memory = true,
      .single_step = options_.single_step_core};

  // The perfect-memory attribution run converges on a quarter slice, but
  // the slice must never round down to zero instructions (measure_instrs
  // < 4): a 0-budget stream would make perfect_cpi 0/0 = NaN, and the
  // mem_stall_frac clamp on NaN is unspecified.
  const std::uint64_t perfect_slice =
      std::max<std::uint64_t>(1, options_.measure_instrs / 4);
  auto perfect_cpi_of = [&](const cpusim::CoreStats& pstats) {
    if (pstats.scalar_instrs == 0)
      throw SimError("perfect-memory run produced no instructions at point " +
                         app.name + "|" + config.id(),
                     ErrorClass::kConfig, "kernel");
    return pstats.cycles / static_cast<double>(pstats.scalar_instrs);
  };

  // --- Measured run (after cache warm-up) --------------------------------
  // The detailed simulation models one core of the node, so it sees its
  // *share* of the memory system: the data bus time-multiplexes across the
  // cores that actually hold tasks. Queueing near the bandwidth wall (the
  // lever behind LULESH's 8-channel gains, and the reason wider OoO cannot
  // buy more MLP on saturated channels) then emerges inside the DRAM model
  // itself rather than from an analytic correction.
  cpusim::CoreStats stats;
  double perfect_cpi = 0.0;
  if (memo_) {
    // Memoized path: start the measured run from the memoized post-warm-up
    // cache snapshot, replay the measured slice already fused for this
    // vector width, and reuse the perfect-memory CPI across the dimensions
    // it ignores. Every reused value is bit-identical to what the branch
    // below recomputes (stage_memo.hpp explains why), as TestStageMemo
    // proves.
    const StageMemo::KernelStreams& streams =
        memo_->streams(app, phase_index, [&] {
          // Only the warm-up prefix is kept in scalar form: the measured
          // slice lives in the fused table, per vector width.
          StageMemo::KernelStreams s;
          trace::KernelSource full(
              profile, options_.warm_instrs + options_.measure_instrs,
              kernel_seed(options_));
          s.warm.reserve(options_.warm_instrs);
          isa::Instr in;
          while (s.warm.size() < options_.warm_instrs && full.next(in))
            s.warm.push_back(in);
          trace::KernelSource perfect(profile, perfect_slice,
                                      kernel_seed(options_));
          while (perfect.next(in)) s.perfect.push_back(in);
          return s;
        });

    cachesim::MemHierarchy hierarchy =
        memo_->warm(app, phase_index, caches, [&] {
          cachesim::MemHierarchy warmed(caches);
          trace::SpanSource warm_source(streams.warm);
          functional_warm(warm_source, warmed, options_.warm_instrs);
          warmed.reset_stats();
          return warmed;
        });
    cpusim::CoreModel core(config.core, freq, hierarchy, dram);
    if (options_.single_step_core) {
      // The single-step reference times the scalar slice itself, generated
      // as the no-memo branch generates it.
      trace::KernelSource source = measured_slice(profile, options_);
      stats = core.run(source, measure_opts);
    } else {
      const StageMemo::FusedStream& blocks = memo_->fused(
          app, phase_index, config.vector_bits, [&] {
            trace::KernelSource source = measured_slice(profile, options_);
            isa::VectorFusion fusion(source, config.vector_bits);
            StageMemo::FusedStream out;
            for (isa::FusedBlock block; fusion.next_block(block);)
              out.push_back(block);
            out.shrink_to_fit();
            return out;
          });
      stats = core.run_fused(blocks, measure_opts);
    }

    // --- Perfect-memory run (memory stall attribution) -------------------
    perfect_cpi = memo_->perfect_cpi(
        app, phase_index, config.core, config.vector_bits, [&] {
          cachesim::MemHierarchy perfect_hierarchy(caches);
          dramsim::DramSystem perfect_dram(
              dramsim::timing_for(config.mem_tech), 1);
          trace::SpanSource psource(streams.perfect);
          cpusim::CoreModel pcore(config.core, freq, perfect_hierarchy,
                                  perfect_dram);
          const cpusim::CoreStats pstats = pcore.run(psource, perfect_opts);
          return perfect_cpi_of(pstats);
        });
  } else {
    cachesim::MemHierarchy hierarchy(caches);
    trace::KernelSource source(
        profile, options_.warm_instrs + options_.measure_instrs,
        kernel_seed(options_));
    cpusim::CoreModel core(config.core, freq, hierarchy, dram);

    functional_warm(source, hierarchy, options_.warm_instrs);
    hierarchy.reset_stats();
    dram.reset_counters();

    stats = core.run(source, measure_opts);

    // --- Perfect-memory run (memory stall attribution) -------------------
    // A quarter slice converges: the perfect-memory CPI is stationary.
    cachesim::MemHierarchy ph(caches);  // untouched under perfect_memory
    dramsim::DramSystem pd(dramsim::timing_for(config.mem_tech), 1);
    trace::KernelSource psource(profile, perfect_slice,
                                kernel_seed(options_));
    cpusim::CoreModel pcore(config.core, freq, ph, pd);
    const cpusim::CoreStats pstats = pcore.run(psource, perfect_opts);
    perfect_cpi = perfect_cpi_of(pstats);
  }
  MUSA_CHECK_MSG(stats.scalar_instrs > 0, "kernel produced no instructions");

  DetailedTiming out;
  const auto instrs = static_cast<double>(stats.scalar_instrs);
  const double cpi = stats.cycles / instrs;
  out.ipc = 1.0 / cpi;
  out.task.seconds_per_work = cpi * phase.task_instrs / freq.hz();
  out.task.mem_stall_frac =
      std::clamp(1.0 - perfect_cpi / cpi, 0.0, 0.98);
  out.task.dram_gbps = stats.dram_gbps(freq);
  out.mpki_l1 = stats.mpki_l1();
  out.mpki_l2 = stats.mpki_l2();
  out.mpki_l3 = stats.mpki_l3();
  for (int c = 0; c < isa::kNumOpClasses; ++c) {
    out.ops_per_instr[c] = static_cast<double>(stats.class_ops[c]) / instrs;
    out.lanes_per_instr[c] =
        static_cast<double>(stats.class_lanes[c]) / instrs;
  }
  out.l1_acc_per_instr = static_cast<double>(stats.l1_accesses) / instrs;
  out.l2_acc_per_instr = static_cast<double>(stats.l2_accesses) / instrs;
  out.l3_acc_per_instr = static_cast<double>(stats.l3_accesses) / instrs;
  out.dram_req_per_instr =
      static_cast<double>(stats.dram_reads + stats.dram_writes) / instrs;
  const double scale = 1e6 / instrs;
  out.dram_per_minstr.acts =
      static_cast<std::uint64_t>(stats.dram.acts * scale);
  out.dram_per_minstr.pres =
      static_cast<std::uint64_t>(stats.dram.pres * scale);
  out.dram_per_minstr.reads =
      static_cast<std::uint64_t>(stats.dram.reads * scale);
  out.dram_per_minstr.writes =
      static_cast<std::uint64_t>(stats.dram.writes * scale);
  out.dram_per_minstr.refreshes =
      static_cast<std::uint64_t>(stats.dram.refreshes * scale);
  return out;
}

SimResult Pipeline::run(const apps::AppModel& app,
                        const MachineConfig& config) {
  MUSA_CHECK_MSG(config.cores >= 1 && config.ranks >= 1, "bad machine size");
  const std::vector<apps::Phase> phases = app.phases();
  const std::string point = app.name + "|" + config.id();

  // Burst-mode pre-pass estimates how many cores actually hold tasks
  // (drives the L3 capacity share in detailed mode). It depends only on
  // (app, cores) — 3 distinct values per app across the whole sweep — so
  // with a memo attached the full pre-pass runs once per pair.
  auto stage_t0 = std::chrono::steady_clock::now();
  std::uint64_t span_t0 = obs::Tracer::now_us();
  deadline::set_stage("burst");
  verify::fault_point("pipeline.burst", point);
  double burst_concurrency = 0.0;
  if (memo_) {
    burst_concurrency = memo_->burst_concurrency(app, config.cores, [&] {
      cpusim::NodeResult burst_node;
      run_burst(app, config.cores, /*ranks=*/1, &burst_node, nullptr);
      return burst_node.avg_concurrency;
    });
  } else {
    cpusim::NodeResult burst_node;
    run_burst(app, config.cores, /*ranks=*/1, &burst_node, nullptr);
    burst_concurrency = burst_node.avg_concurrency;
  }
  stage_times_.burst_s += lap_s(stage_t0);
  span_t0 = trace_lap("burst", point, span_t0);
  const double active_cores = std::clamp(
      burst_concurrency, 1.0, static_cast<double>(config.cores));

  // --- Detailed + node level, per compute region ---------------------------
  cpusim::RuntimeSim runtime;
  std::vector<double> scales;
  double region_seconds = 0.0;
  double node_instrs = 0.0;         // Σ task instructions over all regions
  double busy_seconds = 0.0;
  double concurrency_weighted = 0.0;
  double contention_max = 1.0;
  double mem_bytes = 0.0;
  double dram_req = 0.0;            // DRAM line transactions, node level
  powersim::NodeActivity activity;  // accumulated as rates below
  dramsim::DramCounters node_dram;
  double mpki_l1 = 0, mpki_l2 = 0, mpki_l3 = 0, ipc = 0;

  deadline::set_stage("kernel");
  verify::fault_point("pipeline.kernel", point);
  struct PhaseOutcome {
    DetailedTiming detail;
    cpusim::NodeResult node;
    double instrs;
  };
  std::vector<PhaseOutcome> outcomes;
  for (std::size_t phi = 0; phi < phases.size(); ++phi) {
    const apps::Phase& phase = phases[phi];
    const trace::Region& region = region_of(app, phi);
    const DetailedTiming detail =
        simulate_kernel(app, phi, phase, config, active_cores);
    const cpusim::NodeResult node = runtime.run(
        region, {detail.task},
        {.cores = config.cores,
         .dispatch_overhead_s = app.dispatch_overhead_s,
         .bw_capacity_gbps = 0.0});

    const double instrs = phase.task_instrs * region.total_work();
    outcomes.push_back({detail, node, instrs});
    scales.push_back(node.seconds / phase.ref_region_seconds);
    region_seconds += node.seconds;
    node_instrs += instrs;
    busy_seconds += node.busy_seconds;
    concurrency_weighted += node.avg_concurrency * node.seconds;
    contention_max = std::max(contention_max, node.contention_factor);
    mem_bytes += node.mem_gbps * 1e9 * node.seconds;
  }

  // Weighted aggregation over regions (rates weighted by region time,
  // counts by instructions).
  for (const auto& o : outcomes) {
    const double w = o.instrs / node_instrs;
    mpki_l1 += o.detail.mpki_l1 * w;
    mpki_l2 += o.detail.mpki_l2 * w;
    mpki_l3 += o.detail.mpki_l3 * w;
    ipc += o.detail.ipc * w;
    dram_req += o.detail.dram_req_per_instr * o.instrs;
    const double minstr = o.instrs / 1e6;
    node_dram.acts += static_cast<std::uint64_t>(
        static_cast<double>(o.detail.dram_per_minstr.acts) * minstr);
    node_dram.reads += static_cast<std::uint64_t>(
        static_cast<double>(o.detail.dram_per_minstr.reads) * minstr);
    node_dram.writes += static_cast<std::uint64_t>(
        static_cast<double>(o.detail.dram_per_minstr.writes) * minstr);
    node_dram.refreshes += static_cast<std::uint64_t>(
        static_cast<double>(o.detail.dram_per_minstr.refreshes) * minstr);
    for (int c = 0; c < isa::kNumOpClasses; ++c) {
      activity.ops_s[c] +=
          o.detail.ops_per_instr[c] * o.instrs / region_seconds;
      activity.lanes_s[c] +=
          o.detail.lanes_per_instr[c] * o.instrs / region_seconds;
    }
    activity.l1_access_s +=
        o.detail.l1_acc_per_instr * o.instrs / region_seconds;
    activity.l2_access_s +=
        o.detail.l2_acc_per_instr * o.instrs / region_seconds;
    activity.l3_access_s +=
        o.detail.l3_acc_per_instr * o.instrs / region_seconds;
  }
  activity.active_cores = concurrency_weighted / region_seconds;
  activity.total_cores = config.cores;
  stage_times_.kernel_s += lap_s(stage_t0);
  span_t0 = trace_lap("kernel", point, span_t0);

  // --- Machine level: MPI replay ------------------------------------------
  deadline::set_stage("replay");
  verify::fault_point("pipeline.replay", point);
  netsim::DimemasEngine net(options_.network);
  netsim::ReplayOptions ropts;
  ropts.region_scale = std::move(scales);
  ropts.region_jitter_sigma = makespan_jitter_sigma(app, config.cores);
  const netsim::ReplayResult replay =
      net.replay(trace_of(app, config.ranks), ropts);
  stage_times_.replay_s += lap_s(stage_t0);
  span_t0 = trace_lap("replay", point, span_t0);

  // --- Power ---------------------------------------------------------------
  deadline::set_stage("power");
  verify::fault_point("pipeline.power", point);
  const powersim::CorePower core_power(config.core, config.vector_bits,
                                       config.freq_ghz);
  const powersim::CachePower cache_power(config.cache_config(config.cores),
                                         config.freq_ghz);

  SimResult r;
  r.app = app.name;
  r.config = config;
  r.region_seconds = region_seconds;
  r.wall_seconds = replay.total_seconds;
  r.ipc = ipc;
  r.avg_concurrency = activity.active_cores;
  r.busy_fraction = busy_seconds / (region_seconds * config.cores);
  r.contention_factor = contention_max;
  r.mpki_l1 = mpki_l1;
  r.mpki_l2 = mpki_l2;
  r.mpki_l3 = mpki_l3;
  r.gmem_req_s = dram_req / region_seconds / 1e9;
  r.mem_gbps = mem_bytes / region_seconds / 1e9;

  r.core_l1_w = core_power.evaluate_w(activity);
  r.l2_l3_w = cache_power.evaluate_w(activity);
  if (config.mem_tech == dramsim::MemTech::kHbm2) {
    // The paper could not report HBM energy (no vendor power data, §V-D);
    // we follow the same convention.
    r.dram_power_known = false;
    r.dram_w = 0.0;
  } else {
    const powersim::DramPower dram_power(
        powersim::DramPower::dimms_for_channels(config.mem_channels));
    r.dram_w = dram_power.evaluate_w(node_dram, region_seconds);
  }
  r.node_w = r.core_l1_w + r.l2_l3_w + r.dram_w;
  r.energy_j = r.dram_power_known ? r.node_w * r.wall_seconds : 0.0;
  stage_times_.power_s += lap_s(stage_t0);
  trace_lap("power", point, span_t0);
  ++stage_times_.points;
  return r;
}

}  // namespace musa::core
