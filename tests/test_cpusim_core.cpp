// Unit tests for the OoO core timing model.
#include <gtest/gtest.h>

#include <vector>

#include "apps/apps.hpp"
#include "cachesim/hierarchy.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "cpusim/core_config.hpp"
#include "cpusim/core_model.hpp"
#include "dramsim/dram.hpp"
#include "isa/latencies.hpp"
#include "trace/instr_source.hpp"
#include "trace/kernel.hpp"

namespace musa::cpusim {
namespace {

struct TestRig {
  cachesim::MemHierarchy hierarchy{cachesim::cache_32m_256k(1)};
  dramsim::DramSystem dram{dramsim::ddr4_2333(), 4};
};

isa::Instr alu(std::uint8_t dst, std::uint8_t src1 = isa::kNoReg,
               std::uint8_t src2 = isa::kNoReg) {
  isa::Instr in;
  in.op = isa::OpClass::kIntAlu;
  in.dst = dst;
  in.src1 = src1;
  in.src2 = src2;
  return in;
}

CoreStats run_instrs(std::vector<isa::Instr> instrs, const CoreConfig& cfg,
                     TestRig& rig, CoreRunOptions opts = {}) {
  trace::VectorSource src(std::move(instrs));
  CoreModel core(cfg, {2.0}, rig.hierarchy, rig.dram);
  return core.run(src, opts);
}

TEST(CoreModel, IndependentOpsReachIssueWidth) {
  std::vector<isa::Instr> instrs;
  for (int i = 0; i < 4000; ++i)
    instrs.push_back(alu(static_cast<std::uint8_t>(i % 8)));
  CoreConfig cfg = core_medium();
  TestRig rig;
  const CoreStats s = run_instrs(instrs, cfg, rig);
  // Independent 1-cycle ALU ops: bound by min(issue width, #ALUs) = 3.
  EXPECT_NEAR(s.ipc(), 3.0, 0.2);
}

TEST(CoreModel, SerialChainBoundByLatency) {
  std::vector<isa::Instr> instrs;
  for (int i = 0; i < 1000; ++i) instrs.push_back(alu(1, 1));  // dep chain
  TestRig rig;
  const CoreStats s = run_instrs(instrs, core_aggressive(), rig);
  EXPECT_NEAR(s.cycles, 1000.0, 50.0);  // 1 cycle per chained op
}

TEST(CoreModel, FpChainBoundByFpLatency) {
  std::vector<isa::Instr> instrs;
  for (int i = 0; i < 500; ++i) {
    isa::Instr in;
    in.op = isa::OpClass::kFpMul;
    in.dst = 40;
    in.src1 = 40;
    instrs.push_back(in);
  }
  TestRig rig;
  const CoreStats s = run_instrs(instrs, core_aggressive(), rig);
  EXPECT_NEAR(s.cycles, 500.0 * isa::exec_latency(isa::OpClass::kFpMul),
              100.0);
}

TEST(CoreModel, FuContentionSerializes) {
  std::vector<isa::Instr> instrs;
  for (int i = 0; i < 2000; ++i)
    instrs.push_back(alu(static_cast<std::uint8_t>(i % 8)));
  TestRig rig1, rig3;
  CoreConfig one_alu = core_medium();
  one_alu.alus = 1;
  const CoreStats s1 = run_instrs(instrs, one_alu, rig1);
  const CoreStats s3 = run_instrs(instrs, core_medium(), rig3);
  EXPECT_GT(s1.cycles, 2.5 * s3.cycles / 3.0 * 2.0);  // ~3x slower
}

TEST(CoreModel, RobLimitsMemoryLevelParallelism) {
  // Independent loads with distinct uncached lines: a big ROB overlaps
  // misses, a small one cannot.
  auto make_loads = [] {
    std::vector<isa::Instr> instrs;
    Rng rng(21);  // random addresses: spread banks/channels, no prefetch
    for (int i = 0; i < 2000; ++i) {
      isa::Instr in;
      in.op = isa::OpClass::kLoad;
      in.dst = static_cast<std::uint8_t>(isa::kFpRegBase + (i % 12));
      in.addr = rng.next_below(1ull << 34) & ~63ull;
      in.size = 8;
      instrs.push_back(in);
      // Pad with independent ALU work so DRAM is latency- (not bandwidth-)
      // bound: the ROB window then sets how many misses overlap.
      for (int k = 0; k < 7; ++k)
        instrs.push_back(alu(static_cast<std::uint8_t>(k % 8)));
    }
    return instrs;
  };
  TestRig rig_small, rig_big;
  const CoreStats small = run_instrs(make_loads(), core_low_end(), rig_small);
  const CoreStats big = run_instrs(make_loads(), core_aggressive(), rig_big);
  EXPECT_GT(small.cycles, 1.2 * big.cycles);
}

TEST(CoreModel, PerfectMemoryIsFaster) {
  trace::KernelProfile p;
  p.vec_body = {.loads = 1, .fp_add = 1, .fp_mul = 1, .stores = 1};
  p.vec_trip = 8;
  p.scalar_tail = {.int_alu = 4, .loads = 6, .stores = 2, .branches = 1};
  p.streams = {{.share = 1.0, .ws_bytes = 64 * 1024 * 1024, .stride = 0}};
  TestRig rig_real, rig_perfect;
  trace::KernelSource s1(p, 20000), s2(p, 20000);
  CoreModel c1(core_medium(), {2.0}, rig_real.hierarchy, rig_real.dram);
  CoreModel c2(core_medium(), {2.0}, rig_perfect.hierarchy, rig_perfect.dram);
  const CoreStats real = c1.run(s1, {.vector_bits = 128});
  const CoreStats perfect =
      c2.run(s2, {.vector_bits = 128, .perfect_memory = true});
  EXPECT_LT(perfect.cycles, real.cycles);
  EXPECT_EQ(perfect.scalar_instrs, real.scalar_instrs);
}

TEST(CoreModel, PrefetcherHidesStridedMissLatency) {
  // Same miss count: a sequential stream (prefetchable) must run faster
  // than a scattered one (not prefetchable).
  auto make = [](bool sequential) {
    std::vector<isa::Instr> instrs;
    for (int i = 0; i < 4000; ++i) {
      isa::Instr in;
      in.op = isa::OpClass::kLoad;
      in.dst = static_cast<std::uint8_t>(isa::kFpRegBase + (i % 12));
      in.addr = sequential
                    ? static_cast<std::uint64_t>(i) * 64
                    : (static_cast<std::uint64_t>(i) * 7919 * 4096) %
                          (1ull << 34);
      in.size = 8;
      instrs.push_back(in);
    }
    return instrs;
  };
  TestRig rig_seq, rig_rand;
  const CoreStats seq = run_instrs(make(true), core_medium(), rig_seq);
  const CoreStats rnd = run_instrs(make(false), core_medium(), rig_rand);
  EXPECT_LT(seq.cycles, rnd.cycles);
}

TEST(CoreModel, PrefetcherEvictsOldestInsteadOfClearing) {
  // Touch thousands of distinct 32 KiB regions with short sequential runs:
  // each run trains the stride detector and leaves prefetched lines that
  // are never consumed, so the inflight table overflows its 8192-entry
  // capacity. The prefetcher must shed the *oldest* entries (counted in
  // pf_evictions), not wipe the table.
  std::vector<isa::Instr> instrs;
  for (int r = 0; r < 4000; ++r) {
    const std::uint64_t base = static_cast<std::uint64_t>(r) * (2ull << 20);
    for (int i = 0; i < 4; ++i) {
      isa::Instr in;
      in.op = isa::OpClass::kLoad;
      in.dst = static_cast<std::uint8_t>(isa::kFpRegBase + (i % 12));
      in.addr = base + static_cast<std::uint64_t>(i) * 64;
      in.size = 8;
      instrs.push_back(in);
    }
  }
  TestRig rig;
  const CoreStats s = run_instrs(instrs, core_medium(), rig);
  EXPECT_GT(s.pf_evictions, 0u);
  EXPECT_EQ(s.scalar_instrs, 16000u);
}

TEST(CoreModel, VectorFusionSpeedsUpMarkedLoops) {
  trace::KernelProfile p;
  p.vec_body = {.loads = 2, .fp_add = 2, .fp_mul = 2, .stores = 1};
  p.vec_trip = 32;
  p.scalar_tail = {.int_alu = 2, .branches = 1};
  p.vec_ws_bytes = 8 * 1024;
  p.ilp_chains = 8;
  auto cycles_at = [&](int bits) {
    TestRig rig;
    trace::KernelSource src(p, 30000);
    CoreModel core(core_aggressive(), {2.0}, rig.hierarchy, rig.dram);
    return core.run(src, {.vector_bits = bits}).cycles;
  };
  const double c128 = cycles_at(128);
  const double c512 = cycles_at(512);
  EXPECT_GT(c128 / c512, 1.5);  // wide SIMD pays off on long loops
}

TEST(CoreModel, MaxScalarInstrsStopsEarly) {
  std::vector<isa::Instr> instrs(5000, alu(1));
  TestRig rig;
  const CoreStats s =
      run_instrs(instrs, core_medium(), rig, {.max_scalar_instrs = 1000});
  EXPECT_GE(s.scalar_instrs, 1000u);
  EXPECT_LT(s.scalar_instrs, 1100u);
}

TEST(CoreModel, ClassCountsAreConsistent) {
  trace::KernelProfile p;
  p.vec_body = {.loads = 1, .fp_add = 1, .fp_mul = 0, .stores = 0};
  p.vec_trip = 4;
  p.scalar_tail = {.int_alu = 3, .loads = 2, .stores = 1, .branches = 1};
  TestRig rig;
  trace::KernelSource src(p, 11000);
  CoreModel core(core_medium(), {2.0}, rig.hierarchy, rig.dram);
  const CoreStats s = core.run(src, {.vector_bits = 128});
  std::uint64_t lanes = 0, ops = 0;
  for (int c = 0; c < isa::kNumOpClasses; ++c) {
    lanes += s.class_lanes[c];
    ops += s.class_ops[c];
  }
  EXPECT_EQ(lanes, s.scalar_instrs);
  EXPECT_EQ(ops, s.fused_ops);
  EXPECT_LE(s.fused_ops, s.scalar_instrs);
}

TEST(CoreModel, StatsExposeDramTraffic) {
  trace::KernelProfile p;
  p.scalar_tail = {.int_alu = 1, .loads = 4};
  p.streams = {{.share = 1.0, .ws_bytes = 256 * 1024 * 1024, .stride = 64}};
  TestRig rig;
  trace::KernelSource src(p, 20000);
  CoreModel core(core_medium(), {2.0}, rig.hierarchy, rig.dram);
  const CoreStats s = core.run(src, {.vector_bits = 128});
  EXPECT_GT(s.dram_reads, 0u);
  EXPECT_GT(s.dram_bytes(), 0.0);
  EXPECT_GT(s.dram_gbps({2.0}), 0.0);
  EXPECT_GT(s.mpki_l3(), 0.0);
}

TEST(CoreModel, RejectsBrokenConfigs) {
  TestRig rig;
  CoreConfig bad = core_medium();
  bad.rob = 0;
  EXPECT_THROW(CoreModel(bad, {2.0}, rig.hierarchy, rig.dram), SimError);
  bad = core_medium();
  bad.lsus = 0;
  EXPECT_THROW(CoreModel(bad, {2.0}, rig.hierarchy, rig.dram), SimError);
}

TEST(CoreConfig, PresetsMatchTableI) {
  EXPECT_EQ(core_low_end().rob, 40);
  EXPECT_EQ(core_low_end().issue_width, 2);
  EXPECT_EQ(core_medium().rob, 180);
  EXPECT_EQ(core_high().issue_width, 6);
  EXPECT_EQ(core_aggressive().rob, 300);
  EXPECT_EQ(core_aggressive().fpus, 4);
  EXPECT_EQ(core_presets().size(), 4u);
}

TEST(CoreConfig, OooCapabilityOrdersPresets) {
  EXPECT_LT(core_low_end().ooo_capability(), core_medium().ooo_capability());
  EXPECT_LT(core_medium().ooo_capability(), core_high().ooo_capability());
  EXPECT_LT(core_high().ooo_capability(), core_aggressive().ooo_capability());
}

// Property: every preset is strictly slower than or equal to a preset with
// strictly more resources, on the same trace.
class PresetOrdering : public ::testing::TestWithParam<int> {};

TEST_P(PresetOrdering, LowEndNeverBeatsAggressive) {
  trace::KernelProfile p;
  p.vec_body = {.loads = 2, .fp_add = 2, .fp_mul = 2, .stores = 1};
  p.vec_trip = 16;
  p.scalar_tail = {.int_alu = 8, .loads = 6, .stores = 3, .branches = 2};
  p.ilp_chains = GetParam();
  TestRig rig_low, rig_agg;
  trace::KernelSource s1(p, 15000), s2(p, 15000);
  CoreModel low(core_low_end(), {2.0}, rig_low.hierarchy, rig_low.dram);
  CoreModel agg(core_aggressive(), {2.0}, rig_agg.hierarchy, rig_agg.dram);
  EXPECT_GE(low.run(s1, {.vector_bits = 128}).cycles,
            agg.run(s2, {.vector_bits = 128}).cycles);
}

INSTANTIATE_TEST_SUITE_P(IlpLevels, PresetOrdering,
                         ::testing::Values(1, 2, 4, 8));

// ---- Stream-prefetcher unit tests (detector and FIFO edge cases) ---------

TEST(StreamPrefetcher, SameLineRepeatMissKeepsConfidence) {
  StreamPrefetcher pf;
  EXPECT_FALSE(pf.observe_miss(100));
  EXPECT_FALSE(pf.observe_miss(101));
  EXPECT_TRUE(pf.observe_miss(102));  // ascending run: stream established
  // The same line missing again (evicted and re-fetched between demands)
  // says nothing about the stream's direction — it used to zero the
  // confidence and tear down an established stream.
  EXPECT_TRUE(pf.observe_miss(102));
  EXPECT_TRUE(pf.observe_miss(103));  // the stream keeps going
}

TEST(StreamPrefetcher, FreshRegionNeedsARealAscendingRun) {
  StreamPrefetcher pf;
  // First-ever misses on lines 1 and 2 of a region: a zero-initialised
  // last_line scored line 1 as continuing a phantom stream from line 0,
  // reaching confidence one miss early. With the kNoLine sentinel a fresh
  // region needs a full three-miss ascending run like any other.
  EXPECT_FALSE(pf.observe_miss(1));
  EXPECT_FALSE(pf.observe_miss(2));
  EXPECT_TRUE(pf.observe_miss(3));
}

TEST(StreamPrefetcher, FifoCompactionBoundsMemoryUnderChurn) {
  // Admit-then-consume churn: every fifo entry goes dead immediately and
  // the inflight table never overflows, so the old head-past-capacity
  // predicate never fired and the dead prefix grew without bound. The
  // dead-fraction predicate must hold the bound at every step.
  StreamPrefetcher pf;
  for (std::uint64_t i = 0; i < 200'000; ++i) {
    pf.admit(i, 0.0);
    ASSERT_LE(pf.fifo.size(),
              2 * (pf.inflight.size() + StreamPrefetcher::kCompactSlack));
    pf.inflight.erase(i);  // demand access consumes the line right away
  }
  EXPECT_EQ(pf.inflight.size(), 0u);
}

TEST(StreamPrefetcher, CompactionPreservesLiveEntriesInOrder) {
  StreamPrefetcher pf;
  // A handful of long-lived lines, then heavy short-lived churn that
  // triggers compaction many times over.
  for (std::uint64_t i = 0; i < 8; ++i) pf.admit(1'000'000 + i, 1.0);
  for (std::uint64_t i = 0; i < 50'000; ++i) {
    pf.admit(i, 0.0);
    ASSERT_LE(pf.fifo.size(),
              2 * (pf.inflight.size() + StreamPrefetcher::kCompactSlack));
    pf.inflight.erase(i);
  }
  // The live lines survived every compaction, still in admission order.
  std::vector<std::uint64_t> live;
  for (std::size_t i = pf.fifo_head; i < pf.fifo.size(); ++i) {
    const auto* e = pf.inflight.find(pf.fifo[i].first);
    if (e != nullptr && e->seq == pf.fifo[i].second)
      live.push_back(pf.fifo[i].first);
  }
  ASSERT_EQ(live.size(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(live[i], 1'000'000 + i);
}

// ---- Block-vs-scalar replay equivalence ----------------------------------

void expect_identical_stats(const CoreStats& a, const CoreStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);  // bit-identical, not approximately equal
  EXPECT_EQ(a.fused_ops, b.fused_ops);
  EXPECT_EQ(a.scalar_instrs, b.scalar_instrs);
  for (int c = 0; c < isa::kNumOpClasses; ++c) {
    EXPECT_EQ(a.class_ops[c], b.class_ops[c]);
    EXPECT_EQ(a.class_lanes[c], b.class_lanes[c]);
  }
  EXPECT_EQ(a.l1_accesses, b.l1_accesses);
  EXPECT_EQ(a.l1_misses, b.l1_misses);
  EXPECT_EQ(a.l2_accesses, b.l2_accesses);
  EXPECT_EQ(a.l2_misses, b.l2_misses);
  EXPECT_EQ(a.l3_accesses, b.l3_accesses);
  EXPECT_EQ(a.l3_misses, b.l3_misses);
  EXPECT_EQ(a.dram_reads, b.dram_reads);
  EXPECT_EQ(a.dram_writes, b.dram_writes);
  EXPECT_EQ(a.pf_evictions, b.pf_evictions);
  EXPECT_EQ(a.dram.acts, b.dram.acts);
  EXPECT_EQ(a.dram.pres, b.dram.pres);
  EXPECT_EQ(a.dram.reads, b.dram.reads);
  EXPECT_EQ(a.dram.writes, b.dram.writes);
  EXPECT_EQ(a.dram.refreshes, b.dram.refreshes);
}

TEST(CoreModel, BlockAndSingleStepPathsAreBitIdentical) {
  // Property: for random (core config, kernel profile, seed) triples the
  // batched block path must produce bit-identical CoreStats to the
  // retained single-step reference path — the 24-point bench must not be
  // the only equivalence oracle.
  Rng rng(0xb10c);
  const std::vector<CoreConfig> presets = core_presets();
  for (int trial = 0; trial < 50; ++trial) {
    trace::KernelProfile p;
    p.vec_body = {.loads = static_cast<int>(rng.next_below(3)),
                  .fp_add = static_cast<int>(rng.next_below(3)),
                  .fp_mul = static_cast<int>(rng.next_below(3)),
                  .stores = static_cast<int>(rng.next_below(2))};
    p.vec_trip = static_cast<int>(rng.next_below(40));
    p.scalar_tail = {
        .int_alu = 1 + static_cast<int>(rng.next_below(6)),
        .fp_add = static_cast<int>(rng.next_below(4)),
        .fp_div = static_cast<int>(rng.next_below(2)),
        .loads = static_cast<int>(rng.next_below(6)),
        .stores = static_cast<int>(rng.next_below(3)),
        .branches = 1};
    p.ilp_chains = 1 + static_cast<int>(rng.next_below(8));
    p.load_use_prob = rng.next_double();
    const std::int64_t strides[] = {0, 8, 64, 4096};
    p.streams = {{.share = 1.0,
                  .ws_bytes = 64 * 1024ull << rng.next_below(7),
                  .stride = strides[rng.next_below(4)],
                  .dependent = rng.bernoulli(0.3)}};
    const int bits = 64 << rng.next_below(4);  // 64 .. 512
    const std::uint64_t seed = rng.next_u64();
    const CoreConfig& cfg = presets[rng.next_below(presets.size())];

    auto run_path = [&](bool single_step) {
      TestRig rig;
      trace::KernelSource src(p, 6000, seed);
      CoreModel core(cfg, {2.0}, rig.hierarchy, rig.dram);
      return core.run(src,
                      {.vector_bits = bits, .single_step = single_step});
    };
    const CoreStats blocked = run_path(false);
    const CoreStats reference = run_path(true);
    expect_identical_stats(blocked, reference);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "diverged at trial " << trial << " (vector_bits="
                    << bits << ", seed=" << seed << ")";
      break;
    }
  }
}

TEST(CoreModel, PfEvictionsUnchangedAcrossReplayPaths) {
  // The eviction-heavy workload of PrefetcherEvictsOldestInsteadOfClearing:
  // the stream-detector fixes and the batched path must not shift the
  // pf_evictions accounting between the two replay paths.
  std::vector<isa::Instr> instrs;
  for (int r = 0; r < 4000; ++r) {
    const std::uint64_t base = static_cast<std::uint64_t>(r) * (2ull << 20);
    for (int i = 0; i < 4; ++i) {
      isa::Instr in;
      in.op = isa::OpClass::kLoad;
      in.dst = static_cast<std::uint8_t>(isa::kFpRegBase + (i % 12));
      in.addr = base + static_cast<std::uint64_t>(i) * 64;
      in.size = 8;
      instrs.push_back(in);
    }
  }
  TestRig rig_blocked, rig_reference;
  const CoreStats blocked =
      run_instrs(instrs, core_medium(), rig_blocked, {});
  const CoreStats reference =
      run_instrs(instrs, core_medium(), rig_reference, {.single_step = true});
  EXPECT_GT(blocked.pf_evictions, 0u);
  EXPECT_EQ(blocked.pf_evictions, reference.pf_evictions);
}

TEST(CoreModel, RunFusedOverMemoBlocksMatchesScalarSlice) {
  // The memoized sweep times each point's measured slice from blocks the
  // stage memo fused once per (app, phase, vector width). Replaying those
  // blocks must give bit-identical CoreStats to run() over the scalar
  // slice itself, for every app and for widths from scalar to 8192 bits.
  core::PipelineOptions options;
  options.warm_instrs = 40'000;
  options.measure_instrs = 32'000;
  for (const apps::AppModel& app : apps::registry()) {
    auto memo = std::make_shared<core::StageMemo>(
        core::pipeline_options_fingerprint(options));
    core::Pipeline pipeline(options, memo);
    const std::vector<apps::Phase> phases = app.phases();
    for (const int bits : {64, 128, 256, 512, 1024, 8192}) {
      core::MachineConfig config;
      config.vector_bits = bits;
      pipeline.run(app, config);  // fills the fused table at this width
      for (std::size_t ph = 0; ph < phases.size(); ++ph) {
        const trace::KernelProfile profile =
            core::scale_profile(phases[ph].kernel, options.cache_scale);
        const core::StageMemo::FusedStream& blocks =
            memo->fused(app, ph, bits, [] {
              ADD_FAILURE() << "the pipeline run should have filled this";
              return core::StageMemo::FusedStream{};
            });
        std::vector<isa::Instr> slice;
        trace::KernelSource source = core::measured_slice(profile, options);
        for (isa::Instr in; source.next(in);) slice.push_back(in);

        TestRig fused_rig, scalar_rig;
        CoreModel fused_core(config.core, {2.0}, fused_rig.hierarchy,
                             fused_rig.dram);
        CoreModel scalar_core(config.core, {2.0}, scalar_rig.hierarchy,
                              scalar_rig.dram);
        trace::SpanSource span(slice);
        const CoreRunOptions run_opts{.vector_bits = bits};
        expect_identical_stats(fused_core.run_fused(blocks, run_opts),
                               scalar_core.run(span, run_opts));
        if (::testing::Test::HasFailure()) {
          ADD_FAILURE() << "diverged at " << app.name << " phase " << ph
                        << ", vector_bits=" << bits;
          return;
        }
      }
    }
  }
}

TEST(CoreModel, RunFusedRejectsSingleStepOptions) {
  TestRig rig;
  CoreModel core(core_medium(), {2.0}, rig.hierarchy, rig.dram);
  const std::vector<isa::FusedBlock> none;
  EXPECT_THROW(core.run_fused(none, {.single_step = true}), SimError);
  EXPECT_THROW(core.run_fused(none, {.max_scalar_instrs = 10}), SimError);
  EXPECT_NO_THROW(core.run_fused(none, {}));
}

}  // namespace
}  // namespace musa::cpusim
