// Unit tests for the simulated runtime system (task scheduling).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "cpusim/runtime.hpp"
#include "trace/region.hpp"

namespace musa::cpusim {
namespace {

trace::Region uniform_region(int n, double work = 1.0) {
  trace::Region r;
  for (int i = 0; i < n; ++i) r.tasks.push_back({.type = 0, .work = work});
  return r;
}

const std::vector<TaskTiming> kUnitTiming = {
    {.seconds_per_work = 1e-6, .mem_stall_frac = 0.0, .dram_gbps = 0.0}};

RuntimeConfig cores(int n, double overhead = 0.0) {
  return {.cores = n, .dispatch_overhead_s = overhead,
          .bw_capacity_gbps = 0.0};
}

TEST(RuntimeSim, SingleTaskSingleCore) {
  RuntimeSim sim;
  const NodeResult r = sim.run(uniform_region(1), kUnitTiming, cores(1));
  EXPECT_NEAR(r.seconds, 1e-6, 1e-12);
  EXPECT_NEAR(r.busy_seconds, 1e-6, 1e-12);
  ASSERT_EQ(r.timeline.size(), 1u);
  EXPECT_EQ(r.timeline[0].core, 0);
}

TEST(RuntimeSim, PerfectScalingOnIndependentTasks) {
  RuntimeSim sim;
  const NodeResult serial = sim.run(uniform_region(64), kUnitTiming, cores(1));
  const NodeResult par = sim.run(uniform_region(64), kUnitTiming, cores(32));
  EXPECT_NEAR(serial.seconds / par.seconds, 32.0, 0.5);
  EXPECT_NEAR(par.avg_concurrency, 32.0, 0.5);
}

TEST(RuntimeSim, SpeedupCappedByTaskCount) {
  RuntimeSim sim;
  const NodeResult serial = sim.run(uniform_region(8), kUnitTiming, cores(1));
  const NodeResult par = sim.run(uniform_region(8), kUnitTiming, cores(64));
  EXPECT_NEAR(serial.seconds / par.seconds, 8.0, 0.2);  // only 8 tasks
}

TEST(RuntimeSim, DependenciesSerialize) {
  trace::Region r;
  for (int i = 0; i < 10; ++i) {
    trace::TaskInstance t;
    t.work = 1.0;
    if (i > 0) t.deps.push_back(i - 1);
    r.tasks.push_back(t);
  }
  RuntimeSim sim;
  const NodeResult out = sim.run(r, kUnitTiming, cores(8));
  EXPECT_NEAR(out.seconds, 10e-6, 1e-9);  // a chain cannot parallelise
}

TEST(RuntimeSim, FanOutAfterGate) {
  // Task 0 gates 9 parallel tasks: makespan = 1 + ceil(9/9) with 9 cores.
  trace::Region r;
  r.tasks.push_back({.work = 1.0});
  for (int i = 0; i < 9; ++i) {
    trace::TaskInstance t;
    t.work = 1.0;
    t.deps.push_back(0);
    r.tasks.push_back(t);
  }
  RuntimeSim sim;
  const NodeResult out = sim.run(r, kUnitTiming, cores(9));
  EXPECT_NEAR(out.seconds, 2e-6, 1e-9);
}

TEST(RuntimeSim, CriticalTasksHoldGlobalLock) {
  trace::Region r;
  for (int i = 0; i < 16; ++i)
    r.tasks.push_back({.work = 1.0, .critical = true});
  RuntimeSim sim;
  const NodeResult out = sim.run(r, kUnitTiming, cores(16));
  EXPECT_NEAR(out.seconds, 16e-6, 1e-8);  // fully serialised by the lock
}

TEST(RuntimeSim, DispatchOverheadBottlenecks) {
  // Tasks of 1 µs, overhead 0.5 µs, many cores: the serial dispatch stage
  // caps throughput at 1 task per 0.5 µs.
  RuntimeSim sim;
  const NodeResult out =
      sim.run(uniform_region(100), kUnitTiming, cores(64, 0.5e-6));
  EXPECT_GT(out.seconds, 100 * 0.5e-6 * 0.99);
}

TEST(RuntimeSim, TimelineHasNoCoreOverlap) {
  trace::Region r = uniform_region(40);
  // Add jitter in work so the schedule is non-trivial.
  for (std::size_t i = 0; i < r.tasks.size(); ++i)
    r.tasks[i].work = 1.0 + 0.1 * static_cast<double>(i % 7);
  RuntimeSim sim;
  const NodeResult out = sim.run(r, kUnitTiming, cores(4));
  std::vector<std::vector<TimelineSeg>> per_core(4);
  for (const auto& seg : out.timeline) per_core[seg.core].push_back(seg);
  for (auto& segs : per_core) {
    std::sort(segs.begin(), segs.end(),
              [](const TimelineSeg& a, const TimelineSeg& b) {
                return a.start < b.start;
              });
    for (std::size_t i = 1; i < segs.size(); ++i)
      EXPECT_GE(segs[i].start, segs[i - 1].end - 1e-12);
  }
}

TEST(RuntimeSim, BusyEqualsTotalWork) {
  RuntimeSim sim;
  trace::Region r = uniform_region(25, 2.0);
  const NodeResult out = sim.run(r, kUnitTiming, cores(8));
  EXPECT_NEAR(out.busy_seconds, 25 * 2.0 * 1e-6, 1e-9);
  EXPECT_NEAR(out.busy_fraction(8), out.busy_seconds / (out.seconds * 8),
              1e-12);
}

TEST(RuntimeSim, BandwidthContentionDilatesMemoryTime) {
  const std::vector<TaskTiming> hungry = {
      {.seconds_per_work = 1e-6, .mem_stall_frac = 0.8, .dram_gbps = 4.0}};
  RuntimeSim sim;
  RuntimeConfig cfg = cores(32);
  cfg.bw_capacity_gbps = 40.0;  // 32 tasks x 4 GB/s = 128 >> 40
  const NodeResult out = sim.run(uniform_region(64), hungry, cfg);
  EXPECT_GT(out.contention_factor, 1.2);
  RuntimeConfig wide = cfg;
  wide.bw_capacity_gbps = 1000.0;
  const NodeResult free_run = sim.run(uniform_region(64), hungry, wide);
  EXPECT_GT(out.seconds, free_run.seconds);
  EXPECT_GT(out.mem_gbps, 0.0);
}

TEST(RuntimeSim, ImbalanceHurtsAtScale) {
  trace::Region skewed = uniform_region(64);
  skewed.tasks[0].work = 8.0;  // one straggler
  RuntimeSim sim;
  const NodeResult out = sim.run(skewed, kUnitTiming, cores(64));
  EXPECT_NEAR(out.seconds, 8e-6, 1e-9);  // bound by the straggler
}

TEST(RuntimeSim, LptBeatsFifoOnSkewedTasks) {
  // Classic LPT advantage: a long task created last ruins FIFO makespan.
  trace::Region r = uniform_region(9);
  r.tasks.push_back({.type = 0, .work = 8.0});  // straggler, created last
  RuntimeSim sim;
  RuntimeConfig fifo = cores(2);
  RuntimeConfig lpt = cores(2);
  lpt.policy = SchedPolicy::kLpt;
  const double t_fifo = sim.run(r, kUnitTiming, fifo).seconds;
  const double t_lpt = sim.run(r, kUnitTiming, lpt).seconds;
  EXPECT_LT(t_lpt, t_fifo);
  // LPT starts the straggler first: makespan ~ max(8, 9/1+...) ~ 9e-6.
  EXPECT_NEAR(t_lpt, 9e-6, 1e-6);
}

TEST(RuntimeSim, PoliciesPreserveTotalWork) {
  trace::Region r = uniform_region(33);
  for (std::size_t i = 0; i < r.tasks.size(); ++i)
    r.tasks[i].work = 0.5 + static_cast<double>(i % 5);
  RuntimeSim sim;
  for (auto policy : {SchedPolicy::kFifo, SchedPolicy::kLpt,
                      SchedPolicy::kSpt}) {
    RuntimeConfig cfg = cores(4);
    cfg.policy = policy;
    const NodeResult out = sim.run(r, kUnitTiming, cfg);
    double expect = 0.0;
    for (const auto& t : r.tasks) expect += t.work * 1e-6;
    EXPECT_NEAR(out.busy_seconds, expect, 1e-9)
        << sched_policy_name(policy);
  }
}

TEST(RuntimeSim, SptRunsShortTasksFirst) {
  trace::Region r;
  r.tasks.push_back({.type = 0, .work = 5.0});
  r.tasks.push_back({.type = 0, .work = 1.0});
  RuntimeSim sim;
  RuntimeConfig cfg = cores(1);
  cfg.policy = SchedPolicy::kSpt;
  const NodeResult out = sim.run(r, kUnitTiming, cfg);
  // The short task (index 1) starts first on the single core.
  ASSERT_EQ(out.timeline.size(), 2u);
  EXPECT_LT(out.timeline[0].end, 2e-6);
}

TEST(RuntimeSim, RejectsInvalidInput) {
  RuntimeSim sim;
  EXPECT_THROW(sim.run(trace::Region{}, kUnitTiming, cores(1)), SimError);
  EXPECT_THROW(sim.run(uniform_region(1), kUnitTiming, cores(0)), SimError);
  trace::Region bad = uniform_region(2);
  bad.tasks[1].type = 5;  // no timing entry
  EXPECT_THROW(sim.run(bad, kUnitTiming, cores(1)), SimError);
  trace::Region fwd = uniform_region(2);
  fwd.tasks[0].deps.push_back(1);  // forward dependency
  EXPECT_THROW(sim.run(fwd, kUnitTiming, cores(1)), SimError);
}

class CoreCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(CoreCountSweep, EfficiencyNeverExceedsOne) {
  RuntimeSim sim;
  const int n = GetParam();
  const NodeResult serial =
      sim.run(uniform_region(256), kUnitTiming, cores(1, 1e-9));
  const NodeResult par =
      sim.run(uniform_region(256), kUnitTiming, cores(n, 1e-9));
  const double speedup = serial.seconds / par.seconds;
  EXPECT_LE(speedup, n * 1.001);
  EXPECT_GE(speedup, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Cores, CoreCountSweep,
                         ::testing::Values(1, 2, 8, 32, 64, 128));

// ---- Property-based fuzz: random DAGs through the scheduler --------------
//
// For any DAG and any core count, the makespan must satisfy the classic
// list-scheduling bounds: at least max(critical path, total work / cores),
// at most total work (+ the 2-approximation bound for safety margins).
class DagFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DagFuzz, MakespanWithinListSchedulingBounds) {
  Rng rng(GetParam());
  trace::Region region;
  const int tasks = 20 + static_cast<int>(rng.next_below(120));
  std::vector<double> path(tasks, 0.0);  // longest path ending at i (seconds)
  double critical = 0.0, total = 0.0;
  for (int i = 0; i < tasks; ++i) {
    trace::TaskInstance t;
    t.type = 0;
    t.work = 0.5 + rng.next_double() * 4.0;
    double longest = 0.0;
    if (i > 0) {
      const int deps = static_cast<int>(rng.next_below(3));
      for (int d = 0; d < deps; ++d) {
        const auto dep = static_cast<std::int32_t>(rng.next_below(i));
        if (std::find(t.deps.begin(), t.deps.end(), dep) == t.deps.end()) {
          t.deps.push_back(dep);
          longest = std::max(longest, path[dep]);
        }
      }
    }
    path[i] = longest + t.work * 1e-6;
    critical = std::max(critical, path[i]);
    total += t.work * 1e-6;
    region.tasks.push_back(std::move(t));
  }

  RuntimeSim sim;
  for (int n : {1, 3, 8, 32}) {
    const auto out = sim.run(region, kUnitTiming, cores(n));
    const double lower = std::max(critical, total / n);
    EXPECT_GE(out.seconds, lower * 0.999) << "cores=" << n;
    EXPECT_LE(out.seconds, total * 1.001) << "cores=" << n;
    // Graham's bound for list scheduling: <= work/cores + critical path.
    EXPECT_LE(out.seconds, total / n + critical + 1e-12) << "cores=" << n;
    EXPECT_NEAR(out.busy_seconds, total, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DagFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace musa::cpusim
