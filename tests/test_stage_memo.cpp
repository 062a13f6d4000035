// Tests for the cross-point stage memoization layer (core/stage_memo.hpp).
//
// The load-bearing property is *byte identity*: a memoized sweep must write
// exactly the bytes a non-memoized sweep writes — cache file, journal rows,
// every formatted metric. The tests below run real sub-sweeps both ways and
// compare raw bytes, and hammer the shared memo from 8 threads so the TSan
// CI leg exercises the concurrent paths — including the single-flight fill
// protocol (one fill per key; waiters get the filler's value, and retry the
// fill if it throws).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/journal.hpp"
#include "core/dse.hpp"
#include "core/scheduler.hpp"

namespace musa::core {
namespace {

std::string tmp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Reduced trace slices: the identity property is path-equality, not slice
/// size, and the full 320k-instruction warm-up would make these tests the
/// slowest in the suite.
PipelineOptions fast_options() {
  PipelineOptions o;
  o.warm_instrs = 40'000;
  o.measure_instrs = 32'000;
  return o;
}

/// 36 configs spanning every memo key dimension: 4 core presets × 3
/// frequencies × 3 vector widths. With two apps this is the 72-point
/// sub-sweep the byte-identity tests run.
std::vector<MachineConfig> sub_space() {
  std::vector<MachineConfig> configs;
  for (const auto& core : cpusim::core_presets())
    for (double freq : {1.5, 2.0, 2.5})
      for (int vec : {128, 256, 512}) {
        MachineConfig c;
        c.core = core;
        c.freq_ghz = freq;
        c.vector_bits = vec;
        configs.push_back(c);
      }
  return configs;
}

SweepOptions sub_sweep(bool memoize) {
  SweepOptions o;
  o.verbose = false;
  o.memoize = memoize;
  o.apps = {"hydro", "lulesh"};
  o.configs = sub_space();
  return o;
}

TEST(StageMemo, MemoizedPipelineMatchesPlainPointwise) {
  const apps::AppModel& app = apps::find_app("spmz");
  MachineConfig config;
  config.freq_ghz = 2.5;
  config.mem_channels = 8;

  Pipeline plain(fast_options());
  auto memo = std::make_shared<StageMemo>(
      pipeline_options_fingerprint(fast_options()));
  Pipeline memoized(fast_options(), memo);

  const SimResult a = plain.run(app, config);
  const SimResult b = memoized.run(app, config);
  EXPECT_EQ(DseEngine::to_row(a), DseEngine::to_row(b));
}

TEST(StageMemo, SecondRunHitsEveryTable) {
  const apps::AppModel& app = apps::find_app("hydro");
  auto memo = std::make_shared<StageMemo>(
      pipeline_options_fingerprint(fast_options()));
  Pipeline pipeline(fast_options(), memo);

  const SimResult first = pipeline.run(app, MachineConfig{});
  const MemoStats cold = memo->stats();
  EXPECT_GT(cold.total_misses(), 0u);

  const SimResult second = pipeline.run(app, MachineConfig{});
  const MemoStats warm = memo->stats();
  // The repeat run computes nothing new...
  EXPECT_EQ(warm.total_misses(), cold.total_misses());
  // ...every stage is served from the memo...
  EXPECT_GT(warm.burst_hits, cold.burst_hits);
  EXPECT_GT(warm.region_hits, cold.region_hits);
  EXPECT_GT(warm.trace_hits, cold.trace_hits);
  EXPECT_GT(warm.stream_hits, cold.stream_hits);
  EXPECT_GT(warm.warm_hits, cold.warm_hits);
  EXPECT_GT(warm.fused_hits, cold.fused_hits);
  EXPECT_GT(warm.perfect_hits, cold.perfect_hits);
  // ...and the result is still bit-identical.
  EXPECT_EQ(DseEngine::to_row(first), DseEngine::to_row(second));
}

TEST(StageMemo, RejectsMemoBuiltForDifferentOptions) {
  auto memo = std::make_shared<StageMemo>(
      pipeline_options_fingerprint(fast_options()));
  EXPECT_THROW(Pipeline(PipelineOptions{}, memo), SimError);
  PipelineOptions other = fast_options();
  other.seed = 99;
  EXPECT_THROW(Pipeline(other, memo), SimError);
  EXPECT_NO_THROW(Pipeline(fast_options(), memo));
}

TEST(StageMemo, SubSweepCacheIsByteIdenticalWithAndWithoutMemo) {
  const std::string on_path = tmp_path("musa_memo_on.csv");
  const std::string off_path = tmp_path("musa_memo_off.csv");

  Pipeline pipe_on(fast_options());
  DseEngine on(pipe_on, on_path, sub_sweep(/*memoize=*/true));
  on.sweep(/*force=*/true);
  ASSERT_TRUE(on.report().finalized);
  // The sweep actually exercised the memo: with 2 apps and 36 configs all
  // sharing (cores, cache, channels), all but a handful of lookups hit.
  EXPECT_GT(on.report().memo.total_hits(), 0u);
  EXPECT_GT(on.report().memo.stream_hits, on.report().memo.stream_misses);

  Pipeline pipe_off(fast_options());
  DseEngine off(pipe_off, off_path, sub_sweep(/*memoize=*/false));
  off.sweep(/*force=*/true);
  ASSERT_TRUE(off.report().finalized);
  EXPECT_EQ(off.report().memo.total_hits() + off.report().memo.total_misses(),
            0u);

  const std::string on_bytes = slurp(on_path);
  ASSERT_FALSE(on_bytes.empty());
  EXPECT_EQ(on_bytes, slurp(off_path));
  std::remove(on_path.c_str());
  std::remove(off_path.c_str());
}

TEST(StageMemo, EightWorkersHammeringSharedMemoAgreeWithPlain) {
  // 8 threads × 6 points through one StageMemo: every worker must get the
  // same bytes the memo-less pipeline computes. Under the TSan CI leg this
  // is the data-race hammer for the shared tables.
  const apps::AppModel& app = apps::find_app("btmz");
  std::vector<MachineConfig> configs;
  for (const auto& core : cpusim::core_presets()) {
    MachineConfig c;
    c.core = core;
    configs.push_back(c);
  }
  for (int vec : {256, 512}) {
    MachineConfig c;
    c.vector_bits = vec;
    configs.push_back(c);
  }

  std::vector<std::vector<std::string>> expected;
  Pipeline plain(fast_options());
  expected.reserve(configs.size());
  for (const auto& c : configs)
    expected.push_back(DseEngine::to_row(plain.run(app, c)));

  auto memo = std::make_shared<StageMemo>(
      pipeline_options_fingerprint(fast_options()));
  constexpr int kWorkers = 8;
  std::vector<std::vector<std::vector<std::string>>> got(kWorkers);
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w)
    workers.emplace_back([&, w] {
      Pipeline local(fast_options(), memo);
      for (const auto& c : configs)
        got[static_cast<std::size_t>(w)].push_back(
            DseEngine::to_row(local.run(app, c)));
    });
  for (auto& t : workers) t.join();

  for (int w = 0; w < kWorkers; ++w)
    EXPECT_EQ(got[static_cast<std::size_t>(w)], expected)
        << "worker " << w << " diverged";
  const MemoStats stats = memo->stats();
  EXPECT_GT(stats.total_hits(), 0u);
}

TEST(StageMemo, SingleStepReferenceUnderMemoMatchesBlockPath) {
  // sweep_bench's reference run: a memoized pipeline forced onto the
  // single-step core path must regenerate its scalar measured slice (the
  // memo keeps only the warm-up prefix and the fused blocks) and write the
  // very bytes the fused block path writes.
  const std::string block_path = tmp_path("musa_memo_block.csv");
  const std::string step_path = tmp_path("musa_memo_step.csv");

  Pipeline pipe_block(fast_options());
  DseEngine block(pipe_block, block_path, sub_sweep(/*memoize=*/true));
  block.sweep(/*force=*/true);
  ASSERT_TRUE(block.report().finalized);
  EXPECT_GT(block.report().memo.fused_hits, 0u);

  PipelineOptions step_options = fast_options();
  step_options.single_step_core = true;
  Pipeline pipe_step(step_options);
  DseEngine step(pipe_step, step_path, sub_sweep(/*memoize=*/true));
  step.sweep(/*force=*/true);
  ASSERT_TRUE(step.report().finalized);
  EXPECT_EQ(step.report().memo.fused_hits + step.report().memo.fused_misses,
            0u)
      << "the single-step reference must not replay fused blocks";

  const std::string block_bytes = slurp(block_path);
  ASSERT_FALSE(block_bytes.empty());
  EXPECT_EQ(block_bytes, slurp(step_path));
  std::remove(block_path.c_str());
  std::remove(step_path.c_str());
}

/// Starts `n` threads that each run `fn(i)` once all of them exist, so the
/// calls race as closely as the scheduler allows.
template <typename Fn>
void race(int n, Fn fn) {
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i)
    threads.emplace_back([&, i] {
      while (!go.load()) std::this_thread::yield();
      fn(i);
    });
  go.store(true);
  for (auto& t : threads) t.join();
}

TEST(StageMemo, RacingLookupsOfOneKeyFillItOnce) {
  const apps::AppModel& app = apps::find_app("hydro");
  StageMemo memo(pipeline_options_fingerprint(fast_options()));
  std::atomic<int> fills{0};
  constexpr int kThreads = 8;
  std::vector<const trace::Region*> got(kThreads, nullptr);
  race(kThreads, [&](int i) {
    got[static_cast<std::size_t>(i)] = &memo.region(app, 0, [&] {
      ++fills;
      // Long enough that every other thread asks while the fill runs.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      return trace::Region{"filled", {}};
    });
  });
  EXPECT_EQ(fills.load(), 1);
  for (const trace::Region* r : got) EXPECT_EQ(r, got.front());
  EXPECT_EQ(got.front()->name, "filled");
  const MemoStats stats = memo.stats();
  EXPECT_EQ(stats.region_misses, 1u);
  EXPECT_EQ(stats.region_hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(StageMemo, ThrowingFillRethrowsAndWaitersRetry) {
  const apps::AppModel& app = apps::find_app("hydro");
  StageMemo memo(pipeline_options_fingerprint(fast_options()));
  std::atomic<int> fills{0};
  std::atomic<bool> first_fill_running{false};
  auto fill = [&] {
    if (fills.fetch_add(1) == 0) {
      first_fill_running.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      throw SimError("injected fill failure", ErrorClass::kInjected, "trace");
    }
    return trace::Region{"retried", {}};
  };

  std::thread filler(
      [&] { EXPECT_THROW(memo.region(app, 0, fill), SimError); });
  while (!first_fill_running.load()) std::this_thread::yield();
  constexpr int kWaiters = 4;
  std::vector<const trace::Region*> got(kWaiters, nullptr);
  race(kWaiters, [&](int i) {
    got[static_cast<std::size_t>(i)] = &memo.region(app, 0, fill);
  });
  filler.join();

  // The failed fill is retried exactly once, by one of the woken waiters,
  // and the others take its value.
  EXPECT_EQ(fills.load(), 2);
  for (const trace::Region* r : got) EXPECT_EQ(r, got.front());
  EXPECT_EQ(got.front()->name, "retried");
  const MemoStats stats = memo.stats();
  EXPECT_EQ(stats.region_misses, 2u);
  EXPECT_EQ(stats.region_hits, static_cast<std::uint64_t>(kWaiters - 1));
}

/// The memo counters of the 72-point sub-sweep run on `threads` threads
/// against one fresh memo.
MemoStats sub_sweep_memo_stats(int threads) {
  std::vector<std::pair<const apps::AppModel*, MachineConfig>> points;
  for (const char* name : {"hydro", "lulesh"})
    for (const auto& c : sub_space())
      points.emplace_back(&apps::find_app(name), c);
  auto memo = std::make_shared<StageMemo>(
      pipeline_options_fingerprint(fast_options()));
  PointScheduler scheduler(threads, fast_options(), memo);
  scheduler.wait(scheduler.submit(
      points.size(), 0, [&](Pipeline& pipeline, std::uint64_t i) {
        pipeline.run(*points[i].first, points[i].second);
      }));
  return memo->stats();
}

TEST(StageMemo, FourThreadSubSweepFillsEachKeyOnce) {
  // One thread fills every distinct key exactly once, so its miss counts
  // are the distinct-key counts; four threads racing over the same points
  // must not fill any key twice.
  const MemoStats one = sub_sweep_memo_stats(1);
  const MemoStats four = sub_sweep_memo_stats(4);
  const std::pair<std::uint64_t, std::uint64_t> tables[][2] = {
      {{one.region_hits, one.region_misses},
       {four.region_hits, four.region_misses}},
      {{one.trace_hits, one.trace_misses},
       {four.trace_hits, four.trace_misses}},
      {{one.burst_hits, one.burst_misses},
       {four.burst_hits, four.burst_misses}},
      {{one.stream_hits, one.stream_misses},
       {four.stream_hits, four.stream_misses}},
      {{one.warm_hits, one.warm_misses}, {four.warm_hits, four.warm_misses}},
      {{one.fused_hits, one.fused_misses},
       {four.fused_hits, four.fused_misses}},
      {{one.perfect_hits, one.perfect_misses},
       {four.perfect_hits, four.perfect_misses}},
  };
  const char* names[] = {"region", "trace", "burst",  "stream",
                         "warm",   "fused", "perfect"};
  for (std::size_t t = 0; t < std::size(names); ++t) {
    const auto& [h1, m1] = tables[t][0];
    const auto& [h4, m4] = tables[t][1];
    EXPECT_GT(m1, 0u) << names[t];
    EXPECT_EQ(m4, m1) << names[t] << ": misses must equal distinct keys";
    EXPECT_EQ(h4 + m4, h1 + m1) << names[t] << ": same lookups either way";
  }
}

}  // namespace
}  // namespace musa::core
