// Tests for the cross-point stage memoization layer (core/stage_memo.hpp).
//
// The load-bearing property is *byte identity*: a memoized sweep must write
// exactly the bytes a non-memoized sweep writes — cache file, journal rows,
// every formatted metric. The tests below run real sub-sweeps both ways and
// compare raw bytes, and hammer the shared memo from 8 threads so the TSan
// CI leg exercises the concurrent paths.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/journal.hpp"
#include "common/parallel.hpp"
#include "core/dse.hpp"

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
  parallel_workers(kWorkers, [&](int w) {
    Pipeline local(fast_options(), memo);
    for (const auto& c : configs)
      got[static_cast<std::size_t>(w)].push_back(
          DseEngine::to_row(local.run(app, c)));
  });

  for (int w = 0; w < kWorkers; ++w)
    EXPECT_EQ(got[static_cast<std::size_t>(w)], expected)
        << "worker " << w << " diverged";
  const MemoStats stats = memo->stats();
  EXPECT_GT(stats.total_hits(), 0u);
}

}  // namespace
}  // namespace musa::core
