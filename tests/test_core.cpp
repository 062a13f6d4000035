// Unit tests for the MUSA core: configuration space, pipeline plumbing,
// and the DSE engine's normalisation machinery.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "common/check.hpp"
#include "common/csv.hpp"
#include "common/journal.hpp"
#include "core/config_space.hpp"
#include "core/dse.hpp"
#include "core/pipeline.hpp"

namespace musa::core {
namespace {

TEST(ConfigSpace, Has864UniquePoints) {
  const auto space = ConfigSpace::full_space();
  ASSERT_EQ(space.size(), 864u);
  std::unordered_set<std::string> ids;
  for (const auto& c : space) ids.insert(c.id());
  EXPECT_EQ(ids.size(), 864u);
}

TEST(ConfigSpace, DimensionsMatchTableI) {
  EXPECT_EQ(ConfigSpace::cache_labels().size(), 3u);
  EXPECT_EQ(ConfigSpace::frequencies().size(), 4u);
  EXPECT_EQ(ConfigSpace::vector_widths().size(), 3u);
  EXPECT_EQ(ConfigSpace::channel_counts().size(), 2u);
  EXPECT_EQ(ConfigSpace::core_counts().size(), 3u);
  // 4 x 3 x 4 x 3 x 2 x 3 = 864.
  EXPECT_EQ(4 * 3 * 4 * 3 * 2 * 3, 864);
}

TEST(MachineConfig, IdEncodesEveryDimension) {
  MachineConfig c;
  c.core = cpusim::core_high();
  c.cache_label = "96M:1M";
  c.freq_ghz = 2.5;
  c.vector_bits = 512;
  c.mem_channels = 8;
  c.cores = 64;
  const std::string id = c.id();
  EXPECT_NE(id.find("high"), std::string::npos);
  EXPECT_NE(id.find("96M:1M"), std::string::npos);
  EXPECT_NE(id.find("2.5GHz"), std::string::npos);
  EXPECT_NE(id.find("512b"), std::string::npos);
  EXPECT_NE(id.find("8ch"), std::string::npos);
  EXPECT_NE(id.find("64c"), std::string::npos);
}

TEST(MachineConfig, IdWithoutBlanksOneDimension) {
  MachineConfig a, b;
  a.vector_bits = 128;
  b.vector_bits = 512;
  EXPECT_NE(a.id(), b.id());
  EXPECT_EQ(a.id_without("vector"), b.id_without("vector"));
  EXPECT_NE(a.id_without("cache"), b.id_without("vector"));
}

TEST(MachineConfig, CacheConfigResolvesLabels) {
  MachineConfig c;
  c.cache_label = "64M:512K";
  EXPECT_EQ(c.cache_config(4).l2.size_bytes, 512u * 1024);
  EXPECT_EQ(c.cache_config(4).num_cores, 4);
  c.cache_label = "bogus";
  EXPECT_THROW(c.cache_config(1), SimError);
}

TEST(ConfigSpace, TableIIConfigsMatchPaper) {
  const auto spmz = ConfigSpace::unconventional("spmz");
  ASSERT_EQ(spmz.size(), 3u);
  EXPECT_EQ(spmz[0].first, "Best-DSE");
  EXPECT_EQ(spmz[1].second.vector_bits, 1024);
  EXPECT_EQ(spmz[2].second.vector_bits, 2048);
  EXPECT_EQ(spmz[1].second.core.label, "high");

  const auto lulesh = ConfigSpace::unconventional("lulesh");
  EXPECT_EQ(lulesh[1].second.mem_channels, 16);
  EXPECT_EQ(lulesh[1].second.vector_bits, 64);
  EXPECT_EQ(lulesh[2].second.mem_tech, dramsim::MemTech::kHbm2);
  EXPECT_THROW(ConfigSpace::unconventional("hydro"), SimError);
}

TEST(Metrics, AccessorsReadResultFields) {
  SimResult r;
  r.region_seconds = 2.0;
  r.wall_seconds = 3.0;
  r.node_w = 10.0;
  EXPECT_DOUBLE_EQ(metrics::region_time(r), 2.0);
  EXPECT_DOUBLE_EQ(metrics::wall_time(r), 3.0);
  EXPECT_DOUBLE_EQ(metrics::node_power(r), 10.0);
  EXPECT_DOUBLE_EQ(metrics::region_energy(r), 20.0);
}

TEST(DseEngine, DimensionValueFormatting) {
  MachineConfig c;
  c.freq_ghz = 1.5;
  EXPECT_EQ(DseEngine::dimension_value(c, "freq"), "1.5GHz");
  EXPECT_EQ(DseEngine::dimension_value(c, "vector"), "128b");
  EXPECT_EQ(DseEngine::dimension_value(c, "channels"), "4ch-DDR4-2333");
  EXPECT_EQ(DseEngine::dimension_value(c, "cores"), "32c");
  EXPECT_EQ(DseEngine::dimension_value(c, "core"), "medium");
  EXPECT_EQ(DseEngine::dimension_value(c, "cache"), "32M:256K");
  EXPECT_THROW(DseEngine::dimension_value(c, "nope"), SimError);
}

// Pipeline smoke tests with a reduced trace window (fast).
PipelineOptions fast_options() {
  PipelineOptions o;
  o.warm_instrs = 40'000;
  o.measure_instrs = 40'000;
  return o;
}

TEST(Pipeline, ProducesSaneResult) {
  Pipeline p(fast_options());
  MachineConfig config;
  config.cores = 32;
  config.ranks = 16;  // small machine for speed
  const SimResult r = p.run(apps::find_app("btmz"), config);
  EXPECT_GT(r.region_seconds, 0.0);
  EXPECT_GT(r.wall_seconds, r.region_seconds);  // several iterations + MPI
  EXPECT_GT(r.ipc, 0.0);
  EXPECT_LE(r.ipc, 8.0);
  EXPECT_GT(r.avg_concurrency, 1.0);
  EXPECT_LE(r.avg_concurrency, 32.0);
  EXPECT_GT(r.core_l1_w, 0.0);
  EXPECT_GT(r.l2_l3_w, 0.0);
  EXPECT_GT(r.dram_w, 0.0);
  EXPECT_NEAR(r.node_w, r.core_l1_w + r.l2_l3_w + r.dram_w, 1e-9);
  EXPECT_GT(r.energy_j, 0.0);
  EXPECT_GT(r.mpki_l1, 0.0);
  EXPECT_GE(r.mpki_l1, r.mpki_l2);
}

TEST(Pipeline, MoreCoresShrinkRegion) {
  Pipeline p(fast_options());
  const auto& app = apps::find_app("hydro");
  MachineConfig one, many;
  one.cores = 1;
  one.ranks = 8;
  many.cores = 32;
  many.ranks = 8;
  const SimResult r1 = p.run(app, one);
  const SimResult r32 = p.run(app, many);
  EXPECT_GT(r1.region_seconds / r32.region_seconds, 10.0);
}

TEST(Pipeline, BurstModeMatchesHardwareAgnosticSemantics) {
  Pipeline p(fast_options());
  const auto& app = apps::find_app("spmz");
  const BurstResult serial = p.run_burst(app, 1, 8);
  const BurstResult par = p.run_burst(app, 32, 8);
  EXPECT_GT(serial.region_seconds, par.region_seconds);
  EXPECT_GT(serial.wall_seconds, par.wall_seconds);
  // Serial region equals the reference duration (no contention modelled).
  EXPECT_NEAR(serial.region_seconds,
              app.ref_region_seconds * apps::make_region(app).total_work() /
                  app.tasks_per_region,
              serial.region_seconds * 0.25);
}

TEST(Pipeline, HbmConfigsHaveNoEnergy) {
  Pipeline p(fast_options());
  MachineConfig c;
  c.mem_tech = dramsim::MemTech::kHbm2;
  c.mem_channels = 16;
  c.cores = 32;
  c.ranks = 8;
  const SimResult r = p.run(apps::find_app("lulesh"), c);
  EXPECT_FALSE(r.dram_power_known);
  EXPECT_DOUBLE_EQ(r.dram_w, 0.0);
  EXPECT_DOUBLE_EQ(r.energy_j, 0.0);
}

// Handcrafted DSE cache exercising the normalisation math end to end:
// two configs differing only in vector width, for two apps.
TEST(DseEngine, NormalisedRatiosFromSyntheticCache) {
  const std::string path =
      std::string(::testing::TempDir()) + "musa_dse_synthetic.csv";
  CsvDoc doc(
      {"app",        "core",      "cache",     "freq_ghz", "vector_bits",
       "channels",   "tech",      "cores",     "ranks",    "region_s",
       "wall_s",     "ipc",       "concurrency", "busy_frac",
       "contention", "mpki_l1",   "mpki_l2",   "mpki_l3",  "gmem_req_s",
       "mem_gbps",   "core_l1_w", "l2_l3_w",   "dram_w",   "dram_known",
       "node_w",     "energy_j"});
  auto row = [&](const std::string& app, int vec, double region,
                 double power) {
    doc.add_row({app, "medium", "32M:256K", "2", std::to_string(vec), "4",
                 "DDR4-2333", "32", "256", std::to_string(region), "1", "1",
                 "16", "0.5", "1", "10", "5", "1", "0.1", "10",
                 std::to_string(power * 0.7), std::to_string(power * 0.2),
                 std::to_string(power * 0.1), "1", std::to_string(power),
                 "1"});
  };
  row("hydro", 128, 1.0, 100.0);
  row("hydro", 512, 0.5, 150.0);  // 2x faster, 1.5x power
  row("lulesh", 128, 1.0, 100.0);
  row("lulesh", 512, 1.0, 130.0);  // no speed-up
  doc.save(path);

  // Restrict the plan to the synthetic grid so the coverage validator
  // accepts the cache as complete.
  SweepOptions opts;
  opts.verbose = false;
  // The handcrafted rows exercise the normalisation math, not the physics:
  // they are not energy-consistent, so skip the result invariant checks
  // (which would drop and recompute them).
  opts.verify = false;
  opts.apps = {"hydro", "lulesh"};
  MachineConfig narrow, wide;
  wide.vector_bits = 512;
  opts.configs = {narrow, wide};

  Pipeline p(fast_options());
  DseEngine dse(p, path, opts);
  const NormStat hydro_t = dse.normalized_ratio(
      "hydro", 32, "vector", "512b", "128b", metrics::region_time);
  EXPECT_EQ(hydro_t.n, 1);
  EXPECT_NEAR(hydro_t.mean, 0.5, 1e-9);  // speed-up = 1/mean = 2x
  const NormStat lulesh_t = dse.normalized_ratio(
      "lulesh", 32, "vector", "512b", "128b", metrics::region_time);
  EXPECT_NEAR(lulesh_t.mean, 1.0, 1e-9);

  const NormStat hydro_p = dse.normalized_ratio(
      "hydro", 32, "vector", "512b", "128b", metrics::node_power);
  EXPECT_NEAR(hydro_p.mean, 1.5, 1e-9);

  const auto split =
      dse.power_split("hydro", 32, "vector", "512b", "128b");
  EXPECT_NEAR(split.core_l1 + split.l2_l3 + split.dram, 1.5, 1e-9);
  EXPECT_NEAR(split.core_l1, 1.05, 1e-9);  // 0.7 x 1.5

  // Energy ratio = (power x region) ratio = 1.5 x 0.5.
  const NormStat hydro_e = dse.normalized_ratio(
      "hydro", 32, "vector", "512b", "128b", metrics::region_energy);
  EXPECT_NEAR(hydro_e.mean, 0.75, 1e-9);

  // Baseline itself normalises to exactly 1.
  const NormStat self = dse.normalized_ratio(
      "hydro", 32, "vector", "128b", "128b", metrics::region_time);
  EXPECT_NEAR(self.mean, 1.0, 1e-12);

  // Averages filter by dimension value.
  const NormStat avg =
      dse.average("hydro", 32, "vector", "512b", metrics::node_power);
  EXPECT_NEAR(avg.mean, 150.0, 1e-9);

  std::remove(path.c_str());
}

TEST(Pipeline, MultiPhaseRegionsSumAndScaleIndependently) {
  // Two-phase app: phase 0 scales to 64 cores, phase 1 (16 tasks) cannot.
  apps::AppModel app = apps::find_app("hydro");
  app.name = "twophase_pipe";
  apps::Phase solve;
  solve.name = "solve";
  solve.kernel = apps::find_app("spec3d").kernel;
  solve.task_instrs = 1e6;
  solve.tasks_per_region = 16;
  solve.task_imbalance = 0.1;
  solve.ref_region_seconds = 4e-3;
  app.extra_phases.push_back(solve);

  Pipeline p(fast_options());
  const BurstResult serial = p.run_burst(app, 1, 4);
  const BurstResult par = p.run_burst(app, 64, 4);
  const double speedup = serial.region_seconds / par.region_seconds;
  // Whole-timestep speed-up sits between the solve cap (~16x on its share)
  // and the flux region's near-linear scaling.
  EXPECT_GT(speedup, 10.0);
  EXPECT_LT(speedup, 50.0);

  MachineConfig config;
  config.cores = 32;
  config.ranks = 4;
  const SimResult r = p.run(app, config);
  EXPECT_GT(r.region_seconds, 0.0);
  EXPECT_GT(r.node_w, 0.0);

  // The same app without the extra phase has a shorter region.
  apps::AppModel single = apps::find_app("hydro");
  const SimResult rs = p.run(single, config);
  EXPECT_GT(r.region_seconds, rs.region_seconds);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

// Exact string round-trip of the cache row codec for every core preset and
// memory technology, including the HBM2 unknown-power flag.
TEST(DseEngine, RowRoundTripForEveryPresetAndTech) {
  for (const auto& preset : cpusim::core_presets()) {
    for (auto tech :
         {dramsim::MemTech::kDdr4_2333, dramsim::MemTech::kDdr4_2666,
          dramsim::MemTech::kLpddr4_3200, dramsim::MemTech::kWideIo2,
          dramsim::MemTech::kHbm2}) {
      SimResult r;
      r.app = "spec3d";
      r.config.core = preset;
      r.config.cache_label = "64M:512K";
      r.config.freq_ghz = 2.5;
      r.config.vector_bits = 256;
      r.config.mem_channels = 8;
      r.config.mem_tech = tech;
      r.config.cores = 64;
      r.config.ranks = 128;
      r.region_seconds = 0.03125;
      r.wall_seconds = 1.5;
      r.ipc = 2.25;
      r.avg_concurrency = 48.5;
      r.busy_fraction = 0.75;
      r.contention_factor = 1.125;
      r.mpki_l1 = 12.5;
      r.mpki_l2 = 6.25;
      r.mpki_l3 = 0.5;
      r.gmem_req_s = 0.015625;
      r.mem_gbps = 42.5;
      r.core_l1_w = 3.5;
      r.l2_l3_w = 2.25;
      r.dram_w = tech == dramsim::MemTech::kHbm2 ? 0.0 : 9.75;
      r.dram_power_known = tech != dramsim::MemTech::kHbm2;
      r.node_w = r.core_l1_w + r.l2_l3_w + r.dram_w;
      r.energy_j = r.dram_power_known ? r.node_w * r.wall_seconds : 0.0;

      const SimResult q = DseEngine::from_row(DseEngine::to_row(r));
      EXPECT_EQ(q.app, r.app);
      EXPECT_EQ(q.config.id(), r.config.id());
      EXPECT_EQ(q.config.mem_tech, r.config.mem_tech);
      EXPECT_EQ(q.config.ranks, r.config.ranks);
      EXPECT_DOUBLE_EQ(q.region_seconds, r.region_seconds);
      EXPECT_DOUBLE_EQ(q.wall_seconds, r.wall_seconds);
      EXPECT_DOUBLE_EQ(q.ipc, r.ipc);
      EXPECT_DOUBLE_EQ(q.avg_concurrency, r.avg_concurrency);
      EXPECT_DOUBLE_EQ(q.busy_fraction, r.busy_fraction);
      EXPECT_DOUBLE_EQ(q.contention_factor, r.contention_factor);
      EXPECT_DOUBLE_EQ(q.mpki_l1, r.mpki_l1);
      EXPECT_DOUBLE_EQ(q.mpki_l2, r.mpki_l2);
      EXPECT_DOUBLE_EQ(q.mpki_l3, r.mpki_l3);
      EXPECT_DOUBLE_EQ(q.gmem_req_s, r.gmem_req_s);
      EXPECT_DOUBLE_EQ(q.mem_gbps, r.mem_gbps);
      EXPECT_DOUBLE_EQ(q.core_l1_w, r.core_l1_w);
      EXPECT_DOUBLE_EQ(q.l2_l3_w, r.l2_l3_w);
      EXPECT_DOUBLE_EQ(q.dram_w, r.dram_w);
      EXPECT_EQ(q.dram_power_known, r.dram_power_known);
      EXPECT_DOUBLE_EQ(q.node_w, r.node_w);
      EXPECT_DOUBLE_EQ(q.energy_j, r.energy_j);
      // And the serialised form is a fixed point.
      EXPECT_EQ(DseEngine::to_row(q), DseEngine::to_row(r));
    }
  }
}

// A 2-app x 2-config plan small enough to sweep for real in tests.
SweepOptions tiny_sweep() {
  SweepOptions o;
  o.verbose = false;
  o.apps = {"hydro", "btmz"};
  MachineConfig narrow;
  narrow.cores = 4;
  narrow.ranks = 4;
  MachineConfig wide = narrow;
  wide.vector_bits = 512;
  o.configs = {narrow, wide};
  return o;
}

TEST(DseEngine, SweepJournalsAndResumesAfterKill) {
  const std::string cache =
      std::string(::testing::TempDir()) + "musa_dse_resume.csv";
  Pipeline p(fast_options());
  {
    DseEngine fresh(p, cache, tiny_sweep());
    fresh.clear_cache();
    const SweepReport rep = fresh.sweep();
    EXPECT_TRUE(rep.finalized);
    EXPECT_EQ(rep.total, 4u);
    EXPECT_EQ(rep.computed, 4u);
    EXPECT_EQ(rep.resumed, 0u);
    EXPECT_EQ(rep.stages.points, 4u);
    EXPECT_GT(rep.stages.kernel_s, 0.0);
    EXPECT_EQ(fresh.results().size(), 4u);
  }
  ASSERT_TRUE(CsvDoc::file_exists(cache));
  EXPECT_TRUE(find_journals(cache).empty());  // journal cleaned up
  const std::string reference = read_file(cache);

  // Simulate a kill -9 mid-sweep: no cache, a journal holding 2 of the 4
  // points (as the crashed process would have left behind).
  const CsvDoc doc = CsvDoc::load(cache);
  std::remove(cache.c_str());
  {
    ResultJournal j(cache + ".journal", DseEngine::csv_header());
    for (std::size_t i : {0u, 3u}) {
      const SimResult r = DseEngine::from_row(doc.rows()[i]);
      j.append(DseEngine::point_key(r.app, r.config), doc.rows()[i]);
    }
  }

  DseEngine resumed(p, cache, tiny_sweep());
  const SweepReport rep = resumed.sweep();
  EXPECT_TRUE(rep.finalized);
  EXPECT_EQ(rep.resumed, 2u);
  EXPECT_EQ(rep.computed, 2u);  // only the missing points re-ran
  // The merged cache is byte-identical to the uninterrupted run.
  EXPECT_EQ(read_file(cache), reference);
  EXPECT_TRUE(find_journals(cache).empty());
  resumed.clear_cache();
}

TEST(DseEngine, TruncatedCacheIsDetectedAndRepaired) {
  const std::string cache =
      std::string(::testing::TempDir()) + "musa_dse_trunc.csv";
  Pipeline p(fast_options());
  {
    DseEngine fresh(p, cache, tiny_sweep());
    fresh.clear_cache();
    fresh.sweep();
  }
  const std::string reference = read_file(cache);

  // Line-level truncation: drop the last data row. The old loader accepted
  // this silently; now it must be detected and exactly one point re-run.
  const std::string::size_type cut =
      reference.find_last_of('\n', reference.size() - 2);
  write_file(cache, reference.substr(0, cut + 1));
  {
    DseEngine eng(p, cache, tiny_sweep());
    const SweepReport rep = eng.sweep();
    EXPECT_TRUE(rep.finalized);
    EXPECT_EQ(rep.resumed, 3u);
    EXPECT_EQ(rep.computed, 1u);
    EXPECT_EQ(read_file(cache), reference);
  }

  // Byte-level truncation (ragged final row, as a kill mid-write leaves):
  // the damaged line is dropped, the three intact rows are salvaged, and
  // only the lost point is re-simulated.
  write_file(cache, reference.substr(0, cut + 11));
  {
    DseEngine eng(p, cache, tiny_sweep());
    const SweepReport rep = eng.sweep();
    EXPECT_TRUE(rep.finalized);
    EXPECT_EQ(rep.resumed, 3u);
    EXPECT_EQ(rep.computed, 1u);
    EXPECT_EQ(read_file(cache), reference);
  }

  // A duplicated row is also rejected, salvaged, and rewritten cleanly.
  const CsvDoc doc = CsvDoc::parse(reference);
  CsvDoc dup(doc.header());
  for (const auto& row : doc.rows()) dup.add_row(row);
  dup.add_row(doc.rows()[1]);
  dup.save(cache);
  {
    DseEngine eng(p, cache, tiny_sweep());
    const SweepReport rep = eng.sweep();
    EXPECT_TRUE(rep.finalized);
    EXPECT_EQ(rep.computed, 0u);  // all four points salvaged
    EXPECT_EQ(read_file(cache), reference);
    eng.clear_cache();
  }
}

// Sibling journals (an elastic worker's `<cache>.worker-N.journal`) merge
// into the engine's result exactly like its own journal: the engine
// computes only what no journal holds, and finalizes byte-identically.
TEST(DseEngine, ShardedJournalsMergeIntoSingleProcessResult) {
  const std::string cache =
      std::string(::testing::TempDir()) + "musa_dse_shard.csv";
  Pipeline p(fast_options());
  {
    DseEngine fresh(p, cache, tiny_sweep());
    fresh.clear_cache();
    fresh.sweep();
  }
  const std::string reference = read_file(cache);
  const CsvDoc doc = CsvDoc::load(cache);
  std::remove(cache.c_str());
  {
    ResultJournal worker(cache + ".worker-0.journal", DseEngine::csv_header());
    for (std::size_t i : {1u, 2u}) {
      const SimResult r = DseEngine::from_row(doc.rows()[i]);
      worker.append(DseEngine::point_key(r.app, r.config), doc.rows()[i]);
    }
  }
  ASSERT_EQ(find_journals(cache).size(), 1u);
  // A SIGKILLed elastic controller also leaves its workers' fingerprint
  // sidecars; a server's own "<cache>.fp" is not a worker's.
  write_file(cache + ".worker-0.fp", "0\n");
  write_file(cache + ".fp", "0\n");

  DseEngine merged(p, cache, tiny_sweep());
  const SweepReport rep = merged.sweep();
  EXPECT_TRUE(rep.finalized);
  EXPECT_EQ(rep.resumed, 2u);
  EXPECT_EQ(rep.computed, 2u);  // only what the worker journal lacked
  EXPECT_EQ(merged.results().size(), 4u);
  EXPECT_EQ(read_file(cache), reference);
  EXPECT_TRUE(find_journals(cache).empty());
  EXPECT_TRUE(find_sidecars(cache, ".worker-", ".fp").empty());
  EXPECT_TRUE(CsvDoc::file_exists(cache + ".fp"));
  write_file(cache + ".worker-1.fp", "0\n");
  merged.clear_cache();
  EXPECT_TRUE(find_sidecars(cache, ".worker-", ".fp").empty());
  std::remove((cache + ".fp").c_str());
}

// Point keys carry ranks: two configs that differ only in ranks are two
// keys and two rows, each with its own ranks column. The paper's 256 ranks
// keep the six-field id every committed cache key uses.
TEST(DseEngine, ConfigsDifferingOnlyInRanksKeepTheirOwnRows) {
  const std::string cache =
      std::string(::testing::TempDir()) + "musa_dse_ranks.csv";
  MachineConfig few;
  few.cores = 4;
  few.ranks = 4;
  MachineConfig many = few;
  many.ranks = 8;
  SweepOptions o;
  o.verbose = false;
  o.apps = {"hydro"};
  o.configs = {few, many};
  const SweepPlan plan = make_sweep_plan(o);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_NE(plan.keys[0], plan.keys[1]);
  EXPECT_EQ(MachineConfig::parse_id(many.id()).ranks, 8);
  EXPECT_EQ(MachineConfig::parse_id(few.id()).id(), few.id());
  EXPECT_EQ(MachineConfig{}.id(), "medium|32M:256K|2.0GHz|128b|4ch-DDR4-2333|32c");

  Pipeline p(fast_options());
  DseEngine dse(p, cache, o);
  dse.clear_cache();
  ASSERT_TRUE(dse.sweep().finalized);
  const CsvDoc doc = CsvDoc::load(cache);
  ASSERT_EQ(doc.rows().size(), 2u);
  EXPECT_EQ(doc.rows()[0][8], "4");
  EXPECT_EQ(doc.rows()[1][8], "8");
  dse.clear_cache();
}

TEST(DseEngine, PowerMetricsSkipUnknownDramPower) {
  const std::string path =
      std::string(::testing::TempDir()) + "musa_dse_hbm.csv";
  SimResult ddr;
  ddr.app = "hydro";
  ddr.region_seconds = 1.0;
  ddr.wall_seconds = 2.0;
  ddr.core_l1_w = 70.0;
  ddr.l2_l3_w = 20.0;
  ddr.dram_w = 10.0;
  ddr.node_w = 100.0;
  ddr.energy_j = 200.0;
  SimResult hbm = ddr;
  hbm.config.mem_tech = dramsim::MemTech::kHbm2;
  hbm.config.mem_channels = 16;
  hbm.region_seconds = 0.5;
  hbm.dram_power_known = false;
  hbm.dram_w = 0.0;
  hbm.node_w = 90.0;  // partial: Core+L1 + L2+L3 only
  hbm.energy_j = 0.0;
  CsvDoc doc(DseEngine::csv_header());
  doc.add_row(DseEngine::to_row(ddr));
  doc.add_row(DseEngine::to_row(hbm));
  doc.save(path);

  SweepOptions opts;
  opts.verbose = false;
  opts.verify = false;  // handcrafted rows, not physically consistent
  opts.apps = {"hydro"};
  opts.configs = {ddr.config, hbm.config};
  Pipeline p(fast_options());
  DseEngine dse(p, path, opts);

  // Time metrics still see the HBM point...
  const NormStat t = dse.normalized_ratio(
      "hydro", 32, "channels", "16ch-HBM2", "4ch-DDR4-2333",
      metrics::region_time);
  EXPECT_EQ(t.n, 1);
  EXPECT_NEAR(t.mean, 0.5, 1e-12);
  // ...but power/energy aggregation excludes it instead of folding the
  // partial node_w into the ratio.
  const NormStat e = dse.normalized_ratio(
      "hydro", 32, "channels", "16ch-HBM2", "4ch-DDR4-2333",
      metrics::region_energy);
  EXPECT_EQ(e.n, 0);
  const NormStat pw =
      dse.average("hydro", 32, "channels", "16ch-HBM2", metrics::node_power);
  EXPECT_EQ(pw.n, 0);
  const NormStat tw =
      dse.average("hydro", 32, "channels", "16ch-HBM2", metrics::region_time);
  EXPECT_EQ(tw.n, 1);
  const auto split =
      dse.power_split("hydro", 32, "channels", "16ch-HBM2", "4ch-DDR4-2333");
  EXPECT_DOUBLE_EQ(split.core_l1, 0.0);
  EXPECT_DOUBLE_EQ(split.l2_l3, 0.0);
  EXPECT_DOUBLE_EQ(split.dram, 0.0);
  std::remove(path.c_str());
}

TEST(Pipeline, StageTimesAccumulatePerRun) {
  Pipeline p(fast_options());
  MachineConfig c;
  c.cores = 4;
  c.ranks = 4;
  EXPECT_EQ(p.stage_times().points, 0u);
  p.run(apps::find_app("hydro"), c);
  const StageTimes& st = p.stage_times();
  EXPECT_EQ(st.points, 1u);
  EXPECT_GT(st.kernel_s, 0.0);
  EXPECT_GE(st.burst_s, 0.0);
  EXPECT_GE(st.replay_s, 0.0);
  EXPECT_GE(st.power_s, 0.0);
  EXPECT_NEAR(st.total_s(),
              st.burst_s + st.kernel_s + st.replay_s + st.power_s, 1e-12);
  StageTimes other = st;
  other.merge(st);
  EXPECT_EQ(other.points, 2u);
  EXPECT_DOUBLE_EQ(other.kernel_s, 2 * st.kernel_s);
  p.reset_stage_times();
  EXPECT_EQ(p.stage_times().points, 0u);
}

TEST(DseEngine, RejectsStaleCacheSchema) {
  const std::string path =
      std::string(::testing::TempDir()) + "musa_dse_stale.csv";
  CsvDoc doc({"wrong", "schema"});
  doc.add_row({"1", "2"});
  doc.save(path);
  Pipeline p(fast_options());
  DseEngine dse(p, path);
  EXPECT_THROW(dse.results(), SimError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace musa::core
