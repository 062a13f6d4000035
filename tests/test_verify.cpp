// Rejection matrix for the src/verify subsystem: every class of physically
// impossible configuration and every corrupted-result shape must be caught
// by a *named* rule, and the paper's own presets/space/results must pass.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/csv.hpp"
#include "common/parallel.hpp"
#include "core/config_space.hpp"
#include "core/dse.hpp"
#include "core/pipeline.hpp"
#include "verify/config_rules.hpp"
#include "verify/invariants.hpp"

namespace musa::verify {
namespace {

/// True if any violation in `v` carries the given rule id.
bool has_rule(const std::vector<Violation>& v, const std::string& rule) {
  for (const auto& violation : v)
    if (violation.rule == rule) return true;
  return false;
}

std::string rules_of(const std::vector<Violation>& v) {
  std::string out;
  for (const auto& violation : v) out += violation.rule + " ";
  return out;
}

#define EXPECT_RULE(violations, rule)                               \
  EXPECT_TRUE(has_rule(violations, rule))                           \
      << "expected rule " << rule << ", got: " << rules_of(violations)

// ---------------------------------------------------------------------------
// The paper's own design points are clean.

TEST(ConfigRules, FullSpaceAndTable2AreClean) {
  for (const auto& config : core::ConfigSpace::full_space()) {
    const auto v = check_machine(config);
    EXPECT_TRUE(v.empty()) << config.id() << ": " << describe(v);
  }
  for (const char* app : {"spmz", "lulesh"})
    for (const auto& [label, config] : core::ConfigSpace::unconventional(app)) {
      const auto v = check_machine(config);
      EXPECT_TRUE(v.empty()) << label << ": " << describe(v);
    }
}

TEST(ConfigRules, DramPresetsAreClean) {
  for (auto tech :
       {dramsim::MemTech::kDdr4_2333, dramsim::MemTech::kDdr4_2666,
        dramsim::MemTech::kLpddr4_3200, dramsim::MemTech::kWideIo2,
        dramsim::MemTech::kHbm2}) {
    const dramsim::DramTiming t = dramsim::timing_for(tech);
    const auto v = dram_rules().check(t, t.name);
    EXPECT_TRUE(v.empty()) << t.name << ": " << describe(v);
  }
}

// ---------------------------------------------------------------------------
// Configuration rejection matrix.

TEST(ConfigRules, RejectsBrokenDramRowClosure) {
  dramsim::DramTiming t = dramsim::timing_for(dramsim::MemTech::kDdr4_2333);
  t.tRAS = t.tRCD + t.tCAS - 1.0;  // row closes before data is out
  EXPECT_RULE(dram_rules().check(t, "bad"), "dram.row-closure");
}

TEST(ConfigRules, RejectsRefreshLongerThanInterval) {
  dramsim::DramTiming t = dramsim::timing_for(dramsim::MemTech::kDdr4_2333);
  t.tRFC = t.tREFI + 1.0;  // refresh never finishes before the next one
  EXPECT_RULE(dram_rules().check(t, "bad"), "dram.refresh");
}

TEST(ConfigRules, RejectsNonPow2DramGeometry) {
  dramsim::DramTiming t = dramsim::timing_for(dramsim::MemTech::kDdr4_2333);
  t.banks = 12;
  EXPECT_RULE(dram_rules().check(t, "bad"), "dram.banks-pow2");
  t = dramsim::timing_for(dramsim::MemTech::kDdr4_2333);
  t.row_bytes = 1000;
  EXPECT_RULE(dram_rules().check(t, "bad"), "dram.row-buffer");
}

TEST(ConfigRules, RejectsNegativeDramTiming) {
  dramsim::DramTiming t = dramsim::timing_for(dramsim::MemTech::kDdr4_2333);
  t.tRCD = -1.0;
  EXPECT_RULE(dram_rules().check(t, "bad"), "dram.positive");
}

TEST(ConfigRules, RejectsNonPow2Cache) {
  core::MachineConfig c;
  cachesim::HierarchyConfig h = c.cache_config(c.cores);
  h.l2.size_bytes = 3 * 100 * 1024;  // not a power of two (but integral sets)
  EXPECT_RULE(hierarchy_rules().check(h, "bad"), "cache.pow2");
}

TEST(ConfigRules, AcceptsNonPow2SharedL3) {
  // The paper's 96 MB L3 is not a power of two; only the private levels are
  // required to be.
  core::MachineConfig c;
  c.cache_label = "96M:1M";
  const auto v = hierarchy_rules().check(c.cache_config(c.cores), "96M");
  EXPECT_TRUE(v.empty()) << describe(v);
}

TEST(ConfigRules, RejectsL2SmallerThanL1) {
  core::MachineConfig c;
  cachesim::HierarchyConfig h = c.cache_config(c.cores);
  h.l2.size_bytes = h.l1.size_bytes / 2;
  EXPECT_RULE(hierarchy_rules().check(h, "bad"), "cache.inclusion");
}

TEST(ConfigRules, RejectsAggregateL2LargerThanL3) {
  core::MachineConfig c;
  cachesim::HierarchyConfig h = c.cache_config(c.cores);
  h.num_cores = static_cast<int>(h.l3.size_bytes / h.l2.size_bytes) + 1;
  EXPECT_RULE(hierarchy_rules().check(h, "bad"), "cache.inclusion");
}

TEST(ConfigRules, RejectsTruncatingSetCount) {
  core::MachineConfig c;
  cachesim::HierarchyConfig h = c.cache_config(c.cores);
  h.l3.size_bytes += 1;  // no longer a multiple of line*ways
  EXPECT_RULE(hierarchy_rules().check(h, "bad"), "cache.geometry");
}

TEST(ConfigRules, RejectsNonMonotoneLatency) {
  core::MachineConfig c;
  cachesim::HierarchyConfig h = c.cache_config(c.cores);
  h.l1.latency_cycles = h.l3.latency_cycles + 1;
  EXPECT_RULE(hierarchy_rules().check(h, "bad"), "cache.latency-order");
}

TEST(ConfigRules, RejectsZeroWidthCore) {
  cpusim::CoreConfig c = cpusim::core_medium();
  c.issue_width = 0;
  EXPECT_RULE(core_rules().check(c, "bad"), "core.issue-width");
}

TEST(ConfigRules, RejectsRobSmallerThanDispatchGroup) {
  cpusim::CoreConfig c = cpusim::core_medium();
  c.rob = c.issue_width - 1;
  EXPECT_RULE(core_rules().check(c, "bad"), "core.rob");
}

TEST(ConfigRules, RejectsCoreWithoutUnits) {
  cpusim::CoreConfig c = cpusim::core_medium();
  c.fpus = 0;
  EXPECT_RULE(core_rules().check(c, "bad"), "core.units");
}

TEST(ConfigRules, RejectsMachineDimensionViolations) {
  core::MachineConfig c;
  c.freq_ghz = 0.0;
  EXPECT_RULE(machine_rules().check(c, "bad"), "freq.range");
  c = {};
  c.vector_bits = 96;  // not a power of two
  EXPECT_RULE(machine_rules().check(c, "bad"), "vector.width");
  c = {};
  c.mem_channels = 0;
  EXPECT_RULE(machine_rules().check(c, "bad"), "mem.channels");
  c = {};
  c.cores = 0;
  EXPECT_RULE(machine_rules().check(c, "bad"), "machine.size");
}

TEST(ConfigRules, ReportsUnknownCacheLabelAsViolation) {
  core::MachineConfig c;
  c.cache_label = "not-a-preset";
  EXPECT_RULE(check_machine(c), "cache.label");
}

TEST(ConfigRules, ValidateMachineThrowsNamingTheRule) {
  core::MachineConfig c;
  c.core.issue_width = 0;
  try {
    validate_machine(c);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("core.issue-width"),
              std::string::npos)
        << e.what();
  }
}

TEST(ConfigRules, CollectsEveryViolationNotJustTheFirst) {
  core::MachineConfig c;
  c.freq_ghz = -1.0;
  c.vector_bits = 17;
  c.core.issue_width = 0;
  const auto v = check_machine(c);
  EXPECT_RULE(v, "freq.range");
  EXPECT_RULE(v, "vector.width");
  EXPECT_RULE(v, "core.issue-width");
}

// ---------------------------------------------------------------------------
// Result invariants: a physically consistent result, then break one law at
// a time and expect the matching rule.

core::SimResult consistent_result() {
  core::SimResult r;
  r.app = "hydro";  // default MachineConfig: medium/32M:256K/2GHz/128b/4ch
  r.region_seconds = 0.5;
  r.wall_seconds = 1.0;
  r.ipc = 1.5;  // bound = 4 issue * 2 lanes = 8
  r.avg_concurrency = 16.0;
  r.busy_fraction = 0.8;
  r.contention_factor = 1.2;
  r.mpki_l1 = 10.0;
  r.mpki_l2 = 5.0;
  r.mpki_l3 = 1.0;
  r.gmem_req_s = 0.01;
  r.mem_gbps = 10.0;
  r.core_l1_w = 70.0;
  r.l2_l3_w = 20.0;
  r.dram_w = 10.0;
  r.dram_power_known = true;
  r.node_w = 100.0;
  r.energy_j = 100.0;  // node_w * wall_s
  return r;
}

TEST(ResultInvariants, ConsistentResultIsClean) {
  const auto v = check_result(consistent_result());
  EXPECT_TRUE(v.empty()) << describe(v);
}

TEST(ResultInvariants, RejectsNegativeEnergy) {
  core::SimResult r = consistent_result();
  r.energy_j = -1.0;
  EXPECT_RULE(check_result(r), "result.nonnegative");
}

TEST(ResultInvariants, RejectsNanIpc) {
  core::SimResult r = consistent_result();
  r.ipc = std::numeric_limits<double>::quiet_NaN();
  EXPECT_RULE(check_result(r), "result.finite");
}

TEST(ResultInvariants, RejectsInfinitePower) {
  core::SimResult r = consistent_result();
  r.node_w = std::numeric_limits<double>::infinity();
  EXPECT_RULE(check_result(r), "result.finite");
}

TEST(ResultInvariants, RejectsIpcAboveCorePeak) {
  core::SimResult r = consistent_result();
  r.ipc = 8.5;  // above issue_width(4) * lanes(2)
  EXPECT_RULE(check_result(r), "result.ipc-bound");
}

TEST(ResultInvariants, RejectsWallShorterThanRegion) {
  core::SimResult r = consistent_result();
  r.wall_seconds = r.region_seconds * 0.5;
  EXPECT_RULE(check_result(r), "result.time-order");
}

TEST(ResultInvariants, RejectsBandwidthAboveChannelPeak) {
  core::SimResult r = consistent_result();
  const double peak =
      dramsim::timing_for(r.config.mem_tech).peak_gbps() *
      r.config.mem_channels;
  r.mem_gbps = peak * 1.5;
  EXPECT_RULE(check_result(r), "result.bandwidth");
}

TEST(ResultInvariants, RejectsBusyFractionAboveOne) {
  core::SimResult r = consistent_result();
  r.busy_fraction = 1.1;
  EXPECT_RULE(check_result(r), "result.utilization");
}

TEST(ResultInvariants, RejectsConcurrencyAboveCoreCount) {
  core::SimResult r = consistent_result();
  r.avg_concurrency = r.config.cores + 1.0;
  EXPECT_RULE(check_result(r), "result.utilization");
}

TEST(ResultInvariants, RejectsInvertedMpki) {
  core::SimResult r = consistent_result();
  r.mpki_l2 = r.mpki_l1 * 2.0;  // L2 missing more than L1
  EXPECT_RULE(check_result(r), "result.mpki-order");
}

TEST(ResultInvariants, RejectsPowerSplitMismatch) {
  core::SimResult r = consistent_result();
  r.node_w = r.core_l1_w + r.l2_l3_w + r.dram_w + 5.0;
  EXPECT_RULE(check_result(r), "result.power-split");
}

TEST(ResultInvariants, RejectsEnergyPowerTimeMismatch) {
  core::SimResult r = consistent_result();
  r.energy_j = r.node_w * r.wall_seconds * 1.5;
  EXPECT_RULE(check_result(r), "result.energy-conservation");
}

TEST(ResultInvariants, UnknownDramPowerMustReportZero) {
  core::SimResult r = consistent_result();
  r.dram_power_known = false;  // HBM2 convention: dram_w and energy_j zeroed
  EXPECT_RULE(check_result(r), "result.power-split");
  EXPECT_RULE(check_result(r), "result.energy-conservation");
  r.dram_w = 0.0;
  r.node_w = r.core_l1_w + r.l2_l3_w;
  r.energy_j = 0.0;
  const auto v = check_result(r);
  EXPECT_TRUE(v.empty()) << describe(v);
}

TEST(ResultInvariants, VerifyResultThrowsNamingThePoint) {
  core::SimResult r = consistent_result();
  r.energy_j = -1.0;
  try {
    verify_result(r);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(core::DseEngine::point_key(r.app, r.config)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("result.nonnegative"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Timeline checks (figure 3/4 inputs).

TEST(TimelineChecks, CleanCoreTimelinePasses) {
  std::vector<cpusim::TimelineSeg> segs = {
      {0, 0.0, 1.0, 0}, {1, 0.5, 2.0, 0}, {0, 1.0, 2.0, 1}};
  const auto v = check_core_timeline(segs, 2, 2.0, "t");
  EXPECT_TRUE(v.empty()) << describe(v);
}

TEST(TimelineChecks, RejectsOutOfRangeCore) {
  std::vector<cpusim::TimelineSeg> segs = {{5, 0.0, 1.0, 0}};
  EXPECT_RULE(check_core_timeline(segs, 2, 2.0, "t"), "timeline.core-range");
}

TEST(TimelineChecks, RejectsBackwardsSegment) {
  std::vector<cpusim::TimelineSeg> segs = {{0, 1.0, 0.5, 0}};
  EXPECT_RULE(check_core_timeline(segs, 2, 2.0, "t"), "timeline.monotone");
}

TEST(TimelineChecks, RejectsSegmentPastMakespan) {
  std::vector<cpusim::TimelineSeg> segs = {{0, 0.0, 3.0, 0}};
  EXPECT_RULE(check_core_timeline(segs, 2, 2.0, "t"), "timeline.bounds");
}

TEST(TimelineChecks, RejectsOverlappingRankSegments) {
  using netsim::RankSeg;
  std::vector<RankSeg> segs = {{0, 0.0, 1.0, RankSeg::Kind::kCompute},
                               {0, 0.5, 1.5, RankSeg::Kind::kP2p}};
  EXPECT_RULE(check_rank_timeline(segs, 1, 2.0, "t"), "timeline.overlap");
  // The same two segments on different ranks are fine.
  segs[1].rank = 1;
  const auto v = check_rank_timeline(segs, 2, 2.0, "t");
  EXPECT_TRUE(v.empty()) << describe(v);
}

TEST(TimelineChecks, RejectsOutOfRangeRank) {
  using netsim::RankSeg;
  std::vector<RankSeg> segs = {{7, 0.0, 1.0, RankSeg::Kind::kCompute}};
  EXPECT_RULE(check_rank_timeline(segs, 2, 2.0, "t"), "timeline.rank-range");
}

// ---------------------------------------------------------------------------
// DseEngine integration: a cached row that breaks an invariant is dropped
// and recomputed, exactly like crash damage.

TEST(VerifyIntegration, InvalidCachedRowIsDroppedAndRecomputed) {
  const std::string path =
      std::string(::testing::TempDir()) + "musa_verify_cache.csv";
  core::SweepOptions opts;
  opts.verbose = false;
  opts.apps = {"hydro"};
  opts.configs = {core::MachineConfig{}};
  opts.configs[0].cores = 4;
  opts.configs[0].ranks = 4;

  core::Pipeline p([] {
    core::PipelineOptions o;
    o.warm_instrs = 40'000;
    o.measure_instrs = 40'000;
    return o;
  }());

  // First sweep computes the point for real and finalizes the cache.
  {
    core::DseEngine dse(p, path, opts);
    dse.clear_cache();
    const core::SweepReport rep = dse.sweep();
    ASSERT_TRUE(rep.finalized);
    ASSERT_EQ(rep.computed, 1u);
    EXPECT_EQ(rep.invalid, 0u);
  }

  // Corrupt the cached row into a physically impossible one (negative
  // energy) without touching its CSV structure.
  CsvDoc doc = CsvDoc::load(path);
  core::SimResult r = core::DseEngine::from_row(doc.rows()[0]);
  r.energy_j = -1.0;
  CsvDoc bad(core::DseEngine::csv_header());
  bad.add_row(core::DseEngine::to_row(r));
  bad.save(path);

  // The next sweep must reject the row and recompute the point.
  {
    core::DseEngine dse(p, path, opts);
    const core::SweepReport rep = dse.sweep();
    EXPECT_TRUE(rep.finalized);
    EXPECT_EQ(rep.invalid, 1u);
    EXPECT_EQ(rep.computed, 1u);
    ASSERT_EQ(dse.results().size(), 1u);
    EXPECT_GT(dse.results()[0].energy_j, 0.0);
    dse.clear_cache();
  }
}

// ---------------------------------------------------------------------------
// MUSA_THREADS parsing: garbage must never turn into a bogus worker count.

class ThreadEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* prev = std::getenv("MUSA_THREADS");
    if (prev != nullptr) saved_ = prev;
  }
  void TearDown() override {
    if (saved_.empty())
      ::unsetenv("MUSA_THREADS");
    else
      ::setenv("MUSA_THREADS", saved_.c_str(), 1);
  }
  static void set(const char* v) { ::setenv("MUSA_THREADS", v, 1); }

 private:
  std::string saved_;
};

TEST_F(ThreadEnv, HonoursValidOverride) {
  set("8");
  EXPECT_EQ(default_thread_count(), 8);
  set("1");
  EXPECT_EQ(default_thread_count(), 1);
}

TEST_F(ThreadEnv, ClampsOutOfRangeValues) {
  set("0");  // "no parallelism" clamps up to one worker
  EXPECT_EQ(default_thread_count(), 1);
  set("999999");
  EXPECT_EQ(default_thread_count(), 1024);
}

TEST_F(ThreadEnv, IgnoresGarbage) {
  const int fallback = [] {
    ::unsetenv("MUSA_THREADS");
    return default_thread_count();
  }();
  EXPECT_GE(fallback, 1);
  for (const char* bad : {"", "abc", "4x", "-3", "2.5", " 8 ", "0x10"}) {
    set(bad);
    EXPECT_EQ(default_thread_count(), fallback) << "MUSA_THREADS=" << bad;
  }
}

}  // namespace
}  // namespace musa::verify
