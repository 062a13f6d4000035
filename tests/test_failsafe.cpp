// Tests for the failure-containment subsystem: the cooperative per-point
// watchdog (common/deadline), the deterministic fault-injection harness
// (verify/faultpoint), and the sweep supervisor's quarantine / retry /
// strict / retry-failed semantics (core/dse).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <thread>

#include "common/check.hpp"
#include "common/csv.hpp"
#include "common/deadline.hpp"
#include "common/journal.hpp"
#include "core/dse.hpp"
#include "core/pipeline.hpp"
#include "verify/faultpoint.hpp"

namespace musa {
namespace {

std::string tmp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Every test that installs a fault plan must disarm it on exit, pass or
/// fail — a leaked plan would poison unrelated tests in this binary.
struct FaultGuard {
  ~FaultGuard() { verify::FaultPlan::clear(); }
};

core::PipelineOptions fast_options() {
  core::PipelineOptions o;
  o.warm_instrs = 40'000;
  o.measure_instrs = 40'000;
  return o;
}

core::SweepOptions tiny_sweep() {
  core::SweepOptions o;
  o.verbose = false;
  o.apps = {"hydro", "btmz"};
  core::MachineConfig narrow;
  narrow.cores = 4;
  narrow.ranks = 4;
  core::MachineConfig wide = narrow;
  wide.vector_bits = 512;
  o.configs = {narrow, wide};
  o.retry_backoff_s = 0.001;  // keep retry tests fast
  return o;
}

std::vector<std::string> tiny_keys(const core::SweepOptions& o) {
  std::vector<std::string> keys;
  for (const auto& app : o.apps)
    for (const auto& config : o.configs)
      keys.push_back(core::DseEngine::point_key(app, config));
  return keys;
}

// ---- Watchdog (common/deadline) -------------------------------------------

TEST(Deadline, UnarmedBudgetIsANoOp) {
  deadline::Scope scope(0.0);  // budget <= 0 arms nothing
  for (int i = 0; i < 5000; ++i) deadline::poll();
  EXPECT_FALSE(deadline::expired());
  EXPECT_NO_THROW(deadline::check_now());
}

TEST(Deadline, ExpiredBudgetThrowsTimeoutFromPoll) {
  deadline::set_stage("kernel");
  try {
    deadline::Scope scope(1e-6);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    // Stride polling: the clock is read at most once per 2^10 polls, so a
    // full stride must be enough to trip the deadline.
    for (std::uint32_t i = 0; i <= deadline::kPollStride; ++i)
      deadline::poll();
    FAIL() << "expired deadline not detected";
  } catch (const SimError& e) {
    EXPECT_EQ(e.error_class(), ErrorClass::kTimeout);
    EXPECT_EQ(e.stage(), "kernel");
    EXPECT_NE(std::string(e.what()).find("wall-clock budget"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("kernel"), std::string::npos);
  }
  deadline::set_stage("");
}

TEST(Deadline, ScopesTightenOnly) {
  deadline::Scope outer(1e-6);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  {
    // An inner scope may not extend the outer deadline.
    deadline::Scope inner(3600.0);
    EXPECT_TRUE(deadline::expired());
    EXPECT_THROW(deadline::check_now(), SimError);
  }
  EXPECT_TRUE(deadline::expired());
}

TEST(Deadline, ScopeRestoresOuterStateButKeepsStage) {
  EXPECT_FALSE(deadline::expired());
  {
    deadline::Scope scope(3600.0);
    deadline::set_stage("replay");
    EXPECT_FALSE(deadline::expired());
  }
  // Budget restored (disarmed), stage marker survives the scope.
  EXPECT_FALSE(deadline::expired());
  EXPECT_NO_THROW(deadline::check_now());
  EXPECT_STREQ(deadline::current_stage(), "replay");
  deadline::set_stage("");
}

TEST(Deadline, SetStageReturnsPrevious) {
  const char* prev = deadline::set_stage("burst");
  EXPECT_STREQ(deadline::current_stage(), "burst");
  deadline::set_stage(prev);
}

// ---- Fault harness (verify/faultpoint) ------------------------------------

TEST(FaultPoint, DecisionIsPureAndSeedSensitive) {
  verify::FaultSpec spec;
  spec.site = "pipeline.kernel";
  spec.seed = 42;
  spec.prob = 0.5;
  const std::string key = "hydro|some-config";

  const bool first = verify::fault_decision(spec, "pipeline.kernel", key);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(verify::fault_decision(spec, "pipeline.kernel", key), first);

  // Some seed must flip the decision, and prob bounds must be exact.
  bool flipped = false;
  for (std::uint64_t s = 0; s < 64 && !flipped; ++s) {
    spec.seed = s;
    flipped = verify::fault_decision(spec, "pipeline.kernel", key) != first;
  }
  EXPECT_TRUE(flipped) << "decision ignores the seed";
  spec.prob = 1.0;
  EXPECT_TRUE(verify::fault_decision(spec, "pipeline.kernel", key));
  spec.prob = 0.0;
  EXPECT_FALSE(verify::fault_decision(spec, "pipeline.kernel", key));
}

TEST(FaultPoint, ParseAcceptsSpecListsAndRejectsMalformed) {
  const auto plan =
      verify::FaultPlan::parse("pipeline.*:io:7:0.25:3,journal.append:delay:1:1:20");
  ASSERT_EQ(plan.specs().size(), 2u);
  EXPECT_EQ(plan.specs()[0].kind, verify::FaultKind::kIo);
  EXPECT_EQ(plan.specs()[0].param, 3);
  EXPECT_DOUBLE_EQ(plan.specs()[0].prob, 0.25);
  EXPECT_EQ(plan.specs()[1].kind, verify::FaultKind::kDelay);

  for (const char* bad :
       {"siteonly", "a:b", "a:nokind:0:1", "a:io:0:2.0", "a:io:0:-0.1",
        "a:io:zzz:1", "a:io:0:1:-2", ":io:0:1", "a:io:0:1:1:extra"})
    EXPECT_THROW(verify::FaultPlan::parse(bad), SimError) << bad;
  try {
    verify::FaultPlan::parse("a:nokind:0:1");
  } catch (const SimError& e) {
    EXPECT_EQ(e.error_class(), ErrorClass::kConfig);
  }
}

TEST(FaultPoint, PrefixGlobMatchesSiteFamilies) {
  verify::FaultSpec spec;
  spec.site = "pipeline.*";
  EXPECT_TRUE(spec.matches("pipeline.kernel"));
  EXPECT_TRUE(spec.matches("pipeline.burst"));
  EXPECT_FALSE(spec.matches("dram.sim"));
  spec.site = "dram.sim";
  EXPECT_TRUE(spec.matches("dram.sim"));
  EXPECT_FALSE(spec.matches("dram.sim2"));
}

TEST(FaultPoint, ThrowingFaultClearsAfterMaxFires) {
  FaultGuard guard;
  verify::FaultPlan::install(verify::FaultPlan::parse("site.x:io:3:1:2"));
  const std::string key = "k";
  for (int i = 0; i < 2; ++i) {
    try {
      verify::fault_point("site.x", key);
      FAIL() << "fault did not fire (attempt " << i + 1 << ")";
    } catch (const SimError& e) {
      EXPECT_EQ(e.error_class(), ErrorClass::kIo);
    }
  }
  // Fire budget exhausted: the "transient" fault has cleared.
  EXPECT_NO_THROW(verify::fault_point("site.x", key));
  // Budgets are per key: a different key still faults.
  EXPECT_THROW(verify::fault_point("site.x", "other"), SimError);
}

TEST(FaultPoint, CorruptFiresOncePerKeyByDefault) {
  FaultGuard guard;
  verify::FaultPlan::install(verify::FaultPlan::parse("journal.append:corrupt:9:1"));
  EXPECT_TRUE(verify::fault_corrupt("journal.append", "a"));
  EXPECT_FALSE(verify::fault_corrupt("journal.append", "a"));  // converges
  EXPECT_TRUE(verify::fault_corrupt("journal.append", "b"));
  // Corrupt specs never throw from fault_point (they only flag the writer).
  EXPECT_NO_THROW(verify::fault_point("journal.append", "c"));
}

// ---- Sweep supervisor integration (core/dse) ------------------------------

TEST(FailsafeSweep, QuarantinesExactlyThePredictedPoints) {
  FaultGuard guard;
  const core::SweepOptions opts = tiny_sweep();
  const std::vector<std::string> keys = tiny_keys(opts);

  // Pick a seed whose p=0.5 decision hits a strict, non-empty subset of
  // the four points — fault_decision is pure, so the test can predict the
  // chaos outcome exactly.
  verify::FaultSpec spec;
  spec.site = "pipeline.kernel";
  spec.kind = verify::FaultKind::kModel;
  spec.prob = 0.5;
  std::set<std::string> predicted;
  for (std::uint64_t seed = 0; seed < 256 && predicted.empty(); ++seed) {
    spec.seed = seed;
    std::set<std::string> hit;
    for (const auto& key : keys)
      if (verify::fault_decision(spec, "pipeline.kernel", key)) hit.insert(key);
    if (!hit.empty() && hit.size() < keys.size()) predicted = hit;
  }
  ASSERT_FALSE(predicted.empty());

  // Reference cache: same sweep, no faults.
  const std::string ref_cache = tmp_path("musa_failsafe_ref.csv");
  {
    core::Pipeline p(fast_options());
    core::DseEngine ref(p, ref_cache, opts);
    ref.clear_cache();
    EXPECT_TRUE(ref.sweep().finalized);
  }

  const std::string cache = tmp_path("musa_failsafe_chaos.csv");
  core::Pipeline p(fast_options());
  {
    core::DseEngine dse(p, cache, opts);
    dse.clear_cache();
    verify::FaultPlan::install(
        verify::FaultPlan::parse("pipeline.kernel:model:" +
                                 std::to_string(spec.seed) + ":0.5"));
    const core::SweepReport rep = dse.sweep();

    EXPECT_FALSE(rep.finalized);  // quarantines block cache finalization
    EXPECT_EQ(rep.quarantined, predicted.size());
    EXPECT_EQ(rep.computed, keys.size() - predicted.size());
    EXPECT_EQ(rep.retries, 0u);  // model faults are never retried
    std::set<std::string> quarantined;
    for (const auto& q : rep.quarantine) {
      quarantined.insert(q.key);
      EXPECT_EQ(q.error_class, "model");
      EXPECT_EQ(q.stage, "pipeline.kernel");
      EXPECT_EQ(q.attempts, 1);
      EXPECT_NE(q.message.find("injected fault"), std::string::npos);
    }
    EXPECT_EQ(quarantined, predicted);
    // Results are unavailable while points are quarantined, and the error
    // says how to recover.
    try {
      dse.results();
      FAIL() << "results() served a quarantined sweep";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("retry-failed"), std::string::npos);
    }
  }

  // Without --retry-failed, quarantined points stay skipped run after run.
  {
    core::DseEngine again(p, cache, opts);
    const core::SweepReport rep = again.sweep();
    EXPECT_FALSE(rep.finalized);
    EXPECT_EQ(rep.computed, 0u);
    EXPECT_EQ(rep.quarantined, predicted.size());
  }

  // Clear the faults and retry the quarantined points: the sweep converges
  // to a finalized cache byte-identical to the fault-free reference.
  verify::FaultPlan::clear();
  {
    core::SweepOptions retry = opts;
    retry.retry_failed = true;
    core::DseEngine fixed(p, cache, retry);
    const core::SweepReport rep = fixed.sweep();
    EXPECT_TRUE(rep.finalized);
    EXPECT_EQ(rep.quarantined, 0u);
    EXPECT_EQ(rep.computed, predicted.size());
    EXPECT_EQ(rep.resumed, keys.size() - predicted.size());
  }
  EXPECT_EQ(read_file(cache), read_file(ref_cache));
  EXPECT_TRUE(find_journals(cache).empty());

  std::remove(cache.c_str());
  std::remove(ref_cache.c_str());
}

TEST(FailsafeSweep, TransientIoFaultsRetryInPlaceAndSucceed) {
  FaultGuard guard;
  const std::string cache = tmp_path("musa_failsafe_io.csv");
  core::SweepOptions opts = tiny_sweep();
  ASSERT_EQ(opts.max_io_attempts, 3);

  // Every point's journal append throws io twice (param=2 fires per key),
  // then the fault clears — inside the 3-attempt budget, so the whole
  // sweep must succeed without a single quarantine.
  verify::FaultPlan::install(
      verify::FaultPlan::parse("journal.append:io:1:1:2"));
  core::Pipeline p(fast_options());
  core::DseEngine dse(p, cache, opts);
  dse.clear_cache();
  const core::SweepReport rep = dse.sweep();

  EXPECT_TRUE(rep.finalized);
  EXPECT_EQ(rep.quarantined, 0u);
  EXPECT_EQ(rep.computed, 4u);
  EXPECT_EQ(rep.retries, 8u);  // 2 io retries for each of the 4 points
  std::remove(cache.c_str());
}

TEST(FailsafeSweep, IoFaultBeyondRetryBudgetQuarantinesWithAttemptCount) {
  FaultGuard guard;
  const std::string cache = tmp_path("musa_failsafe_io_exhaust.csv");
  const core::SweepOptions opts = tiny_sweep();

  // Unlimited fires (param 0): io keeps failing past the retry budget.
  verify::FaultPlan::install(verify::FaultPlan::parse("journal.append:io:1:1"));
  core::Pipeline p(fast_options());
  core::DseEngine dse(p, cache, opts);
  dse.clear_cache();
  const core::SweepReport rep = dse.sweep();

  EXPECT_EQ(rep.quarantined, 4u);
  EXPECT_EQ(rep.computed, 0u);
  for (const auto& q : rep.quarantine) {
    EXPECT_EQ(q.error_class, "io");
    EXPECT_EQ(q.attempts, opts.max_io_attempts);  // retried, then contained
  }
  std::remove(cache.c_str());
  for (const auto& j : find_journals(cache)) std::remove(j.c_str());
}

TEST(FailsafeSweep, StrictModeRethrowsTheFirstFailure) {
  FaultGuard guard;
  const std::string cache = tmp_path("musa_failsafe_strict.csv");
  core::SweepOptions opts = tiny_sweep();
  opts.fail_fast = true;

  verify::FaultPlan::install(
      verify::FaultPlan::parse("pipeline.kernel:injected:1:1"));
  core::Pipeline p(fast_options());
  core::DseEngine dse(p, cache, opts);
  dse.clear_cache();
  try {
    dse.sweep();
    FAIL() << "--strict sweep swallowed the failure";
  } catch (const SimError& e) {
    EXPECT_EQ(e.error_class(), ErrorClass::kInjected);
  }
  std::remove(cache.c_str());
  for (const auto& j : find_journals(cache)) std::remove(j.c_str());
}

TEST(FailsafeSweep, InMemorySweepIsAlwaysFailFast) {
  FaultGuard guard;
  verify::FaultPlan::install(
      verify::FaultPlan::parse("pipeline.kernel:model:1:1"));
  core::Pipeline p(fast_options());
  // No cache path -> no journal -> nowhere to quarantine: must throw even
  // though fail_fast is off.
  core::DseEngine dse(p, "", tiny_sweep());
  EXPECT_THROW(dse.sweep(/*force=*/true), SimError);
}

TEST(FailsafeSweep, DelayedPointQuarantinesAsTimeout) {
  FaultGuard guard;
  const std::string cache = tmp_path("musa_failsafe_timeout.csv");
  core::SweepOptions opts = tiny_sweep();
  opts.point_timeout_s = 0.02;

  // Every point sleeps 80ms at the kernel boundary — four times its
  // budget — and must be contained as a `timeout`, not retried.
  verify::FaultPlan::install(
      verify::FaultPlan::parse("pipeline.kernel:delay:1:1:80"));
  core::Pipeline p(fast_options());
  {
    core::DseEngine dse(p, cache, opts);
    dse.clear_cache();
    const core::SweepReport rep = dse.sweep();
    EXPECT_EQ(rep.quarantined, 4u);
    EXPECT_EQ(rep.retries, 0u);
    for (const auto& q : rep.quarantine) {
      EXPECT_EQ(q.error_class, "timeout");
      EXPECT_EQ(q.attempts, 1);
      EXPECT_NE(q.message.find("wall-clock budget"), std::string::npos);
    }
  }

  // Remove the delay and loosen the budget (healthy points need real wall
  // clock): retry-failed completes the sweep under a still-armed watchdog.
  verify::FaultPlan::clear();
  core::SweepOptions retry = opts;
  retry.point_timeout_s = 3600.0;
  retry.retry_failed = true;
  core::DseEngine fixed(p, cache, retry);
  const core::SweepReport rep = fixed.sweep();
  EXPECT_TRUE(rep.finalized);
  EXPECT_EQ(rep.quarantined, 0u);
  EXPECT_EQ(rep.computed, 4u);
  std::remove(cache.c_str());
}

TEST(FailsafeSweep, CorruptedJournalAppendsRecomputeOnResume) {
  FaultGuard guard;
  const std::string cache = tmp_path("musa_failsafe_corrupt.csv");
  const core::SweepOptions opts = tiny_sweep();
  const std::vector<std::string> keys = tiny_keys(opts);

  // Pick a seed whose corrupt fault hits a strict, non-empty subset of the
  // points' journal appends.
  verify::FaultSpec spec;
  spec.site = "journal.append";
  spec.kind = verify::FaultKind::kCorrupt;
  spec.prob = 0.4;
  std::set<std::string> predicted;
  for (std::uint64_t seed = 0; seed < 256 && predicted.empty(); ++seed) {
    spec.seed = seed;
    std::set<std::string> hit;
    for (const auto& key : keys)
      if (verify::fault_decision(spec, "journal.append", key)) hit.insert(key);
    if (!hit.empty() && hit.size() < keys.size()) predicted = hit;
  }
  ASSERT_FALSE(predicted.empty());

  // Corrupt those points' journal records in flight (checksum-detectable,
  // default single fire per key). The write happens, the in-memory map does
  // not remember it — exactly a crash just before the record landed.
  core::Pipeline p(fast_options());
  {
    core::DseEngine dse(p, cache, opts);
    dse.clear_cache();
    verify::FaultPlan::install(verify::FaultPlan::parse(
        "journal.append:corrupt:" + std::to_string(spec.seed) + ":0.4"));
    const core::SweepReport rep = dse.sweep();
    // The sweep itself sees no failure; only the journal bytes were hit,
    // so the cache cannot finalize (the corrupt points are not covered).
    EXPECT_EQ(rep.quarantined, 0u);
    EXPECT_EQ(rep.computed, 4u);
    EXPECT_FALSE(rep.finalized);
  }
  verify::FaultPlan::clear();

  // Resume: the corrupt records are dropped (counted) and exactly those
  // points recompute; the cache finalizes with all four points present.
  core::DseEngine again(p, cache, opts);
  const core::SweepReport rep = again.sweep();
  EXPECT_TRUE(rep.finalized);
  EXPECT_EQ(rep.dropped, predicted.size());
  EXPECT_EQ(rep.computed, predicted.size());
  EXPECT_EQ(rep.quarantined, 0u);
  EXPECT_EQ(CsvDoc::load(cache).rows().size(), 4u);
  std::remove(cache.c_str());
}

}  // namespace
}  // namespace musa
