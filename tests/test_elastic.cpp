// Tests for the elastic sweep subsystem (src/sweep, DESIGN.md §7h): the
// LeaseTable state machine under a fake clock, the incremental
// JournalTailer, and the ElasticController's convergence contract — any
// mix of worker deaths and partial journals must still end, in the one
// DseEngine::sweep that run() makes, with a cache byte-identical to a
// fault-free in-process sweep.
//
// The LeaseTable takes every time-dependent decision through an explicit
// `now` parameter, so lease expiry, straggler detection, and median
// feeding are tested without a single sleep. The controller tests fork
// real workers over the tiny 4-point space — small enough to stay fast,
// real enough to cover fork/socketpair/journal plumbing end to end.
#include <gtest/gtest.h>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include <cstdio>
#include <memory>
#include <fstream>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/journal.hpp"
#include "core/dse.hpp"
#include "core/pipeline.hpp"
#include "core/point_runner.hpp"
#include "sweep/controller.hpp"
#include "sweep/protocol.hpp"
#include "sweep/lease.hpp"
#include "sweep/worker.hpp"
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
  o.retry_backoff_s = 0.001;
  return o;
}

/// Removes the cache, its journals, and the lease audit log so every test
/// starts from nothing.
void clear_artifacts(const std::string& cache) {
  std::remove(cache.c_str());
  for (const auto& j : find_journals(cache)) std::remove(j.c_str());
  std::remove(sweep::ElasticController::lease_log_path(cache).c_str());
}

/// The reference result: a plain fault-free in-process sweep over the same
/// plan, finalized into `cache`. Returns the cache bytes.
std::string reference_cache(const std::string& cache) {
  clear_artifacts(cache);
  core::Pipeline pipeline(fast_options());
  core::DseEngine dse(pipeline, cache, tiny_sweep());
  dse.sweep(false);
  return read_file(cache);
}

sweep::ElasticOptions fast_elastic(int workers) {
  sweep::ElasticOptions e;
  e.workers = workers;
  e.lease_points = 1;  // one point per lease: maximum re-lease churn
  e.heartbeat_s = 0.05;
  return e;
}

// ---- LeaseTable: chunk carving and grants ---------------------------------

TEST(LeaseTable, CarvesPendingListIntoBoundedChunks) {
  sweep::ElasticOptions opt;
  opt.lease_points = 4;
  sweep::LeaseTable table(10, opt);
  ASSERT_EQ(table.chunk_count(), 3);
  EXPECT_EQ(table.chunk(0).begin, 0u);
  EXPECT_EQ(table.chunk(0).end, 4u);
  EXPECT_EQ(table.chunk(2).begin, 8u);
  EXPECT_EQ(table.chunk(2).end, 10u);  // short tail chunk
  EXPECT_EQ(table.chunk(2).points(), 2u);
  EXPECT_FALSE(table.all_committed());
}

TEST(LeaseTable, GrantsLowestPendingChunkAndTracksHolder) {
  sweep::ElasticOptions opt;
  opt.lease_points = 2;
  sweep::LeaseTable table(6, opt);
  table.add_worker(7, 0.0);
  table.add_worker(8, 0.0);
  EXPECT_EQ(table.grant(7, 0.0), 0);
  EXPECT_EQ(table.grant(8, 0.0), 1);
  EXPECT_EQ(table.held_by(7), 0);
  EXPECT_EQ(table.held_by(8), 1);
  EXPECT_EQ(table.chunk(0).phase, sweep::LeaseChunk::Phase::kLeased);
  // Third grant takes the last chunk; a fourth finds nothing.
  EXPECT_EQ(table.grant(7, 0.0), 2);
  EXPECT_EQ(table.grant(8, 0.0), -1);
}

// ---- LeaseTable: lease expiry under a fake clock --------------------------

TEST(LeaseTable, StaleWorkerDetectionUsesBeatAge) {
  sweep::ElasticOptions opt;
  opt.heartbeat_s = 0.25;
  opt.stale_beats = 8.0;  // stale after 2.0 fake seconds of silence
  sweep::LeaseTable table(4, opt);
  table.add_worker(0, 0.0);
  table.add_worker(1, 0.0);
  table.beat(0, 1.0);  // worker 0 beats once, then goes silent
  table.beat(1, 2.9);  // worker 1 keeps beating

  EXPECT_TRUE(table.stale_workers(2.9).empty());  // 0 silent for 1.9s: fine
  const std::vector<int> stale = table.stale_workers(3.1);
  ASSERT_EQ(stale.size(), 1u);  // 0 silent for 2.1s: expired
  EXPECT_EQ(stale[0], 0);
  table.remove_worker(0);
  EXPECT_TRUE(table.stale_workers(3.1).empty());
  EXPECT_EQ(table.live_workers(), 1);
}

TEST(LeaseTable, RevokeReturnsChunkToPendingOnce) {
  sweep::ElasticOptions opt;
  opt.lease_points = 2;
  sweep::LeaseTable table(4, opt);
  table.add_worker(0, 0.0);
  EXPECT_FALSE(table.revoke(0));  // pending: nothing to revoke
  ASSERT_EQ(table.grant(0, 0.0), 0);
  EXPECT_TRUE(table.revoke(0));
  EXPECT_EQ(table.chunk(0).phase, sweep::LeaseChunk::Phase::kPending);
  EXPECT_EQ(table.chunk(0).holder, -1);
  EXPECT_EQ(table.chunk(0).revocations, 1);
  EXPECT_FALSE(table.revoke(0));  // already back in the pool
  // The revoked chunk is immediately re-grantable (to anyone).
  EXPECT_EQ(table.grant(0, 1.0), 0);
}

// ---- LeaseTable: re-lease and commit idempotence --------------------------

TEST(LeaseTable, CommitWinsAgainstRevocationRace) {
  // A straggler's rows can land after its lease was revoked: commit must
  // be legal from kPending, and a later revoke of the committed chunk a
  // no-op — the point of idempotent journal rows is that *someone*
  // finishing is always safe.
  sweep::ElasticOptions opt;
  opt.lease_points = 2;
  sweep::LeaseTable table(4, opt);
  table.add_worker(0, 0.0);
  ASSERT_EQ(table.grant(0, 0.0), 0);
  ASSERT_TRUE(table.revoke(0));          // straggler rule fired...
  EXPECT_TRUE(table.commit(0, 5.0));     // ...but its rows landed anyway
  EXPECT_EQ(table.chunk(0).phase, sweep::LeaseChunk::Phase::kCommitted);
  EXPECT_FALSE(table.commit(0, 6.0));    // duplicate commit: no-op
  EXPECT_FALSE(table.revoke(0));         // late revoke loses
  EXPECT_EQ(table.committed_points(), 2u);
  // A commit from the revoked (pending) state must NOT feed the duration
  // median: granted_at no longer describes who did the work.
  EXPECT_EQ(table.median_duration(), 0.0);
}

TEST(LeaseTable, LeasedCommitsFeedTheDurationMedian) {
  sweep::ElasticOptions opt;
  opt.lease_points = 1;
  sweep::LeaseTable table(5, opt);
  table.add_worker(0, 0.0);
  double t = 0.0;
  for (const double dur : {0.1, 0.3, 0.2}) {
    const int c = table.grant(0, t);
    ASSERT_GE(c, 0);
    ASSERT_TRUE(table.commit(c, t + dur));
    t += 1.0;
  }
  EXPECT_NEAR(table.median_duration(), 0.2, 1e-9);
}

// ---- LeaseTable: straggler revocation -------------------------------------

TEST(LeaseTable, StragglerDetectionNeedsMediansAndThreshold) {
  sweep::ElasticOptions opt;
  opt.lease_points = 1;
  opt.straggler_factor = 4.0;
  opt.straggler_min_s = 0.5;
  opt.min_medians = 3;
  sweep::LeaseTable table(8, opt);
  table.add_worker(0, 0.0);
  table.add_worker(1, 0.0);

  // Worker 1 takes a lease that will straggle from t=0.
  const int slow = table.grant(1, 0.0);
  ASSERT_GE(slow, 0);
  // Two quick commits: not enough medians, no straggler verdict yet even
  // far past any threshold.
  for (int i = 0; i < 2; ++i) {
    const int c = table.grant(0, 10.0 + i);
    ASSERT_TRUE(table.commit(c, 10.1 + i));
  }
  EXPECT_TRUE(table.stragglers(20.0).empty());
  // Third commit arms the rule: median 0.1s, threshold max(0.5, 4x0.1).
  const int c = table.grant(0, 12.0);
  ASSERT_TRUE(table.commit(c, 12.1));
  EXPECT_TRUE(table.stragglers(0.49).empty());  // under straggler_min_s
  const std::vector<int> late = table.stragglers(20.0);
  ASSERT_EQ(late.size(), 1u);
  EXPECT_EQ(late[0], slow);
}

TEST(LeaseTable, PoisonedChunksLeaveTheGrantPool) {
  sweep::ElasticOptions opt;
  opt.lease_points = 1;
  opt.poison_limit = 2;
  sweep::LeaseTable table(2, opt);
  table.add_worker(0, 0.0);
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(table.grant(0, 0.0), 0);  // chunk 0 is lowest pending
    ASSERT_TRUE(table.revoke(0));
  }
  EXPECT_TRUE(table.poisoned(0));
  EXPECT_EQ(table.grant(0, 1.0), 1);  // grants now skip the poisoned chunk
  const std::vector<int> poisoned = table.poisoned_pending();
  ASSERT_EQ(poisoned.size(), 1u);
  EXPECT_EQ(poisoned[0], 0);
}

// ---- JournalTailer --------------------------------------------------------

TEST(JournalTailer, IncrementallyDeliversOnlyNewRecords) {
  const std::string path = tmp_path("tailer_incr.journal");
  std::remove(path.c_str());
  const std::vector<std::string> header = {"k", "v"};
  ResultJournal journal(path, header);
  journal.append("a|1", {"a", "1"});
  journal.append("b|2", {"b", "2"});

  JournalTailer tailer(path, header);
  JournalTailer::Batch batch = tailer.poll();
  ASSERT_EQ(batch.entries.size(), 2u);
  EXPECT_EQ(batch.entries[0].first, "a|1");
  EXPECT_EQ(batch.dropped, 0u);

  EXPECT_TRUE(tailer.poll().entries.empty());  // no news: cheap no-op

  journal.append_fail("c|3", {"io", "burst", 2, "boom"});
  LeaseRecord lease;
  lease.event = "granted";
  lease.chunk = 0;
  lease.worker = 1;
  lease.end = 4;
  journal.append_lease(lease);
  journal.append("d|4", {"d", "4"});
  batch = tailer.poll();
  ASSERT_EQ(batch.entries.size(), 1u);  // only the new entry, not a re-read
  EXPECT_EQ(batch.entries[0].first, "d|4");
  ASSERT_EQ(batch.fail_keys.size(), 1u);
  EXPECT_EQ(batch.fail_keys[0], "c|3");
  ASSERT_EQ(batch.leases.size(), 1u);
  EXPECT_EQ(batch.leases[0].event, "granted");
  EXPECT_EQ(batch.leases[0].end, 4u);
}

TEST(JournalTailer, LeavesPartialTrailingLineUnconsumed) {
  const std::string path = tmp_path("tailer_partial.journal");
  std::remove(path.c_str());
  const std::vector<std::string> header = {"k", "v"};
  { ResultJournal journal(path, header); journal.append("a|1", {"a", "1"}); }

  JournalTailer tailer(path, header);
  ASSERT_EQ(tailer.poll().entries.size(), 1u);
  const std::uint64_t consumed = tailer.offset();

  // A crashed writer's torn tail: record bytes without the newline yet.
  std::string full;
  {
    const std::string copy = tmp_path("tailer_partial2.journal");
    std::remove(copy.c_str());
    ResultJournal other(copy, header);
    other.append("b|2", {"b", "2"});
    const std::string text = read_file(copy);
    const std::size_t second_nl = text.find('\n', text.find('\n') + 1);
    full = text.substr(second_nl + 1);  // the complete record line
    std::remove(copy.c_str());
  }
  std::ofstream(path, std::ios::app | std::ios::binary)
      << full.substr(0, full.size() - 1);  // strip the newline
  EXPECT_TRUE(tailer.poll().entries.empty());
  EXPECT_EQ(tailer.offset(), consumed);  // not consumed, not dropped

  std::ofstream(path, std::ios::app | std::ios::binary) << "\n";
  JournalTailer::Batch batch = tailer.poll();
  ASSERT_EQ(batch.entries.size(), 1u);
  EXPECT_EQ(batch.entries[0].first, "b|2");
}

TEST(JournalTailer, DropsCorruptRecordsAndDetectsReplacement) {
  const std::string path = tmp_path("tailer_corrupt.journal");
  std::remove(path.c_str());
  const std::vector<std::string> header = {"k", "v"};
  { ResultJournal journal(path, header); journal.append("a|1", {"a", "1"}); }

  JournalTailer tailer(path, header);
  ASSERT_EQ(tailer.poll().entries.size(), 1u);
  std::ofstream(path, std::ios::app | std::ios::binary)
      << "x|9\tx,9\tdeadbeefdeadbeef\n";
  JournalTailer::Batch batch = tailer.poll();
  EXPECT_TRUE(batch.entries.empty());
  EXPECT_EQ(batch.dropped, 1u);

  // Compaction-style replacement: a fresh, shorter journal under the same
  // path. The tailer must notice (inode/size) and re-read from scratch —
  // consumers are idempotent, re-delivery is safe, silence is not.
  std::remove(path.c_str());
  { ResultJournal journal(path, header); journal.append("b|2", {"b", "2"}); }
  batch = tailer.poll();
  ASSERT_EQ(batch.entries.size(), 1u);
  EXPECT_EQ(batch.entries[0].first, "b|2");
}

// ---- ElasticController: convergence contracts -----------------------------

#ifndef _WIN32

TEST(ElasticController, MatchesInProcessSweepByteForByte) {
  const std::string ref = tmp_path("elastic_ref.csv");
  const std::string cache = tmp_path("elastic_run.csv");
  const std::string want = reference_cache(ref);
  ASSERT_FALSE(want.empty());

  clear_artifacts(cache);
  core::Pipeline pipeline(fast_options());
  sweep::ElasticController controller(pipeline, cache, tiny_sweep(),
                                      fast_elastic(2));
  const sweep::ElasticReport report = controller.run();
  EXPECT_EQ(report.points, 4u);
  EXPECT_EQ(report.resolved, 4u);
  EXPECT_GE(report.spawned, 1);
  EXPECT_TRUE(report.sweep.finalized);
  EXPECT_EQ(report.sweep.computed, 0u)
      << "workers should have resolved all keys";
  EXPECT_EQ(report.worker_computed, 4u) << "run_dse reports these";
  EXPECT_EQ(read_file(cache), want);
}

TEST(ElasticController, DuplicateRowsFromReLeasingConverge) {
  // Two workers race one-point leases, so keys can land in two worker
  // journals; the byte-identical duplicates must merge into the finalized
  // cache. Then the whole sweep reruns on top of it (a controller restart
  // after losing no state): it must resolve instantly and change nothing.
  const std::string ref = tmp_path("elastic_dup_ref.csv");
  const std::string cache = tmp_path("elastic_dup.csv");
  const std::string want = reference_cache(ref);

  clear_artifacts(cache);
  core::Pipeline pipeline(fast_options());
  {
    sweep::ElasticController controller(pipeline, cache, tiny_sweep(),
                                        fast_elastic(2));
    const sweep::ElasticReport first = controller.run();
    EXPECT_EQ(first.resolved, 4u);
    EXPECT_TRUE(first.sweep.finalized);
  }
  EXPECT_EQ(read_file(cache), want);
  {
    sweep::ElasticController controller(pipeline, cache, tiny_sweep(),
                                        fast_elastic(2));
    const sweep::ElasticReport again = controller.run();
    EXPECT_EQ(again.points, 0u);   // the cache already covers every key
    EXPECT_EQ(again.spawned, 0);   // nothing pending: no forks at all
    EXPECT_TRUE(again.sweep.finalized);
  }
  EXPECT_EQ(read_file(cache), want);
}

TEST(ElasticController, ResumesFromPartialWorkerJournal) {
  // A prior run's worker journal holds 2 of 4 keys (its process died and
  // never came back). The controller must treat those keys as resolved,
  // lease out only the residue, and its finalize must still produce the
  // byte-identical cache.
  const std::string ref = tmp_path("elastic_part_ref.csv");
  const std::string cache = tmp_path("elastic_part.csv");
  const std::string want = reference_cache(ref);

  clear_artifacts(cache);
  const core::SweepOptions opts = tiny_sweep();
  const core::SweepPlan plan = core::make_sweep_plan(opts);
  ASSERT_EQ(plan.size(), 4u);
  core::Pipeline pipeline(fast_options());
  {
    ResultJournal journal(sweep::worker_journal_path(cache, 0),
                          core::DseEngine::csv_header());
    core::PointRunner runner(plan, opts);
    EXPECT_TRUE(runner.run(pipeline, 0, &journal, nullptr));
    EXPECT_TRUE(runner.run(pipeline, 2, &journal, nullptr));
  }
  sweep::ElasticController controller(pipeline, cache, opts,
                                      fast_elastic(1));
  const sweep::ElasticReport report = controller.run();
  EXPECT_EQ(report.points, 2u);  // only the residue was pending
  EXPECT_EQ(report.resolved, 2u);
  EXPECT_TRUE(report.sweep.finalized);
  EXPECT_EQ(read_file(cache), want);
}

TEST(ElasticController, SurvivesKillNineOnEveryLease) {
  // worker.chunk:kill with p=1 murders every worker the moment it accepts
  // any lease: respawns burn down, chunks poison, and the controller must
  // still converge by computing everything in-process — byte-identically.
  const std::string ref = tmp_path("elastic_kill_ref.csv");
  const std::string cache = tmp_path("elastic_kill.csv");
  const std::string want = reference_cache(ref);

  clear_artifacts(cache);
  FaultGuard guard;
  verify::FaultPlan::install(verify::FaultPlan::parse("worker.chunk:kill:5:1"));
  core::Pipeline pipeline(fast_options());
  sweep::ElasticOptions eopt = fast_elastic(2);
  eopt.lease_points = 2;  // 2 chunks of 2 points
  sweep::ElasticController controller(pipeline, cache, tiny_sweep(), eopt);
  const sweep::ElasticReport report = controller.run();
  EXPECT_EQ(report.resolved, 4u);
  EXPECT_GT(report.deaths, 0);
  EXPECT_GT(report.inprocess_chunks, 0);
  // The worker-only fault never reaches the in-process fallback or the
  // finalize of the same sweep.
  EXPECT_TRUE(report.sweep.finalized);
  EXPECT_EQ(read_file(cache), want);
}

TEST(ElasticController, AbandonedKeysGetOneMoreInProcessAttempt) {
  // Every lease kills its holder, so every chunk falls back in-process,
  // where each key's first three journal appends are corrupted: the
  // fallback's three attempts abandon all four keys. The sweep must give
  // them one more in-process attempt before finalize and converge on the
  // byte-identical cache in the same run() call.
  const std::string ref = tmp_path("elastic_abandon_ref.csv");
  const std::string cache = tmp_path("elastic_abandon.csv");
  const std::string want = reference_cache(ref);

  clear_artifacts(cache);
  FaultGuard guard;
  verify::FaultPlan::install(verify::FaultPlan::parse(
      "worker.chunk:kill:5:1,journal.append:corrupt:3:1:3"));
  core::Pipeline pipeline(fast_options());
  sweep::ElasticOptions eopt = fast_elastic(2);
  eopt.lease_points = 2;
  sweep::ElasticController controller(pipeline, cache, tiny_sweep(), eopt);
  const sweep::ElasticReport report = controller.run();
  EXPECT_GT(report.inprocess_chunks, 0);
  EXPECT_TRUE(report.sweep.finalized);
  EXPECT_EQ(read_file(cache), want);

  const ResultJournal::LoadResult lr = ResultJournal::read(
      sweep::ElasticController::lease_log_path(cache),
      core::DseEngine::csv_header());
  std::size_t abandoned = 0;
  for (const LeaseRecord& r : lr.leases) abandoned += r.event == "abandoned";
  EXPECT_EQ(abandoned, 4u);
  EXPECT_TRUE(reconcile_leases(lr.leases).ok());
}

TEST(ElasticController, KillsAWorkerWhoseHeartbeatGoesStale) {
  // worker.chunk:hang stalls the worker's I/O thread far past
  // stale_after_s(): no ping is answered, so the controller must SIGKILL
  // the silent worker, revoke its lease, and still converge — on a cache
  // byte-identical to the in-process one.
  const std::string ref = tmp_path("elastic_hang_ref.csv");
  const std::string cache = tmp_path("elastic_hang.csv");
  const std::string want = reference_cache(ref);

  clear_artifacts(cache);
  FaultGuard guard;
  const sweep::ElasticOptions eopt = fast_elastic(2);  // 4 one-point chunks
  const int hang_ms = static_cast<int>(eopt.stale_after_s() * 1000.0) * 5;
  // A seed that curses some chunks but not all, so healthy leases commit
  // beside the hung ones.
  verify::FaultSpec spec;
  spec.site = "worker.chunk";
  spec.kind = verify::FaultKind::kHang;
  spec.prob = 0.5;
  bool found = false;
  for (std::uint64_t seed = 0; seed < 256 && !found; ++seed) {
    spec.seed = seed;
    int hit = 0;
    for (int c = 0; c < 4; ++c)
      hit += verify::fault_decision(spec, "worker.chunk",
                                    "chunk-" + std::to_string(c))
                 ? 1
                 : 0;
    found = hit > 0 && hit < 4;
  }
  ASSERT_TRUE(found);
  verify::FaultPlan::install(verify::FaultPlan::parse(
      "worker.chunk:hang:" + std::to_string(spec.seed) + ":0.5:" +
      std::to_string(hang_ms)));

  core::Pipeline pipeline(fast_options());
  sweep::ElasticController controller(pipeline, cache, tiny_sweep(), eopt);
  const sweep::ElasticReport report = controller.run();
  EXPECT_EQ(report.resolved, 4u);
  EXPECT_GE(report.killed, 1);
  EXPECT_TRUE(report.sweep.finalized);
  EXPECT_EQ(read_file(cache), want);
}

TEST(ElasticController, RevokesAStragglerAndConverges) {
  // worker.chunk:babble stalls one early chunk's point while its worker
  // keeps answering pings, so only the straggler rule can take the lease
  // back: the other three chunks commit on the second worker and arm the
  // median, the babbling lease outgrows it, and the run must still
  // converge on a cache byte-identical to the in-process one.
  const std::string ref = tmp_path("elastic_straggle_ref.csv");
  const std::string cache = tmp_path("elastic_straggle.csv");
  const std::string want = reference_cache(ref);

  clear_artifacts(cache);
  FaultGuard guard;
  sweep::ElasticOptions eopt = fast_elastic(2);  // 4 one-point chunks
  eopt.straggler_min_s = 0.1;
  eopt.straggler_factor = 2.0;
  // A seed that babbles chunk 0 or 1 (leased first, one per worker) and
  // nothing else, so the three healthy commits feed the median.
  verify::FaultSpec spec;
  spec.site = "worker.chunk";
  spec.kind = verify::FaultKind::kBabble;
  spec.prob = 0.3;
  bool found = false;
  for (std::uint64_t seed = 0; seed < 256 && !found; ++seed) {
    spec.seed = seed;
    std::vector<int> hit;
    for (int c = 0; c < 4; ++c)
      if (verify::fault_decision(spec, "worker.chunk",
                                 "chunk-" + std::to_string(c)))
        hit.push_back(c);
    found = hit.size() == 1 && hit[0] < 2;
  }
  ASSERT_TRUE(found);
  verify::FaultPlan::install(verify::FaultPlan::parse(
      "worker.chunk:babble:" + std::to_string(spec.seed) + ":0.3:3000"));

  core::Pipeline pipeline(fast_options());
  sweep::ElasticController controller(pipeline, cache, tiny_sweep(), eopt);
  const sweep::ElasticReport report = controller.run();
  EXPECT_EQ(report.resolved, 4u);
  EXPECT_GE(report.stragglers, 1);
  EXPECT_TRUE(report.sweep.finalized);
  EXPECT_EQ(read_file(cache), want);
}

TEST(ElasticController, WritesAuditableLeaseLog) {
  const std::string cache = tmp_path("elastic_audit.csv");
  clear_artifacts(cache);
  core::Pipeline pipeline(fast_options());
  sweep::ElasticController controller(pipeline, cache, tiny_sweep(),
                                      fast_elastic(2));
  controller.run();

  const std::string log = sweep::ElasticController::lease_log_path(cache);
  ASSERT_TRUE(CsvDoc::file_exists(log));
  const ResultJournal::LoadResult lr =
      ResultJournal::read(log, core::DseEngine::csv_header());
  EXPECT_TRUE(lr.entries.empty());  // audit log: lease events only
  EXPECT_EQ(lr.dropped, 0u);
  const LeaseAccounting acc = reconcile_leases(lr.leases);
  EXPECT_TRUE(acc.ok());
  std::size_t grants = 0, commits = 0;
  for (const auto& [event, n] : acc.counts) {
    if (event == "granted") grants = n;
    if (event == "committed") commits = n;
  }
  EXPECT_EQ(commits, 4u);  // 4 one-point chunks, each committed exactly once
  EXPECT_GE(grants, 4u);
}

TEST(ElasticController, RetryFailedLeasesOnlyTheQuarantine) {
  // --retry-failed over an elastic sweep: 2 of 4 keys have good rows, the
  // other 2 only FAIL rows. The lease loop must hand exactly the 2
  // quarantined keys to the workers, nothing may compute in-process after
  // it, and the cache must match the fault-free reference.
  const std::string ref = tmp_path("elastic_retry_ref.csv");
  const std::string cache = tmp_path("elastic_retry.csv");
  const std::string want = reference_cache(ref);

  clear_artifacts(cache);
  core::SweepOptions opts = tiny_sweep();
  const core::SweepPlan plan = core::make_sweep_plan(opts);
  ASSERT_EQ(plan.size(), 4u);
  core::Pipeline pipeline(fast_options());
  {
    ResultJournal journal(cache + ".journal", core::DseEngine::csv_header());
    core::PointRunner runner(plan, opts);
    EXPECT_TRUE(runner.run(pipeline, 0, &journal, nullptr));
    EXPECT_TRUE(runner.run(pipeline, 3, &journal, nullptr));
    for (const std::uint64_t i : {1u, 2u})
      journal.append_fail(plan.keys[i], {"model", "kernel", 1, "seeded"});
  }
  opts.retry_failed = true;
  sweep::ElasticController controller(pipeline, cache, opts,
                                      fast_elastic(2));
  const sweep::ElasticReport report = controller.run();
  EXPECT_EQ(report.points, 2u);
  EXPECT_EQ(report.resolved, 2u);
  EXPECT_EQ(report.inprocess_chunks, 0);
  EXPECT_EQ(report.sweep.computed, 0u) << "no in-process recompute";
  EXPECT_EQ(report.sweep.quarantined, 0u);
  EXPECT_TRUE(report.sweep.finalized);
  EXPECT_EQ(read_file(cache), want);
}

TEST(ElasticController, RejectsEmptyCachePath) {
  core::Pipeline pipeline(fast_options());
  EXPECT_THROW(
      sweep::ElasticController(pipeline, "", tiny_sweep(), fast_elastic(2)),
      SimError);
}


// ---- LineChannel: malformed-frame hardening (babble cap) -------------------
//
// The elastic wire predates network exposure: a worker is our own forked
// binary. The DSE server puts arbitrary clients on the same framing, so
// the channel enforces kMaxLineBytes — lines beyond it mark the peer
// babbling and close the connection, with the receive buffer provably
// bounded throughout.

/// A connected AF_UNIX pair: `writer` sends raw bytes, `ch` is the channel
/// under test. The channel end is non-blocking, like every poll-driven
/// channel in the controller and the server.
struct ChannelPair {
  ChannelPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    EXPECT_EQ(::fcntl(fds[1], F_SETFL, O_NONBLOCK), 0);
    writer = fds[0];
    ch = std::make_unique<sweep::LineChannel>(fds[1]);
  }
  ~ChannelPair() {
    if (writer >= 0) ::close(writer);
  }
  void write(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(writer, data.data() + off, data.size() - off,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }
  int writer = -1;
  std::unique_ptr<sweep::LineChannel> ch;
};

TEST(LineChannel, DeliversCompleteLinesAndBuffersThePartialTail) {
  ChannelPair pair;
  pair.write("one\ntwo\npart");
  std::vector<std::string> lines;
  EXPECT_TRUE(pair.ch->drain(&lines));
  EXPECT_EQ(lines, (std::vector<std::string>{"one", "two"}));
  EXPECT_EQ(pair.ch->buffered(), 4u);
  EXPECT_FALSE(pair.ch->babbling());
  pair.write("ial\n");
  lines.clear();
  EXPECT_TRUE(pair.ch->drain(&lines));
  EXPECT_EQ(lines, (std::vector<std::string>{"partial"}));
  EXPECT_EQ(pair.ch->buffered(), 0u);
}

TEST(LineChannel, LineAtExactlyTheCapIsDelivered) {
  ChannelPair pair;
  const std::string max_line(sweep::LineChannel::kMaxLineBytes, 'a');
  pair.write(max_line + "\n");
  std::vector<std::string> lines;
  EXPECT_TRUE(pair.ch->drain(&lines));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].size(), sweep::LineChannel::kMaxLineBytes);
  EXPECT_FALSE(pair.ch->babbling());
}

TEST(LineChannel, OverlongCompleteLineFlagsBabblingAfterGoodLines) {
  ChannelPair pair;
  pair.write("good\n" +
             std::string(sweep::LineChannel::kMaxLineBytes + 1, 'x') +
             "\n");
  std::vector<std::string> lines;
  EXPECT_FALSE(pair.ch->drain(&lines));
  // Lines completed before the flood are still delivered; the over-long
  // one is not, and the channel is closed with its buffer discarded.
  EXPECT_EQ(lines, (std::vector<std::string>{"good"}));
  EXPECT_TRUE(pair.ch->babbling());
  EXPECT_EQ(pair.ch->buffered(), 0u);
  EXPECT_LT(pair.ch->fd(), 0);
}

TEST(LineChannel, NewlinelessFloodIsCutOffWithBoundedBuffering) {
  ChannelPair pair;
  const std::string chunk(4096, 'z');
  bool flagged = false;
  // Feed the flood chunk by chunk, draining as a poll loop would: the
  // buffer must never exceed the cap at any observation point, and the
  // channel must flag the peer before the flood grows further.
  for (int i = 0; i < 64 && !flagged; ++i) {
    pair.write(chunk);
    std::vector<std::string> lines;
    flagged = !pair.ch->drain(&lines);
    EXPECT_TRUE(lines.empty());
    EXPECT_LE(pair.ch->buffered(), sweep::LineChannel::kMaxLineBytes);
  }
  EXPECT_TRUE(flagged);
  EXPECT_TRUE(pair.ch->babbling());
  EXPECT_EQ(pair.ch->buffered(), 0u);
}

TEST(LineChannel, BlockingReadLineEnforcesTheCapToo) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Both ends blocking — the worker-side read path. The flood is written
  // in full before the read, so the reader never blocks: the cap trips
  // first.
  const std::string flood(sweep::LineChannel::kMaxLineBytes + 1, 'y');
  std::size_t off = 0;
  while (off < flood.size()) {
    const ssize_t n =
        ::send(fds[0], flood.data() + off, flood.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
  sweep::LineChannel ch(fds[1]);
  std::string line;
  EXPECT_FALSE(ch.read_line(&line));
  EXPECT_TRUE(ch.babbling());
  ::close(fds[0]);
}

#endif  // !_WIN32

}  // namespace
}  // namespace musa
