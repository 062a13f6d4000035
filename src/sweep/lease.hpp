// Lease bookkeeping for the elastic sweep controller (DESIGN.md §7h).
//
// The controller splits its pending point list into fixed-size chunks and
// leases them to worker processes. A lease is *revocable*: when the holder
// dies, stops heartbeating, or falls past the straggler threshold, the
// chunk returns to the pending pool and is re-leased — possibly while the
// original holder is still computing it, which is safe because journal
// rows are keyed and idempotent (duplicate recomputation produces
// byte-identical records). A chunk *commits* only when every one of its
// point keys has a durable journal row (good or FAIL), never on a worker's
// say-so.
//
// LeaseTable is the pure state machine behind that: every time-dependent
// query takes an explicit `now` (seconds, any monotone base), so the
// failure-matrix tests drive it with a fake clock instead of sleeping.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace musa::sweep {

/// Tuning knobs of the elastic controller. Defaults are sized for sweep
/// points that take tens of milliseconds to seconds.
struct ElasticOptions {
  int workers = 2;        // worker processes to keep alive
  int lease_points = 8;   // plan points per leased chunk
  double heartbeat_s = 0.25;  // controller's ping interval per worker

  /// A worker silent (no reply, pongs included) for longer than
  /// stale_beats × heartbeat_s is declared dead: SIGKILLed (it may be hung, not gone), its lease revoked, and a
  /// replacement spawned while the respawn budget lasts.
  double stale_beats = 8.0;

  /// A lease older than max(straggler_min_s, straggler_factor × median
  /// committed-chunk duration) is revoked and re-leased; the holder keeps
  /// running — whichever copy finishes first resolves the keys. The median
  /// needs min_medians commits before straggler detection arms (early
  /// chunks have nothing sane to compare against).
  double straggler_factor = 4.0;
  double straggler_min_s = 0.5;
  int min_medians = 3;

  /// A chunk revoked this many times is poisoned: no worker can finish it
  /// (e.g. an armed kill-fault keyed to the chunk murders every holder),
  /// so the controller computes it in-process, where worker-only fault
  /// sites are never evaluated. This is the convergence backstop that
  /// makes "kill -9 any worker, any time" terminate.
  int poison_limit = 3;

  /// Worker processes forked beyond the initial set before the controller
  /// stops replacing the dead and falls back to in-process execution for
  /// whatever remains. -1 = 2 × workers.
  int respawn_budget = -1;

  /// Trace artifact path of the run ("" = tracing off). Workers derive
  /// their per-process sidecar paths from it; the finalize export merges
  /// the sidecars onto the one timeline.
  std::string trace_path;

  int effective_respawn_budget() const {
    return respawn_budget >= 0 ? respawn_budget : 2 * workers;
  }
  double stale_after_s() const { return stale_beats * heartbeat_s; }
};

/// One leased chunk: the [begin, end) slice of the controller's pending
/// point list (indices into that list, not plan indices).
struct LeaseChunk {
  enum class Phase { kPending, kLeased, kCommitted };

  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  Phase phase = Phase::kPending;
  int holder = -1;        // worker spawn id holding the lease (-1 = none)
  double granted_at = 0.0;
  int revocations = 0;

  std::uint64_t points() const { return end - begin; }
};

class LeaseTable {
 public:
  /// Carves `point_count` pending points into ceil(count / lease_points)
  /// contiguous chunks.
  LeaseTable(std::uint64_t point_count, const ElasticOptions& options);

  int chunk_count() const { return static_cast<int>(chunks_.size()); }
  const LeaseChunk& chunk(int id) const { return chunks_.at(id); }
  bool poisoned(int id) const {
    return chunks_.at(id).revocations >= options_.poison_limit;
  }

  /// --- worker liveness (logical: ids, not pids) ---
  void add_worker(int worker, double now);
  void remove_worker(int worker);
  void beat(int worker, double now);
  /// Workers whose last beat is older than stale_after_s().
  std::vector<int> stale_workers(double now) const;
  int live_workers() const { return static_cast<int>(beats_.size()); }

  /// --- lease lifecycle ---
  /// Grants the lowest pending, non-poisoned chunk to `worker`; -1 when
  /// none is grantable.
  int grant(int worker, double now);
  /// Returns a leased chunk to pending, counting a revocation and clearing
  /// the holder. False (no-op) for committed or already-pending chunks —
  /// a revocation racing a commit must lose.
  bool revoke(int chunk);
  /// Marks a chunk committed. Legal from kLeased *and* kPending: a chunk
  /// revoked from a straggler commits when the straggler's rows land
  /// anyway. A leased commit feeds now - granted_at into the duration
  /// median. False for already-committed chunks.
  bool commit(int chunk, double now);
  /// Chunk currently leased to `worker`, or -1.
  int held_by(int worker) const;

  /// Leased chunks past the straggler threshold (empty until min_medians
  /// chunks have committed while leased).
  std::vector<int> stragglers(double now) const;

  /// Pending chunks whose revocation count reached the poison limit —
  /// the controller's in-process queue.
  std::vector<int> poisoned_pending() const;
  std::vector<int> pending() const;

  bool all_committed() const { return committed_ == chunks_.size(); }
  std::uint64_t committed_points() const;
  /// Median duration of chunks committed while leased (0 before any).
  double median_duration() const;

 private:
  ElasticOptions options_;
  std::vector<LeaseChunk> chunks_;
  std::map<int, double> beats_;  // live worker id -> last beat time
  std::vector<double> durations_;
  std::size_t committed_ = 0;
};

}  // namespace musa::sweep
