// Elastic sweep controller (DESIGN.md §7h): the parent half of the
// controller/worker pair.
//
// The controller owns the sweep plan, forks worker processes — each a
// serve::DseServer on one socketpair (sweep/worker.hpp) — and leases them
// bounded chunks of the pending-point list as ordinary `point` requests.
// Ground truth is never a message: a chunk commits only when the
// controller's incremental journal tailers have seen a durable,
// checksum-valid row (good or FAIL) for every key in it. Pongs and `done`
// replies only steer scheduling — a dead or lying worker can therefore
// delay the sweep but never corrupt it.
//
// Failure handling, in escalation order:
//   - worker exits (or is kill -9'd)  -> waitpid notices, lease revoked,
//     replacement forked while the respawn budget lasts
//   - worker goes silent (hang)       -> stale-heartbeat rule (its pings
//     go unanswered): SIGKILL, revoke, respawn
//   - worker answers but crawls       -> straggler rule (lease age vs the
//     running median of committed chunk times): revoke and re-lease; the
//     slow worker keeps running, duplicate rows are idempotent
//   - a chunk keeps killing holders   -> after poison_limit revocations the
//     controller computes it in-process, as one job on a core::
//     PointScheduler built and joined inside that call (no scheduler
//     thread outlives it into a fork), where worker-only fault sites are
//     never evaluated
//   - workers keep dying              -> respawn budget exhausts, the
//     controller finishes everything in-process
// Every arrow ends in full key coverage, so the finalize pass (a normal
// DseEngine::sweep over the merged journals) writes a cache byte-identical
// to a fault-free single-process run.
#pragma once

#include <cstdint>
#include <string>

#include "core/dse.hpp"
#include "core/pipeline.hpp"
#include "sweep/lease.hpp"

namespace musa::sweep {

/// What one elastic lease phase did.
struct ElasticReport {
  int chunks = 0;                // chunks the pending list was carved into
  std::uint64_t points = 0;      // points pending when the phase started
  std::uint64_t resolved = 0;    // keys resolved (good or FAIL) this phase
  int spawned = 0;               // worker processes forked, respawns included
  int respawns = 0;              // forks beyond the initial set
  int deaths = 0;                // workers that exited/died on their own
  int killed = 0;                // workers the controller SIGKILLed (stale)
  int revocations = 0;           // leases revoked, all causes
  int stragglers = 0;            // ... of which by the straggler rule
  int inprocess_chunks = 0;      // chunks the controller computed itself
  std::uint64_t tail_dropped = 0;  // corrupt worker records tailers dropped
  double wall_s = 0.0;
};

/// True where the controller can run at all (POSIX: fork + socketpair).
bool elastic_supported();

class ElasticController {
 public:
  /// `pipeline` supplies the options workers replicate; the controller owns
  /// the whole plan of `sweep` and needs a cache path — journals are the
  /// only channel worker results travel through.
  ElasticController(core::Pipeline& pipeline, std::string cache_path,
                    core::SweepOptions sweep, ElasticOptions elastic);

  /// Drives the lease phase until every pending plan key has a durable
  /// journal row, surviving any combination of worker deaths, hangs, and
  /// stragglers. Does not finalize: the caller follows with a normal
  /// DseEngine::sweep(), which merges the worker journals, re-runs any
  /// residue in-process, and writes the cache. Throws SimError{config} on
  /// unsupported platforms.
  ElasticReport run();

  /// Audit-log sidecar (`<cache>.leases`): every lease event of the last
  /// run(), appended as it happens, in journal format with LEASE records
  /// only. Unlike the working journals it survives finalize — `dse_lint
  /// --journal` reconciles it.
  static std::string lease_log_path(const std::string& cache_path);

 private:
  core::Pipeline& pipeline_;
  std::string cache_path_;
  core::SweepOptions sweep_;
  ElasticOptions elastic_;
};

}  // namespace musa::sweep
