// Per-point containment executor shared by every sweep path: the point
// scheduler's jobs (DseEngine::sweep, the elastic fallback, dse_serve) and
// the elastic sweep workers (src/sweep/worker).
//
// A sweep point is the unit of failure containment: one attempt runs the
// full pipeline under a cooperative wall-clock budget, verifies the result
// invariants, and journals either the result row or a quarantine (FAIL)
// record. Transient io-class errors retry in place with full-jitter
// exponential backoff; everything else quarantines (or, in fail-fast mode,
// rethrows). The elastic controller relies on the
// executor being *the same code* in-process and in a worker process: a
// point computed by whichever party journals byte-identical rows, which is
// what makes duplicate recomputation after a lease revocation harmless.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/journal.hpp"
#include "core/dse.hpp"
#include "core/pipeline.hpp"

namespace musa::core {

/// Deterministic full-jitter fraction in [0, 1) for retry attempt
/// `attempt` of point `key`. Pure function of its arguments — chaos runs
/// under MUSA_FAULT reproduce the same sleep schedule — yet decorrelated
/// across keys and attempts, so N workers retrying a shared-file io
/// failure spread out instead of stampeding in lockstep.
double backoff_jitter(const std::string& key, int attempt);

class PointRunner {
 public:
  /// Both references must outlive the runner; `options` supplies the
  /// containment policy (verify, fail_fast, timeout, retry budget).
  PointRunner(const SweepPlan& plan, const SweepOptions& options);

  /// Runs plan point `idx` on `pipeline` with full containment. A good
  /// result is journaled into `journal` (when non-null) and/or stored into
  /// `slot` (when non-null); a contained failure appends a FAIL row and
  /// returns false. When quarantine is impossible (`fail_fast`, or no
  /// journal to quarantine into) the failure is fatal and the exception
  /// rethrows; on a PointScheduler that stops the rest of the job.
  /// Thread-safe; the success/retry tallies are atomic.
  bool run(Pipeline& pipeline, std::uint64_t idx, ResultJournal* journal,
           SimResult* slot);

  /// Points that produced a good result, across all run() calls.
  std::uint64_t succeeded() const { return succeeded_.load(); }
  /// Extra attempts spent on io-class retries, across all run() calls.
  std::uint64_t io_retries() const { return io_retries_.load(); }

 private:
  const SweepPlan& plan_;
  const SweepOptions& options_;
  std::atomic<std::uint64_t> succeeded_{0};
  std::atomic<std::uint64_t> io_retries_{0};
};

}  // namespace musa::core
