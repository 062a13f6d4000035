#include "core/point_runner.hpp"

#include <chrono>
#include <cstdio>
#include <thread>

#include "common/deadline.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "verify/faultpoint.hpp"
#include "verify/invariants.hpp"

namespace musa::core {

namespace {
obs::Counter& points_ok() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("sweep.points.ok");
  return c;
}
obs::Counter& points_quarantined() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("sweep.points.quarantined");
  return c;
}
obs::Counter& point_retries() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("sweep.retries");
  return c;
}
}  // namespace

double backoff_jitter(const std::string& key, int attempt) {
  // FNV over "key#attempt", then a splitmix-style finalizer: FNV alone is
  // too correlated in its low bits across consecutive attempts to make a
  // uniform fraction.
  std::uint64_t h = fnv1a64(key + "#" + std::to_string(attempt));
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

PointRunner::PointRunner(const SweepPlan& plan, const SweepOptions& options)
    : plan_(plan), options_(options) {}

bool PointRunner::run(Pipeline& pipeline, std::uint64_t idx,
                      ResultJournal* journal, SimResult* slot) {
  const std::string& key = plan_.keys[idx];
  for (int attempt = 1;; ++attempt) {
    // One trace span per *attempt*: retried points show as back-to-back
    // spans with rising attempt numbers, each annotated with how the
    // attempt ended.
    obs::Span span("point", key);
    span.set_attempt(attempt);
    try {
      deadline::set_stage("");
      deadline::Scope budget(options_.point_timeout_s);
      const SimResult r =
          pipeline.run(plan_.app_of(idx), plan_.config_of(idx));
      // Fresh result: a violated invariant here is a model bug — the
      // point quarantines as `invariant` (or aborts the sweep in strict
      // mode) rather than journaling a bad row.
      if (options_.verify) {
        deadline::set_stage("verify");
        verify::verify_result(r);
      }
      if (journal) {
        verify::fault_point("journal.append", key);
        journal->append(key, DseEngine::to_row(r));
      }
      if (slot) *slot = r;  // disjoint slots, race-free
      succeeded_.fetch_add(1, std::memory_order_relaxed);
      span.set_outcome(obs::Outcome::kOk);
      points_ok().add();
      return true;
    } catch (const std::exception& e) {
      // A foreign exception (bad_alloc, logic_error from a dependency) is
      // contained like a model-class failure, so one point cannot kill the
      // sweep — unless nothing can hold the quarantine: then it is fatal.
      if (options_.fail_fast || journal == nullptr) {
        span.set_outcome(obs::Outcome::kFail);
        throw;
      }
      const auto* sim = dynamic_cast<const SimError*>(&e);
      const ErrorClass cls = sim ? sim->error_class() : ErrorClass::kModel;
      if (cls == ErrorClass::kIo && attempt < options_.max_io_attempts) {
        // Transient: back off and retry the same point in place. Full
        // jitter — a deterministic fraction of the doubling cap — so
        // concurrent workers hitting the same shared-file failure spread
        // their retries; deterministic classes never reach here (same
        // inputs, same failure).
        io_retries_.fetch_add(1, std::memory_order_relaxed);
        point_retries().add();
        span.set_outcome(obs::Outcome::kRetry);
        obs::instant("retry", key, obs::Outcome::kRetry);
        std::this_thread::sleep_for(std::chrono::duration<double>(
            backoff_jitter(key, attempt) * options_.retry_backoff_s *
            static_cast<double>(1 << (attempt - 1))));
        continue;
      }
      ResultJournal::FailRecord fail;
      fail.error_class = error_class_name(cls);
      fail.stage = sim && !sim->stage().empty() ? sim->stage()
                                                : deadline::current_stage();
      fail.attempts = attempt;
      fail.message = e.what();
      journal->append_fail(key, fail);
      span.set_outcome(obs::Outcome::kQuarantined);
      obs::instant("quarantine", key, obs::Outcome::kQuarantined);
      points_quarantined().add();
      if (options_.verbose)
        std::fprintf(stderr,
                     "[dse] quarantined %s after %d attempt(s): %s "
                     "(class %s, stage %s)\n",
                     key.c_str(), attempt, e.what(),
                     fail.error_class.c_str(),
                     fail.stage.empty() ? "unknown" : fail.stage.c_str());
      return false;
    }
  }
}

}  // namespace musa::core
