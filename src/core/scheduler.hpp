// The in-process point scheduler (DESIGN.md §7i): DseEngine::sweep, the
// elastic controller's poisoned-chunk fallback and dse_serve all run their
// points here. N compute threads each own a private Pipeline over one
// shared StageMemo and take one point at a time: the highest priority tier
// first, round-robin across its jobs, so a 1-point query overtakes the
// tail of a big job. A batch sweep is one job at one priority. A point
// that throws stops its job's dispatch (running points finish) and wait()
// rethrows the first exception. Admission caps the queued points.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/metrics.hpp"

namespace musa::core {

class PointScheduler {
 public:
  using PointFn = std::function<void(Pipeline& pipeline, std::uint64_t index)>;
  struct Job;  // opaque; guarded by the scheduler's mutex
  using JobHandle = std::shared_ptr<Job>;

  /// Spawns max(1, threads) threads; `queued_gauge` (optional) tracks the
  /// queued-point total.
  PointScheduler(int threads, const PipelineOptions& options,
                 const std::shared_ptr<StageMemo>& memo,
                 std::uint64_t max_queued_points = UINT64_MAX,
                 obs::Gauge* queued_gauge = nullptr);
  /// Joins the threads after their running points; queued ones are dropped.
  ~PointScheduler();
  PointScheduler(const PointScheduler&) = delete;
  PointScheduler& operator=(const PointScheduler&) = delete;

  /// Queues points [0, points) of `fn` (higher `priority` first), or
  /// returns null when the queued total would exceed the admission cap.
  JobHandle submit(std::uint64_t points, int priority, PointFn fn);
  /// Drops the job's undispatched points; returns how many there were.
  std::uint64_t cancel(const JobHandle& job);
  /// Blocks until the job is done; rethrows its first point exception.
  void wait(const JobHandle& job);
  /// Stage times summed over every point that has finished.
  StageTimes stage_times() const;

 private:
  void thread_main(Pipeline& pipeline);
  std::uint64_t drop_locked(Job& job);

  const std::uint64_t max_queued_;
  obs::Gauge* const queued_gauge_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // work queued or stopping
  std::condition_variable done_cv_;  // a job is done
  std::vector<JobHandle> queue_;  // jobs with undispatched points
  std::size_t rr_ = 0;            // round-robin cursor into queue_
  std::uint64_t queued_ = 0;      // undispatched points in queue_
  bool stopping_ = false;
  StageTimes stages_;
  std::vector<std::thread> threads_;
};

}  // namespace musa::core
