#include "core/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <climits>
#include <exception>

namespace musa::core {

struct PointScheduler::Job {
  PointFn fn;  // released once the job is done
  int priority = 0;
  std::uint64_t next = 0, end = 0;  // [next, end) is still to dispatch
  std::uint64_t running = 0;
  std::exception_ptr error;  // first exception a point threw
  bool done() const { return next == end && running == 0; }
};

PointScheduler::PointScheduler(int threads, const PipelineOptions& options,
                               const std::shared_ptr<StageMemo>& memo,
                               std::uint64_t max_queued_points,
                               obs::Gauge* queued_gauge)
    : max_queued_(max_queued_points), queued_gauge_(queued_gauge) {
  for (int t = 0; t < std::max(1, threads); ++t)
    threads_.emplace_back(
        [this, p = Pipeline(options, memo)]() mutable { thread_main(p); });
}

PointScheduler::~PointScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
  for (const auto& job : queue_) job->fn = nullptr;  // abandoned
}

PointScheduler::JobHandle PointScheduler::submit(std::uint64_t points,
                                                 int priority, PointFn fn) {
  auto job = std::make_shared<Job>(Job{std::move(fn), priority, 0, points});
  std::lock_guard<std::mutex> lock(mu_);
  if (points > max_queued_ - queued_) return nullptr;
  if (points == 0) return job;
  queued_ += points;
  if (queued_gauge_) queued_gauge_->set(static_cast<double>(queued_));
  queue_.push_back(job);
  work_cv_.notify_all();
  return job;
}

std::uint64_t PointScheduler::cancel(const JobHandle& job) {
  std::lock_guard<std::mutex> lock(mu_);
  return drop_locked(*job);
}

void PointScheduler::wait(const JobHandle& job) {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&job] { return job->done(); });
  if (job->error) std::rethrow_exception(job->error);
}

StageTimes PointScheduler::stage_times() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stages_;
}

std::uint64_t PointScheduler::drop_locked(Job& job) {
  const std::uint64_t dropped = job.end - job.next;
  if (dropped == 0) return 0;
  job.end = job.next;
  queued_ -= dropped;
  if (queued_gauge_) queued_gauge_->set(static_cast<double>(queued_));
  std::erase_if(queue_, [&job](const JobHandle& j) { return j.get() == &job; });
  if (queue_.empty()) rr_ = 0;
  if (job.done()) {
    job.fn = nullptr;
    done_cv_.notify_all();
  }
  return dropped;
}

void PointScheduler::thread_main(Pipeline& pipeline) {
  static obs::Counter& dispatched =
      obs::MetricRegistry::global().counter("queue.chunks");
  static obs::Counter& busy_us =
      obs::MetricRegistry::global().counter("sweep.worker.busy_us");
  for (;;) {
    PointFn finished;  // a done job's captures: destroyed after the unlock
    std::unique_lock<std::mutex> lock(mu_);
    work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (stopping_) return;
    // Strict priority tiers; round-robin across the top tier's jobs.
    int best = INT_MIN;
    for (const auto& j : queue_) best = std::max(best, j->priority);
    std::size_t at = rr_ % queue_.size();
    while (queue_[at]->priority != best) at = (at + 1) % queue_.size();
    const JobHandle job = queue_[at];
    const std::uint64_t index = job->next++;
    ++job->running;
    --queued_;
    if (queued_gauge_) queued_gauge_->set(static_cast<double>(queued_));
    rr_ = (at + 1) % queue_.size();
    if (job->next == job->end) {
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(at));
      if (queue_.empty()) rr_ = 0;
    }
    dispatched.add();
    lock.unlock();

    std::exception_ptr error;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      job->fn(pipeline, index);
    } catch (...) {
      error = std::current_exception();
    }
    busy_us.add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));

    lock.lock();
    --job->running;
    stages_.merge(pipeline.stage_times());
    pipeline.reset_stage_times();
    if (error && !job->error) {
      job->error = error;
      drop_locked(*job);  // fail fast: the rest of the job never starts
    }
    if (job->done()) {
      finished.swap(job->fn);
      done_cv_.notify_all();
    }
  }
}

}  // namespace musa::core
