// Unit tests for core::PointScheduler (core/scheduler.hpp), the one
// in-process dispatcher of sweep points: exactly-once dispatch, strict
// priority tiers, round-robin inside a tier, cancel, admission, and the
// fail-fast rethrow. Points here do no simulation; single-thread cases
// hold the first point on a gate so the queue is known when it opens.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scheduler.hpp"

namespace musa::core {
namespace {

/// Dispatch log shared by the points of several jobs: "A0", "B3", ...
class Log {
 public:
  void add(const std::string& job, std::uint64_t index) {
    std::lock_guard<std::mutex> lock(mu_);
    order_.push_back(job + std::to_string(index));
  }
  std::vector<std::string> order() {
    std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }

 private:
  std::mutex mu_;
  std::vector<std::string> order_;
};

/// Holds one point until open(); started() returns once it is running.
class Gate {
 public:
  void hold() {
    started_.set_value();
    release_.get_future().wait();
  }
  void started() { started_.get_future().wait(); }
  void open() { release_.set_value(); }

 private:
  std::promise<void> started_, release_;
};

PointScheduler::PointFn logged(Log& log, const std::string& job,
                               Gate* gate = nullptr) {
  return [&log, job, gate](Pipeline&, std::uint64_t i) {
    if (gate && i == 0) gate->hold();
    log.add(job, i);
  };
}

TEST(PointScheduler, EveryIndexOfAJobRunsExactlyOnceAcrossEightThreads) {
  PointScheduler scheduler(8, PipelineOptions{}, nullptr);
  constexpr std::uint64_t kPoints = 5000;
  std::vector<std::atomic<int>> runs(kPoints);
  scheduler.wait(scheduler.submit(
      kPoints, 0, [&runs](Pipeline&, std::uint64_t i) { runs[i]++; }));
  for (std::uint64_t i = 0; i < kPoints; ++i)
    ASSERT_EQ(runs[i].load(), 1) << "index " << i;
}

TEST(PointScheduler, HigherPriorityJobSubmittedLaterDispatchesFirst) {
  PointScheduler scheduler(1, PipelineOptions{}, nullptr);
  Log log;
  Gate gate;
  const auto low = scheduler.submit(4, 0, logged(log, "L", &gate));
  gate.started();
  const auto high = scheduler.submit(2, 5, logged(log, "H"));
  gate.open();
  scheduler.wait(low);
  scheduler.wait(high);
  EXPECT_EQ(log.order(),
            (std::vector<std::string>{"L0", "H0", "H1", "L1", "L2", "L3"}));
}

TEST(PointScheduler, JobsInOneTierInterleavePointByPoint) {
  PointScheduler scheduler(1, PipelineOptions{}, nullptr);
  Log log;
  Gate gate;
  const auto blocker = scheduler.submit(1, 0, logged(log, "G", &gate));
  gate.started();
  const auto a = scheduler.submit(3, 0, logged(log, "A"));
  const auto b = scheduler.submit(3, 0, logged(log, "B"));
  gate.open();
  scheduler.wait(a);
  scheduler.wait(b);
  EXPECT_EQ(log.order(), (std::vector<std::string>{"G0", "A0", "B0", "A1",
                                                   "B1", "A2", "B2"}));
}

TEST(PointScheduler, CancelDropsUndispatchedPointsAndReportsHowMany) {
  PointScheduler scheduler(1, PipelineOptions{}, nullptr);
  Log log;
  Gate gate;
  const auto job = scheduler.submit(10, 0, logged(log, "J", &gate));
  gate.started();
  EXPECT_EQ(scheduler.cancel(job), 9u);  // point 0 is already running
  EXPECT_EQ(scheduler.cancel(job), 0u);
  gate.open();
  scheduler.wait(job);  // the running point finishes; nothing else starts
  EXPECT_EQ(log.order(), std::vector<std::string>{"J0"});
}

TEST(PointScheduler, AdmissionCapRefusesUntilTheQueueDrains) {
  PointScheduler scheduler(1, PipelineOptions{}, nullptr,
                           /*max_queued_points=*/4);
  Log log;
  Gate gate;
  EXPECT_EQ(scheduler.submit(5, 0, logged(log, "X")), nullptr);  // never fits
  const auto first = scheduler.submit(4, 0, logged(log, "F", &gate));
  ASSERT_NE(first, nullptr);
  gate.started();  // 3 points still queued
  EXPECT_EQ(scheduler.submit(2, 0, logged(log, "S")), nullptr);
  gate.open();
  scheduler.wait(first);
  const auto second = scheduler.submit(2, 0, logged(log, "S"));
  ASSERT_NE(second, nullptr);
  scheduler.wait(second);
  EXPECT_EQ(log.order(), (std::vector<std::string>{"F0", "F1", "F2", "F3",
                                                   "S0", "S1"}));
}

TEST(PointScheduler, ThrowingPointStopsItsJobAndWaitRethrows) {
  PointScheduler scheduler(1, PipelineOptions{}, nullptr);
  std::atomic<int> runs{0};
  const auto job =
      scheduler.submit(5, 0, [&runs](Pipeline&, std::uint64_t i) {
        ++runs;
        if (i == 1) throw std::runtime_error("point 1 failed");
      });
  EXPECT_THROW(scheduler.wait(job), std::runtime_error);
  EXPECT_EQ(runs.load(), 2);  // points 2..4 were never dispatched
  // The scheduler itself survives: later jobs still run.
  scheduler.wait(scheduler.submit(
      3, 0, [&runs](Pipeline&, std::uint64_t) { ++runs; }));
  EXPECT_EQ(runs.load(), 5);
}

}  // namespace
}  // namespace musa::core
