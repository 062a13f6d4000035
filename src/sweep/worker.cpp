#include "sweep/worker.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "common/journal.hpp"
#include "common/parse.hpp"
#include "core/point_runner.hpp"
#include "obs/export.hpp"
#include "obs/span.hpp"
#include "sweep/protocol.hpp"
#include "verify/faultpoint.hpp"

#ifndef _WIN32
#include <signal.h>
#include <unistd.h>
#endif

namespace musa::sweep {

std::string worker_journal_path(const std::string& cache_path, int spawn_id) {
  return cache_path + ".worker-" + std::to_string(spawn_id) + ".journal";
}

#ifndef _WIN32

namespace {

/// Heartbeat side thread: one `beat <chunk> <done>` line per interval.
/// Pausing it (the hang fault) silences the worker without killing it —
/// exactly the failure the controller's stale-worker rule must catch.
class Heartbeat {
 public:
  Heartbeat(LineChannel& channel, double interval_s,
            const std::atomic<int>& chunk, const std::atomic<std::uint64_t>& done)
      : channel_(channel),
        interval_s_(interval_s),
        chunk_(chunk),
        done_(done),
        thread_([this] { loop(); }) {}

  ~Heartbeat() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  void set_paused(bool paused) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      paused_ = paused;
    }
    cv_.notify_all();
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      if (!paused_)
        channel_.send("beat " + std::to_string(chunk_.load()) + " " +
                      std::to_string(done_.load()));
      cv_.wait_for(lock, std::chrono::duration<double>(interval_s_),
                   [this] { return stop_; });
    }
  }

  LineChannel& channel_;
  double interval_s_;
  const std::atomic<int>& chunk_;
  const std::atomic<std::uint64_t>& done_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool paused_ = false;
  std::thread thread_;
};

}  // namespace

int worker_main(int fd, const WorkerEnv& env) {
  LineChannel channel(fd);

  // The fork copied the parent's trace ring, events and all; re-install so
  // this process starts an empty ring (and shuts tracing off when the run
  // is untraced — inherited events would otherwise pile up unread).
  if (!env.trace_path.empty())
    obs::Tracer::install();
  else
    obs::Tracer::shutdown();

  core::SweepOptions sweep = env.sweep;
  sweep.fail_fast = false;  // a worker quarantines; it never aborts the fleet
  sweep.verbose = false;

  ResultJournal journal(worker_journal_path(env.cache_path, env.spawn_id),
                        core::DseEngine::csv_header());
  // A corrupted record here must be detected, dropped and re-leased by
  // the controller's tailer.
  verify::arm_journal_corruption(journal);

  std::shared_ptr<core::StageMemo> memo;
  if (sweep.memoize)
    memo = std::make_shared<core::StageMemo>(
        core::pipeline_options_fingerprint(env.pipeline));
  core::Pipeline pipeline(env.pipeline, memo);
  core::PointRunner runner(*env.plan, sweep);

  std::atomic<int> current_chunk{-1};
  std::atomic<std::uint64_t> points_done{0};
  Heartbeat heartbeat(channel, env.heartbeat_s, current_chunk, points_done);

  channel.send("hello " + std::to_string(::getpid()));

  std::string line;
  while (channel.read_line(&line)) {
    const std::vector<std::string> words = split_words(line);
    if (words.empty()) continue;
    if (words[0] == "quit") break;
    if (words[0] != "lease" || words.size() < 4) continue;  // version skew

    // Strict field decode: a lease whose chunk/offset/count do not parse
    // exactly is babble — atoi-style aliasing to chunk 0 would make this
    // worker silently recompute (and beat for) a chunk nobody leased it.
    // Per the version-skew policy the whole line is ignored; the
    // controller's straggler rule re-leases whatever it thinks we hold.
    int chunk = 0;
    std::uint64_t offset = 0, count = 0;
    if (!parse_int(words[1], &chunk) || chunk < 0 ||
        !parse_u64(words[2], &offset) || !parse_u64(words[3], &count))
      continue;
    current_chunk.store(chunk);

    // Process-level chaos, keyed by chunk so the *same* chunks are cursed
    // no matter which worker draws them (the decision is pure): die, go
    // silent, or babble — then, if still alive, compute normally.
    const verify::ProcessFault fault =
        verify::process_fault("worker.chunk", "chunk-" + std::to_string(chunk));
    switch (fault.action) {
      case verify::ProcessFault::Action::kKill:
        ::kill(::getpid(), SIGKILL);
        break;
      case verify::ProcessFault::Action::kHang:
        // Heartbeats stop with the computation: to the controller this
        // worker is indistinguishable from a deadlocked one, which is the
        // scenario under test.
        heartbeat.set_paused(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(fault.delay_ms));
        heartbeat.set_paused(false);
        break;
      case verify::ProcessFault::Action::kBabble:
        // Heartbeats keep flowing while no work happens — the stale rule
        // must NOT fire (the worker is live); the straggler rule must.
        std::this_thread::sleep_for(std::chrono::milliseconds(fault.delay_ms));
        break;
      case verify::ProcessFault::Action::kNone:
        break;
    }

    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t t = offset;
         t < offset + count && t < env.pending->size(); ++t) {
      runner.run(pipeline, (*env.pending)[t], &journal, nullptr);
      points_done.fetch_add(1);
    }
    const auto busy_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    current_chunk.store(-1);
    if (!channel.send("done " + std::to_string(chunk) + " " +
                      std::to_string(busy_us)))
      break;  // controller died; our journal rows survive for its successor
  }

  if (!env.trace_path.empty()) {
    obs::TraceMeta meta;
    meta.pid = static_cast<int>(::getpid());
    const std::string tag = "worker-" + std::to_string(env.spawn_id);
    meta.process_name = "musa-" + tag;
    try {
      obs::write_trace_jsonl(obs::trace_sidecar_path(env.trace_path, tag),
                             obs::Tracer::drain(), obs::Tracer::epoch_unix_us(),
                             meta);
    } catch (...) {
      // Trace sidecars are best-effort observability, never worth an exit
      // code that would look like a compute failure to the controller.
    }
  }
  return 0;
}

#else  // _WIN32

int worker_main(int, const WorkerEnv&) { return 1; }

#endif

}  // namespace musa::sweep
