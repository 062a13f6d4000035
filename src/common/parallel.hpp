// Work-sharing helpers for embarrassingly parallel sweeps (the DSE
// engine's 4320 independent simulations): a worker pool and a dynamic
// index queue for skewed work, where per-item cost varies >10x and static
// blocks would leave threads idle at the tail.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

namespace musa {

/// Number of worker threads to use by default: the hardware concurrency,
/// overridable with the MUSA_THREADS environment variable (0/1 = serial).
/// MUSA_THREADS must be a plain non-negative integer; garbage, negative, or
/// overflowing values are rejected (with a stderr warning) rather than
/// silently mis-parsed, and huge values clamp to a sane pool size.
int default_thread_count();

/// Thread-safe dispenser of indices for dynamic work sharing: each next()
/// hands out the next index of [0, n) until the space is exhausted. Fast
/// workers simply come back for more, so a few expensive items cannot
/// strand the rest of the pool behind one thread.
class WorkQueue {
 public:
  explicit WorkQueue(std::uint64_t n) : n_(n) {}

  /// Claims the next index. Returns false when no work remains or the
  /// queue has been cancelled.
  bool next(std::uint64_t& index);

  /// Stops handing out work: every subsequent next() returns false.
  /// Indices already claimed keep running — cancellation is cooperative.
  /// Called by the DSE engine's fail-fast path.
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

 private:
  std::uint64_t n_;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<bool> cancelled_{false};
};

/// Runs fn(worker_index) on up to `threads` workers (at least one). Workers
/// typically construct per-thread state (a simulator instance) once, then
/// drain a shared WorkQueue. Exceptions thrown by fn are rethrown on the
/// calling thread (first one wins).
void parallel_workers(int threads, const std::function<void(int)>& fn);

}  // namespace musa
