#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace musa {

namespace {
/// Upper clamp for MUSA_THREADS: far above any real machine, low enough
/// that a unit typo (e.g. "100000") cannot oversubscribe into an OOM.
constexpr long kMaxThreads = 1024;

obs::Counter& chunk_claims() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("queue.chunks");
  return c;
}
}  // namespace

int default_thread_count() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read before any worker spawns.
  if (const char* env = std::getenv("MUSA_THREADS")) {
    char* end = nullptr;
    errno = 0;
    const long n = std::strtol(env, &end, 10);
    // Strict parse: the whole value must be a non-negative decimal number.
    // Garbage ("abc", "4x", ""), negatives, and overflow fall back to the
    // hardware concurrency instead of whatever atoi would have returned.
    if (end != env && *end == '\0' && errno == 0 && n >= 0)
      return static_cast<int>(std::clamp(n, 1L, kMaxThreads));
    std::fprintf(stderr,
                 "[musa] ignoring invalid MUSA_THREADS=\"%s\" "
                 "(want an integer in [0, %ld])\n",
                 env, kMaxThreads);
  }
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

bool WorkQueue::next(std::uint64_t& index) {
  if (cancelled_.load(std::memory_order_relaxed)) return false;
  const std::uint64_t i = next_.fetch_add(1, std::memory_order_relaxed);
  if (i >= n_) return false;
  index = i;
  chunk_claims().add();
  return true;
}

void parallel_workers(int threads, const std::function<void(int)>& fn) {
  MUSA_CHECK_MSG(threads >= 0, "negative thread count");
  const int workers = std::max(1, threads);
  if (workers == 1) {
    fn(0);
    return;
  }
  std::exception_ptr first_error;
  std::atomic_flag error_latch;  // default-clear since C++20
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (int w = 0; w < workers; ++w)
    pool.emplace_back([&, w] {
      try {
        fn(w);
      } catch (...) {
        if (!error_latch.test_and_set()) first_error = std::current_exception();
      }
    });
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace musa
