#include "common/parallel.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace musa {

namespace {
/// Upper clamp for MUSA_THREADS: far above any real machine, low enough
/// that a unit typo (e.g. "100000") cannot oversubscribe into an OOM.
constexpr long kMaxThreads = 1024;
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

}  // namespace musa
