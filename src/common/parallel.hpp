// Default thread count for in-process parallelism. The threads themselves
// live in core::PointScheduler (core/scheduler.hpp), the one dispatcher of
// in-process sweep points.
#pragma once

namespace musa {

/// Number of worker threads to use by default: the hardware concurrency,
/// overridable with the MUSA_THREADS environment variable (0/1 = serial).
/// MUSA_THREADS must be a plain non-negative integer; garbage, negative, or
/// overflowing values are rejected (with a stderr warning) rather than
/// silently mis-parsed, and huge values clamp to a sane pool size.
int default_thread_count();

}  // namespace musa
