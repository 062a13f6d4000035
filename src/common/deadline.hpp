// Cooperative per-point watchdog for long-running sweeps.
//
// A runaway simulation point (model bug, pathological configuration,
// injected delay fault) must become a `timeout` quarantine, not a hung
// sweep. The sweep supervisor installs a wall-clock budget around each
// point (`deadline::Scope`), and the simulator hot loops poll it with
// `deadline::poll()`: a thread-local tick counter that touches the clock
// only once every 2^10 polls, so the fast path is one TLS load, an
// increment, and two predictable branches — no syscall per access, and
// strictly nothing at all beyond one branch when no budget is armed.
//
// The same thread-local state carries a *stage marker* ("burst", "kernel",
// "replay", "power", ...) maintained by the pipeline, so both watchdog
// timeouts and foreign exceptions can be attributed to the stage that was
// executing when they fired.
#pragma once

#include <chrono>
#include <cstdint>

#include "common/check.hpp"

namespace musa::deadline {

/// Thread-local watchdog state. Public only so that poll() can inline; use
/// Scope / poll() / set_stage(), never the fields directly.
struct TlState {
  bool active = false;
  std::uint32_t tick = 0;
  std::chrono::steady_clock::time_point limit{};
  double budget_s = 0.0;      // original budget, for the timeout message
  const char* stage = "";     // current pipeline stage marker
};

extern thread_local TlState tl_state;

/// Clock reads happen once per (kPollStride) polls; at simulator hot-loop
/// rates (millions of polls/s) that bounds watchdog latency well under a
/// millisecond while keeping the per-poll cost to a counter increment.
constexpr std::uint32_t kPollStride = 1u << 10;

/// Slow path: reads the clock and throws SimError{timeout} naming the
/// budget and the active stage if the deadline has passed.
void check_now();

/// Hot-loop poll. Free when no deadline is armed; a counter increment
/// otherwise, with a clock read every kPollStride calls.
inline void poll() {
  TlState& s = tl_state;
  if (!s.active) return;
  if ((++s.tick & (kPollStride - 1)) != 0) return;
  check_now();
}

/// Non-throwing forced check (one clock read); false when no deadline.
bool expired();

/// Sets the thread's stage marker, returning the previous one so callers
/// can restore it (markers must be string literals or otherwise outlive
/// the scope — they are not copied).
inline const char* set_stage(const char* stage) {
  const char* prev = tl_state.stage;
  tl_state.stage = stage;
  return prev;
}

inline const char* current_stage() { return tl_state.stage; }

/// Arms a wall-clock budget for the enclosing scope. Budgets nest by
/// tightening only: an inner Scope never extends an outer deadline. A
/// budget <= 0 arms nothing (the scope is a no-op), so callers can thread
/// an "unlimited" option through without branching.
class Scope {
 public:
  explicit Scope(double budget_s);
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  TlState saved_;
};

}  // namespace musa::deadline
