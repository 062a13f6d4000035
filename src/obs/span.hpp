// RAII trace spans over a bounded lock-free event ring (DESIGN.md §7e).
//
// Tracing is *off by default* and armed process-wide by Tracer::install()
// (run_dse --trace-out / MUSA_TRACE). When disarmed, constructing a Span is
// one relaxed atomic load and a branch — cheap enough for per-point,
// per-stage scopes in the sweep hot path (the ≤2% sweep_bench budget).
// When armed, a Span captures a start timestamp and, on destruction, pushes
// one complete ("X") trace event into the ring: stage name, point key,
// worker thread id, outcome (ok / fail / quarantined / memo-hit) and retry
// attempt.
//
// The ring is a fixed-capacity MPMC structure: writers claim a slot with
// one fetch_add and publish it with a release store of the slot's sequence
// number; when the ring wraps, the oldest events are overwritten and
// counted as dropped (observability must never stall the sweep). Draining
// is a *quiescent* operation — the exporter runs after the worker pool has
// joined, so it sees fully published slots only.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

namespace musa::obs {

/// What a span's scope did. kNone renders as no annotation.
enum class Outcome : std::uint8_t {
  kNone,
  kOk,
  kFail,
  kQuarantined,
  kMemoHit,
  kRetry,
};

const char* outcome_name(Outcome o);

/// One timeline event. Fixed-size and trivially copyable so the ring never
/// allocates: `key` holds a truncated copy of the point key.
struct TraceEvent {
  static constexpr std::size_t kKeyBytes = 56;

  std::uint64_t ts_us = 0;   // start, µs since the tracer epoch
  std::uint64_t dur_us = 0;  // 0 for instant events
  const char* name = "";     // static string: stage / event name
  char phase = 'X';          // Chrome trace_event phase: 'X' span, 'i' instant
  Outcome outcome = Outcome::kNone;
  std::uint8_t attempt = 0;  // retry attempt (0 = unset)
  std::uint16_t tid = 0;     // obs::thread_id() of the emitting worker
  char key[kKeyBytes] = {};  // NUL-terminated, truncated point key
};

class Tracer {
 public:
  /// Arms tracing with a ring of `capacity` events (rounded up to a power
  /// of two). Records the epoch: a steady-clock zero for durations plus a
  /// wall-clock anchor so traces from sibling *processes* land on one
  /// timeline when merged. Idempotent; re-installing clears prior events.
  static void install(std::size_t capacity = 1u << 17);

  /// Disarms tracing and frees the ring.
  static void shutdown();

  /// One relaxed load — the only cost every disabled span pays.
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// µs since the steady epoch (0 when not installed).
  static std::uint64_t now_us();

  /// Wall-clock µs (Unix time) of the steady epoch; exporters add this to
  /// event timestamps so separate processes share a time base.
  static std::uint64_t epoch_unix_us();

  /// Pushes one event (no-op when disarmed). Lock-free, never blocks.
  static void emit(const TraceEvent& ev);

  /// Events recorded so far, sorted by ts — call only while no emitter is
  /// running (after worker join). Does not clear the ring.
  static std::vector<TraceEvent> drain();

  /// Events lost to ring wrap-around since install().
  static std::uint64_t dropped();

 private:
  static std::atomic<bool> enabled_;
};

/// Copies `key` into `ev.key`, truncating to the fixed buffer.
void set_event_key(TraceEvent& ev, std::string_view key);

/// RAII scope emitting one complete span event on destruction.
class Span {
 public:
  Span(const char* name, std::string_view key = {}) {
    if (!Tracer::enabled()) return;
    armed_ = true;
    ev_.name = name;
    ev_.ts_us = Tracer::now_us();
    set_event_key(ev_, key);
  }
  ~Span() {
    if (!armed_) return;
    ev_.dur_us = Tracer::now_us() - ev_.ts_us;
    Tracer::emit(ev_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_outcome(Outcome o) {
    if (armed_) ev_.outcome = o;
  }
  void set_attempt(int attempt) {
    if (armed_)
      ev_.attempt = static_cast<std::uint8_t>(
          attempt < 0 ? 0 : attempt > 255 ? 255 : attempt);
  }

 private:
  bool armed_ = false;
  TraceEvent ev_;
};

/// Zero-duration instant event ("i" phase) — quarantines, retries,
/// memo hits. No-op when tracing is disarmed.
void instant(const char* name, std::string_view key,
             Outcome outcome = Outcome::kNone);

}  // namespace musa::obs
