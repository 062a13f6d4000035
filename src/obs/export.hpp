// Exporters for the observability subsystem (DESIGN.md §7e): Chrome
// trace_event JSON (loadable in Perfetto / chrome://tracing), the
// per-process JSONL sidecar protocol that lets separate *processes* (elastic
// workers, a run that did not finalize) contribute to one merged timeline,
// a flat metrics.json snapshot, and the one-screen end-of-sweep summary
// table.
//
// Sidecar protocol: a process whose events cannot go into the final trace
// yet writes `<trace>.<tag>.events.jsonl` (trace_sidecar_path) — one
// complete Chrome trace_event object per line, timestamps already anchored
// to wall clock (Tracer::epoch_unix_us) so processes share a time base.
// The run that finalizes the sweep merges every sidecar plus its own
// events into the single `<trace>` JSON and deletes the sidecars — the
// same merge-on-finalize discipline as the result journals.
//
// Exports are best-effort observability artifacts, not crash-safe state:
// they use plain buffered writes, never the fsync'd journal machinery.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace musa::obs {

/// Viewer identity of the emitting process: `pid` becomes the Chrome trace
/// pid (one lane per process), `process_name` its label.
struct TraceMeta {
  int pid = 0;
  std::string process_name = "musa";
};

/// One event as a complete Chrome trace_event JSON object (no trailing
/// newline). `epoch_unix_us` is added to the event's relative timestamp.
std::string trace_event_json(const TraceEvent& ev,
                             std::uint64_t epoch_unix_us,
                             const TraceMeta& meta);

/// Writes events as JSONL (one object per line, metadata first).
/// Throws SimError{io} on write failure.
void write_trace_jsonl(const std::string& path,
                       const std::vector<TraceEvent>& events,
                       std::uint64_t epoch_unix_us, const TraceMeta& meta);

/// Writes a self-contained Chrome trace JSON from in-process events plus
/// any already-serialised sidecar JSONL files (their lines are spliced in
/// verbatim). Perfetto and chrome://tracing load the result directly.
void write_chrome_trace(const std::string& path,
                        const std::vector<TraceEvent>& events,
                        std::uint64_t epoch_unix_us, const TraceMeta& meta,
                        const std::vector<std::string>& sidecar_paths = {});

/// Sidecar path of one process, `<trace>.<tag>.events.jsonl` — e.g. tag
/// "worker-3" for an elastic worker, "run" for a run_dse that did not
/// finalize. find_trace_sidecars() matches every such path.
std::string trace_sidecar_path(const std::string& trace_path,
                               const std::string& tag);

/// Every sidecar belonging to `trace_path`, sorted for deterministic merge
/// order.
std::vector<std::string> find_trace_sidecars(const std::string& trace_path);

/// Flat JSON snapshot of every registered metric:
/// {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
/// mean, p50, p95, p99}}}. Throws SimError{io} on write failure.
void write_metrics_json(const std::string& path, const MetricsSnapshot& snap);

/// One-screen, name-sorted text rendering of a snapshot (end-of-sweep
/// summary). Zero-valued counters are elided.
std::string summary_table(const MetricsSnapshot& snap);

}  // namespace musa::obs
