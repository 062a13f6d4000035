// DSE-as-a-service: a persistent sweep server (DESIGN.md §7i "Serving").
//
// One process owns the expensive sweep state — a shared StageMemo and a
// journal-backed result cache — and answers point / sub-space queries from
// many concurrent clients over AF_UNIX (and optionally loopback TCP)
// sockets, speaking the JSON-lines grammar of serve/wire.hpp over the
// newline framing of sweep::LineChannel (babble cap included). The server
// amortises the warm state across *queries over time*: the second client
// asking about a point pays a cache lookup, not a simulation. Each worker
// of an elastic sweep (src/sweep) is one of these servers too, serving
// only its controller's connection (start(fd)).
//
// Execution model:
//   * one I/O thread: poll(2) over the listeners and every client,
//     admission control, request parsing;
//   * one core::PointScheduler (core/scheduler.hpp), the point scheduler
//     batch sweeps run on: N compute threads, each owning a private
//     core::Pipeline attached to one shared StageMemo, executing points
//     through the same core::PointRunner containment the batch engine and
//     elastic workers use — served rows are byte-identical to a batch
//     sweep's by construction. Each request is one job; dispatch is strict
//     priority tiers, round-robin across jobs within a tier, so a 1-point
//     query never queues behind a thousand-point space sweep;
//   * an in-flight dedup map so concurrent requests for the same key
//     share one computation.
//
// Admission control: a request whose statically-pruned plan would push the
// queued-point total past `max_queue_points` gets a `busy` reply (retry
// later); one that could never fit gets an `error`. make_sweep_plan prunes
// sub-space requests with the static space analyzer
// (verify/space_analysis.hpp), so infeasible regions cost O(boxes) and are
// reported as `skipped`, and lints point requests: a config the rules
// reject earns an `error` and is never simulated.
//
// Cache invalidation: the result journal is keyed to the pipeline-options
// fingerprint via a sidecar file; starting the server with different
// options discards the stale journal instead of serving rows computed
// under another model.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/dse.hpp"
#include "core/pipeline.hpp"

namespace musa::serve {

struct ServeOptions {
  /// AF_UNIX listening socket path ("" = no unix listener).
  std::string socket_path;
  /// Loopback TCP listener port: -1 = off, 0 = ephemeral (tcp_port() tells
  /// which), else the given port. Always bound to 127.0.0.1 — the wire has
  /// no authentication; exposing it wider is a reverse proxy's job.
  int tcp_port = -1;
  /// Result cache artifact; the journal lives at "<cache_path>.journal"
  /// (the DseEngine naming, so batch tools can inspect it) and the
  /// fingerprint sidecar at "<cache_path>.fp".
  std::string cache_path = "serve_cache.csv";
  /// Compute threads (0 = default_thread_count()).
  int threads = 0;
  /// Admission bound: maximum queued-but-unfinished points across all
  /// requests. A request that would exceed it is told `busy`.
  std::uint64_t max_queue_points = 4096;
  /// Connected-client bound; excess connections are refused with an error
  /// line and closed.
  int max_clients = 64;
  /// Honor {"op":"shutdown"} from clients (off by default: any client
  /// could stop the daemon).
  bool allow_shutdown = false;
  bool verbose = false;
  /// Model options every answer is computed under; fingerprinted into the
  /// cache sidecar.
  core::PipelineOptions pipeline;
  /// Containment policy every point runs under: verify, memoize (off = no
  /// StageMemo), retry_failed (on = the cache lookup skips FAIL records),
  /// point_timeout_s and the io retry budget. Its plan fields (apps,
  /// configs, axes) are ignored — each request names its own points.
  core::SweepOptions sweep;
};

/// Monotone counters snapshot (mirrored into obs metrics under "serve.*").
struct ServeStats {
  std::uint64_t requests = 0;     // parsed request lines
  std::uint64_t busy = 0;         // busy replies (admission backpressure)
  std::uint64_t errors = 0;       // error replies
  std::uint64_t computed = 0;     // points simulated by this process
  std::uint64_t cache_hits = 0;   // points answered from the journal
  std::uint64_t dedup_hits = 0;   // points answered by piggybacking on an
                                  //   in-flight computation
  std::uint64_t failed = 0;       // FAIL replies (quarantined points)
  std::uint64_t done = 0;         // requests fully answered
  std::uint64_t clients = 0;      // connections accepted
  std::uint64_t babbling = 0;     // clients dropped by the line cap
  std::uint64_t invalidated = 0;  // 1 if startup discarded a stale cache
};

class DseServer {
 public:
  explicit DseServer(ServeOptions options);
  ~DseServer();

  DseServer(const DseServer&) = delete;
  DseServer& operator=(const DseServer&) = delete;

  /// Binds the listeners and starts the I/O thread and the scheduler. Throws
  /// SimError when a socket cannot be bound or no listener is configured.
  void start();

  /// Serves exactly one already-connected socket `fd` (ownership taken)
  /// instead of listening, and stops once that connection closes. An
  /// elastic sweep worker (src/sweep) is a server started this way on its
  /// end of the controller's socketpair.
  void start(int fd);

  /// Blocks until a shutdown is requested (signal handler via
  /// request_stop(), or a client shutdown op).
  void wait();

  /// Async-signal-ish stop request: flags the server and wakes the I/O
  /// thread. Safe to call from any thread, including request handlers.
  void request_stop();

  /// Full stop: request_stop() plus joining every thread and closing every
  /// socket. Pending queries are cancelled, not drained — their clients
  /// see EOF. Idempotent.
  void stop();

  /// True once a stop has been requested (signal, shutdown op, or stop()).
  /// Safe to poll from a signal-driven daemon loop.
  bool stopping() const;

  /// Bound TCP port after start() (resolves an ephemeral request); -1 when
  /// no TCP listener.
  int tcp_port() const;

  /// The pipeline-options fingerprint answers are computed under.
  std::uint64_t fingerprint() const;

  ServeStats stats() const;

  /// True on platforms with the socket machinery (everything but Windows).
  static bool supported();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace musa::serve
