// Elastic sweep worker: the child half of the controller/worker pair.
//
// A worker is a forked serve::DseServer that serves exactly one connection,
// its end of the controller's socketpair, and speaks nothing but the serve
// wire (serve/wire.hpp). The controller leases a chunk by sending the
// chunk's points as ordinary `point` requests tagged "id":"chunk-<c>", and
// checks liveness with `ping`s the server's I/O thread answers. Points run
// through the same PointRunner every sweep path uses, under the
// controller's containment policy (ServeOptions::sweep), so journal rows
// are byte-identical to an in-process sweep's. EOF on the connection — a
// clean shutdown or the controller's death — stops the server.
//
// Worker `spawn` caches under `<cache>.worker-<spawn>`, so its journal is
// `<cache>.worker-<spawn>.journal`: the controller tails it, and the
// finalize of the same DseEngine::sweep merges it like any sibling
// journal. A traced worker leaves its events in the trace sidecar
// `<trace>.worker-<spawn>.events.jsonl` (obs::trace_sidecar_path) when it
// stops, for the finalize export to merge. Workers never write the cache
// and never talk to each other; the fsync'd journal rows are their only
// durable output, which is what makes killing a worker at any instant
// recoverable.
#pragma once

#include <string>

#include "serve/server.hpp"

namespace musa::sweep {

/// Cache path a worker serves under: `<cache>.worker-<spawn>`.
std::string worker_cache_path(const std::string& cache_path, int spawn_id);

/// Journal a worker writes: `<cache>.worker-<spawn>.journal` — matched by
/// find_journals(), so the engine's finalize merges it automatically.
std::string worker_journal_path(const std::string& cache_path, int spawn_id);

/// Body of the worker process: serves `fd` under `options` until the
/// connection closes, then writes the trace sidecar when `trace_path` is
/// set. Returns the process exit code. The caller (the forked child) must
/// exit via std::_Exit with it — running atexit handlers in a fork twin
/// flushes inherited state that is not its own.
int worker_main(int fd, const serve::ServeOptions& options,
                const std::string& trace_path, int spawn_id);

}  // namespace musa::sweep
