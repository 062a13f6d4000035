// Elastic sweep worker: the child half of the controller/worker pair.
//
// A worker is forked by the controller, inherits the sweep plan and the
// pending-point list by address, and then lives on the wire protocol
// (sweep/protocol.hpp): it announces itself, computes the chunks it is
// leased through the exact same PointRunner the in-process engine uses —
// so its journal rows are byte-identical — and heartbeats from a side
// thread so a hung computation is distinguishable from a slow one.
//
// Every worker owns a private journal (`<cache>.worker-<spawn>.journal`)
// that the controller tails incrementally and the finalize pass merges
// like any sibling journal. A traced worker leaves its events in the trace
// sidecar `<trace>.worker-<spawn>.events.jsonl` (obs::trace_sidecar_path)
// on clean shutdown, for the finalize export to merge. Workers never write
// the cache and never talk to each other; the fsync'd journal rows are
// their only durable output, which is what makes killing a worker at any
// instant recoverable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/dse.hpp"
#include "core/pipeline.hpp"

namespace musa::sweep {

/// Everything a worker needs, passed by address through fork — none of it
/// is serialised. Pointers must stay valid in the parent for the worker's
/// lifetime (they do: ElasticController::run owns them on its stack).
struct WorkerEnv {
  const core::SweepPlan* plan = nullptr;
  const std::vector<std::uint64_t>* pending = nullptr;  // plan indices
  core::SweepOptions sweep;          // containment policy (fail_fast off)
  core::PipelineOptions pipeline;
  std::string cache_path;
  std::string trace_path;  // "" = tracing off
  int spawn_id = 0;        // unique across respawns, names the journal
  double heartbeat_s = 0.25;
};

/// Journal a worker writes: `<cache>.worker-<spawn>.journal` — matched by
/// find_journals(), so the finalize pass merges it automatically.
std::string worker_journal_path(const std::string& cache_path, int spawn_id);

/// Body of the worker process: runs the protocol loop on `fd` until `quit`
/// or controller death. Returns the process exit code. The caller (the
/// forked child) must exit via std::_Exit with it — running atexit
/// handlers in a fork twin flushes inherited state that is not its own.
int worker_main(int fd, const WorkerEnv& env);

}  // namespace musa::sweep
