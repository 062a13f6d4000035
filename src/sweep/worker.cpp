#include "sweep/worker.hpp"

#include "obs/export.hpp"
#include "obs/span.hpp"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace musa::sweep {

std::string worker_cache_path(const std::string& cache_path, int spawn_id) {
  return cache_path + ".worker-" + std::to_string(spawn_id);
}

std::string worker_journal_path(const std::string& cache_path, int spawn_id) {
  return worker_cache_path(cache_path, spawn_id) + ".journal";
}

#ifndef _WIN32

int worker_main(int fd, const serve::ServeOptions& options,
                const std::string& trace_path, int spawn_id) {
  // The fork copied the parent's trace ring, events and all; re-install so
  // this process starts an empty ring (and shuts tracing off when the run
  // is untraced — inherited events would otherwise pile up unread).
  if (!trace_path.empty())
    obs::Tracer::install();
  else
    obs::Tracer::shutdown();

  {
    serve::DseServer server(options);
    server.start(fd);
    server.wait();
  }  // stopped: every compute thread joined, the trace ring quiescent

  if (!trace_path.empty()) {
    obs::TraceMeta meta;
    meta.pid = static_cast<int>(::getpid());
    const std::string tag = "worker-" + std::to_string(spawn_id);
    meta.process_name = "musa-" + tag;
    try {
      obs::write_trace_jsonl(obs::trace_sidecar_path(trace_path, tag),
                             obs::Tracer::drain(), obs::Tracer::epoch_unix_us(),
                             meta);
    } catch (...) {
      // Trace sidecars are best-effort observability, never worth an exit
      // code that would look like a compute failure to the controller.
    }
  }
  return 0;
}

#else  // _WIN32

int worker_main(int, const serve::ServeOptions&, const std::string&, int) {
  return 1;
}

#endif

}  // namespace musa::sweep
