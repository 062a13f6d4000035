// DSE-as-a-service daemon: serves point and sub-space design-space queries
// from a persistent process that keeps the stage memo and the
// journal-backed result cache warm across clients (DESIGN.md §7i).
//
// Usage:
//   dse_serve [--socket PATH] [--tcp PORT] [--cache PATH] [--threads N]
//             [--max-queue-points N] [--max-clients N]
//             [--warm-instrs N] [--measure-instrs N]
//             [--metrics PATH] [--allow-shutdown] [--quiet]
//
// Defaults: AF_UNIX socket "musa_serve.sock", cache "serve_cache.csv", no
// TCP listener (pass --tcp 0 for an ephemeral loopback port — the bound
// port is printed). The daemon runs until SIGINT/SIGTERM (or a client
// shutdown op when --allow-shutdown), then drains, writes the metrics
// snapshot — including the serve.request.us latency histogram with its
// p50/p95/p99 — to the --metrics path, and exits 0.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "common/parse.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"

namespace {

std::atomic<bool> g_signalled{false};

void on_signal(int) { g_signalled.store(true); }

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--socket PATH] [--tcp PORT] [--cache PATH] [--threads N]\n"
      "          [--max-queue-points N] [--max-clients N]\n"
      "          [--warm-instrs N] [--measure-instrs N]\n"
      "          [--metrics PATH] [--allow-shutdown] [--quiet]\n",
      argv0);
  return 2;
}

bool arg_u64(int argc, char** argv, int* i, std::uint64_t* out) {
  if (*i + 1 >= argc) return false;
  return musa::parse_u64(argv[++*i], out);
}

}  // namespace

int main(int argc, char** argv) {
  musa::serve::ServeOptions opts;
  opts.socket_path = "musa_serve.sock";
  opts.verbose = true;
  std::string metrics_path = "serve_metrics.json";
  bool tcp_set = false;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    std::uint64_t v = 0;
    if (std::strcmp(a, "--socket") == 0 && i + 1 < argc) {
      opts.socket_path = argv[++i];
    } else if (std::strcmp(a, "--cache") == 0 && i + 1 < argc) {
      opts.cache_path = argv[++i];
    } else if (std::strcmp(a, "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(a, "--tcp") == 0) {
      if (!arg_u64(argc, argv, &i, &v) || v > 65535) return usage(argv[0]);
      opts.tcp_port = static_cast<int>(v);
      tcp_set = true;
    } else if (std::strcmp(a, "--threads") == 0) {
      if (!arg_u64(argc, argv, &i, &v) || v > 1024) return usage(argv[0]);
      opts.threads = static_cast<int>(v);
    } else if (std::strcmp(a, "--max-queue-points") == 0) {
      if (!arg_u64(argc, argv, &i, &v) || v == 0) return usage(argv[0]);
      opts.max_queue_points = v;
    } else if (std::strcmp(a, "--max-clients") == 0) {
      if (!arg_u64(argc, argv, &i, &v) || v == 0 || v > 10000)
        return usage(argv[0]);
      opts.max_clients = static_cast<int>(v);
    } else if (std::strcmp(a, "--warm-instrs") == 0) {
      if (!arg_u64(argc, argv, &i, &v) || v == 0) return usage(argv[0]);
      opts.pipeline.warm_instrs = v;
    } else if (std::strcmp(a, "--measure-instrs") == 0) {
      if (!arg_u64(argc, argv, &i, &v) || v == 0) return usage(argv[0]);
      opts.pipeline.measure_instrs = v;
    } else if (std::strcmp(a, "--allow-shutdown") == 0) {
      opts.allow_shutdown = true;
    } else if (std::strcmp(a, "--quiet") == 0) {
      opts.verbose = false;
    } else {
      return usage(argv[0]);
    }
  }
  if (!musa::serve::DseServer::supported()) {
    std::fprintf(stderr, "dse_serve: not supported on this platform\n");
    return 1;
  }

  // Handlers first: a TERM that lands while start() binds the listeners
  // must still end in a clean stop, not the default kill.
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  musa::serve::DseServer server(opts);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dse_serve: %s\n", e.what());
    return 1;
  }
  if (!opts.socket_path.empty())
    std::printf("dse_serve: listening on %s\n", opts.socket_path.c_str());
  if (tcp_set)
    std::printf("dse_serve: listening on 127.0.0.1:%d\n", server.tcp_port());
  std::printf("dse_serve: cache %s (fingerprint %016llx)\n",
              opts.cache_path.c_str(),
              static_cast<unsigned long long>(server.fingerprint()));
  std::fflush(stdout);

  // Poll rather than block: the signal handler only flips an atomic, which
  // is all it can safely do.
  while (!g_signalled.load() && !server.stopping())
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.stop();

  const musa::serve::ServeStats s = server.stats();
  std::printf(
      "dse_serve: %llu requests (%llu done, %llu busy, %llu errors), "
      "%llu computed, %llu cache hits, %llu dedup, %llu failed\n",
      static_cast<unsigned long long>(s.requests),
      static_cast<unsigned long long>(s.done),
      static_cast<unsigned long long>(s.busy),
      static_cast<unsigned long long>(s.errors),
      static_cast<unsigned long long>(s.computed),
      static_cast<unsigned long long>(s.cache_hits),
      static_cast<unsigned long long>(s.dedup_hits),
      static_cast<unsigned long long>(s.failed));
  try {
    musa::obs::write_metrics_json(metrics_path,
                                  musa::obs::MetricRegistry::global()
                                      .snapshot());
    std::printf("dse_serve: wrote %s\n", metrics_path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dse_serve: cannot write metrics: %s\n", e.what());
  }
  return 0;
}
