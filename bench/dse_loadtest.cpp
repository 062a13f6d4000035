// Load generator and correctness gate for the DSE server (dse_serve).
//
// Drives N concurrent clients firing point queries over the server's
// AF_UNIX (or loopback TCP) socket, pipelined per connection, and checks
// every reply byte-for-byte against a locally computed batch sweep of the
// same 24-point bench space (fig_common.hpp) — the served row and the
// batch row must be the *same bytes*, the server's core contract. Busy
// replies (admission backpressure) are retried with backoff; anything
// else unexpected counts as wrong and fails the run.
//
// Per-query latency (send → done reply) is measured client-side with
// exact quantiles and merged into BENCH_sweep.json as the "serve" entry,
// next to the memo/elastic numbers sweep_bench maintains.
//
// Usage:
//   dse_loadtest (--socket PATH | --tcp PORT) [--clients N] [--queries N]
//                [--warm-instrs N] [--measure-instrs N]
//                [--out BENCH_sweep.json] [--check-regression BASELINE.json]
//
// With --check-regression, zero wrong/dropped replies is asserted (always)
// and p95 latency is compared against the baseline's "serve" entry with a
// generous 5x tripwire — CI machines are noisy; an order-of-magnitude
// regression is what this catches.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/fsio.hpp"
#include "common/parse.hpp"
#include "core/dse.hpp"
#include "fig_common.hpp"
#include "serve/wire.hpp"
#include "sweep/protocol.hpp"

#ifndef _WIN32
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace {

using musa::core::DseEngine;
using musa::core::MachineConfig;
using musa::core::Pipeline;
using musa::core::PipelineOptions;
using musa::core::SweepOptions;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--socket PATH | --tcp PORT) [--clients N] [--queries N]\n"
      "          [--warm-instrs N] [--measure-instrs N]\n"
      "          [--out BENCH_sweep.json] [--check-regression BASE.json]\n",
      argv0);
  return 2;
}

#ifndef _WIN32

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_tcp(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_server(const std::string& socket_path, int tcp_port) {
  return socket_path.empty() ? connect_tcp(tcp_port)
                             : connect_unix(socket_path);
}

struct ClientResult {
  std::uint64_t wrong = 0;         // mismatched/unexpected replies
  std::uint64_t dropped = 0;       // queries never answered
  std::uint64_t busy_retries = 0;  // busy replies absorbed by retrying
  std::vector<std::uint64_t> latency_us;  // one entry per finished query
};

/// One client connection: `count` pipelined point queries, round-robin
/// over the bench configs, every row checked against `expected`.
void run_client(int client_idx, const std::string& socket_path, int tcp_port,
                const std::string& app,
                const std::vector<MachineConfig>& configs,
                const std::unordered_map<std::string, std::string>& expected,
                const std::string& fp_hex, int count, ClientResult* out) {
  const int fd = connect_server(socket_path, tcp_port);
  if (fd < 0) {
    out->wrong += static_cast<std::uint64_t>(count);
    return;
  }
  musa::sweep::LineChannel ch(fd);

  struct Query {
    std::string key;
    std::chrono::steady_clock::time_point sent;
    bool done = false;
    bool row_seen = false;
  };
  std::vector<Query> queries(static_cast<std::size_t>(count));
  std::unordered_map<std::string, std::size_t> by_id;

  const auto send_query = [&](std::size_t q) {
    const std::size_t cfg =
        (static_cast<std::size_t>(client_idx) * 7 + q) % configs.size();
    std::string id = "c";
    id += std::to_string(client_idx);
    id += "-q";
    id += std::to_string(q);
    queries[q].key = DseEngine::point_key(app, configs[cfg]);
    queries[q].sent = std::chrono::steady_clock::now();
    by_id[id] = q;
    return ch.send("{\"id\":\"" + id + "\",\"op\":\"point\",\"app\":\"" +
                   app + "\",\"config\":\"" + configs[cfg].id() +
                   "\",\"fingerprint\":\"" + fp_hex + "\"}");
  };

  for (std::size_t q = 0; q < queries.size(); ++q)
    if (!send_query(q)) {
      out->wrong += queries.size() - q;
      return;
    }

  std::size_t open = queries.size();
  std::string line;
  while (open > 0 && ch.read_line(&line)) {
    musa::serve::JsonValue reply;
    std::string err;
    if (!musa::serve::parse_json(line, &reply, &err) ||
        reply.kind != musa::serve::JsonValue::Kind::kObject) {
      ++out->wrong;
      continue;
    }
    const musa::serve::JsonValue* id = reply.find("id");
    if (id == nullptr ||
        id->kind != musa::serve::JsonValue::Kind::kString ||
        by_id.count(id->string) == 0) {
      ++out->wrong;
      continue;
    }
    Query& q = queries[by_id[id->string]];
    if (q.done) {
      ++out->wrong;  // reply after done — protocol violation
      continue;
    }
    if (reply.find("busy") != nullptr) {
      // Admission backpressure: back off briefly and re-send this query.
      ++out->busy_retries;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      const std::size_t idx = by_id[id->string];
      by_id.erase(id->string);
      if (!send_query(idx)) {
        ++out->wrong;
        --open;
      }
      continue;
    }
    if (const musa::serve::JsonValue* row = reply.find("row")) {
      const auto want = expected.find(q.key);
      if (row->kind != musa::serve::JsonValue::Kind::kString ||
          want == expected.end() || row->string != want->second)
        ++out->wrong;
      else
        q.row_seen = true;
      continue;
    }
    if (reply.find("done") != nullptr) {
      q.done = true;
      --open;
      if (!q.row_seen) {
        ++out->wrong;  // done without the row — a dropped point reply
      } else {
        out->latency_us.push_back(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - q.sent)
                .count()));
      }
      continue;
    }
    ++out->wrong;  // error/failed/unknown reply — point queries on the
                   // bench space must always succeed
  }
  out->dropped += open;  // EOF with queries still unanswered
}

#endif  // !_WIN32

/// Pulls "<field>": out of the "serve" entry of a BENCH_sweep.json — the
/// same string-scanning idiom sweep_bench uses for its baseline.
bool parse_serve_baseline(const std::string& text, const char* field,
                          double* out) {
  const std::size_t serve = text.find("\"serve\": {");
  if (serve == std::string::npos) return false;
  const std::string needle = std::string("\"") + field + "\": ";
  const std::size_t p = text.find(needle, serve);
  if (p == std::string::npos) return false;
  *out = std::strtod(text.c_str() + p + needle.size(), nullptr);
  return true;
}

/// Merges `serve_entry` (a JSON object body) into `path` as the root's
/// "serve" member, replacing any previous one; the entry is always the
/// last key, which is what lets this truncate-and-append stay simple.
bool merge_serve_entry(const std::string& path,
                       const std::string& serve_entry) {
  std::string text = musa::read_file_from(path, 0);  // "" if missing
  const std::size_t old = text.find(",\n  \"serve\": {");
  if (old != std::string::npos) {
    text.erase(old);
  } else {
    const std::size_t close = text.rfind('}');
    if (close == std::string::npos) {
      text = "{";  // absent or unrecognisable: start a fresh document
    } else {
      text.erase(close);
      while (!text.empty() &&
             (text.back() == '\n' || text.back() == ' '))
        text.pop_back();
    }
  }
  text += ",\n  \"serve\": " + serve_entry + "\n}\n";
  if (text.compare(0, 2, "{,") == 0) text.erase(1, 1);  // fresh document
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  int tcp_port = -1;
  int clients = 64;
  std::uint64_t total_queries = 2048;
  std::string out_path = "BENCH_sweep.json";
  std::string baseline_path;
  PipelineOptions pipeline;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    std::uint64_t v = 0;
    if (std::strcmp(a, "--socket") == 0 && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (std::strcmp(a, "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(a, "--check-regression") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(a, "--tcp") == 0 && i + 1 < argc &&
               musa::parse_u64(argv[i + 1], &v) && v <= 65535) {
      tcp_port = static_cast<int>(v);
      ++i;
    } else if (std::strcmp(a, "--clients") == 0 && i + 1 < argc &&
               musa::parse_u64(argv[i + 1], &v) && v >= 1 && v <= 4096) {
      clients = static_cast<int>(v);
      ++i;
    } else if (std::strcmp(a, "--queries") == 0 && i + 1 < argc &&
               musa::parse_u64(argv[i + 1], &v) && v >= 1) {
      total_queries = v;
      ++i;
    } else if (std::strcmp(a, "--warm-instrs") == 0 && i + 1 < argc &&
               musa::parse_u64(argv[i + 1], &v) && v > 0) {
      pipeline.warm_instrs = v;
      ++i;
    } else if (std::strcmp(a, "--measure-instrs") == 0 && i + 1 < argc &&
               musa::parse_u64(argv[i + 1], &v) && v > 0) {
      pipeline.measure_instrs = v;
      ++i;
    } else {
      return usage(argv[0]);
    }
  }
  if (socket_path.empty() && tcp_port < 0) return usage(argv[0]);
  // The fresh entry is merged into --out before the baseline is read, so
  // one file for both would compare the run against itself.
  if (!baseline_path.empty()) {
    std::error_code ec;
    const auto canon = [&ec](const std::string& path) {
      return std::filesystem::weakly_canonical(
          std::filesystem::absolute(path, ec), ec);
    };
    if (canon(baseline_path) == canon(out_path)) {
      std::fprintf(stderr,
                   "dse_loadtest: the fresh run would be merged into the "
                   "baseline %s; name another --out file\n",
                   baseline_path.c_str());
      return usage(argv[0]);
    }
  }

#ifdef _WIN32
  std::fprintf(stderr, "dse_loadtest: not supported on this platform\n");
  return 1;
#else
  const std::string app = musa::bench::bench_app();
  const std::vector<MachineConfig> configs = musa::bench::bench_space();
  const std::uint64_t fp = musa::core::pipeline_options_fingerprint(pipeline);
  const std::string fp_hex = musa::serve::fingerprint_hex(fp);

  // Handshake first: a fingerprint mismatch means the server was started
  // with different pipeline options and every byte-identity check below
  // would fail confusingly — reject it with a clear message instead.
  {
    const int fd = connect_server(socket_path, tcp_port);
    if (fd < 0) {
      std::fprintf(stderr, "dse_loadtest: cannot connect to server\n");
      return 1;
    }
    musa::sweep::LineChannel ch(fd);
    std::string line;
    if (!ch.send("{\"id\":\"hello\",\"op\":\"ping\"}") ||
        !ch.read_line(&line)) {
      std::fprintf(stderr, "dse_loadtest: ping failed\n");
      return 1;
    }
    musa::serve::JsonValue pong;
    std::string err;
    const musa::serve::JsonValue* got = nullptr;
    if (!musa::serve::parse_json(line, &pong, &err) ||
        (got = pong.find("fingerprint")) == nullptr) {
      std::fprintf(stderr, "dse_loadtest: bad pong: %s\n", line.c_str());
      return 1;
    }
    if (got->string != fp_hex) {
      std::fprintf(stderr,
                   "dse_loadtest: pipeline fingerprint mismatch "
                   "(server %s, local %s) — align --warm-instrs/"
                   "--measure-instrs with the server\n",
                   got->string.c_str(), fp_hex.c_str());
      return 1;
    }
  }

  // The reference answers: a local batch sweep over the same space with
  // the same options. Every served row must equal one of these verbatim.
  std::printf("dse_loadtest: computing %zu-point batch reference...\n",
              configs.size());
  std::unordered_map<std::string, std::string> expected;
  {
    SweepOptions sweep;
    sweep.verbose = false;
    sweep.apps = {app};
    sweep.configs = configs;
    Pipeline ref_pipeline(pipeline);
    DseEngine dse(ref_pipeline, "", sweep);
    dse.sweep(/*force=*/true);
    for (const auto& r : dse.results()) {
      std::string joined;
      for (const auto& cell : DseEngine::to_row(r)) {
        if (!joined.empty()) joined += ',';
        joined += cell;
      }
      expected[DseEngine::point_key(r.app, r.config)] = std::move(joined);
    }
  }

  std::printf("dse_loadtest: %d clients x %llu queries...\n", clients,
              static_cast<unsigned long long>(total_queries));
  std::vector<ClientResult> results(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < clients; ++c) {
    const std::uint64_t share =
        total_queries / static_cast<std::uint64_t>(clients) +
        (static_cast<std::uint64_t>(c) <
                 total_queries % static_cast<std::uint64_t>(clients)
             ? 1
             : 0);
    threads.emplace_back([&, c, share] {
      run_client(c, socket_path, tcp_port, app, configs, expected, fp_hex,
                 static_cast<int>(share), &results[static_cast<std::size_t>(c)]);
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::uint64_t wrong = 0, dropped = 0, busy_retries = 0;
  std::vector<std::uint64_t> latencies;
  for (const auto& r : results) {
    wrong += r.wrong;
    dropped += r.dropped;
    busy_retries += r.busy_retries;
    latencies.insert(latencies.end(), r.latency_us.begin(),
                     r.latency_us.end());
  }
  std::sort(latencies.begin(), latencies.end());
  const auto quantile = [&latencies](double q) -> std::uint64_t {
    if (latencies.empty()) return 0;
    const auto at = static_cast<std::size_t>(
        q * static_cast<double>(latencies.size() - 1) + 0.5);
    return latencies[std::min(at, latencies.size() - 1)];
  };
  const std::uint64_t p50 = quantile(0.50), p95 = quantile(0.95),
                      p99 = quantile(0.99);
  const double qps =
      wall_s > 0 ? static_cast<double>(latencies.size()) / wall_s : 0.0;

  std::printf(
      "dse_loadtest: %zu answered in %.2fs (%.1f q/s), %llu wrong, "
      "%llu dropped, %llu busy retries\n"
      "  latency p50 %llu us, p95 %llu us, p99 %llu us\n",
      latencies.size(), wall_s, qps,
      static_cast<unsigned long long>(wrong),
      static_cast<unsigned long long>(dropped),
      static_cast<unsigned long long>(busy_retries),
      static_cast<unsigned long long>(p50),
      static_cast<unsigned long long>(p95),
      static_cast<unsigned long long>(p99));

  char entry[512];
  std::snprintf(entry, sizeof entry,
                "{\"clients\": %d, \"queries\": %llu, \"wrong\": %llu, "
                "\"dropped\": %llu, \"busy_retries\": %llu, "
                "\"wall_s\": %.4f, \"queries_per_s\": %.1f, "
                "\"p50_us\": %llu, \"p95_us\": %llu, \"p99_us\": %llu}",
                clients, static_cast<unsigned long long>(total_queries),
                static_cast<unsigned long long>(wrong),
                static_cast<unsigned long long>(dropped),
                static_cast<unsigned long long>(busy_retries), wall_s, qps,
                static_cast<unsigned long long>(p50),
                static_cast<unsigned long long>(p95),
                static_cast<unsigned long long>(p99));
  if (!merge_serve_entry(out_path, entry)) {
    std::fprintf(stderr, "dse_loadtest: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("dse_loadtest: merged \"serve\" entry into %s\n",
              out_path.c_str());

  // Correctness is non-negotiable: a served row that differs from the
  // batch sweep, or a query the server never answered, fails the run.
  if (wrong > 0 || dropped > 0) {
    std::fprintf(stderr,
                 "FAIL: %llu wrong and %llu dropped replies — served "
                 "answers must be byte-identical to the batch sweep\n",
                 static_cast<unsigned long long>(wrong),
                 static_cast<unsigned long long>(dropped));
    return 1;
  }

  if (!baseline_path.empty()) {
    double base_p95 = 0.0;
    if (!parse_serve_baseline(musa::read_file_from(baseline_path, 0), "p95_us",
                              &base_p95)) {
      std::printf("regression check: baseline %s has no serve entry — "
                  "skipped\n",
                  baseline_path.c_str());
    } else {
      std::printf("regression check vs %s: p95 %.0f us -> %llu us\n",
                  baseline_path.c_str(), base_p95,
                  static_cast<unsigned long long>(p95));
      if (base_p95 > 0 && static_cast<double>(p95) > 5.0 * base_p95) {
        std::fprintf(stderr,
                     "FAIL: serve p95 latency regressed >5x "
                     "(%.0f us -> %llu us)\n",
                     base_p95, static_cast<unsigned long long>(p95));
        return 1;
      }
      std::printf("regression check passed\n");
    }
  }
  return 0;
#endif
}
