// Tests for the DSE server (src/serve, DESIGN.md §7i): end-to-end over a
// real AF_UNIX socket — byte-identity of served rows against a batch
// sweep, the journal-backed cache and in-flight dedup, point-granular
// fairness and priority, busy backpressure, fingerprint-keyed cache
// invalidation across restarts, and the wire-hardening contract (malformed
// requests earn error replies, babbling clients earn a disconnect; the
// server never dies).
//
// Every sweep here is a handful of 40k-instruction points, so the whole
// file stays in tier-1 time while still exercising the real socket, the
// real scheduler, and the real PointRunner containment.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/journal.hpp"
#include "core/config_space.hpp"
#include "core/dse.hpp"
#include "core/pipeline.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "sweep/protocol.hpp"

#ifndef _WIN32
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace musa {
namespace {

std::string tmp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

core::PipelineOptions fast_options() {
  core::PipelineOptions o;
  o.warm_instrs = 40'000;
  o.measure_instrs = 40'000;
  return o;
}

/// Fresh options per test: unique socket + cache so tests cannot see each
/// other's state, and a clean slate on every run.
serve::ServeOptions serve_options(const std::string& tag) {
  serve::ServeOptions o;
  o.socket_path = tmp_path("musa_srv_" + tag + ".sock");
  o.cache_path = tmp_path("musa_srv_" + tag + ".csv");
  o.threads = 2;
  o.pipeline = fast_options();
  std::remove(o.cache_path.c_str());
  std::remove((o.cache_path + ".fp").c_str());
  for (const auto& j : find_journals(o.cache_path)) std::remove(j.c_str());
  return o;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  EXPECT_LT(path.size(), sizeof addr.sun_path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0)
      << "cannot connect to " << path;
  return fd;
}

/// Blocking read of the next reply line, parsed. Fails the test on EOF or
/// unparseable bytes — the server must never emit either to a well-behaved
/// client.
serve::JsonValue read_reply(sweep::LineChannel& ch) {
  std::string line;
  EXPECT_TRUE(ch.read_line(&line)) << "server closed the connection";
  serve::JsonValue v;
  std::string err;
  EXPECT_TRUE(serve::parse_json(line, &v, &err)) << err << ": " << line;
  return v;
}

bool has_field(const serve::JsonValue& v, const char* key) {
  return v.find(key) != nullptr;
}

std::string str_field(const serve::JsonValue& v, const char* key) {
  const serve::JsonValue* f = v.find(key);
  return f != nullptr ? f->string : std::string();
}

double num_field(const serve::JsonValue& v, const char* key) {
  const serve::JsonValue* f = v.find(key);
  return f != nullptr ? f->number : -1.0;
}

/// The reference answer: one point through a plain batch sweep with the
/// same options. Served rows must equal this verbatim.
std::string batch_row(const core::MachineConfig& cfg) {
  core::SweepOptions sw;
  sw.verbose = false;
  sw.apps = {"hydro"};
  sw.configs = {cfg};
  core::Pipeline pipeline(fast_options());
  core::DseEngine dse(pipeline, "", sw);
  dse.sweep(/*force=*/true);
  std::string joined;
  for (const auto& cell : core::DseEngine::to_row(dse.results().at(0))) {
    if (!joined.empty()) joined += ',';
    joined += cell;
  }
  return joined;
}

std::string point_request(const std::string& id,
                          const core::MachineConfig& cfg,
                          int priority = 0) {
  return "{\"id\":\"" + id + "\",\"op\":\"point\",\"app\":\"hydro\"," +
         "\"config\":\"" + cfg.id() + "\",\"priority\":" +
         std::to_string(priority) + "}";
}

/// A 4-point paper sub-space: everything pinned except frequency.
std::string space_request(const std::string& id, int priority = 0) {
  return "{\"id\":\"" + id + "\",\"op\":\"space\",\"app\":\"hydro\"," +
         "\"base\":\"paper\",\"priority\":" + std::to_string(priority) +
         ",\"where\":{\"core\":[\"medium\"],\"cache\":[\"32M:256K\"],"
         "\"vector\":[\"128b\"],\"channels\":[\"4ch\"],"
         "\"tech\":[\"DDR4-2333\"],\"cores\":[\"1c\"],"
         "\"ranks\":[\"256r\"]}}";
}

core::MachineConfig tiny_config() {
  // Point queries name their config by MachineConfig::id(), which does not
  // encode `ranks` (the paper grid has a single rank count) — so stay on
  // the default ranks for the id round-trip to be exact.
  core::MachineConfig c;
  c.cores = 4;
  return c;
}

TEST(Serve, PointRepliesAreByteIdenticalToBatchAndThenCached) {
  serve::ServeOptions opts = serve_options("point");
  serve::DseServer server(opts);
  server.start();

  const core::MachineConfig cfg = tiny_config();
  const std::string expect = batch_row(cfg);

  sweep::LineChannel ch(connect_unix(opts.socket_path));
  ASSERT_TRUE(ch.send(point_request("q1", cfg)));
  serve::JsonValue result = read_reply(ch);
  EXPECT_EQ(str_field(result, "key"), "hydro|" + cfg.id());
  EXPECT_EQ(str_field(result, "row"), expect);
  EXPECT_FALSE(result.find("cached")->boolean);  // computed fresh
  serve::JsonValue done = read_reply(ch);
  EXPECT_TRUE(has_field(done, "done"));
  EXPECT_EQ(num_field(done, "points"), 1.0);
  EXPECT_EQ(num_field(done, "failed"), 0.0);
  EXPECT_GT(num_field(done, "wall_us"), 0.0);

  // Ask again: same bytes, served from the journal this time.
  ASSERT_TRUE(ch.send(point_request("q2", cfg)));
  result = read_reply(ch);
  EXPECT_EQ(str_field(result, "row"), expect);
  EXPECT_TRUE(result.find("cached")->boolean);
  read_reply(ch);  // done

  server.stop();
  const serve::ServeStats s = server.stats();
  EXPECT_EQ(s.computed, 1u);
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.done, 2u);
}

TEST(Serve, ConcurrentClientsForOneKeyShareOneComputation) {
  serve::ServeOptions opts = serve_options("dedup");
  serve::DseServer server(opts);
  server.start();

  const core::MachineConfig cfg = tiny_config();
  constexpr int kClients = 8;
  std::vector<std::string> rows(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      sweep::LineChannel ch(connect_unix(opts.socket_path));
      std::string id = "c";
      id += std::to_string(c);
      ASSERT_TRUE(ch.send(point_request(id, cfg)));
      rows[static_cast<std::size_t>(c)] =
          str_field(read_reply(ch), "row");
      read_reply(ch);  // done
    });
  }
  for (auto& t : threads) t.join();
  server.stop();

  for (int c = 1; c < kClients; ++c) EXPECT_EQ(rows[0], rows[c]);
  EXPECT_EQ(rows[0], batch_row(cfg));
  const serve::ServeStats s = server.stats();
  // One simulation total; everyone else piggybacked on it (dedup) or read
  // the journal entry it left behind (cache hit).
  EXPECT_EQ(s.computed, 1u);
  EXPECT_EQ(s.cache_hits + s.dedup_hits, kClients - 1u);
}

TEST(Serve, SmallQueryIsNotStarvedBehindLargeJob) {
  serve::ServeOptions opts = serve_options("fair");
  opts.threads = 1;  // deterministic: one point in flight at a time
  serve::DseServer server(opts);
  server.start();

  sweep::LineChannel ch(connect_unix(opts.socket_path));
  ASSERT_TRUE(ch.send(space_request("big")));        // 4 points
  ASSERT_TRUE(ch.send(point_request("small", tiny_config())));

  // Round-robin at point granularity: the 1-point request must complete
  // long before the 4-point space drains — its done line arrives first.
  std::vector<std::string> done_order;
  while (done_order.size() < 2) {
    const serve::JsonValue v = read_reply(ch);
    if (has_field(v, "done")) done_order.push_back(str_field(v, "id"));
    ASSERT_FALSE(has_field(v, "error")) << str_field(v, "error");
  }
  EXPECT_EQ(done_order[0], "small");
  EXPECT_EQ(done_order[1], "big");
  server.stop();
}

TEST(Serve, HigherPriorityJobDrainsFirst) {
  serve::ServeOptions opts = serve_options("prio");
  opts.threads = 1;
  serve::DseServer server(opts);
  server.start();

  sweep::LineChannel ch(connect_unix(opts.socket_path));
  // The 4-point space outranks the later 1-point query: strict priority
  // tiers mean the small job waits its turn this time.
  ASSERT_TRUE(ch.send(space_request("big", /*priority=*/10)));
  ASSERT_TRUE(ch.send(point_request("small", tiny_config(),
                                    /*priority=*/0)));
  std::vector<std::string> done_order;
  while (done_order.size() < 2) {
    const serve::JsonValue v = read_reply(ch);
    if (has_field(v, "done")) done_order.push_back(str_field(v, "id"));
    ASSERT_FALSE(has_field(v, "error")) << str_field(v, "error");
  }
  EXPECT_EQ(done_order[0], "big");
  EXPECT_EQ(done_order[1], "small");
  server.stop();
}

TEST(Serve, AdmissionBackpressureIsBusyAndTransient) {
  serve::ServeOptions opts = serve_options("busy");
  opts.threads = 1;
  opts.max_queue_points = 4;
  serve::DseServer server(opts);
  server.start();

  sweep::LineChannel ch(connect_unix(opts.socket_path));
  // A request that could never fit is a permanent error, not a retryable
  // busy: 4 freqs x 2 channel counts = 8 points > capacity 4.
  ASSERT_TRUE(ch.send(
      "{\"id\":\"huge\",\"op\":\"space\",\"app\":\"hydro\","
      "\"where\":{\"core\":[\"medium\"],\"cache\":[\"32M:256K\"],"
      "\"vector\":[\"128b\"],\"tech\":[\"DDR4-2333\"],"
      "\"cores\":[\"1c\"],\"ranks\":[\"256r\"]}}"));
  serve::JsonValue v = read_reply(ch);
  ASSERT_TRUE(has_field(v, "error"));
  EXPECT_NE(str_field(v, "error").find("exceeds queue capacity"),
            std::string::npos);

  // Fill the queue, then ask for 4 more points: busy.
  ASSERT_TRUE(ch.send(space_request("first")));
  ASSERT_TRUE(ch.send(space_request("second")));
  bool saw_busy = false;
  bool first_done = false;
  while (!first_done) {
    v = read_reply(ch);
    if (has_field(v, "busy")) {
      EXPECT_EQ(str_field(v, "id"), "second");
      saw_busy = true;
    }
    if (has_field(v, "done") && str_field(v, "id") == "first")
      first_done = true;
  }
  EXPECT_TRUE(saw_busy);

  // Busy is transient: once the queue drained, the same request goes
  // through (cached now, so it completes immediately).
  ASSERT_TRUE(ch.send(space_request("retry")));
  bool retry_done = false;
  while (!retry_done) {
    v = read_reply(ch);
    ASSERT_FALSE(has_field(v, "busy"));
    ASSERT_FALSE(has_field(v, "error")) << str_field(v, "error");
    if (has_field(v, "done") && str_field(v, "id") == "retry")
      retry_done = true;
  }
  server.stop();
  EXPECT_GE(server.stats().busy, 1u);
}

TEST(Serve, FingerprintGuardsTheCacheAcrossRestarts) {
  serve::ServeOptions opts = serve_options("fp");
  const core::MachineConfig cfg = tiny_config();
  {
    serve::DseServer server(opts);
    server.start();
    sweep::LineChannel ch(connect_unix(opts.socket_path));
    ASSERT_TRUE(ch.send(point_request("warm", cfg)));
    read_reply(ch);  // result
    read_reply(ch);  // done
    server.stop();
    EXPECT_EQ(server.stats().invalidated, 0u);
  }
  {
    // Same options: the journal survives and the point is a cache hit.
    serve::DseServer server(opts);
    server.start();
    sweep::LineChannel ch(connect_unix(opts.socket_path));
    ASSERT_TRUE(ch.send("{\"id\":\"p\",\"op\":\"ping\"}"));
    EXPECT_EQ(num_field(read_reply(ch), "cache_points"), 1.0);
    ASSERT_TRUE(ch.send(point_request("hit", cfg)));
    EXPECT_TRUE(read_reply(ch).find("cached")->boolean);
    read_reply(ch);  // done
    server.stop();
    EXPECT_EQ(server.stats().invalidated, 0u);
    EXPECT_EQ(server.stats().computed, 0u);
  }
  {
    // Different model options: rows computed under the old fingerprint
    // must not be served — the stale journal is discarded on startup.
    serve::ServeOptions changed = opts;
    changed.pipeline.measure_instrs = 80'000;
    serve::DseServer server(changed);
    server.start();
    sweep::LineChannel ch(connect_unix(opts.socket_path));
    ASSERT_TRUE(ch.send("{\"id\":\"p\",\"op\":\"ping\"}"));
    EXPECT_EQ(num_field(read_reply(ch), "cache_points"), 0.0);
    server.stop();
    EXPECT_EQ(server.stats().invalidated, 1u);
  }
}

TEST(Serve, MalformedRequestsEarnErrorsNotCrashes) {
  serve::ServeOptions opts = serve_options("bad");
  serve::DseServer server(opts);
  server.start();

  sweep::LineChannel ch(connect_unix(opts.socket_path));
  const std::vector<std::string> bad = {
      "not json at all",
      "{\"id\":\"a\"",                                   // truncated
      "[1,2,3]",                                         // not an object
      "{} trailing",                                     // full-consume
      "{\"id\":\"a\",\"op\":\"explode\"}",               // unknown op
      "{\"id\":\"a\",\"op\":\"point\"}",                 // missing app
      "{\"id\":\"a\",\"op\":\"point\",\"app\":\"hydro\"}",  // no config
      "{\"id\":\"a\",\"op\":\"point\",\"app\":\"nosuch\","
      "\"config\":\"x\"}",                               // unknown app
      "{\"id\":\"a\",\"op\":\"point\",\"app\":\"hydro\","
      "\"config\":\"garbage\"}",                         // bad config id
      "{\"id\":\"a\",\"op\":\"space\",\"app\":\"hydro\","
      "\"where\":{\"flux\":[\"1x\"]}}",                  // unknown dim
      "{\"id\":\"a\",\"op\":\"space\",\"app\":\"hydro\","
      "\"base\":\"imagined\"}",                          // unknown base
      "{\"id\":\"a\",\"op\":\"point\",\"app\":\"hydro\","
      "\"config\":\"x\",\"priority\":1e9}",              // out-of-range
      "{\"id\":\"a\",\"op\":\"ping\",\"fingerprint\":\"zz\"}",  // bad hex
      "{\"id\":\"a\",\"op\":\"shutdown\"}",              // disabled
  };
  for (const auto& line : bad) {
    ASSERT_TRUE(ch.send(line)) << line;
    const serve::JsonValue v = read_reply(ch);
    EXPECT_TRUE(has_field(v, "error")) << "no error for: " << line;
  }
  // A stale fingerprint on an otherwise valid request is refused too.
  ASSERT_TRUE(ch.send(
      "{\"id\":\"a\",\"op\":\"point\",\"app\":\"hydro\",\"config\":\"" +
      tiny_config().id() + "\",\"fingerprint\":\"deadbeef\"}"));
  EXPECT_NE(str_field(read_reply(ch), "error").find("fingerprint"),
            std::string::npos);

  // After all that abuse the connection still serves: the error replies
  // are per-request, not connection-fatal.
  ASSERT_TRUE(ch.send("{\"id\":\"p\",\"op\":\"ping\"}"));
  EXPECT_TRUE(has_field(read_reply(ch), "pong"));
  server.stop();
  EXPECT_GE(server.stats().errors, bad.size());
}

TEST(Serve, BabblingClientIsDisconnectedOthersUnaffected) {
  serve::ServeOptions opts = serve_options("babble");
  serve::DseServer server(opts);
  server.start();

  // A newline-less flood one byte past the line cap: the server must cut
  // the connection instead of buffering without bound.
  {
    const int fd = connect_unix(opts.socket_path);
    const std::string chunk(4096, 'x');
    std::size_t sent = 0;
    bool peer_gone = false;
    while (sent <= sweep::LineChannel::kMaxLineBytes) {
      const ssize_t n = ::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
      if (n <= 0) {
        peer_gone = true;  // reset mid-flood: the drop already happened
        break;
      }
      sent += static_cast<std::size_t>(n);
    }
    if (!peer_gone) {
      char byte = 0;
      EXPECT_EQ(::recv(fd, &byte, 1, 0), 0) << "babbler was not dropped";
    }
    ::close(fd);
  }
  // The babbler's fate is its own: a fresh client gets service.
  sweep::LineChannel ch(connect_unix(opts.socket_path));
  ASSERT_TRUE(ch.send("{\"id\":\"p\",\"op\":\"ping\"}"));
  EXPECT_TRUE(has_field(read_reply(ch), "pong"));
  server.stop();
  EXPECT_EQ(server.stats().babbling, 1u);
}

TEST(Serve, SpaceQueryPrunesInfeasibleRegionsStatically) {
  serve::ServeOptions opts = serve_options("space");
  serve::DseServer server(opts);
  server.start();

  // Extended base, everything pinned except vector width ∈ {32b, 128b}.
  // 32 bits violates the vector.width rule: the analyzer must cut it
  // before simulation and report it as skipped.
  sweep::LineChannel ch(connect_unix(opts.socket_path));
  ASSERT_TRUE(ch.send(
      "{\"id\":\"s\",\"op\":\"space\",\"app\":\"hydro\","
      "\"base\":\"extended\","
      "\"where\":{\"core\":[\"medium\"],\"cache\":[\"32M:256K\"],"
      "\"freq\":[\"2.0GHz\"],\"vector\":[\"32b\",\"128b\"],"
      "\"channels\":[\"4ch\"],\"tech\":[\"DDR4-2333\"],"
      "\"cores\":[\"1c\"],\"ranks\":[\"256r\"]}}"));
  const serve::JsonValue result = read_reply(ch);
  EXPECT_NE(str_field(result, "key").find("128b"), std::string::npos);
  const serve::JsonValue done = read_reply(ch);
  ASSERT_TRUE(has_field(done, "done"));
  EXPECT_EQ(num_field(done, "points"), 1.0);
  EXPECT_EQ(num_field(done, "skipped"), 1.0);
  server.stop();
  EXPECT_EQ(server.stats().computed, 1u);
}

}  // namespace
}  // namespace musa

#endif  // !_WIN32
