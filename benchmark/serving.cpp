// Serving workloads: a dse_serve child driven over AF_UNIX by one generator
// thread — open loop, then a bounded closed loop, over never-computed
// points (serve_cold) and a closed loop over a warm result cache
// (serve_cached).
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstring>
#include <limits>
#include <memory>

#include "bench_common.hpp"
#include "common/check.hpp"
#include "common/journal.hpp"
#include "serve/wire.hpp"
#include "sweep/protocol.hpp"

namespace bench {

namespace core = musa::core;
using musa::serve::JsonValue;

namespace {

constexpr int kServeThreads = 3;    // daemon compute threads (+ its I/O thread)
constexpr int kConnections = 4;
constexpr int kCachedWindow = 2;    // outstanding requests per connection
constexpr int kExtraSetups = 10;    // start/pong/stop cycles beyond the steps
constexpr int kLightSlices = 8;     // serve_cached light phase, CPU by CPU
// Open-loop rates, q/s. Three threads serve 200-450 warm-memo points/s on
// the shared 4-vCPU host the benchmark was sized on, depending on what its
// neighbours run: the heavy step stays below half of that even in the slow
// spells. At 150 q/s a slow spell took it to ~65% and its p99 from 20 to
// 80 ms, so the run measured the neighbours.
constexpr double kColdLightRate = 50.0;
constexpr double kColdHeavyRate = 100.0;
// serve_cold's capacity step: a closed loop with this many queries in
// flight per connection, twice the compute threads in all, so the daemon
// never idles and its backlog cannot grow.
constexpr int kCapacityWindow = 2;
// Shares of the run's time: light step, capacity step; heavy step the rest.
constexpr double kColdLightShare = 0.15;
constexpr double kColdCapacityShare = 0.15;
constexpr double kSpaceShare = 0.05;
constexpr std::size_t kReplayPoints = 64;
constexpr std::size_t kProbePoints = 20;  // probe_stages, probe_serve
constexpr double kProbeRate = 20.0;       // probe_serve open loop, q/s
constexpr std::size_t kWireSamples = 4096;

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

/// One dse_serve child serving the result cache at `cache` (created empty
/// when absent). Construction returns once the daemon answered its first
/// ping; the destructor kills a daemon stop() was not called on, so no
/// child outlives the benchmark.
class ServerProc {
 public:
  ServerProc(const Ctx& ctx, const std::string& cache, SpanLog& log)
      : name_("srv-" + std::to_string(next_serial_++)),
        socket_(name_ + ".sock"),
        metrics_(ctx.work + "/" + name_ + ".metrics.json") {
    Scope span(log, "bench.serve.start");
    const std::string exe = ctx.exe_dir + "/dse_serve";
    const std::string threads = std::to_string(kServeThreads);
    // The daemon prints "listening on" once its socket accepts; reading
    // that from a pipe wakes us at that moment, where polling connect()
    // would add up to a polling interval to a start-up of a few ms.
    int out[2] = {-1, -1};
    if (::pipe2(out, O_CLOEXEC) != 0)
      throw musa::SimError("pipe2 failed", musa::ErrorClass::kIo);
    out_ = out[0];
    const auto t0 = Clock::now();
    pid_ = spawn_child({exe, "--socket", socket_, "--cache", cache, "--threads",
                        threads, "--metrics", metrics_, "--quiet",
                        "--allow-shutdown"},
                       out[1]);
    ::close(out[1]);
    // The destructor does not run for a constructor that throws.
    const auto give_up = [this](const std::string& why) {
      kill_and_reap();
      throw musa::SimError(why, musa::ErrorClass::kIo);
    };
    if (pid_ < 0) give_up("cannot start " + exe);
    std::string said;
    while (said.find("listening on") == std::string::npos) {
      pollfd p{out_, POLLIN, 0};
      const long left_ms = 60000 - static_cast<long>(ms(t0, Clock::now()));
      if (left_ms <= 0 || ::poll(&p, 1, static_cast<int>(left_ms)) <= 0)
        give_up("dse_serve did not listen within 60 s");
      char buf[256];
      const ssize_t n = ::read(out_, buf, sizeof buf);
      if (n <= 0) give_up("dse_serve exited during start-up");
      said.append(buf, static_cast<std::size_t>(n));
    }
    const int fd = connect_unix(socket_);
    if (fd < 0) give_up("cannot connect to " + socket_);
    musa::sweep::LineChannel ch(fd);
    std::string line;
    if (!ch.send("{\"id\":\"ready\",\"op\":\"ping\"}") || !ch.read_line(&line) ||
        line.find("\"pong\":true") == std::string::npos)
      give_up("dse_serve did not answer ping");
    setup_s_ = secs(t0, Clock::now());
  }

  ~ServerProc() { kill_and_reap(); }
  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;

  double setup_s() const { return setup_s_; }
  const std::string& socket() const { return socket_; }
  double peak_rss_mb() const { return rss_mb_; }
  const std::map<std::string, double>& counters() const { return counters_; }

  /// Asks the daemon to shut down over the wire (a signal right after the
  /// first pong can land before dse_serve installs its handler), reaps it
  /// with rusage and reads its metrics snapshot. Returns "" on a clean
  /// exit, else what went wrong.
  std::string stop() {
    if (const int fd = connect_unix(socket_); fd >= 0) {
      musa::sweep::LineChannel ch(fd);
      std::string line;
      ch.send("{\"id\":\"stop\",\"op\":\"shutdown\"}");
      ch.read_line(&line);
    } else {
      ::kill(pid_, SIGTERM);
    }
    int status = 0;
    rusage ru{};
    const pid_t got = ::wait4(pid_, &status, 0, &ru);
    pid_ = -1;
    close_output();
    rss_mb_ = static_cast<double>(ru.ru_maxrss) / 1024.0;
    if (got <= 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
      return "dse_serve exited abnormally (status " + std::to_string(status) + ")";
    const JsonValue doc = parse_json_file(metrics_);
    if (const JsonValue* c = doc.find("counters"))
      for (const auto& [name, value] : c->object) counters_[name] = value.number;
    return "";
  }

 private:
  void kill_and_reap() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    pid_ = -1;
    close_output();
  }

  // Kept open while the daemon runs: it prints again when it stops, and a
  // closed pipe would kill it with SIGPIPE.
  void close_output() {
    if (out_ >= 0) ::close(out_);
    out_ = -1;
  }

  static inline int next_serial_ = 0;  // every daemon gets its own socket
  pid_t pid_ = -1;
  int out_ = -1;  // the daemon's standard output
  std::string name_;
  std::string socket_;
  std::string metrics_;
  double setup_s_ = 0.0;
  double rss_mb_ = 0.0;
  std::map<std::string, double> counters_;
};

/// The generator: one thread, `conns` connections, every reply checked
/// against the committed rows. A query fails when a row is wrong or
/// missing, its `cached` flag is not the expected one, or the server
/// answers busy/error/failed instead of done.
class LoadClient {
 public:
  struct Query {
    Clock::time_point due;           // latency starts here
    std::vector<std::string> keys;   // rows the reply must carry
    int want_cached = -1;            // 0/1, or -1 for either
    int conn = 0;
    std::size_t rows = 0;
    bool bad = false;
  };

  LoadClient(const std::string& socket, int conns, const Ctx& ctx, Run& run,
             SpanLog& log, ProbeInputs& wire)
      : ctx_(ctx), run_(run), log_(log), wire_(wire), outstanding_(conns, 0) {
    for (int i = 0; i < conns; ++i) {
      const int fd = connect_unix(socket);
      if (fd < 0)
        throw musa::SimError("cannot connect to " + socket,
                             musa::ErrorClass::kIo);
      channels_.push_back(std::make_unique<musa::sweep::LineChannel>(fd));
    }
  }

  int conns() const { return static_cast<int>(channels_.size()); }
  int outstanding(int conn) const { return outstanding_[conn]; }

  /// Sends one request (`body` = the JSON members after the id).
  void send(int conn, const std::string& body, Query q) {
    std::string id = "q";
    id += std::to_string(next_id_++);
    const std::string line = "{\"id\":\"" + id + "\"," + body + "}";
    const auto now = Clock::now();
    late_ms.push_back(ms(q.due, now));
    ++run_.attempted;
    if (wire_.request_lines.size() < kWireSamples)
      wire_.request_lines.push_back(line);
    q.conn = conn;
    if (!channels_[conn]->send(line)) {
      run_.fail(1, "send failed on connection " + std::to_string(conn));
      return;
    }
    ++outstanding_[conn];
    pending_.emplace(id, std::move(q));
  }

  /// Waits up to `timeout_us` for replies and handles all that arrived.
  void pump(long timeout_us) {
    std::vector<pollfd> fds;
    for (const auto& ch : channels_) fds.push_back({ch->fd(), POLLIN, 0});
    timespec ts{timeout_us / 1000000, (timeout_us % 1000000) * 1000};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      std::vector<std::string> lines;
      channels_[i]->drain(&lines);
      for (const std::string& line : lines) handle(line);
    }
  }

  /// Pumps until every query is answered; unanswered ones are dropped.
  void drain(double timeout_s) {
    const auto t0 = Clock::now();
    while (!pending_.empty() && secs(t0, Clock::now()) < timeout_s) pump(10000);
    if (!pending_.empty())
      run_.fail(pending_.size(), std::to_string(pending_.size()) +
                                     " queries never answered");
    pending_.clear();
  }

  std::vector<double> latency_ms;  // answered queries
  std::vector<double> server_us;   // the done reply's wall_us
  std::vector<double> io_us;       // client latency - wall_us
  std::vector<double> late_ms;     // send time - due time
  std::uint64_t answered = 0;
  Clock::time_point last_done{};

 private:
  void finish(std::unordered_map<std::string, Query>::iterator it) {
    --outstanding_[it->second.conn];
    pending_.erase(it);
  }

  void handle(const std::string& line) {
    const auto now = Clock::now();
    JsonValue v;
    std::string err;
    const JsonValue* id = nullptr;
    if (!musa::serve::parse_json(line, &v, &err) ||
        (id = v.find("id")) == nullptr) {
      run_.fail(1, "unparsable reply: " + line.substr(0, 160));
      return;
    }
    const auto it = pending_.find(id->string);
    if (it == pending_.end()) {
      run_.fail(1, "reply for unknown id: " + line.substr(0, 160));
      return;
    }
    Query& q = it->second;
    if (const JsonValue* row = v.find("row")) {
      const JsonValue* key = v.find("key");
      const JsonValue* cached = v.find("cached");
      const bool key_ok =
          key != nullptr &&
          std::find(q.keys.begin(), q.keys.end(), key->string) != q.keys.end();
      const auto want = key_ok ? ctx_.ref->row_of.find(key->string)
                               : ctx_.ref->row_of.end();
      if (!key_ok || want == ctx_.ref->row_of.end() ||
          want->second != row->string || cached == nullptr ||
          (q.want_cached >= 0 && cached->boolean != (q.want_cached == 1))) {
        if (!q.bad) run_.problems.push_back("wrong row: " + line.substr(0, 160));
        q.bad = true;
      }
      ++q.rows;
      if (wire_.replies.size() < kWireSamples && key != nullptr)
        wire_.replies.push_back(
            {id->string, key->string, row->string, cached && cached->boolean});
      return;
    }
    if (v.find("failed") != nullptr && v.find("done") == nullptr) {
      q.bad = true;  // a quarantined point; its done line follows
      return;
    }
    const JsonValue* done = v.find("done");
    const JsonValue* wall = v.find("wall_us");
    if (done == nullptr || wall == nullptr) {
      run_.fail(1, "unexpected reply: " + line.substr(0, 160));
      finish(it);
      return;
    }
    if (q.bad || q.rows != q.keys.size()) {
      run_.fail(1, "query " + id->string + " answered wrongly");
    } else {
      const double latency = ms(q.due, now);
      latency_ms.push_back(latency);
      server_us.push_back(wall->number);
      io_us.push_back(1e3 * latency - wall->number);
      ++answered;
      last_done = now;
    }
    log_.request("serve.request", q.due, now, id->string);
    finish(it);
  }

  const Ctx& ctx_;
  Run& run_;
  SpanLog& log_;
  ProbeInputs& wire_;
  std::vector<std::unique_ptr<musa::sweep::LineChannel>> channels_;
  std::vector<int> outstanding_;
  std::unordered_map<std::string, Query> pending_;
  std::uint64_t next_id_ = 0;
};

/// Point keys ordered so that every stretch of the order holds the apps in
/// equal shares: each app's keys shuffled by `seed`, then dealt out one app
/// at a time. A point's service time depends on its app far more than on its
/// config (warm-memo medians from ~8 to ~14 ms), so the seed picks which
/// points a step asks for, never its app mix.
std::vector<std::string> balanced_order(const std::vector<std::string>& keys,
                                        std::uint64_t seed) {
  std::map<std::string, std::vector<std::string>> by_app;
  for (const std::string& key : keys) by_app[key_app(key)].push_back(key);
  std::size_t longest = 0;
  std::uint64_t stream = 0;
  for (auto& [app, list] : by_app) {
    musa::Rng rng(seed * 16 + stream++);
    for (std::size_t i = list.size(); i > 1; --i)
      std::swap(list[i - 1], list[rng.next_below(i)]);
    longest = std::max(longest, list.size());
  }
  std::vector<std::string> out;
  for (std::size_t i = 0; i < longest; ++i)
    for (const auto& [app, list] : by_app)
      if (i < list.size()) out.push_back(list[i]);
  return out;
}

/// Open loop: query i is due at t0 + i / rate, sent on connection i mod 4
/// whether or not earlier ones were answered; latency runs from the due
/// time, so a stall also charges the queries queued behind it.
void open_loop(LoadClient& client, const std::vector<std::string>& keys,
               double rate) {
  const auto t0 = Clock::now() + std::chrono::milliseconds(10);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(static_cast<double>(i) / rate));
    for (auto now = Clock::now(); now < due; now = Clock::now())
      client.pump(std::chrono::duration_cast<std::chrono::microseconds>(due - now)
                      .count());
    LoadClient::Query q;
    q.due = due;
    q.keys = {keys[i]};
    q.want_cached = 0;
    client.send(static_cast<int>(i % client.conns()), point_body(keys[i]),
                std::move(q));
  }
  client.drain(60.0);
}

/// Closed loop: each connection keeps `window` requests in flight for
/// `seconds`, or until `limit` requests were sent; `next` makes the next
/// request body and its expected keys. Rows must come back `cached` as
/// `want_cached` says.
template <typename Next>
void closed_loop(LoadClient& client, int window, double seconds, Next next,
                 bool want_cached = true,
                 std::size_t limit = std::numeric_limits<std::size_t>::max()) {
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  std::size_t sent = 0;
  while (Clock::now() < end && sent < limit) {
    for (int c = 0; c < client.conns(); ++c)
      while (client.outstanding(c) < window && sent < limit) {
        LoadClient::Query q;
        q.due = Clock::now();
        q.want_cached = want_cached ? 1 : 0;
        const std::string body = next(q.keys);
        client.send(c, body, std::move(q));
        ++sent;
      }
    client.pump(1000);
  }
  client.drain(30.0);
}

/// Per-layer figures the client measures: time inside the daemon (whole
/// microseconds, as the `done` reply carries it), time outside it, and how
/// late the generator sent.
void client_layers(const LoadClient& client, Run& run) {
  run.per_layer["serve.server_p50_us"] = integer_median(client.server_us);
  run.per_layer["serve.io_p50_us"] = median(client.io_us);
  run.per_layer["gen.late_p99_ms"] = quantile(client.late_ms, 0.99);
}

/// Per-layer figures from the daemons' metrics snapshots and the client.
void server_layers(const std::map<std::string, double>& counters,
                   const LoadClient& client, Run& run) {
  const auto get = [&](const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  };
  run.per_layer["serve.computed"] = get("serve.points.computed");
  run.per_layer["serve.cache_hits"] = get("serve.points.cache_hit");
  run.per_layer["serve.dedup_hits"] = get("serve.points.dedup");
  run.per_layer["serve.busy"] = get("serve.busy");
  for (const char* table : {"stream", "warm", "perfect", "burst"}) {
    const double hits = get(std::string("memo.") + table + ".hits");
    const double misses = get(std::string("memo.") + table + ".misses");
    run.per_layer[std::string("core.memo_hit_rate.") + table] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    run.per_layer[std::string("core.memo_lookups.") + table] = hits + misses;
  }
  client_layers(client, run);
}

/// Plan-build shapes of point requests for `keys` (core.plan_ms probe).
void point_plans(const std::vector<std::string>& keys, std::size_t n,
                 ProbeInputs& in) {
  for (std::size_t i = 0; i < keys.size() && i < n; ++i) {
    core::SweepOptions o;
    o.verbose = false;
    o.apps = {key_app(keys[i])};
    o.configs = {key_config(keys[i])};
    in.plans.push_back(std::move(o));
  }
}

/// Probe inputs of a serve workload: seeded paper-grid configs for the
/// component replay, and rows it was served for the journal probe.
void served_probe_inputs(const Ctx& ctx, ProbeInputs& in) {
  in.configs = draw(core::ConfigSpace::full_space(), 8, ctx.seed * 31 + 7);
  for (std::size_t i = 0; i < in.replies.size() && in.rows.size() < 200; ++i)
    in.rows.emplace_back(in.replies[i].key, split(in.replies[i].row, ','));
}

void stop_or_fail(ServerProc& srv, Run& run) {
  if (const std::string why = srv.stop(); !why.empty()) run.fail(1, why);
}

/// Twelve points per app whose stage-memo entries cover the whole paper
/// grid: every (core preset, vector width) pair — the perfect-memory key —
/// and every (cache, core count) pair — the burst and warm-up keys — once.
std::vector<std::string> memo_cover_keys() {
  const core::SpaceAxes axes = core::SpaceAxes::paper();
  std::vector<std::string> keys;
  for (const auto& app : musa::apps::registry())
    for (int i = 0; i < 12; ++i) {
      std::array<int, core::SpaceAxes::kDims> idx{};
      idx[core::SpaceAxes::kDimCore] = i / 3;
      idx[core::SpaceAxes::kDimVector] = i % 3;
      idx[core::SpaceAxes::kDimCache] = (i % 9) / 3;
      idx[core::SpaceAxes::kDimCores] = i % 3;
      keys.push_back(core::DseEngine::point_key(app.name, axes.config_at(idx)));
    }
  return keys;
}

/// Answers `keys` one point query at a time, filling the daemon's stage
/// memo. Serial on purpose: concurrent misses on one memo key compute it
/// twice, and concurrent fills leave the daemon's peak memory varying from
/// run to run by whole copies of a stage's state.
void warm(const std::string& socket, const std::vector<std::string>& keys,
          const Ctx& ctx, Run& run, SpanLog& log, ProbeInputs& in) {
  Scope span(log, "bench.serve.warm");
  LoadClient client(socket, 1, ctx, run, log, in);
  for (const std::string& key : keys) {
    LoadClient::Query q;
    q.due = Clock::now();
    q.keys = {key};
    client.send(0, point_body(key), std::move(q));
    client.drain(60.0);
  }
  // Warm-up traffic is not a sample of the workload's wire lines.
  in.request_lines.clear();
  in.replies.clear();
}

/// Stage split of served points: the daemon exports no stage times, so
/// `keys` are replayed in-process on one fresh memoized pipeline, each row
/// checked against the committed one. Fills the core.* busy figures.
void replay_stage_split(const std::vector<std::string>& keys,
                        const Reference& ref, Run& run, SpanLog& log) {
  Scope span(log, "bench.replay");
  core::Pipeline pipeline(
      {}, std::make_shared<core::StageMemo>(
              core::pipeline_options_fingerprint(core::PipelineOptions{})));
  const auto t0 = Clock::now();
  double minstr = 0.0;
  for (const std::string& key : keys) {
    const auto& app = musa::apps::find_app(key_app(key));
    const core::SimResult r = pipeline.run(app, key_config(key));
    minstr += static_cast<double>(app.phases().size()) *
              static_cast<double>(pipeline.options().measure_instrs) / 1e6;
    if (join_cells(core::DseEngine::to_row(r)) != ref.row_of.at(key))
      run.fail(1, "in-process replay differs from the reference: " + key);
  }
  const double wall = secs(t0, Clock::now());
  const core::StageTimes& st = pipeline.stage_times();
  set_stage_layers(run, st, minstr, wall > 0 ? st.total_s() / wall : 0.0);
}

/// Leaves the committed rows of `keys` in the journal a daemon started on
/// `cache` serves from, as an earlier daemon that computed them would have.
void seed_cache(const std::string& cache, const std::vector<std::string>& keys,
                const Reference& ref) {
  musa::ResultJournal journal(cache + ".journal", core::DseEngine::csv_header());
  for (const std::string& key : keys)
    journal.append(key, split(ref.row_of.at(key), ','));
}

}  // namespace

// ----------------------------------------------------------------- serve_cold

double serve_cold(const Ctx& ctx, bool traced, Run& run, SpanLog& log,
                  ProbeInputs& in) {
  ServerProc srv(ctx, ctx.work + "/cold.csv", log);
  std::vector<double> setups = {srv.setup_s()};
  // Memo warm, result cache empty: every measured query is a distinct
  // point outside the warm-up set, so each is a fresh simulation no cache
  // entry can answer — a long-running server meeting new design points.
  const std::vector<std::string> cover = memo_cover_keys();
  warm(srv.socket(), cover, ctx, run, log, in);
  std::vector<std::string> fresh;
  for (const std::string& key : ctx.ref->keys)
    if (std::find(cover.begin(), cover.end(), key) == cover.end())
      fresh.push_back(key);
  const std::vector<std::string> keys = balanced_order(fresh, ctx.seed);
  // A short light step (its median needs ~100 samples), a long heavy one
  // (1400 samples at 20 s, so 14 lie beyond its p99), then the capacity
  // step on the keys left.
  const double light_s = ctx.seconds * kColdLightShare;
  const double capacity_s = ctx.seconds * kColdCapacityShare;
  const double heavy_s = ctx.seconds - light_s - capacity_s;
  const auto n_light = std::min<std::size_t>(
      keys.size() / 8, static_cast<std::size_t>(kColdLightRate * light_s));
  const auto n_heavy = std::min<std::size_t>(
      keys.size() / 2, static_cast<std::size_t>(kColdHeavyRate * heavy_s));
  const std::vector<std::string> light_keys(keys.begin(),
                                            keys.begin() + n_light);
  const std::vector<std::string> heavy_keys(
      keys.begin() + n_light, keys.begin() + n_light + n_heavy);
  const std::vector<std::string> capacity_keys(
      keys.begin() + n_light + n_heavy, keys.end());

  LoadClient light(srv.socket(), kConnections, ctx, run, log, in);
  {
    Scope span(log, "bench.serve.light");
    open_loop(light, light_keys, kColdLightRate);
  }
  LoadClient heavy(srv.socket(), kConnections, ctx, run, log, in);
  {
    Scope span(log, "bench.serve.heavy");
    open_loop(heavy, heavy_keys, kColdHeavyRate);
  }
  // Capacity: the highest rate the daemon sustains with a bounded backlog.
  // An open loop at a fixed rate only reads back its own rate.
  LoadClient capacity(srv.socket(), kConnections, ctx, run, log, in);
  std::size_t next_key = 0;
  const auto t0 = Clock::now();
  {
    Scope span(log, "bench.serve.capacity");
    closed_loop(
        capacity, kCapacityWindow, capacity_s,
        [&](std::vector<std::string>& want) {
          const std::string& key = capacity_keys[next_key++];
          want = {key};
          return point_body(key);
        },
        /*want_cached=*/false, capacity_keys.size());
  }
  const double throughput = static_cast<double>(capacity.answered) /
                            std::max(1e-9, secs(t0, capacity.last_done));
  stop_or_fail(srv, run);
  for (int i = 0; i < static_cast<int>(ctx.size(kExtraSetups, 2)); ++i) {
    const PinnedTo pin(i);  // the daemon inherits it; it only answers a ping
    ServerProc extra(ctx, ctx.work + "/setup-" + std::to_string(i) + ".csv", log);
    setups.push_back(extra.setup_s());
    stop_or_fail(extra, run);
  }
  std::vector<double> late = light.late_ms;
  late.insert(late.end(), heavy.late_ms.begin(), heavy.late_ms.end());
  if (quantile(late, 0.99) > 5.0)
    std::fprintf(stderr,
                 "musa_bench: warning: generator p99 lateness %.2f ms > 5 ms; "
                 "this run's latencies are suspect\n",
                 quantile(late, 0.99));

  if (traced) {
    server_layers(srv.counters(), heavy, run);
    served_probe_inputs(ctx, in);
    point_plans(heavy_keys, 256, in);
    replay_stage_split(draw(heavy_keys, ctx.size(kReplayPoints, 16), ctx.seed * 43 + 5),
                       *ctx.ref, run, log);
    return quantile(heavy.latency_ms, 0.50);
  }
  run.end_to_end["throughput"] = throughput;
  run.end_to_end["p50_ms"] = quantile(heavy.latency_ms, 0.50);
  run.end_to_end["p99_ms"] = quantile(heavy.latency_ms, 0.99);
  run.end_to_end["light_p50_ms"] = quantile(light.latency_ms, 0.50);
  run.end_to_end["peak_rss_mb"] = srv.peak_rss_mb();
  run.end_to_end["setup_s"] = median(setups);
  return quantile(heavy.latency_ms, 0.50);
}

// --------------------------------------------------------------- serve_cached

double serve_cached(const Ctx& ctx, bool traced, Run& run, SpanLog& log,
                    ProbeInputs& in) {
  // The warm box: every app at 2.0 GHz, 32 and 64 cores (720 points). The
  // daemon starts on a cache that already holds it, so it never simulates
  // and its memory does not depend on how its threads shared a fill.
  std::vector<std::string> warm_keys;
  for (const std::string& key : ctx.ref->keys) {
    const core::MachineConfig c = key_config(key);
    if (c.freq_ghz == 2.0 && (c.cores == 32 || c.cores == 64) &&
        (!ctx.smoke || key_app(key) == "hydro"))
      warm_keys.push_back(key);
  }
  const std::string cache = ctx.work + "/cached.csv";
  seed_cache(cache, warm_keys, *ctx.ref);
  ServerProc srv(ctx, cache, log);
  std::vector<double> setups = {srv.setup_s()};
  // 18-point sub-boxes: one app, core preset and core count of the box.
  struct SubBox {
    std::string body;
    std::vector<std::string> keys;
  };
  std::map<std::string, SubBox> boxes;
  for (const std::string& key : warm_keys) {
    const core::MachineConfig c = key_config(key);
    const std::string cores = std::to_string(c.cores) + "c";
    SubBox& box = boxes[key_app(key) + "|" + c.core.label + "|" + cores];
    box.keys.push_back(key);
    box.body = "\"op\":\"space\",\"app\":\"" + key_app(key) +
               "\",\"where\":{\"core\":[\"" + c.core.label +
               "\"],\"freq\":[\"2.0GHz\"],\"cores\":[\"" + cores + "\"]}";
  }
  std::vector<const SubBox*> box_list;
  for (const auto& [name, box] : boxes) box_list.push_back(&box);

  musa::Rng rng(ctx.seed);
  const auto point = [&](std::vector<std::string>& keys) {
    const std::string& key = warm_keys[rng.next_below(warm_keys.size())];
    keys = {key};
    return point_body(key);
  };
  const auto mixed = [&](std::vector<std::string>& keys) {
    if (rng.next_double() >= kSpaceShare) return point(keys);
    const SubBox& box = *box_list[rng.next_below(box_list.size())];
    keys = box.keys;
    return box.body;
  };

  // One query in flight, the generator moved over every CPU in turn: this
  // round trip is three thread wake-ups, whose cost depends on where the
  // threads sit, so one placement would read the host, not the program.
  LoadClient light(srv.socket(), 1, ctx, run, log, in);
  {
    Scope span(log, "bench.serve.light");
    for (int i = 0; i < kLightSlices; ++i) {
      const PinnedTo pin(i);
      closed_loop(light, 1, ctx.seconds * 0.2 / kLightSlices, point);
    }
  }
  LoadClient main_client(srv.socket(), kConnections, ctx, run, log, in);
  const auto t0 = Clock::now();
  {
    Scope span(log, "bench.serve.closed_loop");
    closed_loop(main_client, kCachedWindow, ctx.seconds * 0.8, mixed);
  }
  const double qps = static_cast<double>(main_client.answered) /
                     std::max(1e-9, secs(t0, main_client.last_done));
  stop_or_fail(srv, run);
  for (int i = 0; i < static_cast<int>(ctx.size(kExtraSetups, 2)); ++i) {
    const PinnedTo pin(i);  // the daemon inherits it; it only answers a ping
    ServerProc extra(ctx, cache, log);
    setups.push_back(extra.setup_s());
    stop_or_fail(extra, run);
  }

  if (traced) {
    server_layers(srv.counters(), main_client, run);
    served_probe_inputs(ctx, in);
    // Plan shapes in the request mix: 19 point requests per space request.
    point_plans(draw(warm_keys, 19, ctx.seed * 47 + 1), 19, in);
    core::SweepOptions space;
    space.verbose = false;
    space.apps = {key_app(warm_keys.front())};
    space.axes = core::SpaceAxes::paper();
    space.axes->core_presets = {key_config(warm_keys.front()).core};
    space.axes->freqs_ghz = {2.0};
    space.axes->core_counts = {32};
    in.plans.push_back(std::move(space));
    return 1.0 / qps;
  }
  run.end_to_end["throughput"] = qps;
  run.end_to_end["p50_ms"] = quantile(main_client.latency_ms, 0.50);
  run.end_to_end["p99_ms"] = quantile(main_client.latency_ms, 0.99);
  run.end_to_end["light_p50_ms"] = quantile(light.latency_ms, 0.50);
  run.end_to_end["peak_rss_mb"] = srv.peak_rss_mb();
  run.end_to_end["setup_s"] = median(setups);
  return 1.0 / qps;
}

// --------------------------------------------------------------- layer probes

void probe_stages(const Ctx& ctx, Run& run, SpanLog& log) {
  replay_stage_split(draw(ctx.ref->keys, ctx.size(kProbePoints, 5), ctx.seed * 67 + 1),
                     *ctx.ref, run, log);
}

void probe_serve(const Ctx& ctx, Run& run, SpanLog& log) {
  Scope span(log, "probe.serve");
  ServerProc srv(ctx, ctx.work + "/probe-serve.csv", log);
  ProbeInputs lines;  // the probe's wire lines are not the workload's
  LoadClient client(srv.socket(), 1, ctx, run, log, lines);
  open_loop(client, draw(ctx.ref->keys, ctx.size(kProbePoints, 5), ctx.seed * 71 + 2),
            kProbeRate);
  stop_or_fail(srv, run);
  client_layers(client, run);
}

}  // namespace bench
