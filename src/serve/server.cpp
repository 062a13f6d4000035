#include "serve/server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/fsio.hpp"
#include "common/journal.hpp"
#include "common/parallel.hpp"
#include "core/dse.hpp"
#include "core/point_runner.hpp"
#include "core/scheduler.hpp"
#include "obs/metrics.hpp"
#include "serve/wire.hpp"
#include "sweep/protocol.hpp"
#include "verify/faultpoint.hpp"

#ifndef _WIN32
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#endif

namespace musa::serve {

namespace {

obs::Counter& m_requests() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("serve.requests");
  return c;
}
obs::Counter& m_busy() {
  static obs::Counter& c = obs::MetricRegistry::global().counter("serve.busy");
  return c;
}
obs::Counter& m_errors() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("serve.errors");
  return c;
}
obs::Counter& m_computed() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("serve.points.computed");
  return c;
}
obs::Counter& m_cache_hits() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("serve.points.cache_hit");
  return c;
}
obs::Counter& m_dedup() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("serve.points.dedup");
  return c;
}
obs::Gauge& m_queue_points() {
  static obs::Gauge& g =
      obs::MetricRegistry::global().gauge("serve.queue.points");
  return g;
}
obs::Histogram& m_request_us() {
  static obs::Histogram& h =
      obs::MetricRegistry::global().histogram("serve.request.us");
  return h;
}

std::string join_cells(const std::vector<std::string>& cells) {
  std::string out;
  for (const auto& c : cells) {
    if (!out.empty()) out += ',';
    out += c;
  }
  return out;
}

}  // namespace

#ifndef _WIN32

struct DseServer::Impl {
  explicit Impl(ServeOptions opts) : options(std::move(opts)) {}

  // ---- connection state -------------------------------------------------

  struct Job;

  /// One connected client. Sends are serialised against close by `mu` so a
  /// compute thread finishing a point cannot race the I/O thread reaping
  /// the connection.
  struct Client {
    explicit Client(int fd) : ch(fd) {}
    sweep::LineChannel ch;
    std::mutex mu;
    bool closed = false;
    std::vector<std::weak_ptr<Job>> jobs;  // admitted; I/O thread only

    bool send(const std::string& line) {
      std::lock_guard<std::mutex> lock(mu);
      if (closed) return false;
      return ch.send(line);
    }
    void shut() {
      std::lock_guard<std::mutex> lock(mu);
      closed = true;
      ch.close();
    }
  };
  using ClientPtr = std::shared_ptr<Client>;

  /// One admitted request. Owns its plan/options because PointRunner keeps
  /// references into them; the Job itself is kept alive by shared_ptrs in
  /// its scheduler job, running points, and the in-flight waiter lists.
  struct Job {
    ClientPtr client;
    std::string id;
    core::SweepOptions sweep;
    core::SweepPlan plan;
    std::unique_ptr<core::PointRunner> runner;
    core::PointScheduler::JobHandle scheduled;  // I/O thread only
    std::uint64_t skipped = 0;  // statically pruned grid points
    int stall_ms = 0;           // babble fault: first point sleeps first
    std::atomic<std::uint64_t> remaining{0};  // point replies still owed
    std::atomic<std::uint64_t> failed{0};
    std::chrono::steady_clock::time_point t0;
  };
  using JobPtr = std::shared_ptr<Job>;

  // ---- immutable after start() ------------------------------------------

  ServeOptions options;
  std::uint64_t fingerprint = 0;
  int unix_fd = -1;
  int tcp_fd = -1;
  int bound_tcp_port = -1;
  int wake_r = -1, wake_w = -1;
  std::unique_ptr<ResultJournal> journal;

  std::unique_ptr<core::PointScheduler> scheduler;
  std::thread io;
  bool one_connection = false;  // start(fd): stop when that client leaves
  bool started = false;
  bool joined = false;

  // In-flight dedup: key → jobs waiting for the computation another worker
  // already started. Guarded by inflight_mu.
  std::mutex inflight_mu;
  std::unordered_map<std::string, std::vector<JobPtr>> inflight;

  std::atomic<bool> stop_requested{false};

  // ---- clients (I/O thread only) ----------------------------------------

  std::vector<ClientPtr> clients;

  // ---- stats ------------------------------------------------------------

  std::atomic<std::uint64_t> s_requests{0}, s_busy{0}, s_errors{0},
      s_computed{0}, s_cache_hits{0}, s_dedup{0}, s_failed{0}, s_done{0},
      s_clients{0}, s_babbling{0}, s_invalidated{0};
  std::atomic<std::uint64_t> cached_points{0};

  // ---- startup ----------------------------------------------------------

  void open_cache() {
    fingerprint = core::pipeline_options_fingerprint(options.pipeline);
    const std::string fp_path = options.cache_path + ".fp";
    const std::string want = fingerprint_hex(fingerprint);
    std::string prev = read_file_from(fp_path, 0);
    while (!prev.empty() && (prev.back() == '\n' || prev.back() == '\r'))
      prev.pop_back();
    if (!prev.empty() && prev != want) {
      // The cache was computed under different pipeline options: rows in
      // it answer a different model. Discard every journal belonging to
      // the artifact rather than serve stale bytes.
      for (const auto& stale : find_journals(options.cache_path))
        std::remove(stale.c_str());
      s_invalidated.store(1);
      if (options.verbose)
        std::fprintf(stderr,
                     "[serve] cache fingerprint %s != %s — discarded\n",
                     prev.c_str(), want.c_str());
    }
    atomic_write_file(fp_path, want + "\n");
    journal = std::make_unique<ResultJournal>(options.cache_path + ".journal",
                                              core::DseEngine::csv_header());
    verify::arm_journal_corruption(*journal);
    cached_points.store(journal->size());
  }

  static void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }

  void open_listeners() {
    if (!options.socket_path.empty()) {
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      if (options.socket_path.size() >= sizeof addr.sun_path)
        throw SimError("serve: socket path too long: " + options.socket_path,
                       ErrorClass::kConfig);
      std::memcpy(addr.sun_path, options.socket_path.c_str(),
                  options.socket_path.size() + 1);
      unix_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (unix_fd < 0)
        throw SimError("serve: socket(AF_UNIX) failed", ErrorClass::kIo);
      ::unlink(options.socket_path.c_str());  // stale socket from a crash
      if (::bind(unix_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
              0 ||
          ::listen(unix_fd, 128) < 0)
        throw SimError("serve: cannot listen on " + options.socket_path,
                       ErrorClass::kIo);
      set_nonblocking(unix_fd);
    }
    if (options.tcp_port >= 0) {
      tcp_fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (tcp_fd < 0)
        throw SimError("serve: socket(AF_INET) failed", ErrorClass::kIo);
      const int one = 1;
      ::setsockopt(tcp_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(options.tcp_port));
      if (::bind(tcp_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
              0 ||
          ::listen(tcp_fd, 128) < 0)
        throw SimError("serve: cannot listen on 127.0.0.1:" +
                           std::to_string(options.tcp_port),
                       ErrorClass::kIo);
      sockaddr_in bound{};
      socklen_t len = sizeof bound;
      ::getsockname(tcp_fd, reinterpret_cast<sockaddr*>(&bound), &len);
      bound_tcp_port = static_cast<int>(ntohs(bound.sin_port));
      set_nonblocking(tcp_fd);
    }
    if (unix_fd < 0 && tcp_fd < 0)
      throw SimError("serve: no listener configured (socket_path/tcp_port)",
                     ErrorClass::kConfig);
  }

  void open_wake_pipe() {
    int pipefd[2];
    if (::pipe(pipefd) < 0)
      throw SimError("serve: pipe failed", ErrorClass::kIo);
    wake_r = pipefd[0];
    wake_w = pipefd[1];
    set_nonblocking(wake_r);
    set_nonblocking(wake_w);
  }

  // ---- admission (I/O thread) -------------------------------------------

  /// Restricts `axes` to the value names in `where`; every name must match
  /// an axis entry. Throws SimError(kConfig) on an unknown name.
  static core::SpaceAxes filter_axes(
      core::SpaceAxes axes,
      const std::array<std::vector<std::string>,
                       core::SpaceAxes::kDims>& where) {
    for (int d = 0; d < core::SpaceAxes::kDims; ++d) {
      const auto& names = where[static_cast<std::size_t>(d)];
      if (names.empty()) continue;
      std::vector<int> keep;
      for (const auto& name : names) {
        bool found = false;
        for (int i = 0; i < axes.dim_size(d); ++i) {
          if (axes.value_name(d, i) != name) continue;
          if (std::find(keep.begin(), keep.end(), i) == keep.end())
            keep.push_back(i);
          found = true;
          break;
        }
        if (!found)
          throw SimError("unknown value \"" + name + "\" for dimension \"" +
                             core::SpaceAxes::dim_name(d) + "\"",
                         ErrorClass::kConfig);
      }
      std::sort(keep.begin(), keep.end());  // preserve axis enumeration order
      const auto select = [&keep](auto& axis) {
        auto out = axis;
        out.clear();
        for (const int i : keep)
          out.push_back(axis[static_cast<std::size_t>(i)]);
        axis = std::move(out);
      };
      switch (d) {
        case core::SpaceAxes::kDimCore: select(axes.core_presets); break;
        case core::SpaceAxes::kDimCache: select(axes.cache_labels); break;
        case core::SpaceAxes::kDimFreq: select(axes.freqs_ghz); break;
        case core::SpaceAxes::kDimVector: select(axes.vector_bits); break;
        case core::SpaceAxes::kDimChannels: select(axes.mem_channels); break;
        case core::SpaceAxes::kDimTech: select(axes.mem_techs); break;
        case core::SpaceAxes::kDimCores: select(axes.core_counts); break;
        default: select(axes.rank_counts); break;
      }
    }
    return axes;
  }

  void handle_request(const ClientPtr& client, const std::string& line) {
    s_requests.fetch_add(1);
    m_requests().add();
    Request req;
    std::string error;
    if (!parse_request(line, &req, &error)) {
      s_errors.fetch_add(1);
      m_errors().add();
      client->send(reply_error(req.id, error));
      return;
    }
    switch (req.op) {
      case Request::Op::kPing:
        client->send(reply_pong(req.id, fingerprint, cached_points.load()));
        return;
      case Request::Op::kShutdown:
        if (!options.allow_shutdown) {
          s_errors.fetch_add(1);
          m_errors().add();
          client->send(reply_error(req.id, "shutdown disabled"));
          return;
        }
        client->send(reply_ok(req.id));
        request_stop();
        return;
      case Request::Op::kPoint:
      case Request::Op::kSpace:
        break;
    }
    if (req.has_fingerprint && req.fingerprint != fingerprint) {
      s_errors.fetch_add(1);
      m_errors().add();
      client->send(reply_error(
          req.id, "pipeline fingerprint mismatch: server has " +
                      fingerprint_hex(fingerprint)));
      return;
    }

    auto job = std::make_shared<Job>();
    job->client = client;
    job->id = req.id;
    job->t0 = std::chrono::steady_clock::now();
    job->sweep = options.sweep;
    job->sweep.verbose = false;
    job->sweep.fail_fast = false;
    job->sweep.apps = {req.app};

    // Process-level chaos (verify/faultpoint.hpp), keyed by request id: an
    // elastic controller tags every point of chunk c "chunk-<c>", so the
    // verdict is the chunk's whichever worker serves it, and fires once
    // per process.
    const verify::ProcessFault fault =
        verify::process_fault("worker.chunk", req.id);
    switch (fault.action) {
      case verify::ProcessFault::Action::kKill:
        ::kill(::getpid(), SIGKILL);
        break;
      case verify::ProcessFault::Action::kHang:
        // The I/O thread stalls: no request is read and no ping answered,
        // so the server looks exactly like a deadlocked one.
        std::this_thread::sleep_for(std::chrono::milliseconds(fault.delay_ms));
        break;
      case verify::ProcessFault::Action::kBabble:
        // Pings keep being answered while the first point stalls.
        job->stall_ms = fault.delay_ms;
        break;
      case verify::ProcessFault::Action::kNone:
        break;
    }
    try {
      if (req.op == Request::Op::kPoint) {
        job->sweep.configs = {core::MachineConfig::parse_id(req.config_id)};
      } else {
        const core::SpaceAxes base = req.base == "extended"
                                         ? core::SpaceAxes::extended()
                                         : core::SpaceAxes::paper();
        job->sweep.axes = filter_axes(base, req.where);
      }
      // Unknown app, malformed config id, a config failing the lint, or the
      // static analyzer choking on the sub-box all surface here — before
      // any queue slot is consumed.
      job->plan = core::make_sweep_plan(job->sweep);
    } catch (const SimError& e) {
      s_errors.fetch_add(1);
      m_errors().add();
      client->send(reply_error(req.id, e.what()));
      return;
    }
    job->skipped = job->plan.statically_skipped;
    job->runner = std::make_unique<core::PointRunner>(job->plan, job->sweep);
    job->remaining.store(job->plan.size());

    if (job->plan.size() == 0) {
      // Everything the request named was statically infeasible (or the box
      // was empty): answer immediately, no queue slot consumed.
      finish_job(*job);
      return;
    }
    if (job->plan.size() > options.max_queue_points) {
      s_errors.fetch_add(1);
      m_errors().add();
      client->send(reply_error(
          req.id, "request of " + std::to_string(job->plan.size()) +
                      " points exceeds queue capacity of " +
                      std::to_string(options.max_queue_points)));
      return;
    }
    job->scheduled = scheduler->submit(
        job->plan.size(), req.priority,
        [this, job](core::Pipeline& pipeline, std::uint64_t idx) {
          process_point(pipeline, job, idx);
        });
    if (!job->scheduled) {
      s_busy.fetch_add(1);
      m_busy().add();
      client->send(reply_busy(req.id));
      return;
    }
    std::erase_if(client->jobs, [](const std::weak_ptr<Job>& j) {
      return j.expired();
    });
    client->jobs.push_back(job);
  }

  // ---- I/O thread -------------------------------------------------------

  void accept_on(int listen_fd) {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;  // EAGAIN / transient — poll will call us again
      s_clients.fetch_add(1);
      if (static_cast<int>(clients.size()) >= options.max_clients) {
        sweep::LineChannel refuse(fd);
        refuse.send(reply_error("", "server full"));
        continue;  // destructor closes
      }
      clients.push_back(std::make_shared<Client>(fd));
    }
  }

  /// Closes the connection and cancels its jobs: their undispatched points
  /// are answered as finished; running ones complete, unsent.
  void drop_client(const ClientPtr& client) {
    client->shut();
    for (const auto& weak : client->jobs)
      if (const JobPtr job = weak.lock())
        if (const std::uint64_t n = scheduler->cancel(job->scheduled))
          finish_points(*job, n);
  }

  void io_main() {
    std::vector<pollfd> fds;
    while (!stop_requested.load()) {
      fds.clear();
      fds.push_back({wake_r, POLLIN, 0});
      if (unix_fd >= 0) fds.push_back({unix_fd, POLLIN, 0});
      if (tcp_fd >= 0) fds.push_back({tcp_fd, POLLIN, 0});
      const std::size_t first_client = fds.size();
      const std::size_t n_clients = clients.size();
      for (const auto& c : clients) fds.push_back({c->ch.fd(), POLLIN, 0});

      if (::poll(fds.data(), fds.size(), 500) < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (stop_requested.load()) break;

      std::size_t at = 0;
      if ((fds[at++].revents & POLLIN) != 0) {
        char buf[64];
        while (::read(wake_r, buf, sizeof buf) > 0) {
        }
        if (stop_requested.load()) break;
      }
      if (unix_fd >= 0 && (fds[at++].revents & POLLIN) != 0)
        accept_on(unix_fd);
      if (tcp_fd >= 0 && (fds[at++].revents & POLLIN) != 0) accept_on(tcp_fd);

      bool reap = false;
      for (std::size_t i = 0; i < n_clients; ++i) {
        const short ev = fds[first_client + i].revents;
        if ((ev & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const ClientPtr& c = clients[i];
        std::vector<std::string> lines;
        const bool alive = c->ch.drain(&lines);
        for (const auto& line : lines) {
          if (line.empty()) continue;
          handle_request(c, line);
        }
        if (!alive) {
          if (c->ch.babbling()) s_babbling.fetch_add(1);
          drop_client(c);
          reap = true;
        }
        if (stop_requested.load()) break;
      }
      if (reap) {
        clients.erase(std::remove_if(clients.begin(), clients.end(),
                                     [](const ClientPtr& c) {
                                       return c->ch.fd() < 0;
                                     }),
                      clients.end());
        if (one_connection) request_stop();
      }
    }
    for (const auto& c : clients) drop_client(c);
    clients.clear();
  }

  // ---- compute (scheduler threads) ---------------------------------------

  /// Accounts `n` answered points against `job`; the last one triggers the
  /// final `done` line and the request-latency observation.
  void finish_points(Job& job, std::uint64_t n) {
    if (job.remaining.fetch_sub(n) != n) return;
    finish_job(job);
  }

  void finish_job(Job& job) {
    const auto wall = std::chrono::steady_clock::now() - job.t0;
    const auto wall_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(wall).count());
    s_done.fetch_add(1);
    m_request_us().observe(wall_us);
    const std::uint64_t failed = job.failed.load();
    job.client->send(reply_done(job.id, job.plan.size() - failed,
                                job.skipped, failed, wall_us));
  }

  void send_point_reply(Job& job, const std::string& key,
                        const std::string& row, const std::string& fail_class,
                        bool ok, bool cached) {
    // A dropped client's sends are no-ops: its running points finish unsent.
    if (ok) {
      job.client->send(reply_result(job.id, key, row, cached));
    } else {
      job.failed.fetch_add(1);
      if (job.client->send(reply_failed(job.id, key, fail_class)))
        s_failed.fetch_add(1);
    }
    finish_points(job, 1);
  }

  void process_point(core::Pipeline& pipeline, const JobPtr& job,
                     std::uint64_t idx) {
    const std::string& key = job->plan.keys[idx];
    if (idx == 0 && job->stall_ms > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(job->stall_ms));

    // Cache first: a key the journal already answers — good row or
    // quarantine (unless retry_failed) — costs a map lookup, never a
    // simulation.
    std::vector<std::string> cells;
    if (journal->find_row(key, &cells)) {
      s_cache_hits.fetch_add(1);
      m_cache_hits().add();
      send_point_reply(*job, key, join_cells(cells), "", true, true);
      return;
    }
    ResultJournal::FailRecord fail;
    if (!options.sweep.retry_failed && journal->find_fail(key, &fail)) {
      s_cache_hits.fetch_add(1);
      m_cache_hits().add();
      send_point_reply(*job, key, "", fail.error_class, false, true);
      return;
    }

    // In-flight dedup: if another worker is already simulating this key,
    // enlist as a waiter — it will deliver our reply with its own.
    {
      std::lock_guard<std::mutex> lock(inflight_mu);
      auto it = inflight.find(key);
      if (it != inflight.end()) {
        it->second.push_back(job);
        s_dedup.fetch_add(1);
        m_dedup().add();
        return;
      }
      inflight.emplace(key, std::vector<JobPtr>{});
    }

    // Compute through the shared containment executor: journals the row
    // (or the FAIL record) exactly as a batch sweep would — byte-identical
    // cache artifacts whichever way a point was first asked for.
    core::SimResult slot;
    const bool ok = job->runner->run(pipeline, idx, journal.get(), &slot);
    std::string row, fail_class;
    if (ok) {
      row = join_cells(core::DseEngine::to_row(slot));
      cached_points.fetch_add(1);
      s_computed.fetch_add(1);
      m_computed().add();
    } else {
      fail_class = journal->find_fail(key, &fail) ? fail.error_class
                                                  : "model";
    }

    std::vector<JobPtr> waiters;
    {
      std::lock_guard<std::mutex> lock(inflight_mu);
      auto it = inflight.find(key);
      if (it != inflight.end()) {
        waiters = std::move(it->second);
        inflight.erase(it);
      }
    }
    send_point_reply(*job, key, row, fail_class, ok, /*cached=*/false);
    for (const auto& w : waiters)
      send_point_reply(*w, key, row, fail_class, ok, /*cached=*/true);
  }

  // ---- lifecycle ---------------------------------------------------------

  /// `fd` < 0: listen as configured; else serve that one connection.
  void start(int fd) {
    MUSA_CHECK_MSG(!started, "serve: start() called twice");
    // Only the policy of options.sweep applies; each request names its
    // own points (and each job copies the policy).
    options.sweep.configs.clear();
    options.sweep.axes.reset();
    open_cache();
    if (fd < 0) {
      open_listeners();
    } else {
      one_connection = true;
      clients.push_back(std::make_shared<Client>(fd));
    }
    open_wake_pipe();
    scheduler = std::make_unique<core::PointScheduler>(
        options.threads > 0 ? options.threads : default_thread_count(),
        options.pipeline,
        options.sweep.memoize ? std::make_shared<core::StageMemo>(fingerprint)
                              : nullptr,
        options.max_queue_points, &m_queue_points());
    io = std::thread([this] { io_main(); });
    started = true;
    if (options.verbose) {
      if (unix_fd >= 0)
        std::fprintf(stderr, "[serve] listening on %s\n",
                     options.socket_path.c_str());
      if (tcp_fd >= 0)
        std::fprintf(stderr, "[serve] listening on 127.0.0.1:%d\n",
                     bound_tcp_port);
    }
  }

  void request_stop() {
    stop_requested.store(true);
    if (wake_w >= 0) {
      const char b = 'x';
      [[maybe_unused]] const ssize_t n = ::write(wake_w, &b, 1);
    }
  }

  void stop() {
    if (!started || joined) return;
    request_stop();
    if (io.joinable()) io.join();  // its exit cancelled every client's jobs
    scheduler.reset();
    if (unix_fd >= 0) ::close(unix_fd);
    if (tcp_fd >= 0) ::close(tcp_fd);
    if (wake_r >= 0) ::close(wake_r);
    if (wake_w >= 0) ::close(wake_w);
    unix_fd = tcp_fd = wake_r = wake_w = -1;
    if (!options.socket_path.empty())
      ::unlink(options.socket_path.c_str());
    joined = true;
  }

  void wait() {
    // Polled: a request_stop() from a signal handler cannot safely notify.
    // The short period keeps an elastic worker's exit prompt.
    while (!stop_requested.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
};

bool DseServer::supported() { return true; }

#else  // _WIN32: no AF_UNIX/poll machinery — construction works, start throws

struct DseServer::Impl {
  explicit Impl(ServeOptions opts) : options(std::move(opts)) {}
  ServeOptions options;
  std::uint64_t fingerprint = 0;
  int bound_tcp_port = -1;
  std::atomic<std::uint64_t> s_requests{0}, s_busy{0}, s_errors{0},
      s_computed{0}, s_cache_hits{0}, s_dedup{0}, s_failed{0}, s_done{0},
      s_clients{0}, s_babbling{0}, s_invalidated{0};
  std::atomic<bool> stop_requested{false};
  void start(int) {
    throw SimError("serve: not supported on this platform",
                   ErrorClass::kConfig);
  }
  void stop() {}
  void wait() {}
  void request_stop() { stop_requested.store(true); }
};

bool DseServer::supported() { return false; }

#endif

DseServer::DseServer(ServeOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

DseServer::~DseServer() { impl_->stop(); }

void DseServer::start() { impl_->start(-1); }
void DseServer::start(int fd) { impl_->start(fd); }
void DseServer::wait() { impl_->wait(); }
void DseServer::request_stop() { impl_->request_stop(); }
void DseServer::stop() { impl_->stop(); }

bool DseServer::stopping() const { return impl_->stop_requested.load(); }

int DseServer::tcp_port() const { return impl_->bound_tcp_port; }

std::uint64_t DseServer::fingerprint() const { return impl_->fingerprint; }

ServeStats DseServer::stats() const {
  ServeStats s;
  s.requests = impl_->s_requests.load();
  s.busy = impl_->s_busy.load();
  s.errors = impl_->s_errors.load();
  s.computed = impl_->s_computed.load();
  s.cache_hits = impl_->s_cache_hits.load();
  s.dedup_hits = impl_->s_dedup.load();
  s.failed = impl_->s_failed.load();
  s.done = impl_->s_done.load();
  s.clients = impl_->s_clients.load();
  s.babbling = impl_->s_babbling.load();
  s.invalidated = impl_->s_invalidated.load();
  return s;
}

}  // namespace musa::serve
