#include "sweep/controller.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/check.hpp"
#include "common/journal.hpp"
#include "common/progress.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "serve/wire.hpp"
#include "sweep/protocol.hpp"
#include "sweep/worker.hpp"

#ifndef _WIN32
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace musa::sweep {

bool elastic_supported() {
#ifndef _WIN32
  return true;
#else
  return false;
#endif
}

ElasticController::ElasticController(core::Pipeline& pipeline,
                                     std::string cache_path,
                                     core::SweepOptions sweep,
                                     ElasticOptions elastic)
    : pipeline_(pipeline),
      cache_path_(std::move(cache_path)),
      sweep_(std::move(sweep)),
      elastic_(std::move(elastic)) {
  MUSA_CHECK_MSG(!cache_path_.empty(),
                 "elastic sweeps need a cache path: worker results travel "
                 "through its journals");
  MUSA_CHECK_MSG(elastic_.workers >= 1, "need at least one worker");
  MUSA_CHECK_MSG(elastic_.lease_points >= 1, "lease chunks need >= 1 point");
  MUSA_CHECK_MSG(elastic_.heartbeat_s > 0.0, "heartbeat interval must be > 0");
  MUSA_CHECK_MSG(!sweep_.fail_fast,
                 "elastic sweeps contain failures as FAIL rows: fail_fast "
                 "is unsupported");
}

std::string ElasticController::lease_log_path(const std::string& cache_path) {
  return cache_path + ".leases";
}

ElasticReport ElasticController::run() {
  ElasticReport rep;
  core::DseEngine engine(pipeline_, cache_path_, sweep_);
  rep.sweep = engine.sweep(/*force=*/false, executor(&rep));
  return rep;
}

#ifndef _WIN32

namespace {

/// Lease events are rare (per revocation, respawn, fallback), so the
/// registry lookup per event costs nothing worth caching.
void bump(const char* counter) {
  obs::MetricRegistry::global().counter(counter).add();
}
void set_live_workers(std::size_t n) {
  obs::MetricRegistry::global().gauge("sweep.workers.live").set(
      static_cast<double>(n));
}

/// One forked worker from the controller's side of the fence.
struct WorkerProc {
  enum class State { kStarting, kIdle, kLeased };

  int id = 0;  // spawn id: unique across respawns
  pid_t pid = -1;
  std::unique_ptr<LineChannel> channel;
  std::unique_ptr<JournalTailer> tailer;
  State state = State::kStarting;  // kStarting until its first reply
  int chunk = -1;  // chunk we believe it is computing (even when revoked)
  std::uint64_t owed = 0;  // terminal replies still due for `chunk`
  double ping_due = 0.0;
};

/// A reply that ends its request: `done`, or an `error`/`busy` refusal.
bool terminal_reply(const std::string& line) {
  serve::JsonValue r;
  std::string error;
  return serve::parse_json(line, &r, &error) &&
         (r.find("done") || r.find("error") || r.find("busy"));
}

/// The lease loop over one resumed plan, in four phases: spawn, drain/poll,
/// commit/revoke (tail, reap, stale, straggler) and fallback. Serves one
/// executor call; if a phase throws, the destructor SIGKILLs and reaps
/// every worker still running.
struct LeaseLoop {
  const core::SweepPlan& plan;
  const std::vector<std::uint64_t>& pending;  // resume state's `missing`
  ResultJournal& journal;  // the engine journal: the fallback's rows
  const core::PointBatch& run_batch;  // the engine's in-process runner
  const std::string& cache_path;
  const serve::ServeOptions& worker_opts;  // cache_path set per spawn
  const ElasticOptions& elastic;
  ElasticReport& rep;

  const std::chrono::steady_clock::time_point wall0 =
      std::chrono::steady_clock::now();
  const std::vector<std::string> header = core::DseEngine::csv_header();
  ResultJournal audit{ElasticController::lease_log_path(cache_path), header};
  LeaseTable table{pending.size(), elastic};
  ProgressReporter progress{"elastic sweep", pending.size(), 2.0,
                            worker_opts.sweep.verbose};
  std::unordered_set<std::string> resolved{plan.keys.begin(),
                                           plan.keys.end()};
  std::unordered_map<int, std::uint64_t> grant_us;  // chunk -> grant time
  std::vector<std::unique_ptr<WorkerProc>> procs;
  int next_spawn = 0;
  bool fork_failed = false;

  ~LeaseLoop() {
    for (auto& p : procs) {
      ::kill(p->pid, SIGKILL);
      ::waitpid(p->pid, nullptr, 0);
    }
  }

  /// Leases every pending key until each has a durable journal row, then
  /// gives the keys the fallback abandoned one more in-process attempt.
  void run() {
    for (const std::uint64_t i : pending) resolved.erase(plan.keys[i]);
    rep.points = pending.size();
    rep.chunks = table.chunk_count();
    while (!table.all_committed()) {
      spawn_phase();
      poll_phase();
      commit_revoke_phase();
      fallback_phase();
      for (auto& p : procs)
        if (p->state == WorkerProc::State::kIdle) grant_to(*p);
    }
    shutdown();
    run_batch(unresolved(0, pending.size()));
    rep.wall_s = now();
  }

  // --- spawn: keep `workers` processes alive while the budget lasts, and
  // ping each one every heartbeat. The pings are answered by each worker's
  // I/O thread: a hung server stops answering, a slow point does not.
  void spawn_phase() {
    while (static_cast<int>(procs.size()) < elastic.workers &&
           next_spawn < spawn_cap() && !fork_failed && spawn()) {
    }
    for (auto& p : procs)
      if (now() >= p->ping_due) {
        p->channel->send(serve::request_ping("ping"));
        p->ping_due = now() + elastic.heartbeat_s;
      }
  }

  int spawn_cap() const {
    return elastic.workers + elastic.effective_respawn_budget();
  }

  bool spawn() {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      fork_failed = true;
      return false;
    }
    const int id = next_spawn;
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sv[0]);
      ::close(sv[1]);
      fork_failed = true;
      return false;
    }
    if (pid == 0) {
      // Child: drop the controller's ends — ours and every sibling's —
      // then serve. _Exit skips atexit/stream flushing of fork-inherited
      // state that belongs to the parent.
      ::close(sv[0]);
      for (auto& p : procs) p->channel->close();
      serve::ServeOptions opts = worker_opts;
      opts.cache_path = worker_cache_path(cache_path, id);
      int code = 1;
      try {
        code = worker_main(sv[1], opts, elastic.trace_path, id);
      } catch (...) {
      }
      std::_Exit(code);
    }
    ::close(sv[1]);
    procs.push_back(std::make_unique<WorkerProc>(WorkerProc{
        id, pid, std::make_unique<LineChannel>(sv[0]),
        std::make_unique<JournalTailer>(worker_journal_path(cache_path, id),
                                        header)}));
    const bool respawn = rep.spawned++ >= elastic.workers;
    if (respawn) {
      ++rep.respawns;
      bump("sweep.elastic.respawns");
    }
    log_lease(respawn ? "respawned" : "spawned", -1, id,
              "pid=" + std::to_string(pid));
    ++next_spawn;
    set_live_workers(procs.size());
    return true;
  }

  // --- drain/poll: wait for traffic, then drain replies. Scheduling only —
  // no reply resolves a key. Any line proves the worker alive; its first
  // one admits it to the table. Half a heartbeat keeps stale detection
  // prompt without busy-spinning; the lower bound keeps a tiny heartbeat
  // from turning the controller into a spin loop.
  void poll_phase() {
    std::vector<pollfd> fds;
    for (auto& p : procs) fds.push_back({p->channel->fd(), POLLIN, 0});
    if (!fds.empty())
      ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
             std::max(10, static_cast<int>(elastic.heartbeat_s * 500.0)));
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      WorkerProc& p = *procs[i];
      std::vector<std::string> lines;
      p.channel->drain(&lines);  // EOF is reaped via waitpid
      for (const std::string& line : lines) {
        if (p.state == WorkerProc::State::kStarting) {
          table.add_worker(p.id, now());
          grant_to(p);
        }
        table.beat(p.id, now());
        if (p.state != WorkerProc::State::kLeased || !terminal_reply(line) ||
            --p.owed > 0)
          continue;
        // Every request of the chunk has ended. The journal decides: a
        // chunk whose rows are missing (a refused request, a corrupt
        // record) is revoked, never committed on the worker's say-so.
        const int c = p.chunk;
        ingest(p);
        if (chunk_covered(c)) {
          commit_chunk(c, "done");
        } else if (table.chunk(c).phase == LeaseChunk::Phase::kLeased &&
                   table.chunk(c).holder == p.id) {
          revoke_chunk(c, "incomplete", p.id);
        }
        p.state = WorkerProc::State::kIdle;
        p.chunk = -1;
      }
    }
  }

  // --- commit/revoke. Tail: commit whatever the journals now cover
  // (duplicate rows from revoked holders resolve keys like any others).
  // Reap: bury workers that died on their own (kill -9 chaos, crashes).
  // Stale: silence means hung or wedged — the worker may well be alive, so
  // revocation alone would race its late rows against the re-lease
  // forever; SIGKILL first, then bury. Straggler: beating but slow —
  // revoke and re-lease; the holder keeps running, whichever copy lands
  // rows first wins, and the duplicate is idempotent by key.
  void commit_revoke_phase() {
    for (auto& p : procs) ingest(*p);
    for (int c = 0; c < table.chunk_count(); ++c)
      if (table.chunk(c).phase != LeaseChunk::Phase::kCommitted &&
          chunk_covered(c))
        commit_chunk(c, "tail");
    for (pid_t dead; (dead = ::waitpid(-1, nullptr, WNOHANG)) > 0;)
      for (std::size_t i = 0; i < procs.size(); ++i)
        if (procs[i]->pid == dead) {
          ++rep.deaths;
          bury(i, "died");
          break;
        }
    for (const int worker : table.stale_workers(now()))
      for (std::size_t i = 0; i < procs.size(); ++i)
        if (procs[i]->id == worker) {
          ::kill(procs[i]->pid, SIGKILL);
          ::waitpid(procs[i]->pid, nullptr, 0);
          ++rep.killed;
          bury(i, "stale-heartbeat");
          break;
        }
    for (const int c : table.stragglers(now()))
      if (revoke_chunk(c, "straggler", table.chunk(c).holder)) {
        ++rep.stragglers;
        bump("sweep.elastic.stragglers");
      }
  }

  // --- fallback: poisoned chunks murdered every holder, so compute them
  // here, where worker-only fault sites do not exist; and with no workers
  // and no budget to make more, compute everything left here.
  void fallback_phase() {
    for (const int c : table.poisoned_pending()) run_inprocess(c);
    if (procs.empty() && (next_spawn >= spawn_cap() || fork_failed))
      for (const int c : table.pending()) run_inprocess(c);
  }

  /// Chunk `c` on the engine's in-process runner, one batch per attempt.
  /// PointRunner never consults the process-level fault kinds, so a
  /// kill/hang spec keyed to this chunk cannot reach the controller;
  /// journal.append faults are retried a bounded number of times (their
  /// fire budget is per process, so the retry succeeds), and a key still
  /// unresolved after that is abandoned to run()'s last attempt.
  void run_inprocess(int c) {
    ++rep.inprocess_chunks;
    bump("sweep.elastic.inprocess_chunks");
    log_lease("inprocess", c, -1, "");
    const LeaseChunk& chunk = table.chunk(c);
    for (int attempt = 0; attempt < 3 && !chunk_covered(c); ++attempt) {
      const std::vector<std::uint64_t> todo =
          unresolved(chunk.begin, chunk.end);
      run_batch(todo);
      for (const std::uint64_t idx : todo)
        if (journal.contains(plan.keys[idx]) ||
            journal.contains_fail(plan.keys[idx]))
          mark_resolved(plan.keys[idx]);
    }
    for (const std::uint64_t idx : unresolved(chunk.begin, chunk.end))
      log_lease("abandoned", c, -1, plan.keys[idx]);
    commit_chunk(c, "inprocess");
    // The loop was blocked here, not the workers: re-stamp their beats.
    for (auto& p : procs) table.beat(p->id, now());
  }

  /// EOF stops every worker's server (revoked stragglers may still be
  /// mid-chunk — their residual rows are harmless); give them a grace
  /// window to flush trace sidecars, then SIGKILL the rest. Journals are
  /// fsync'd per row, so nothing of value can be lost here.
  void shutdown() {
    for (auto& p : procs) p->channel->close();
    const double grace_deadline = now() + 15.0;
    while (!procs.empty() && now() < grace_deadline) {
      for (std::size_t i = 0; i < procs.size();) {
        if (::waitpid(procs[i]->pid, nullptr, WNOHANG) > 0) {
          ingest(*procs[i]);
          table.remove_worker(procs[i]->id);
          procs.erase(procs.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          ++i;
        }
      }
      if (!procs.empty())
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    for (auto& p : procs) {
      ::kill(p->pid, SIGKILL);
      ::waitpid(p->pid, nullptr, 0);
      ingest(*p);
    }
    procs.clear();
    set_live_workers(0);
    for (int id = 0; id < next_spawn; ++id)
      std::remove((worker_cache_path(cache_path, id) + ".fp").c_str());
  }

  // --- steps the phases share ---

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         wall0)
        .count();
  }

  /// Plan indices of pending[begin, end) with no journal row yet.
  std::vector<std::uint64_t> unresolved(std::uint64_t begin,
                                        std::uint64_t end) const {
    std::vector<std::uint64_t> out;
    for (std::uint64_t t = begin; t < end; ++t)
      if (resolved.count(plan.keys[pending[t]]) == 0)
        out.push_back(pending[t]);
    return out;
  }

  bool chunk_covered(int c) const {
    const LeaseChunk& chunk = table.chunk(c);
    for (std::uint64_t t = chunk.begin; t < chunk.end; ++t)
      if (resolved.count(plan.keys[pending[t]]) == 0) return false;
    return true;
  }

  bool mark_resolved(const std::string& key) {
    if (!resolved.insert(key).second) return false;
    ++rep.resolved;
    progress.tick();
    return true;
  }

  void ingest(WorkerProc& p) {
    JournalTailer::Batch batch = p.tailer->poll();
    rep.tail_dropped += batch.dropped;
    for (const auto& [key, row] : batch.entries)
      if (mark_resolved(key)) ++rep.worker_computed;
    for (const auto& key : batch.fail_keys) mark_resolved(key);
  }

  void log_lease(const char* event, int c, int worker,
                 const std::string& detail) {
    const bool chunked = c >= 0;
    audit.append_lease({event, c, worker, chunked ? table.chunk(c).begin : 0,
                        chunked ? table.chunk(c).end : 0, detail});
  }

  /// Lease timeline on the shared trace: one 'X' span per lease tenure,
  /// from grant to commit (ok) or revocation (fail), keyed "chunk-<id>".
  void emit_lease_span(int c, int worker, obs::Outcome outcome) {
    if (!obs::Tracer::enabled()) return;
    obs::TraceEvent ev;
    ev.name = "lease";
    ev.phase = 'X';
    ev.ts_us = grant_us.count(c) ? grant_us[c] : obs::Tracer::now_us();
    ev.dur_us = obs::Tracer::now_us() - ev.ts_us;
    ev.outcome = outcome;
    ev.tid = static_cast<std::uint16_t>(obs::thread_id());
    obs::set_event_key(ev, "chunk-" + std::to_string(c) + " w" +
                               std::to_string(worker));
    obs::Tracer::emit(ev);
  }

  void commit_chunk(int c, const char* how) {
    const int holder = table.chunk(c).holder;
    if (!table.commit(c, now())) return;
    log_lease("committed", c, holder, how);
    emit_lease_span(c, holder, obs::Outcome::kOk);
  }

  bool revoke_chunk(int c, const char* reason, int worker) {
    if (!table.revoke(c)) return false;
    ++rep.revocations;
    bump("sweep.elastic.revocations");
    log_lease("revoked", c, worker, reason);
    emit_lease_span(c, worker, obs::Outcome::kFail);
    obs::instant("lease.revoke", "chunk-" + std::to_string(c),
                 obs::Outcome::kFail);
    return true;
  }

  /// Removes a dead worker: final journal tail, lease revocation, registry
  /// cleanup. `reason` distinguishes a self-inflicted death from a
  /// controller SIGKILL in the audit log.
  void bury(std::size_t i, const char* reason) {
    WorkerProc& p = *procs[i];
    ingest(p);
    const int held = table.held_by(p.id);
    if (held >= 0 && !chunk_covered(held)) revoke_chunk(held, reason, p.id);
    else if (held >= 0) commit_chunk(held, reason);
    table.remove_worker(p.id);
    log_lease("killed", held, p.id, reason);
    procs.erase(procs.begin() + static_cast<std::ptrdiff_t>(i));
    set_live_workers(procs.size());
  }

  /// Leases the lowest pending chunk to `p` as ordinary point requests.
  void grant_to(WorkerProc& p) {
    const int c = table.grant(p.id, now());
    p.state = c < 0 ? WorkerProc::State::kIdle : WorkerProc::State::kLeased;
    p.chunk = c;
    if (c < 0) return;
    if (obs::Tracer::enabled()) grant_us[c] = obs::Tracer::now_us();
    log_lease("granted", c, p.id, "");
    const LeaseChunk& chunk = table.chunk(c);
    p.owed = chunk.points();
    for (std::uint64_t t = chunk.begin; t < chunk.end; ++t)
      p.channel->send(serve::request_point("chunk-" + std::to_string(c),
                                           plan.app_of(pending[t]).name,
                                           plan.config_of(pending[t]).id()));
  }
};

}  // namespace

core::SweepExecutor ElasticController::executor(ElasticReport* report) const {
  return [this, report](const core::SweepPlan& plan, core::ResumeState& state,
                        const core::PointBatch& run_inprocess) {
    serve::ServeOptions worker_opts;
    worker_opts.threads = 1;  // a worker computes its chunk serially
    worker_opts.max_queue_points =
        static_cast<std::uint64_t>(elastic_.lease_points);
    worker_opts.pipeline = pipeline_.options();
    worker_opts.sweep = sweep_;
    // The audit log survives finalize; one file per lease phase, not
    // appended across runs, so `dse_lint --journal` reconciles exactly
    // this one. Each event is durable as it happens: a crashed
    // controller's log ends at the crash.
    std::remove(lease_log_path(cache_path_).c_str());
    LeaseLoop{plan,        state.missing, *state.journal, run_inprocess,
              cache_path_, worker_opts,   elastic_,       *report}
        .run();
  };
}

#else  // _WIN32

core::SweepExecutor ElasticController::executor(ElasticReport*) const {
  return [](const core::SweepPlan&, core::ResumeState&,
            const core::PointBatch&) {
    throw SimError("elastic sweeps need fork/socketpair; run the in-process "
                   "sweep on this platform",
                   ErrorClass::kConfig);
  };
}

#endif

}  // namespace musa::sweep
