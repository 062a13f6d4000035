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
#include "common/parallel.hpp"
#include "common/progress.hpp"
#include "core/point_runner.hpp"
#include "core/scheduler.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "serve/wire.hpp"
#include "sweep/protocol.hpp"
#include "sweep/worker.hpp"
#include "verify/faultpoint.hpp"

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
}

std::string ElasticController::lease_log_path(const std::string& cache_path) {
  return cache_path + ".leases";
}

#ifndef _WIN32

namespace {

obs::Counter& revocations_total() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("sweep.elastic.revocations");
  return c;
}
obs::Counter& respawns_total() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("sweep.elastic.respawns");
  return c;
}
obs::Counter& stragglers_total() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("sweep.elastic.stragglers");
  return c;
}
obs::Counter& inprocess_total() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("sweep.elastic.inprocess_chunks");
  return c;
}
obs::Gauge& workers_live() {
  static obs::Gauge& g =
      obs::MetricRegistry::global().gauge("sweep.workers.live");
  return g;
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

}  // namespace

ElasticReport ElasticController::run() {
  const auto wall0 = std::chrono::steady_clock::now();
  const auto now = [&wall0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         wall0)
        .count();
  };
  const std::vector<std::string> header = core::DseEngine::csv_header();

  const core::SweepPlan plan = core::make_sweep_plan(sweep_);

  // Resume state: the finalize engine's own reader, so the lease phase
  // leases exactly what finalize would otherwise compute.
  core::DseEngine engine(pipeline_, cache_path_, sweep_);
  core::ResumeState resume = engine.resume(plan);
  const std::vector<std::uint64_t>& pending = resume.missing;
  std::unordered_set<std::string> resolved(plan.keys.begin(),
                                           plan.keys.end());
  for (const std::uint64_t i : pending) resolved.erase(plan.keys[i]);

  ElasticReport rep;
  rep.points = pending.size();

  // The audit log survives finalize; one file per run, not appended across
  // runs, so `dse_lint --journal` reconciles exactly this invocation. Each
  // event is durable as it happens: a crashed controller's log ends at the
  // crash.
  std::remove(lease_log_path(cache_path_).c_str());
  ResultJournal audit(lease_log_path(cache_path_), header);
  if (pending.empty()) return rep;

  LeaseTable table(pending.size(), elastic_);
  rep.chunks = table.chunk_count();

  // Controller journal: the in-process fallback's rows. It is the engine
  // journal the resume state opened, so the finalize pass loads it as its
  // own.
  ResultJournal& journal = *resume.journal;
  verify::arm_journal_corruption(journal);

  const auto log_lease = [&](const char* event, int chunk, int worker,
                             const std::string& detail) {
    LeaseRecord r;
    r.event = event;
    r.chunk = chunk;
    r.worker = worker;
    if (chunk >= 0) {
      r.begin = table.chunk(chunk).begin;
      r.end = table.chunk(chunk).end;
    }
    r.detail = detail;
    audit.append_lease(r);
  };

  ProgressReporter progress("elastic sweep", pending.size(), 2.0,
                            sweep_.verbose);
  const auto mark_resolved = [&](const std::string& key) {
    if (!resolved.insert(key).second) return;
    ++rep.resolved;
    progress.tick();
  };
  const auto chunk_covered = [&](int c) {
    const LeaseChunk& chunk = table.chunk(c);
    for (std::uint64_t t = chunk.begin; t < chunk.end; ++t)
      if (resolved.count(plan.keys[pending[t]]) == 0) return false;
    return true;
  };

  // Lease timeline on the shared trace: one 'X' span per lease tenure,
  // from grant to commit (ok) or revocation (fail), keyed "chunk-<id>".
  std::unordered_map<int, std::uint64_t> grant_us;
  const auto emit_lease_span = [&](int c, int worker, obs::Outcome outcome) {
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
  };

  const auto commit_chunk = [&](int c, const char* how) {
    const int holder = table.chunk(c).holder;
    if (!table.commit(c, now())) return;
    log_lease("committed", c, holder, how);
    emit_lease_span(c, holder, obs::Outcome::kOk);
  };
  const auto revoke_chunk = [&](int c, const char* reason, int worker) {
    if (!table.revoke(c)) return false;
    ++rep.revocations;
    revocations_total().add();
    log_lease("revoked", c, worker, reason);
    emit_lease_span(c, worker, obs::Outcome::kFail);
    obs::instant("lease.revoke", "chunk-" + std::to_string(c),
                 obs::Outcome::kFail);
    return true;
  };

  // In-process fallback: the terminal state of a chunk that worker
  // processes cannot finish, run as one job per attempt on a point
  // scheduler joined before any later fork. PointRunner never consults the
  // process-level fault kinds, so a kill/hang spec keyed to this chunk
  // cannot reach the controller; journal.append faults are retried a
  // bounded number of times (their fire budget is per process, so the
  // retry succeeds), and any key still unresolved after that is left to
  // the finalize engine.
  std::shared_ptr<core::StageMemo> ctrl_memo;
  if (sweep_.memoize)
    ctrl_memo = std::make_shared<core::StageMemo>(
        core::pipeline_options_fingerprint(pipeline_.options()));
  core::SweepOptions ctrl_sweep = sweep_;
  ctrl_sweep.fail_fast = false;
  core::PointRunner runner(plan, ctrl_sweep);
  std::vector<std::unique_ptr<WorkerProc>> procs;
  const auto run_inprocess = [&](int c) {
    ++rep.inprocess_chunks;
    inprocess_total().add();
    log_lease("inprocess", c, -1, "");
    const LeaseChunk& chunk = table.chunk(c);
    for (int attempt = 0; attempt < 3 && !chunk_covered(c); ++attempt) {
      std::vector<std::uint64_t> todo;
      for (std::uint64_t t = chunk.begin; t < chunk.end; ++t)
        if (resolved.count(plan.keys[pending[t]]) == 0)
          todo.push_back(pending[t]);
      core::PointScheduler scheduler(
          static_cast<int>(std::min<std::uint64_t>(default_thread_count(),
                                                   todo.size())),
          pipeline_.options(), ctrl_memo);
      scheduler.wait(scheduler.submit(
          todo.size(), 0, [&](core::Pipeline& p, std::uint64_t i) {
            runner.run(p, todo[i], &journal, nullptr);
          }));
      for (const std::uint64_t idx : todo)
        if (journal.contains(plan.keys[idx]) ||
            journal.contains_fail(plan.keys[idx]))
          mark_resolved(plan.keys[idx]);
    }
    for (std::uint64_t t = chunk.begin; t < chunk.end; ++t)
      if (resolved.count(plan.keys[pending[t]]) == 0)
        log_lease("abandoned", c, -1, plan.keys[pending[t]]);
    commit_chunk(c, "inprocess");
    // The loop was blocked here, not the workers: re-stamp their beats.
    for (auto& p : procs) table.beat(p->id, now());
  };

  // --- worker process management ---
  int next_spawn = 0;
  bool fork_failed = false;
  serve::ServeOptions worker_opts;
  worker_opts.threads = 1;  // a worker computes its chunk serially
  worker_opts.max_queue_points =
      static_cast<std::uint64_t>(elastic_.lease_points);
  worker_opts.pipeline = pipeline_.options();
  worker_opts.sweep = sweep_;
  const std::string ping = serve::request_ping("ping");

  const auto spawn = [&]() -> bool {
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
      opts.cache_path = worker_cache_path(cache_path_, id);
      int code = 1;
      try {
        code = worker_main(sv[1], opts, elastic_.trace_path, id);
      } catch (...) {
      }
      std::_Exit(code);
    }
    ::close(sv[1]);
    auto proc = std::make_unique<WorkerProc>();
    proc->id = id;
    proc->pid = pid;
    proc->channel = std::make_unique<LineChannel>(sv[0]);
    proc->tailer = std::make_unique<JournalTailer>(
        worker_journal_path(cache_path_, id), header);
    const bool respawn = rep.spawned >= elastic_.workers;
    ++rep.spawned;
    if (respawn) {
      ++rep.respawns;
      respawns_total().add();
    }
    log_lease(respawn ? "respawned" : "spawned", -1, id,
              "pid=" + std::to_string(pid));
    procs.push_back(std::move(proc));
    ++next_spawn;
    workers_live().set(static_cast<double>(procs.size()));
    return true;
  };

  const auto ingest = [&](WorkerProc& p) {
    JournalTailer::Batch batch = p.tailer->poll();
    rep.tail_dropped += batch.dropped;
    for (const auto& [key, row] : batch.entries) mark_resolved(key);
    for (const auto& key : batch.fail_keys) mark_resolved(key);
  };

  // Removes a dead worker: final journal tail, lease revocation, registry
  // cleanup. `reason` distinguishes a self-inflicted death from a
  // controller SIGKILL in the audit log.
  const auto bury = [&](std::size_t i, const char* reason) {
    WorkerProc& p = *procs[i];
    ingest(p);
    const int held = table.held_by(p.id);
    if (held >= 0 && !chunk_covered(held)) revoke_chunk(held, reason, p.id);
    else if (held >= 0) commit_chunk(held, reason);
    table.remove_worker(p.id);
    log_lease("killed", held, p.id, reason);
    procs.erase(procs.begin() + static_cast<std::ptrdiff_t>(i));
    workers_live().set(static_cast<double>(procs.size()));
  };

  const auto grant_to = [&](WorkerProc& p) {
    const int c = table.grant(p.id, now());
    if (c < 0) {
      p.state = WorkerProc::State::kIdle;
      p.chunk = -1;
      return;
    }
    p.state = WorkerProc::State::kLeased;
    p.chunk = c;
    if (obs::Tracer::enabled()) grant_us[c] = obs::Tracer::now_us();
    log_lease("granted", c, p.id, "");
    // The lease is the chunk's points as ordinary point requests.
    const LeaseChunk& chunk = table.chunk(c);
    const std::string id = "chunk-" + std::to_string(c);
    p.owed = chunk.points();
    for (std::uint64_t t = chunk.begin; t < chunk.end; ++t)
      p.channel->send(serve::request_point(id, plan.app_of(pending[t]).name,
                                           plan.config_of(pending[t]).id()));
  };

  const int spawn_cap = elastic_.workers + elastic_.effective_respawn_budget();

  // --- main loop ---
  while (!table.all_committed()) {
    // Population: keep `workers` processes alive while the budget lasts.
    while (static_cast<int>(procs.size()) < elastic_.workers &&
           next_spawn < spawn_cap && !fork_failed)
      if (!spawn()) break;

    // Heartbeats are the controller's pings, answered by each worker's I/O
    // thread: a hung server stops answering, a slow point does not.
    for (auto& p : procs)
      if (now() >= p->ping_due) {
        p->channel->send(ping);
        p->ping_due = now() + elastic_.heartbeat_s;
      }

    // Wait for traffic. Half a heartbeat keeps stale detection prompt
    // without busy-spinning; the lower bound keeps a tiny heartbeat from
    // turning the controller into a spin loop.
    std::vector<pollfd> fds;
    fds.reserve(procs.size());
    for (auto& p : procs) fds.push_back({p->channel->fd(), POLLIN, 0});
    const int timeout_ms = std::max(
        10, static_cast<int>(elastic_.heartbeat_s * 1000.0 / 2.0));
    if (!fds.empty())
      ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);

    // (1) Drain replies. Scheduling only — no reply resolves a key. Any
    // line proves the worker alive; its first one admits it to the table.
    for (std::size_t i = 0; i < procs.size(); ++i) {
      if (i < fds.size() && (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
        continue;
      WorkerProc& p = *procs[i];
      std::vector<std::string> lines;
      p.channel->drain(&lines);  // EOF is reaped via waitpid below
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

    // (2) Tail journals; commit anything now covered (duplicate rows from
    // revoked holders resolve keys like any others).
    for (auto& p : procs) ingest(*p);
    for (int c = 0; c < table.chunk_count(); ++c)
      if (table.chunk(c).phase != LeaseChunk::Phase::kCommitted &&
          chunk_covered(c))
        commit_chunk(c, "tail");

    // (3) Reap workers that died on their own (kill -9 chaos, crashes).
    for (;;) {
      int status = 0;
      const pid_t dead = ::waitpid(-1, &status, WNOHANG);
      if (dead <= 0) break;
      for (std::size_t i = 0; i < procs.size(); ++i)
        if (procs[i]->pid == dead) {
          ++rep.deaths;
          bury(i, "died");
          break;
        }
    }

    // (4) Stale-heartbeat rule: silence means hung or wedged — the worker
    // may well be alive, so revocation alone would race its late rows
    // against the re-lease forever. SIGKILL first, then bury.
    for (int worker : table.stale_workers(now())) {
      for (std::size_t i = 0; i < procs.size(); ++i)
        if (procs[i]->id == worker) {
          ::kill(procs[i]->pid, SIGKILL);
          ::waitpid(procs[i]->pid, nullptr, 0);
          ++rep.killed;
          bury(i, "stale-heartbeat");
          break;
        }
    }

    // (5) Straggler rule: beating but slow. Revoke and re-lease; the
    // holder keeps running — whichever copy lands rows first wins, the
    // duplicate is idempotent by key.
    for (int c : table.stragglers(now())) {
      const int holder = table.chunk(c).holder;
      if (revoke_chunk(c, "straggler", holder)) {
        ++rep.stragglers;
        stragglers_total().add();
      }
    }

    // (6) Poisoned chunks murdered every holder: compute them here, where
    // worker-only fault sites do not exist.
    for (int c : table.poisoned_pending()) run_inprocess(c);

    // (7) Last resort: no workers and no budget to make more.
    if (procs.empty() && (next_spawn >= spawn_cap || fork_failed))
      for (int c : table.pending()) run_inprocess(c);

    // (8) Grants for idle workers.
    for (auto& p : procs)
      if (p->state == WorkerProc::State::kIdle) grant_to(*p);
  }

  // Shutdown: EOF stops every worker's server (revoked stragglers may
  // still be mid-chunk — their residual rows are harmless); give them a
  // grace window to flush trace sidecars, then SIGKILL the rest. Journals
  // are fsync'd per row, so nothing of value can be lost here.
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
  workers_live().set(0.0);
  for (int id = 0; id < next_spawn; ++id)
    std::remove((worker_cache_path(cache_path_, id) + ".fp").c_str());

  rep.wall_s = now();

  if (sweep_.verbose)
    std::fprintf(stderr,
                 "[elastic] %d chunk(s), %llu point(s) resolved, "
                 "%d spawned (%d respawns), %d death(s), %d killed, "
                 "%d revocation(s) (%d straggler), %d in-process chunk(s), "
                 "%llu corrupt record(s) dropped in %.1fs\n",
                 rep.chunks, static_cast<unsigned long long>(rep.resolved),
                 rep.spawned, rep.respawns, rep.deaths, rep.killed,
                 rep.revocations, rep.stragglers, rep.inprocess_chunks,
                 static_cast<unsigned long long>(rep.tail_dropped),
                 rep.wall_s);
  return rep;
}

#else  // _WIN32

ElasticReport ElasticController::run() {
  throw SimError("elastic sweeps need fork/socketpair; run the in-process "
                 "sweep on this platform",
                 ErrorClass::kConfig);
}

#endif

}  // namespace musa::sweep
