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
#include "common/csv.hpp"
#include "common/journal.hpp"
#include "common/parse.hpp"
#include "common/progress.hpp"
#include "core/point_runner.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sweep/protocol.hpp"
#include "sweep/worker.hpp"
#include "verify/config_rules.hpp"
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
  enum class State { kStarting, kIdle, kLeased, kQuitting };

  int id = 0;  // spawn id: unique across respawns
  pid_t pid = -1;
  std::unique_ptr<LineChannel> channel;
  std::unique_ptr<JournalTailer> tailer;
  State state = State::kStarting;
  int chunk = -1;  // chunk we believe it is computing (even when revoked)
};

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
  if (sweep_.verify && !plan.statically_verified)
    for (const auto& config : plan.configs) verify::validate_machine(config);

  // Resume state: a key is resolved if a parseable cache row or any
  // journal (a dead controller's, a dead worker's) already covers it.
  // Invariant-violating rows are NOT filtered here — the finalize engine
  // drops and recomputes those in-process; the lease phase only promises
  // coverage, not validity.
  std::unordered_set<std::string> resolved;
  if (CsvDoc::file_exists(cache_path_)) {
    try {
      std::size_t bad = 0;
      const CsvDoc doc = CsvDoc::load_tolerant(cache_path_, &bad);
      if (doc.header() == header)
        for (const auto& row : doc.rows()) {
          try {
            const core::SimResult r = core::DseEngine::from_row(row);
            resolved.insert(core::DseEngine::point_key(r.app, r.config));
          } catch (const SimError&) {
          }
        }
    } catch (const SimError&) {
    }
  }
  for (const auto& path : find_journals(cache_path_)) {
    const ResultJournal::LoadResult lr = ResultJournal::read(path, header);
    if (lr.schema_mismatch) continue;
    for (const auto& [key, row] : lr.entries) resolved.insert(key);
    if (!sweep_.retry_failed)
      for (const auto& [key, fail] : lr.fails) resolved.insert(key);
  }

  std::vector<std::uint64_t> pending;
  for (std::uint64_t i = 0; i < plan.size(); ++i)
    if (resolved.count(plan.keys[i]) == 0) pending.push_back(i);

  ElasticReport rep;
  rep.points = pending.size();

  // The audit log survives finalize; one file per run, not appended across
  // runs — journal_status accounts for exactly this invocation.
  std::remove(lease_log_path(cache_path_).c_str());
  std::vector<LeaseRecord> lease_log;

  if (pending.empty()) {
    ResultJournal audit(lease_log_path(cache_path_), header);
    return rep;
  }

  LeaseTable table(pending.size(), elastic_);
  rep.chunks = table.chunk_count();

  // Controller journal: in-process fallback rows and the live lease-event
  // stream. Same path the engine journals to, so the finalize pass loads
  // it as its own.
  ResultJournal journal(cache_path_ + ".journal", header);
  if (verify::FaultPlan::active())
    journal.set_append_mutator(
        [](const std::string& key, const std::string& line) {
          if (!verify::fault_corrupt("journal.append", key)) return line;
          std::string out = line;
          const std::size_t pos = out.size() >= 2 ? out.size() - 2 : 0;
          out[pos] = out[pos] == '0' ? '1' : '0';
          return out;
        });

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
    lease_log.push_back(r);
    journal.append_lease(r);
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
  // processes cannot finish. PointRunner never consults the process-level
  // fault kinds, so a kill/hang spec keyed to this chunk cannot reach the
  // controller; journal.append faults are retried a bounded number of
  // times (their fire budget is per process, so the retry succeeds), and
  // any key still unresolved after that is left to the finalize engine.
  std::shared_ptr<core::StageMemo> ctrl_memo;
  if (sweep_.memoize)
    ctrl_memo = std::make_shared<core::StageMemo>(
        core::pipeline_options_fingerprint(pipeline_.options()));
  std::unique_ptr<core::Pipeline> ctrl_pipeline;
  core::SweepOptions ctrl_sweep = sweep_;
  ctrl_sweep.fail_fast = false;
  core::PointRunner runner(plan, ctrl_sweep);
  const auto run_inprocess = [&](int c) {
    if (!ctrl_pipeline)
      ctrl_pipeline =
          std::make_unique<core::Pipeline>(pipeline_.options(), ctrl_memo);
    ++rep.inprocess_chunks;
    inprocess_total().add();
    log_lease("inprocess", c, -1, "");
    const LeaseChunk& chunk = table.chunk(c);
    for (int attempt = 0; attempt < 3 && !chunk_covered(c); ++attempt)
      for (std::uint64_t t = chunk.begin; t < chunk.end; ++t) {
        const std::uint64_t idx = pending[t];
        if (resolved.count(plan.keys[idx]) != 0) continue;
        runner.run(*ctrl_pipeline, idx, &journal, nullptr);
        if (journal.contains(plan.keys[idx]) ||
            journal.contains_fail(plan.keys[idx]))
          mark_resolved(plan.keys[idx]);
      }
    for (std::uint64_t t = chunk.begin; t < chunk.end; ++t)
      if (resolved.count(plan.keys[pending[t]]) == 0)
        log_lease("abandoned", c, -1, plan.keys[pending[t]]);
    commit_chunk(c, "inprocess");
  };

  // --- worker process management ---
  std::vector<std::unique_ptr<WorkerProc>> procs;
  int next_spawn = 0;
  bool fork_failed = false;
  WorkerEnv env_base;
  env_base.plan = &plan;
  env_base.pending = &pending;
  env_base.sweep = sweep_;
  env_base.pipeline = pipeline_.options();
  env_base.cache_path = cache_path_;
  env_base.trace_path = elastic_.trace_path;
  env_base.heartbeat_s = elastic_.heartbeat_s;

  const auto spawn = [&]() -> bool {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      fork_failed = true;
      return false;
    }
    WorkerEnv env = env_base;
    env.spawn_id = next_spawn;
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sv[0]);
      ::close(sv[1]);
      fork_failed = true;
      return false;
    }
    if (pid == 0) {
      // Child: drop the controller's ends — ours and every sibling's —
      // then run the worker loop. _Exit skips atexit/stream flushing of
      // fork-inherited state that belongs to the parent.
      ::close(sv[0]);
      for (auto& p : procs) p->channel->close();
      int code = 1;
      try {
        code = worker_main(sv[1], env);
      } catch (...) {
      }
      std::_Exit(code);
    }
    ::close(sv[1]);
    auto proc = std::make_unique<WorkerProc>();
    proc->id = env.spawn_id;
    proc->pid = pid;
    proc->channel = std::make_unique<LineChannel>(sv[0]);
    proc->tailer = std::make_unique<JournalTailer>(
        worker_journal_path(cache_path_, env.spawn_id), header);
    const bool respawn = rep.spawned >= elastic_.workers;
    ++rep.spawned;
    if (respawn) {
      ++rep.respawns;
      respawns_total().add();
    }
    log_lease(respawn ? "respawned" : "spawned", -1, env.spawn_id,
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
    const LeaseChunk& chunk = table.chunk(c);
    p.channel->send("lease " + std::to_string(c) + " " +
                    std::to_string(chunk.begin) + " " +
                    std::to_string(chunk.points()));
  };

  const int spawn_cap = elastic_.workers + elastic_.effective_respawn_budget();

  // --- main loop ---
  while (!table.all_committed()) {
    // Population: keep `workers` processes alive while the budget lasts.
    while (static_cast<int>(procs.size()) < elastic_.workers &&
           next_spawn < spawn_cap && !fork_failed)
      if (!spawn()) break;

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

    // (1) Drain messages. Scheduling only — no message resolves a key.
    for (std::size_t i = 0; i < procs.size(); ++i) {
      if (i < fds.size() && (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
        continue;
      WorkerProc& p = *procs[i];
      std::vector<std::string> lines;
      p.channel->drain(&lines);  // EOF is reaped via waitpid below
      for (const std::string& line : lines) {
        const std::vector<std::string> words = split_words(line);
        if (words.empty()) continue;
        if (words[0] == "hello") {
          table.add_worker(p.id, now());
          grant_to(p);
        } else if (words[0] == "beat") {
          table.beat(p.id, now());
        } else if (words[0] == "done" && words.size() >= 2) {
          // Strict chunk decode: a malformed field makes the whole line
          // babble (ignored, like an unknown verb) instead of aliasing to
          // chunk 0 and committing/revoking a chunk the worker never held.
          // Recovery needs no message: the tailers still see its rows and
          // the straggler rule re-leases anything genuinely unfinished.
          int c = -1;
          if (!parse_int(words[1], &c)) continue;
          table.beat(p.id, now());
          if (c >= 0 && c < table.chunk_count()) {
            ingest(p);
            if (chunk_covered(c)) {
              commit_chunk(c, "done");
            } else if (table.chunk(c).phase == LeaseChunk::Phase::kLeased &&
                       table.chunk(c).holder == p.id) {
              // The worker claims completion but the journal disagrees
              // (e.g. a corrupt-fault ate a record): the journal wins.
              revoke_chunk(c, "incomplete", p.id);
            }
          }
          p.state = WorkerProc::State::kIdle;
          p.chunk = -1;
        }
        // Unknown verbs: version skew, visible to lint, fatal to nobody.
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

    // (8) Grants for idle workers; quit signals once nothing is left.
    for (auto& p : procs)
      if (p->state == WorkerProc::State::kIdle) grant_to(*p);
    if (table.all_committed())
      for (auto& p : procs)
        if (p->state != WorkerProc::State::kQuitting) {
          p->channel->send("quit");
          p->state = WorkerProc::State::kQuitting;
        }
  }

  // Shutdown: quit everyone (revoked stragglers may still be mid-chunk —
  // their residual rows are harmless), give them a grace window to flush
  // trace sidecars, then SIGKILL the rest. Journals are fsync'd per row,
  // so nothing of value can be lost here.
  for (auto& p : procs)
    if (p->state != WorkerProc::State::kQuitting) p->channel->send("quit");
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

  rep.wall_s = now();

  // Persist the audit log where finalize cannot delete it.
  ResultJournal audit(lease_log_path(cache_path_), header);
  for (const LeaseRecord& r : lease_log) audit.append_lease(r);

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
