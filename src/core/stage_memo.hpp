// Cross-point memoization of redundant pipeline stages.
//
// The 864-configuration sweep recomputes, at every point, work whose inputs
// only span a handful of distinct values (DESIGN.md "Stage memoization"):
//
//   * region / burst-trace generation   — keyed (app, phase) / (app, ranks);
//   * the burst pre-pass concurrency    — keyed (app, cores): 3 values/app;
//   * the scalar kernel streams         — keyed (app, phase): the
//     functional warm-up prefix and the perfect-memory slice. The
//     KernelSource is deterministic in (profile, budget, seed), none of
//     which vary across machine configurations;
//   * the measured slice, already fused — keyed (app, phase, vector width):
//     the fusion pass is a pure function of (trace, width), so every point
//     replays stored FusedBlocks instead of re-fusing 256k instructions;
//   * the post-warm-up cache state      — keyed (app, phase, exact scaled
//     hierarchy geometry): the functional warm-up touches the hierarchy
//     with a fixed address stream, so its end state is a pure function of
//     the cache geometry (12 distinct states per app-phase, not 864);
//   * the perfect-memory CPI            — keyed (app, phase, core preset,
//     vector width): perfect memory never consults caches or DRAM, so
//     frequency / memory-technology / channel dimensions cancel out.
//
// Every memoized value is the bit-exact result the non-memoized path would
// compute (same constructors, same seeds, same arithmetic), which is what
// makes the memoized sweep's dse_cache.csv byte-identical — the property
// test_stage_memo locks in and `run_dse --no-memo` exists to bisect.
//
// Thread safety: one StageMemo is shared by every sweep worker. Each table
// has its own shared_mutex (read-mostly: taken shared on the hit path) and
// its own in-flight set and condition variable under that mutex. Fills are
// single-flight: the first thread to miss a key computes it *outside* the
// lock, and a thread asking for a key that is being filled waits for that
// value rather than computing a duplicate: a duplicate costs a whole fill
// (megabytes of stream or fused blocks) and then is thrown away.
// std::unordered_map never moves node storage, so returned references stay
// valid while others insert.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "apps/apps.hpp"
#include "cachesim/hierarchy.hpp"
#include "common/deadline.hpp"
#include "cpusim/core_config.hpp"
#include "isa/instr.hpp"
#include "isa/vector_fusion.hpp"

namespace musa::core {

/// 128-bit memo key: an application fingerprint plus a stage-specific tag
/// (phase index, rank count, or a hash of the stage's remaining inputs).
struct MemoKey {
  std::uint64_t app = 0;
  std::uint64_t tag = 0;
  bool operator==(const MemoKey&) const = default;
};

struct MemoKeyHash {
  using is_transparent = void;
  std::size_t operator()(const MemoKey& k) const noexcept {
    // splitmix-style finalizer over the two halves.
    std::uint64_t h = k.app ^ (k.tag * 0x9e3779b97f4a7c15ull);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    return static_cast<std::size_t>(h);
  }
};

/// FNV-1a over raw bytes; the building block of every fingerprint.
std::uint64_t fnv1a_bytes(const void* data, std::size_t n,
                          std::uint64_t seed = 0xcbf29ce484222325ull);

/// Identity of an AppModel for memo keys: the registry apps are distinct
/// stable objects, so the address alone would do; the name hash guards the
/// stack-allocated apps tests build (same address reused, different app).
std::uint64_t app_fingerprint(const apps::AppModel& app);

/// Exact numeric content of a scaled hierarchy configuration.
std::uint64_t hierarchy_fingerprint(const cachesim::HierarchyConfig& c);

/// Exact numeric content of a core preset (label included).
std::uint64_t core_fingerprint(const cpusim::CoreConfig& c);

/// Mirror a table's hit/miss onto the global metric registry as
/// "memo.<table>.hits" / "memo.<table>.misses". The per-instance atomic
/// counters below stay the source of truth for stats() — tests assert
/// per-memo deltas — the registry mirror is what sweeps export
/// (metrics.json, summary table) without threading MemoStats around.
void memo_hit(const char* table);
void memo_miss(const char* table);

/// Per-table hit/miss counts, snapshot for reporting. A "miss" is a fill:
/// fills are single-flight, so a table's misses equal the distinct keys it
/// was asked for (plus one per fill that threw and was retried), and every
/// other lookup — including one that waited for a racing fill — is a hit.
struct MemoStats {
  std::uint64_t region_hits = 0, region_misses = 0;
  std::uint64_t trace_hits = 0, trace_misses = 0;
  std::uint64_t burst_hits = 0, burst_misses = 0;
  std::uint64_t stream_hits = 0, stream_misses = 0;
  std::uint64_t warm_hits = 0, warm_misses = 0;
  std::uint64_t fused_hits = 0, fused_misses = 0;
  std::uint64_t perfect_hits = 0, perfect_misses = 0;

  std::uint64_t total_hits() const {
    return region_hits + trace_hits + burst_hits + stream_hits + warm_hits +
           fused_hits + perfect_hits;
  }
  std::uint64_t total_misses() const {
    return region_misses + trace_misses + burst_misses + stream_misses +
           warm_misses + fused_misses + perfect_misses;
  }
  static double rate(std::uint64_t hits, std::uint64_t misses) {
    const std::uint64_t n = hits + misses;
    return n ? static_cast<double>(hits) / static_cast<double>(n) : 0.0;
  }
};

class StageMemo {
 public:
  /// The scalar streams a (app, phase) pair needs besides its fused
  /// measured slice: the functional warm-up prefix (exactly `warm_instrs`
  /// instructions) and the quarter-slice perfect-memory stream. Both are
  /// drained from KernelSources built with the same arguments the
  /// non-memoized path uses, so replaying them through SpanSource is
  /// bit-identical. The measured slice itself is not kept in scalar form:
  /// the `fused` table holds it already fused per vector width.
  struct KernelStreams {
    std::vector<isa::Instr> warm;
    std::vector<isa::Instr> perfect;
  };

  /// The measured slice as the fusion pass emits it for one vector width:
  /// the blocks VectorFusion::next_block yields, in order.
  using FusedStream = std::vector<isa::FusedBlock>;

  /// `options_fingerprint` identifies the PipelineOptions every user of
  /// this memo must share (seed, slice sizes, cache scale — see
  /// pipeline_options_fingerprint in pipeline.hpp); Pipeline refuses to
  /// attach a memo built for different options.
  explicit StageMemo(std::uint64_t options_fingerprint)
      : options_fp_(options_fingerprint) {}

  std::uint64_t options_fingerprint() const { return options_fp_; }

  MemoStats stats() const {
    MemoStats s;
    regions_.count(s.region_hits, s.region_misses);
    traces_.count(s.trace_hits, s.trace_misses);
    burst_.count(s.burst_hits, s.burst_misses);
    streams_.count(s.stream_hits, s.stream_misses);
    warm_.count(s.warm_hits, s.warm_misses);
    fused_.count(s.fused_hits, s.fused_misses);
    perfect_.count(s.perfect_hits, s.perfect_misses);
    return s;
  }

  template <typename Fn>
  const trace::Region& region(const apps::AppModel& app, std::size_t phase,
                              Fn&& compute) {
    return lookup(regions_, MemoKey{app_fingerprint(app), phase},
                  std::forward<Fn>(compute));
  }

  template <typename Fn>
  const trace::AppTrace& trace(const apps::AppModel& app, int ranks,
                               Fn&& compute) {
    return lookup(traces_,
                  MemoKey{app_fingerprint(app),
                          static_cast<std::uint64_t>(ranks)},
                  std::forward<Fn>(compute));
  }

  /// Average concurrency of the burst pre-pass (drives the L3 share).
  template <typename Fn>
  double burst_concurrency(const apps::AppModel& app, int cores,
                           Fn&& compute) {
    return lookup(burst_,
                  MemoKey{app_fingerprint(app),
                          static_cast<std::uint64_t>(cores)},
                  std::forward<Fn>(compute));
  }

  template <typename Fn>
  const KernelStreams& streams(const apps::AppModel& app, std::size_t phase,
                               Fn&& compute) {
    return lookup(streams_, MemoKey{app_fingerprint(app), phase},
                  std::forward<Fn>(compute));
  }

  /// Snapshot of the hierarchy after functional warm-up + reset_stats,
  /// keyed by app, phase and the exact scaled cache geometry (which already
  /// folds in the active-core L3 share, itself a function of (app, cores)).
  /// Callers copy it; the copy starts without the source's try_hit hint.
  template <typename Fn>
  const cachesim::MemHierarchy& warm(const apps::AppModel& app,
                                     std::size_t phase,
                                     const cachesim::HierarchyConfig& caches,
                                     Fn&& compute) {
    return lookup(warm_,
                  MemoKey{app_fingerprint(app),
                          fnv1a_bytes(&phase, sizeof(phase),
                                      hierarchy_fingerprint(caches))},
                  std::forward<Fn>(compute));
  }

  /// The measured slice fused at `vector_bits` (CoreModel::run_fused input).
  template <typename Fn>
  const FusedStream& fused(const apps::AppModel& app, std::size_t phase,
                           int vector_bits, Fn&& compute) {
    return lookup(fused_,
                  MemoKey{app_fingerprint(app),
                          fnv1a_bytes(&vector_bits, sizeof(vector_bits),
                                      fnv1a_bytes(&phase, sizeof(phase)))},
                  std::forward<Fn>(compute));
  }

  /// CPI of the perfect-memory run (stall attribution baseline).
  template <typename Fn>
  double perfect_cpi(const apps::AppModel& app, std::size_t phase,
                     const cpusim::CoreConfig& core, int vector_bits,
                     Fn&& compute) {
    std::uint64_t tag = core_fingerprint(core);
    tag = fnv1a_bytes(&phase, sizeof(phase), tag);
    tag = fnv1a_bytes(&vector_bits, sizeof(vector_bits), tag);
    return lookup(perfect_, MemoKey{app_fingerprint(app), tag},
                  std::forward<Fn>(compute));
  }

 private:
  /// How long a thread waiting for another's fill sleeps between checks of
  /// its own point deadline.
  static constexpr std::chrono::milliseconds kWaitSlice{5};

  /// One memoized stage: values, the keys being filled right now, and the
  /// condition variable a fill's end is announced on — all under `mu`.
  template <typename V>
  struct Table {
    explicit Table(const char* table_name) : name(table_name) {}

    void count(std::uint64_t& h, std::uint64_t& m) const {
      h = hits.load(std::memory_order_relaxed);
      m = misses.load(std::memory_order_relaxed);
    }
    const V& hit(const V& value) {
      hits.fetch_add(1, std::memory_order_relaxed);
      memo_hit(name);
      return value;
    }

    const char* name;
    std::shared_mutex mu;
    std::condition_variable_any filled;
    std::unordered_map<MemoKey, V, MemoKeyHash> values;
    std::unordered_set<MemoKey, MemoKeyHash> in_flight;
    std::atomic<std::uint64_t> hits{0}, misses{0};
  };

  /// Single-flight lookup: a hit takes the shared lock only; the first
  /// thread to miss a key marks it in flight and fills it *outside* the
  /// lock (fills re-enter the memo: the burst pre-pass builds regions and
  /// traces), and every other thread asking for that key waits for the
  /// value instead of computing a copy. A fill that throws clears its mark
  /// and wakes the waiters, one of which then retries the fill; a waiter
  /// keeps honouring its own point deadline between wait slices.
  /// std::unordered_map never moves node storage, so returned references
  /// stay valid while other threads insert.
  template <typename V, typename Fn>
  static const V& lookup(Table<V>& t, const MemoKey& key, Fn&& compute) {
    {
      std::shared_lock lock(t.mu);
      auto it = t.values.find(key);
      if (it != t.values.end()) return t.hit(it->second);
    }
    {
      std::unique_lock lock(t.mu);
      for (;;) {
        auto it = t.values.find(key);
        if (it != t.values.end()) return t.hit(it->second);
        if (t.in_flight.insert(key).second) break;  // this thread fills
        t.filled.wait_for(lock, kWaitSlice);
        lock.unlock();
        deadline::check_now();
        lock.lock();
      }
    }
    t.misses.fetch_add(1, std::memory_order_relaxed);
    memo_miss(t.name);
    const auto settle = [&t, &key] {
      t.in_flight.erase(key);
      t.filled.notify_all();
    };
    try {
      V value = compute();
      std::unique_lock lock(t.mu);
      settle();
      return t.values.try_emplace(key, std::move(value)).first->second;
    } catch (...) {
      std::unique_lock lock(t.mu);
      settle();
      throw;
    }
  }

  std::uint64_t options_fp_;

  Table<trace::Region> regions_{"region"};
  Table<trace::AppTrace> traces_{"trace"};
  Table<double> burst_{"burst"};
  Table<KernelStreams> streams_{"stream"};
  Table<cachesim::MemHierarchy> warm_{"warm"};
  Table<FusedStream> fused_{"fused"};
  Table<double> perfect_{"perfect"};
};

}  // namespace musa::core
