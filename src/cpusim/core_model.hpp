// Trace-driven out-of-order core timing model (the TaskSim-equivalent).
//
// An O(1)-per-instruction timestamp model: each (possibly vector-fused)
// operation computes its dispatch, issue and completion times from
//
//   * dispatch bandwidth (issue_width per cycle),
//   * re-order-buffer and physical-register-file occupancy (ring buffers of
//     release times — an instruction cannot dispatch until the entry it
//     reuses has been committed/freed),
//   * store-buffer occupancy for stores,
//   * true register dependences (64-entry ready-time scoreboard),
//   * functional-unit contention (per-pool next-free times; FP ops use the
//     FPU pool at full vector width, everything else the ALU/AGU pool),
//   * memory latency resolved through the simulated cache hierarchy and,
//     on L3 misses, the DRAM system — so memory-level parallelism is bounded
//     by the ROB window exactly as in a real OoO core.
//
// This class of model reproduces first-order microarchitectural sensitivity
// (what a design-space sweep measures) at tens of millions of instructions
// per second; it does not model wrong-path execution or fetch alignment.
//
// The replay hot loop is *batched* (DESIGN.md §7f): the fusion pass emits
// SoA instruction blocks (isa::FusedBlock) and the scoreboard walks them in
// a tight loop — one deadline poll and one fusion call per block instead of
// per operation. The memoized sweep skips the fusion call too: run_fused()
// replays blocks fused once per (app, phase, vector width). A single-step
// reference path is retained (see CoreRunOptions::single_step); all paths
// produce bit-identical CoreStats.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "cachesim/hierarchy.hpp"
#include "common/flat_table.hpp"
#include "common/units.hpp"
#include "cpusim/core_config.hpp"
#include "dramsim/dram.hpp"
#include "isa/instr.hpp"
#include "isa/vector_fusion.hpp"

namespace musa::trace {
class InstrSource;
}

namespace musa::cpusim {

/// Everything the node/power models need from one detailed core simulation.
struct CoreStats {
  double cycles = 0.0;
  std::uint64_t fused_ops = 0;     // operations as simulated (post-fusion)
  std::uint64_t scalar_instrs = 0; // scalar-equivalent instruction count
  std::array<std::uint64_t, isa::kNumOpClasses> class_ops{};   // fused
  std::array<std::uint64_t, isa::kNumOpClasses> class_lanes{}; // scalar-eq

  // Memory system (counts of 64 B line transactions).
  std::uint64_t l1_accesses = 0, l1_misses = 0;
  std::uint64_t l2_accesses = 0, l2_misses = 0;
  std::uint64_t l3_accesses = 0, l3_misses = 0;
  std::uint64_t dram_reads = 0, dram_writes = 0;
  /// Prefetched lines dropped from the line-fill buffer because it filled
  /// up before a demand access consumed them (their DRAM bandwidth was
  /// already paid; only the latency benefit is forfeited).
  std::uint64_t pf_evictions = 0;
  dramsim::DramCounters dram;

  double ipc() const { return cycles > 0 ? scalar_instrs / cycles : 0.0; }
  double mpki_l1() const { return ratio_k(l1_misses); }
  double mpki_l2() const { return ratio_k(l2_misses); }
  double mpki_l3() const { return ratio_k(l3_misses); }
  /// DRAM traffic in bytes (reads + write-backs).
  double dram_bytes() const {
    return 64.0 * static_cast<double>(dram_reads + dram_writes);
  }
  /// Average DRAM demand bandwidth over the simulated run, GB/s.
  double dram_gbps(Frequency f) const {
    const double secs = f.cycles_to_seconds(cycles);
    return secs > 0 ? dram_bytes() / secs / 1e9 : 0.0;
  }

 private:
  // MPKI is normalised by scalar-equivalent instructions so the metric is
  // stable across simulated vector widths.
  double ratio_k(std::uint64_t n) const {
    return scalar_instrs ? 1000.0 * static_cast<double>(n) / scalar_instrs
                         : 0.0;
  }
};

/// Options for one core-model run.
struct CoreRunOptions {
  int vector_bits = 128;   // simulated SIMD width (64 = scalar)
  bool perfect_memory = false;  // all memory ops hit L1 (stall attribution)
  std::uint64_t max_scalar_instrs = 0;  // stop after this many lanes (0=all)
  bool enable_prefetcher = true;  // stream prefetcher (ablation knob)
  /// Local clock at which this run begins (cycles). Lets a caller resume a
  /// core's timeline across run() calls so memory-system arrival times stay
  /// continuous (used by the multi-core validation mode). Reported cycles
  /// exclude the offset.
  double start_cycle = 0.0;
  /// Stop dispatching once the local clock passes this cycle (0 = no bound).
  /// With start_cycle this implements time-quantum execution: interleaved
  /// cores stay within one quantum of each other, so shared memory-system
  /// state sees a coherent combined timeline.
  double max_cycle = 0.0;
  /// Force the retained single-step reference path (one fusion.next() per
  /// operation) instead of the batched block path. Both paths produce
  /// bit-identical CoreStats — the block-vs-scalar equivalence property
  /// test and sweep_bench's kernel_speedup measurement hang off this knob.
  bool single_step = false;
};

/// Region-based stream prefetcher (one per core). Detects ascending
/// line sequences within 2 MB regions and, once confident, streams the
/// following lines from DRAM ahead of demand. Prefetched lines sit in a
/// line-fill buffer: a later demand miss to one pays only the residual
/// latency. This is what makes strided codes *bandwidth*-bound (OoO-
/// insensitive, channel-sensitive) while irregular codes stay
/// *latency*-bound — the distinction §V-B.3/§V-B.4 of the paper hinges on.
///
/// Public (not nested in CoreModel) so the stream-detector and FIFO
/// compaction edge cases are unit-testable in isolation.
struct StreamPrefetcher {
  static constexpr int kDepth = 4;        // lines fetched ahead
  static constexpr int kConfidence = 2;   // +1 steps before streaming
  static constexpr std::size_t kMaxInflight = 8192;  // line-fill capacity
  /// No miss observed yet in this region. Without the sentinel a fresh
  /// region (zero-initialised last_line) would score a first miss on line 1
  /// as a stream continuation of line 0.
  static constexpr std::uint64_t kNoLine = ~0ull;
  /// Dead-entry slack before the FIFO compacts (see admit()).
  static constexpr std::size_t kCompactSlack = 64;

  struct RegionState {
    std::uint64_t last_line = kNoLine;
    int confidence = 0;
  };
  struct Line {
    double ready_ns = 0.0;
    std::uint64_t seq = 0;  // insertion order, for exact FIFO eviction
  };
  // Both tables sit on the per-miss path: open-addressed flat storage
  // (one cache line per probe, no per-insert allocation) instead of
  // std::unordered_map node soup.
  FlatTable64<RegionState> regions{1024};
  FlatTable64<Line> inflight{kMaxInflight};  // line -> Line
  // Insertion-order queue of (line, seq) used to find the oldest entry
  // when the buffer overflows. Entries whose seq no longer matches the
  // table (consumed and re-prefetched lines) are skipped as stale.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> fifo;
  std::size_t fifo_head = 0;
  std::uint64_t next_seq = 0;

  /// Stream detection for a demand miss on `line`: an ascending-line miss
  /// builds confidence, a jump resets it, and a *repeat* of the last-seen
  /// line is neutral — a line re-missing after eviction says nothing about
  /// the stream's direction, so it must not tear down an established
  /// stream. Returns true once the region is confident enough to stream.
  bool observe_miss(std::uint64_t line) {
    RegionState& rs = regions.find_or_insert(line >> 15);
    if (line != rs.last_line) {
      rs.confidence = rs.last_line != kNoLine && line == rs.last_line + 1
                          ? rs.confidence + 1
                          : 0;
      rs.last_line = line;
    }
    return rs.confidence >= kConfidence;
  }

  /// Record `line` as in flight (ready at `ready_ns`).
  void admit(std::uint64_t line, double ready_ns);
  /// Drop oldest entries until at most kMaxInflight remain; returns how
  /// many live lines were evicted.
  std::uint64_t evict_to_capacity();
};

class CoreModel {
 public:
  /// The hierarchy and DRAM system are borrowed; `core_id` selects the
  /// private L1/L2 pair inside the hierarchy.
  CoreModel(const CoreConfig& config, Frequency freq,
            cachesim::MemHierarchy& hierarchy, dramsim::DramSystem& dram,
            int core_id = 0);

  /// Consumes the whole source (through the fusion pass) and returns timing
  /// plus activity statistics. Runs the batched block path unless the
  /// options demand single-step semantics (resumable quantum runs pull
  /// exactly what they retire; the block path reads ahead).
  CoreStats run(trace::InstrSource& source, const CoreRunOptions& options);

  /// Times blocks that were fused ahead of time — the memoized sweep's
  /// measured slice (core/stage_memo.hpp), fused once per vector width —
  /// on the same block loop run() feeds from VectorFusion. The CoreStats
  /// are bit-identical to run() over the scalar slice the blocks were
  /// fused from at `options.vector_bits`. The blocks carry their fusion,
  /// so `options.vector_bits` is not read; options that demand single-step
  /// semantics (single_step, max_scalar_instrs, max_cycle) throw SimError.
  CoreStats run_fused(const std::vector<isa::FusedBlock>& blocks,
                      const CoreRunOptions& options);

 private:
  /// The batched timing loop: walks SoA fused-instruction blocks
  /// (isa::FusedBlock) pulled from `next_block()` until it returns null.
  /// run() feeds it from VectorFusion, run_fused() from stored blocks.
  template <typename NextBlock>
  CoreStats run_blocks(NextBlock&& next_block, const CoreRunOptions& options);
  /// Retained single-step reference path (and the only path implementing
  /// max_scalar_instrs / max_cycle early exit).
  CoreStats run_single_step(trace::InstrSource& source,
                            const CoreRunOptions& options);

  /// Reset the per-run ring buffers / FU pools to `t0` without reallocating.
  void reset_rings(double t0);

  double fu_acquire(std::vector<double>& pool, double ready, double busy);
  /// Memory access for a fused op (`lanes` addresses `stride` bytes apart
  /// starting at `addr`); returns load-to-use latency in cycles.
  double mem_access(std::uint64_t addr, std::int64_t stride, int lanes,
                    double issue_cycle, bool is_write, CoreStats& stats);

  CoreConfig config_;
  Frequency freq_;
  cachesim::MemHierarchy& hierarchy_;
  dramsim::DramSystem& dram_;
  int core_id_;
  StreamPrefetcher prefetcher_;
  bool prefetch_enabled_ = true;

  // Per-run ring buffers, sized once at construction and reset (not
  // reallocated) at every run() — run() is called per phase per point, so
  // these were seven heap allocations on the sweep's hot path.
  std::vector<double> rob_release_, irf_release_, frf_release_, sb_release_;
  std::vector<double> alu_pool_, fpu_pool_, lsu_pool_;
  // Scratch for mem_access: coalesced per-line representative addresses and
  // their hierarchy outcomes (reused across calls, no per-op allocation).
  std::vector<std::uint64_t> line_addrs_;
  std::vector<cachesim::MemOutcome> line_outcomes_;
};

}  // namespace musa::cpusim
