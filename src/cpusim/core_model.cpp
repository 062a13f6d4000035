#include "cpusim/core_model.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/deadline.hpp"
#include "isa/latencies.hpp"
#include "trace/instr_source.hpp"

namespace musa::cpusim {

namespace {
constexpr double kStoreCommitLatency = 1.0;  // store data into the buffer

// Per-class tables for the block loop, indexed by OpClass value:
// IntAlu, IntMul, FpAdd, FpMul, FpDiv, Load, Store, Branch. They mirror
// isa::exec_latency and the pipelined-unless-divide occupancy rule of the
// single-step path exactly (int → double is value-preserving, so the two
// paths stay bit-identical).
constexpr double kBusy[isa::kNumOpClasses] = {1.0, 1.0, 1.0,  1.0,
                                              18.0, 1.0, 1.0, 1.0};
constexpr double kExecLatency[isa::kNumOpClasses] = {1.0,  3.0, 3.0, 4.0,
                                                     18.0, 1.0, 1.0, 1.0};

/// The block path reads the source ahead of what it retires, so any run
/// that can stop early (instruction or cycle bound) and expects the source
/// positioned at the stop point must single-step: node_detailed resumes
/// cores from a shared source across time quanta.
bool needs_single_step(const CoreRunOptions& options) {
  return options.single_step || options.max_scalar_instrs != 0 ||
         options.max_cycle != 0.0;
}
}  // namespace

CoreModel::CoreModel(const CoreConfig& config, Frequency freq,
                     cachesim::MemHierarchy& hierarchy,
                     dramsim::DramSystem& dram, int core_id)
    : config_(config),
      freq_(freq),
      hierarchy_(hierarchy),
      dram_(dram),
      core_id_(core_id) {
  MUSA_CHECK_MSG(config.rob > 0 && config.issue_width > 0, "bad core config");
  MUSA_CHECK_MSG(config.alus > 0 && config.fpus > 0 && config.lsus > 0,
                 "core needs FUs");
  MUSA_CHECK_MSG(config.irf > 0 && config.frf > 0 && config.store_buffer > 0,
                 "core needs registers and a store buffer");
  rob_release_.resize(static_cast<std::size_t>(config.rob));
  irf_release_.resize(static_cast<std::size_t>(config.irf));
  frf_release_.resize(static_cast<std::size_t>(config.frf));
  sb_release_.resize(static_cast<std::size_t>(config.store_buffer));
  alu_pool_.resize(static_cast<std::size_t>(config.alus));
  fpu_pool_.resize(static_cast<std::size_t>(config.fpus));
  lsu_pool_.resize(static_cast<std::size_t>(config.lsus));
}

void StreamPrefetcher::admit(std::uint64_t line, double ready_ns) {
  Line& entry = inflight.find_or_insert(line);
  entry.ready_ns = ready_ns;
  entry.seq = next_seq;
  fifo.emplace_back(line, next_seq);
  ++next_seq;
  // Compact once dead entries dominate. Every live in-flight line has
  // exactly one fifo entry whose seq matches the table (re-admits stale the
  // older entry), so live == inflight.size() and the predicate fires on the
  // dead fraction alone — a run that keeps consuming entries without ever
  // overflowing the buffer stays bounded too, not just one that pushes
  // fifo_head past the capacity. Amortised O(1): each compaction scans
  // entries that each paid O(1) on admission.
  if (fifo.size() >= 2 * (inflight.size() + kCompactSlack)) {
    std::size_t keep = 0;
    for (std::size_t i = fifo_head; i < fifo.size(); ++i) {
      const Line* live = inflight.find(fifo[i].first);
      if (live != nullptr && live->seq == fifo[i].second)
        fifo[keep++] = fifo[i];
    }
    fifo.resize(keep);
    fifo_head = 0;
  }
}

std::uint64_t StreamPrefetcher::evict_to_capacity() {
  std::uint64_t evicted = 0;
  while (inflight.size() > kMaxInflight && fifo_head < fifo.size()) {
    const auto [line, seq] = fifo[fifo_head++];
    const Line* entry = inflight.find(line);
    if (entry == nullptr || entry->seq != seq) continue;  // already consumed
    inflight.erase(line);
    ++evicted;
  }
  return evicted;
}

double CoreModel::fu_acquire(std::vector<double>& pool, double ready,
                             double busy) {
  // Pick the earliest-free unit; pools are ≤ 8 entries, linear scan is fine.
  std::size_t best = 0;
  for (std::size_t i = 1; i < pool.size(); ++i)
    if (pool[i] < pool[best]) best = i;
  const double start = std::max(ready, pool[best]);
  pool[best] = start + busy;
  return start;
}

double CoreModel::mem_access(std::uint64_t addr, std::int64_t stride,
                             int lanes, double issue_cycle, bool is_write,
                             CoreStats& stats) {
  // A fused memory op touches `lanes` addresses `stride` bytes apart; every
  // distinct cache line is accessed (so bandwidth and cache state are fully
  // charged — the paper's fusion model "doubles the size to account for
  // memory bandwidth"), while the op's load-to-use latency is that of the
  // leading line: trailing lines stream behind it, matching the paper's
  // deliberately optimistic vectorisation model (§III).
  //
  // Phase split: the coalesced line list goes through the hierarchy in one
  // batched walk, then DRAM/prefetcher effects are applied per line in the
  // original order. Cache state is touched only by phase 1 and DRAM/
  // prefetcher state only by phase 2, and each phase preserves the per-line
  // order, so the split is outcome-identical to the interleaved loop.
  line_addrs_.clear();
  std::uint64_t prev_line = ~0ull;
  for (int lane = 0; lane < lanes; ++lane) {
    const std::uint64_t a =
        addr +
        static_cast<std::uint64_t>(static_cast<std::int64_t>(lane) * stride);
    const std::uint64_t line = a / cachesim::kLineBytes;
    if (line == prev_line) continue;  // coalesced with the previous lane
    prev_line = line;
    line_addrs_.push_back(a);
  }
  const std::size_t n = line_addrs_.size();
  if (n == 0) return hierarchy_.config().l1.latency_cycles;
  line_outcomes_.resize(n);
  hierarchy_.access_block(core_id_, line_addrs_.data(), n, is_write,
                          line_outcomes_.data());

  const bool prefetch_on = prefetch_enabled_;
  const double period = freq_.period_ns();
  const double issue_ns = issue_cycle * period;
  double lead = -1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const cachesim::MemOutcome& out = line_outcomes_[i];
    double lat = out.latency_cycles;
    if (out.dram_read) {
      const std::uint64_t a = line_addrs_[i];
      const std::uint64_t line = a / cachesim::kLineBytes;
      // Line-fill buffer hit: a prefetch already fetched (or is fetching)
      // this line; pay only the residual time.
      const StreamPrefetcher::Line* pf =
          prefetch_on ? prefetcher_.inflight.find(line) : nullptr;
      if (pf != nullptr) {
        lat = std::max<double>(out.latency_cycles,
                               (pf->ready_ns - issue_ns) / period);
        prefetcher_.inflight.erase(line);
      } else {
        ++stats.dram_reads;
        const double done_ns =
            dram_.request(issue_ns + out.latency_cycles * period, a,
                          /*is_write=*/false);
        lat = (done_ns - issue_ns) / period;
      }

      // Stream detection per 2 MB region; confident streams prefetch the
      // next lines so later demand misses find them in flight.
      if (prefetch_on && prefetcher_.observe_miss(line)) {
        for (int ahead = 1; ahead <= StreamPrefetcher::kDepth; ++ahead) {
          const std::uint64_t next = line + ahead;
          if (prefetcher_.inflight.contains(next)) continue;
          ++stats.dram_reads;
          prefetcher_.admit(next, dram_.request(issue_ns,
                                                next * cachesim::kLineBytes,
                                                /*is_write=*/false));
        }
        // Over capacity the *oldest* in-flight lines fall out of the
        // line-fill buffer (their DRAM requests were already issued and
        // paid for; only the latency benefit is lost). The previous
        // behaviour — dropping the entire buffer — forfeited every
        // outstanding prefetch at once.
        stats.pf_evictions += prefetcher_.evict_to_capacity();
      }
    }
    if (out.dram_writebacks > 0) {
      stats.dram_writes += out.dram_writebacks;
      // Write-backs drain in the background; they consume DRAM bandwidth
      // (affecting later reads through the channel state) but do not stall
      // this instruction.
      dram_.request(issue_ns, out.wb_addr, /*is_write=*/true);
    }
    if (lead < 0) lead = lat;
  }
  return lead < 0 ? hierarchy_.config().l1.latency_cycles : lead;
}

void CoreModel::reset_rings(double t0) {
  for (auto* v : {&rob_release_, &irf_release_, &frf_release_, &sb_release_,
                  &alu_pool_, &fpu_pool_, &lsu_pool_})
    std::fill(v->begin(), v->end(), t0);
}

CoreStats CoreModel::run(trace::InstrSource& source,
                         const CoreRunOptions& options) {
  prefetch_enabled_ = options.enable_prefetcher;
  if (needs_single_step(options)) return run_single_step(source, options);
  isa::VectorFusion fusion(source, options.vector_bits);
  isa::FusedBlock block;
  return run_blocks(
      [&]() -> const isa::FusedBlock* {
        return fusion.next_block(block) ? &block : nullptr;
      },
      options);
}

CoreStats CoreModel::run_fused(const std::vector<isa::FusedBlock>& blocks,
                               const CoreRunOptions& options) {
  MUSA_CHECK_MSG(!needs_single_step(options),
                 "pre-fused blocks cannot replay single-step or bounded runs");
  prefetch_enabled_ = options.enable_prefetcher;
  auto it = blocks.begin();
  return run_blocks(
      [&]() -> const isa::FusedBlock* {
        return it != blocks.end() ? &*it++ : nullptr;
      },
      options);
}

CoreStats CoreModel::run_single_step(trace::InstrSource& source,
                                     const CoreRunOptions& options) {
  CoreStats stats;
  isa::VectorFusion fusion(source, options.vector_bits);
  // A bounded run can stop mid-stream and the caller may resume the same
  // source later (time-quantum execution): the fusion pass must consume the
  // source one instruction at a time, never ahead of what it retires.
  if (options.max_scalar_instrs != 0 || options.max_cycle != 0.0)
    fusion.disable_bulk_pull();

  // Scoreboard of register ready-times.
  const double t0 = options.start_cycle;
  std::array<double, isa::kNumRegs> reg_ready{};
  // Ring buffers of resource release times: an op reusing entry (i mod N)
  // must wait for that entry's previous owner to release it. The vectors
  // are member scratch (sized at construction) so repeated run() calls on
  // the sweep hot path reset them in place instead of reallocating.
  reset_rings(t0);
  std::vector<double>& rob_release = rob_release_;
  std::vector<double>& irf_release = irf_release_;
  std::vector<double>& frf_release = frf_release_;
  std::vector<double>& sb_release = sb_release_;
  std::vector<double>& alu_pool = alu_pool_;
  std::vector<double>& fpu_pool = fpu_pool_;
  std::vector<double>& lsu_pool = lsu_pool_;

  const double dispatch_step = 1.0 / config_.issue_width;
  double last_dispatch = t0;
  double last_commit = t0;
  // Ring positions as wrapping indices: `counter % size` costs an integer
  // division per op on the sweep hot path, the compare-and-reset does not.
  const std::size_t rob_n = rob_release.size(), irf_n = irf_release.size(),
                    frf_n = frf_release.size(), sb_n = sb_release.size();
  std::size_t rob_i = 0, irf_i = 0, frf_i = 0, sb_i = 0;

  isa::FusedInstr op;
  while ((options.max_scalar_instrs == 0 ||
          stats.scalar_instrs < options.max_scalar_instrs) &&
         (options.max_cycle == 0.0 || last_commit < options.max_cycle) &&
         fusion.next(op)) {
    deadline::poll();
    const isa::OpClass cls = op.first.op;

    // ---- Dispatch: bandwidth + ROB + RF + SB occupancy ----
    double dispatch =
        std::max(last_dispatch + dispatch_step, rob_release[rob_i]);
    const bool has_dst = op.first.dst != isa::kNoReg;
    const bool fp_dst = has_dst && op.first.dst >= isa::kFpRegBase;
    if (has_dst) {
      if (fp_dst)
        dispatch = std::max(dispatch, frf_release[frf_i]);
      else
        dispatch = std::max(dispatch, irf_release[irf_i]);
    }
    if (cls == isa::OpClass::kStore)
      dispatch = std::max(dispatch, sb_release[sb_i]);
    last_dispatch = dispatch;

    // ---- Issue: operand readiness + functional unit ----
    double ready = dispatch;
    if (op.first.src1 != isa::kNoReg)
      ready = std::max(ready, reg_ready[op.first.src1]);
    if (op.first.src2 != isa::kNoReg)
      ready = std::max(ready, reg_ready[op.first.src2]);

    // Pipelined units occupy one slot-cycle; divides block the unit.
    const double busy = cls == isa::OpClass::kFpDiv
                            ? static_cast<double>(isa::exec_latency(cls))
                            : 1.0;
    std::vector<double>& pool = isa::is_fp(cls)    ? fpu_pool
                                : isa::is_mem(cls) ? lsu_pool
                                                   : alu_pool;
    const double start = fu_acquire(pool, ready, busy);

    // ---- Execute ----
    double complete;
    double release = 0.0;  // extra lifetime for SB entries
    switch (cls) {
      case isa::OpClass::kLoad: {
        const double lat = options.perfect_memory
                               ? hierarchy_.config().l1.latency_cycles
                               : mem_access(op.first.addr, op.stride, op.lanes,
                                            start, /*is_write=*/false, stats);
        complete = start + lat;
        break;
      }
      case isa::OpClass::kStore: {
        complete = start + kStoreCommitLatency;
        // The buffered store drains to memory after commit; the entry is
        // held until the write completes.
        const double drain = options.perfect_memory
                                 ? hierarchy_.config().l1.latency_cycles
                                 : mem_access(op.first.addr, op.stride,
                                              op.lanes, start,
                                              /*is_write=*/true, stats);
        release = drain;
        break;
      }
      default:
        complete = start + isa::exec_latency(cls);
        break;
    }

    // ---- Writeback / commit ----
    if (has_dst) reg_ready[op.first.dst] = complete;
    const double commit = std::max(complete, last_commit + dispatch_step);
    last_commit = commit;
    rob_release[rob_i] = commit;
    if (++rob_i == rob_n) rob_i = 0;
    if (has_dst) {
      // Physical registers recycle at completion (early release): holding
      // them to commit would double-count the ROB occupancy limit.
      if (fp_dst) {
        frf_release[frf_i] = complete;
        if (++frf_i == frf_n) frf_i = 0;
      } else {
        irf_release[irf_i] = complete;
        if (++irf_i == irf_n) irf_i = 0;
      }
    }
    if (cls == isa::OpClass::kStore) {
      sb_release[sb_i] = commit + release;
      if (++sb_i == sb_n) sb_i = 0;
    }

    // ---- Statistics ----
    ++stats.fused_ops;
    stats.scalar_instrs += op.lanes;
    const auto ci = static_cast<std::size_t>(cls);
    ++stats.class_ops[ci];
    stats.class_lanes[ci] += op.lanes;
  }

  stats.cycles = last_commit - t0;
  stats.l1_accesses = hierarchy_.total_l1_stats().accesses;
  stats.l1_misses = hierarchy_.total_l1_stats().misses;
  stats.l2_accesses = hierarchy_.total_l2_stats().accesses;
  stats.l2_misses = hierarchy_.total_l2_stats().misses;
  stats.l3_accesses = hierarchy_.l3_stats().accesses;
  stats.l3_misses = hierarchy_.l3_stats().misses;
  stats.dram = dram_.total_counters();
  return stats;
}

template <typename NextBlock>
CoreStats CoreModel::run_blocks(NextBlock&& next_block,
                                const CoreRunOptions& options) {
  CoreStats stats;
  const double t0 = options.start_cycle;
  // Scoreboard extended with a dead slot so src reads are unconditional:
  // kNoReg (0xff) indexes slot 255, which stays 0.0 forever (writes are
  // guarded by has_dst and real registers are < 64) and 0.0 never exceeds
  // `ready`, so max() with it is the identity — same result as the
  // branching reads of the single-step path, without the two branches on
  // every op.
  std::array<double, 256> reg_ready{};
  reset_rings(t0);
  // Raw pointers into the member rings: indexing through the vectors makes
  // every release-array touch reload the data pointer after any opaque call
  // (mem_access and the DRAM model may alias anything as far as the
  // compiler can tell); the pointees are still re-read as required, but the
  // bases stay in registers across the whole run.
  double* const rob_release = rob_release_.data();
  double* const irf_release = irf_release_.data();
  double* const frf_release = frf_release_.data();
  double* const sb_release = sb_release_.data();
  // Per-class FU pool table (order = OpClass): int/branch → ALU, fp → FPU,
  // mem → LSU, matching the is_fp/is_mem selection of the single-step path.
  struct Pool {
    double* data;
    std::size_t n;
  };
  const Pool alu{alu_pool_.data(), alu_pool_.size()};
  const Pool fpu{fpu_pool_.data(), fpu_pool_.size()};
  const Pool lsu{lsu_pool_.data(), lsu_pool_.size()};
  const Pool pool_of[isa::kNumOpClasses] = {alu, alu, fpu, fpu,
                                            fpu, lsu, lsu, alu};

  const double dispatch_step = 1.0 / config_.issue_width;
  const double l1_lat = hierarchy_.config().l1.latency_cycles;
  const bool perfect = options.perfect_memory;
  cachesim::Cache& l1 = hierarchy_.l1_cache(core_id_);
  double last_dispatch = t0;
  double last_commit = t0;
  const std::size_t rob_n = rob_release_.size(), irf_n = irf_release_.size(),
                    frf_n = frf_release_.size(), sb_n = sb_release_.size();
  std::size_t rob_i = 0, irf_i = 0, frf_i = 0, sb_i = 0;
  // Per-class tallies in locals whose address never escapes (unlike
  // `stats`, which is handed to mem_access and so lives in memory): the
  // three per-op counter bumps stay register-resident across the loop.
  std::uint64_t scalar_instrs = 0;
  std::array<std::uint64_t, isa::kNumOpClasses> class_ops{};
  std::array<std::uint64_t, isa::kNumOpClasses> class_lanes{};

  while (const isa::FusedBlock* next = next_block()) {
    const isa::FusedBlock& block = *next;
    // One watchdog poll and one block fetch per block, not per op.
    deadline::poll();
    // Per-class tallies are a pure function of the block's columns: count
    // them in their own tight pass so the timing loop below carries no
    // counter read-modify-writes.
    for (std::size_t i = 0; i < block.size; ++i) {
      const auto ci = static_cast<std::size_t>(block.cls[i]);
      const std::uint16_t lanes = block.lanes[i];
      scalar_instrs += lanes;
      ++class_ops[ci];
      class_lanes[ci] += lanes;
    }
    for (std::size_t i = 0; i < block.size; ++i) {
      const isa::OpClass cls = block.cls[i];
      const auto ci = static_cast<std::size_t>(cls);
      const std::uint8_t dst = block.dst[i];

      // ---- Dispatch ----
      // Branchless gates: a constraint that does not apply resolves to t0,
      // which no pipeline time ever drops below (everything starts at t0
      // and only grows), so max() with it is the identity — bit-identical
      // to the guarded version of the single-step path. Reassociating the
      // four-way max into a tree is exact too (plain non-NaN doubles; no
      // ±0 mixing since all times are ≥ t0): both gates resolve off the
      // loop-carried last_dispatch chain instead of serialising behind it.
      const bool has_dst = dst != isa::kNoReg;
      const bool fp_dst = has_dst && dst >= isa::kFpRegBase;
      const double rf_gate =
          has_dst ? (fp_dst ? frf_release[frf_i] : irf_release[irf_i]) : t0;
      const bool is_store = cls == isa::OpClass::kStore;
      const double sb_gate = is_store ? sb_release[sb_i] : t0;
      const double dispatch =
          std::max(std::max(last_dispatch + dispatch_step, rob_release[rob_i]),
                   std::max(rf_gate, sb_gate));
      last_dispatch = dispatch;

      // ---- Issue ----
      const double ready =
          std::max(dispatch, std::max(reg_ready[block.src1[i]],
                                      reg_ready[block.src2[i]]));
      // fu_acquire inlined on the raw pool, split into a branchless value
      // scan (std::min chains compile to minsd, no data-dependent branch
      // to mispredict) and a first-match index pick — the same unit the
      // strict-< scan of fu_acquire chooses, with the same start time.
      const Pool& pl = pool_of[ci];
      double pool_min = pl.data[0];
      for (std::size_t k = 1; k < pl.n; ++k)
        pool_min = std::min(pool_min, pl.data[k]);
      std::size_t best = pl.n - 1;
      for (std::size_t k = pl.n - 1; k-- > 0;)
        if (pl.data[k] == pool_min) best = k;
      const double start = std::max(ready, pool_min);
      pl.data[best] = start + kBusy[ci];

      // ---- Execute ----
      // Fast path: the dominant non-memory classes complete off the
      // latency table with no memory-system involvement at all.
      double complete;
      double release = 0.0;
      if (!isa::is_mem(cls)) {
        complete = start + kExecLatency[ci];
      } else {
        // Memory fast path: when every lane of the fused op falls into one
        // cache line (the overwhelming replay case — unit strides coalesce,
        // scalar ops are single-lane) and that line hits L1, the access is
        // fully resolved right here: the L1 probe performs the exact
        // access() hit side effects and nothing downstream (L2/L3, DRAM,
        // prefetcher) would have been touched anyway. Same-line test:
        // lane addresses are monotone in the lane index, so if the first
        // and last lane share a line every lane does (a line is a
        // contiguous range). Any other case — multi-line, L1 miss,
        // perfect memory — takes the generic path, which starts from the
        // same cache state because a failed probe changes nothing.
        const std::uint64_t a = block.addr[i];
        const std::int64_t stride = block.stride[i];
        const std::uint16_t lanes = block.lanes[i];
        const std::uint64_t last =
            a + static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(lanes - 1) * stride);
        const bool single_line = a / cachesim::kLineBytes ==
                                 last / cachesim::kLineBytes;
        double lat;
        if (perfect) {
          lat = l1_lat;
        } else if (single_line && l1.try_hit(a, is_store)) {
          lat = l1_lat;
        } else {
          lat = mem_access(a, stride, lanes, start, is_store, stats);
        }
        if (is_store) {
          complete = start + kStoreCommitLatency;
          release = lat;
        } else {
          complete = start + lat;
        }
      }

      // ---- Writeback / commit ----
      if (has_dst) reg_ready[dst] = complete;
      const double commit = std::max(complete, last_commit + dispatch_step);
      last_commit = commit;
      rob_release[rob_i] = commit;
      if (++rob_i == rob_n) rob_i = 0;
      if (has_dst) {
        if (fp_dst) {
          frf_release[frf_i] = complete;
          if (++frf_i == frf_n) frf_i = 0;
        } else {
          irf_release[irf_i] = complete;
          if (++irf_i == irf_n) irf_i = 0;
        }
      }
      if (is_store) {
        sb_release[sb_i] = commit + release;
        if (++sb_i == sb_n) sb_i = 0;
      }
    }
    stats.fused_ops += block.size;
  }

  stats.scalar_instrs = scalar_instrs;
  stats.class_ops = class_ops;
  stats.class_lanes = class_lanes;
  stats.cycles = last_commit - t0;
  stats.l1_accesses = hierarchy_.total_l1_stats().accesses;
  stats.l1_misses = hierarchy_.total_l1_stats().misses;
  stats.l2_accesses = hierarchy_.total_l2_stats().accesses;
  stats.l2_misses = hierarchy_.total_l2_stats().misses;
  stats.l3_accesses = hierarchy_.l3_stats().accesses;
  stats.l3_misses = hierarchy_.l3_stats().misses;
  stats.dram = dram_.total_counters();
  return stats;
}

}  // namespace musa::cpusim
