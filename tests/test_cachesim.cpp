// Unit and property tests for the cache simulator.
#include <gtest/gtest.h>

#include "cachesim/cache.hpp"
#include "cachesim/hierarchy.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace musa::cachesim {
namespace {

TEST(Cache, ColdMissThenHit) {
  Cache c({.size_bytes = 4096, .ways = 4, .latency_cycles = 2});
  EXPECT_FALSE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x1038, false).hit);  // same 64 B line
  EXPECT_EQ(c.stats().accesses, 3u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, LruEvictsOldest) {
  // 2-way, pick addresses mapping to the same set.
  Cache c({.size_bytes = 2 * 64 * 4, .ways = 2});  // 4 sets, 2 ways
  const std::uint64_t set_stride = 4 * 64;  // same set every 4 lines
  c.access(0 * set_stride, false);
  c.access(1 * set_stride, false);
  c.access(0 * set_stride, false);  // refresh line 0
  c.access(2 * set_stride, false);  // evicts line 1 (LRU)
  EXPECT_TRUE(c.probe(0 * set_stride));
  EXPECT_FALSE(c.probe(1 * set_stride));
  EXPECT_TRUE(c.probe(2 * set_stride));
}

TEST(Cache, DirtyVictimReportsWriteback) {
  Cache c({.size_bytes = 2 * 64, .ways = 1});  // 2 sets, direct mapped
  c.access(0, true);  // dirty
  const AccessOutcome out = c.access(2 * 64, false);  // same set 0
  EXPECT_TRUE(out.writeback);
  EXPECT_EQ(out.victim_addr, 0u);
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, CleanVictimNoWriteback) {
  Cache c({.size_bytes = 2 * 64, .ways = 1});
  c.access(0, false);
  EXPECT_FALSE(c.access(2 * 64, false).writeback);
}

TEST(Cache, NonPowerOfTwoCapacity) {
  // 96 MB-class configuration: sets are not a power of two.
  Cache c({.size_bytes = 96 * kMiB, .ways = 16});
  EXPECT_EQ(c.config().num_sets(), 96 * kMiB / 64 / 16);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) c.access(rng.next_u64() % (1ull << 40), false);
  EXPECT_EQ(c.stats().accesses, 10000u);
  EXPECT_LE(c.stats().misses, c.stats().accesses);
}

TEST(Cache, FlushClearsContents) {
  Cache c({.size_bytes = 4096, .ways = 4});
  c.access(0x40, false);
  c.flush(/*clear_stats=*/false);
  EXPECT_FALSE(c.probe(0x40));
  EXPECT_EQ(c.stats().accesses, 1u);  // stats preserved
  c.reset_stats();
  EXPECT_EQ(c.stats().accesses, 0u);
}

TEST(Cache, CopyAfterHintedHitNeverWritesTheSource) {
  // A try_hit hit leaves a hint pointing into the cache's own lines. A copy
  // must not inherit it: probing the copy through the source's hint would
  // mark the *source's* line dirty and most recently used (a data race on a
  // shared memo snapshot).
  Cache src({.size_bytes = 2 * 64 * 4, .ways = 2});  // 4 sets, 2 ways
  const std::uint64_t set_stride = 4 * 64;
  const std::uint64_t a = 0, b = set_stride, c = 2 * set_stride;
  src.access(b, false);
  src.access(a, false);
  ASSERT_TRUE(src.try_hit(a, false));  // hints line a
  src.access(b, false);                // hit: b is MRU, a LRU, hint kept
  const CacheStats before = src.stats();

  Cache copy = src;
  ASSERT_TRUE(copy.try_hit(a, /*is_write=*/true));
  EXPECT_EQ(src.stats().accesses, before.accesses);

  // The source still evicts a (LRU, clean) on the next conflict miss...
  EXPECT_FALSE(src.access(c, false).writeback);
  EXPECT_FALSE(src.probe(a));
  EXPECT_TRUE(src.probe(b));
  // ...while the copy saw its own a become dirty and most recently used.
  EXPECT_FALSE(copy.access(c, false).writeback);  // evicts b
  EXPECT_TRUE(copy.probe(a));
  EXPECT_TRUE(copy.access(3 * set_stride, false).writeback);  // evicts a

  // Copy assignment drops the hint the same way.
  Cache assigned({.size_bytes = 64, .ways = 1});
  assigned = src;
  ASSERT_TRUE(src.try_hit(c, false));
  assigned = src;
  const std::uint64_t src_accesses = src.stats().accesses;
  ASSERT_TRUE(assigned.try_hit(c, true));
  EXPECT_EQ(src.stats().accesses, src_accesses);
  EXPECT_FALSE(src.access(a, false).writeback);  // evicts b
  EXPECT_FALSE(src.access(3 * set_stride, false).writeback);  // evicts c
}

TEST(Cache, RejectsDegenerateConfigs) {
  EXPECT_THROW(Cache({.size_bytes = 64, .ways = 2}), SimError);
  EXPECT_THROW(Cache({.size_bytes = 4096, .ways = 0}), SimError);
}

TEST(CacheStats, MpkiComputation) {
  CacheStats s;
  s.accesses = 1000;
  s.misses = 50;
  EXPECT_DOUBLE_EQ(s.mpki(10000), 5.0);
  EXPECT_DOUBLE_EQ(s.miss_ratio(), 0.05);
  EXPECT_DOUBLE_EQ(CacheStats{}.mpki(0), 0.0);
}

// Property: a working set that fits is fully resident after one pass.
class ResidencySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ResidencySweep, FittingWorkingSetHitsAfterWarmup) {
  const std::uint64_t ws = GetParam();
  Cache c({.size_bytes = 256 * 1024, .ways = 8});
  for (std::uint64_t a = 0; a < ws; a += 64) c.access(a, false);  // warm
  c.reset_stats();
  for (std::uint64_t a = 0; a < ws; a += 64) c.access(a, false);
  if (ws <= 256 * 1024) {
    EXPECT_EQ(c.stats().misses, 0u) << "ws=" << ws;
  } else {
    EXPECT_GT(c.stats().misses, 0u) << "ws=" << ws;  // cyclic LRU thrash
  }
}

INSTANTIATE_TEST_SUITE_P(WorkingSets, ResidencySweep,
                         ::testing::Values(16 * 1024, 64 * 1024, 128 * 1024,
                                           256 * 1024, 512 * 1024,
                                           1024 * 1024));

TEST(Hierarchy, LevelsReportCorrectly) {
  MemHierarchy h(cache_32m_256k(1));
  const MemOutcome first = h.access(0, 0x10000, false);
  EXPECT_EQ(first.level, HitLevel::kMemory);
  EXPECT_TRUE(first.dram_read);
  const MemOutcome second = h.access(0, 0x10000, false);
  EXPECT_EQ(second.level, HitLevel::kL1);
  EXPECT_EQ(second.latency_cycles, h.config().l1.latency_cycles);
}

TEST(Hierarchy, L2HitAfterL1Eviction) {
  HierarchyConfig cfg = cache_32m_256k(1);
  MemHierarchy h(cfg);
  // Touch enough distinct lines to overflow L1 (32 kB) but not L2 (256 kB).
  for (std::uint64_t a = 0; a < 128 * 1024; a += 64) h.access(0, a, false);
  const MemOutcome out = h.access(0, 0, false);  // evicted from L1, in L2
  EXPECT_EQ(out.level, HitLevel::kL2);
}

TEST(Hierarchy, PrivateCachesDoNotInterfere) {
  HierarchyConfig cfg = cache_32m_256k(2);
  MemHierarchy h(cfg);
  h.access(0, 0x4000, false);
  // Core 1 misses its own L1/L2 but hits the shared L3.
  const MemOutcome out = h.access(1, 0x4000, false);
  EXPECT_EQ(out.level, HitLevel::kL3);
  EXPECT_EQ(h.l1_stats(0).accesses, 1u);
  EXPECT_EQ(h.l1_stats(1).accesses, 1u);
}

TEST(Hierarchy, WritebackCascadesToDram) {
  // Tiny custom hierarchy so evictions cascade fast.
  HierarchyConfig cfg;
  cfg.l1 = {.size_bytes = 2 * 64, .ways = 1, .latency_cycles = 1};
  cfg.l2 = {.size_bytes = 4 * 64, .ways = 1, .latency_cycles = 3};
  cfg.l3 = {.size_bytes = 8 * 64, .ways = 1, .latency_cycles = 10};
  cfg.num_cores = 1;
  MemHierarchy h(cfg);
  std::uint64_t wb = 0;
  // Dirty many conflicting lines; eventually dirty L3 victims emerge.
  for (std::uint64_t i = 0; i < 64; ++i) {
    const MemOutcome out = h.access(0, i * 8 * 64, true);
    wb += out.dram_writebacks;
  }
  EXPECT_GT(wb, 0u);
}

TEST(Hierarchy, TotalsAggregateCores) {
  MemHierarchy h(cache_32m_256k(4));
  for (int core = 0; core < 4; ++core) h.access(core, 0x9000, false);
  EXPECT_EQ(h.total_l1_stats().accesses, 4u);
  EXPECT_EQ(h.total_l1_stats().misses, 4u);
  EXPECT_EQ(h.l3_stats().accesses, 4u);
  EXPECT_EQ(h.l3_stats().misses, 1u);  // first core allocated it
}

TEST(Hierarchy, ResetStatsKeepsContents) {
  MemHierarchy h(cache_32m_256k(1));
  h.access(0, 0x2000, false);
  h.reset_stats();
  EXPECT_EQ(h.l3_stats().accesses, 0u);
  EXPECT_EQ(h.access(0, 0x2000, false).level, HitLevel::kL1);  // still warm
}

TEST(Hierarchy, RejectsBadCoreIndex) {
  // The core-index range check sits on the hottest path in the simulator,
  // so it is a MUSA_DCHECK: enforced in debug/sanitizer builds, compiled
  // out in release builds.
#if MUSA_DCHECK_ENABLED
  MemHierarchy h(cache_32m_256k(2));
  EXPECT_THROW(h.access(2, 0, false), SimError);
  EXPECT_THROW(h.access(-1, 0, false), SimError);
#else
  GTEST_SKIP() << "core-index bounds are debug-only (MUSA_DCHECK)";
#endif
}

TEST(Hierarchy, PresetsMatchTableI) {
  EXPECT_EQ(cache_32m_256k(1).l3.size_bytes, 32 * kMiB);
  EXPECT_EQ(cache_32m_256k(1).l2.size_bytes, 256 * kKiB);
  EXPECT_EQ(cache_64m_512k(1).l2.ways, 16);
  EXPECT_EQ(cache_96m_1m(1).l3.latency_cycles, 72);
  EXPECT_EQ(cache_96m_1m(1).l2.latency_cycles, 13);
}

// Property: larger caches never miss more on a repeating pattern.
class CacheMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(CacheMonotonicity, BiggerIsNeverWorseOnLoops) {
  const std::uint64_t ws = 96 * 1024;
  auto misses_with = [&](std::uint64_t size) {
    Cache c({.size_bytes = size, .ways = 8});
    for (int pass = 0; pass < 4; ++pass)
      for (std::uint64_t a = 0; a < ws; a += 64)
        c.access(a, false);
    return c.stats().misses;
  };
  const std::uint64_t small = 16 * 1024 << GetParam();
  EXPECT_GE(misses_with(small), misses_with(small * 2));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CacheMonotonicity, ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace musa::cachesim
