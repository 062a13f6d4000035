// Unit tests for the common utilities: RNG determinism, streaming
// statistics, table/CSV round-trips, and invariant checks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <cstdint>
#include <unordered_map>

#include "common/check.hpp"
#include "common/csv.hpp"
#include "common/flat_table.hpp"
#include "common/parallel.hpp"
#include "common/parse.hpp"
#include "common/progress.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace musa {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(9);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, NextBelowCoversRange) {
  Rng r(11);
  std::vector<int> hits(8, 0);
  for (int i = 0; i < 8000; ++i) ++hits[r.next_below(8)];
  for (int h : hits) EXPECT_GT(h, 700);  // roughly uniform
}

TEST(Rng, NormalHasRequestedMoments) {
  Rng r(13);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(r.next_normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats s;
  for (double x : xs) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 6.2);
  EXPECT_NEAR(s.stddev(), stddev(xs), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 16.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng r(3);
  RunningStats all, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = r.next_double() * 100;
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.stddev(), all.stddev(), 1e-9);
}

TEST(Stats, GeomeanOfPowersOfTwo) {
  EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_EQ(geomean({}), 0.0);
}

TEST(Stats, GeomeanSkipsNonPositiveEntriesWithCount) {
  // The old implementation returned NaN (log of a negative) or -inf (log
  // of zero) here; the fixed one skips the bad entries and reports how
  // many were dropped.
  std::size_t skipped = 0;
  EXPECT_NEAR(geomean({2.0, 0.0, 8.0, -3.0}, &skipped), 4.0, 1e-12);
  EXPECT_EQ(skipped, 2u);

  skipped = 0;
  const double nan = std::nan("");
  EXPECT_NEAR(geomean({nan, 4.0}, &skipped), 4.0, 1e-12);
  EXPECT_EQ(skipped, 1u);

  // All entries degenerate: no positive sample remains, result is 0.
  skipped = 0;
  EXPECT_EQ(geomean({0.0, -1.0}, &skipped), 0.0);
  EXPECT_EQ(skipped, 2u);
}

TEST(Stats, GeomeanStrictThrowsOnNonPositive) {
  EXPECT_NEAR(geomean_strict({2.0, 8.0}), 4.0, 1e-12);
  try {
    geomean_strict({2.0, 0.0, 8.0});
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.error_class(), ErrorClass::kConfig);
    // The message names the offending index so the caller can find the
    // degenerate ratio in its input.
    EXPECT_NE(std::string(e.what()).find("sample 1"), std::string::npos);
  }
  EXPECT_THROW(geomean_strict({-1.0}), SimError);
  EXPECT_THROW(geomean_strict({std::nan("")}), SimError);
}

TEST(Stats, StddevSingleSampleIsZeroLikeRunningStats) {
  // n == 1 must agree between the free function and the accumulator:
  // zero spread, not NaN from the n-1 denominator.
  EXPECT_EQ(stddev({42.0}), 0.0);
  RunningStats s;
  s.add(42.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(stddev({}), 0.0);
}

TEST(RunningStats, MergeOfSingletonsMatchesWholeVector) {
  // Every sample in its own accumulator, merged pairwise — the worst case
  // for a merge formula that divides by (n-1) or assumes n >= 2.
  const std::vector<double> xs = {5.0, -1.0, 3.5, 8.0};
  RunningStats merged;
  for (double x : xs) {
    RunningStats single;
    single.add(x);
    merged.merge(single);
  }
  RunningStats whole;
  for (double x : xs) whole.add(x);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_NEAR(merged.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(merged.variance(), whole.variance(), 1e-12);
  EXPECT_EQ(merged.min(), whole.min());
  EXPECT_EQ(merged.max(), whole.max());
}

TEST(RunningStats, MergeOfRandomSplitsMatchesWholeVector) {
  // Property test: for random data and random partitions into k parts,
  // merging the parts equals accumulating the whole vector.
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_below(60));
    const int parts = 1 + static_cast<int>(rng.next_below(8));
    std::vector<RunningStats> split(parts);
    RunningStats whole;
    for (int i = 0; i < n; ++i) {
      const double x = rng.next_normal(0.0, 50.0);
      whole.add(x);
      split[rng.next_below(static_cast<std::uint64_t>(parts))].add(x);
    }
    RunningStats merged;  // also covers merging into an empty accumulator
    for (const auto& part : split) merged.merge(part);
    ASSERT_EQ(merged.count(), whole.count()) << "trial " << trial;
    EXPECT_NEAR(merged.mean(), whole.mean(), 1e-9) << "trial " << trial;
    EXPECT_NEAR(merged.stddev(), whole.stddev(), 1e-9) << "trial " << trial;
    EXPECT_EQ(merged.min(), whole.min()) << "trial " << trial;
    EXPECT_EQ(merged.max(), whole.max()) << "trial " << trial;
  }
}

TEST(Units, FrequencyRoundTrip) {
  Frequency f{2.5};
  EXPECT_NEAR(f.cycles_to_seconds(f.seconds_to_cycles(1.25)), 1.25, 1e-12);
  EXPECT_NEAR(f.period_ns(), 0.4, 1e-12);
}

TEST(Check, ThrowsSimErrorWithContext) {
  try {
    MUSA_CHECK_MSG(1 == 2, "math broke");
    FAIL() << "expected throw";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("math broke"), std::string::npos);
  }
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"app", "x"});
  t.row().cell("hydro").cell(1.5, 2);
  t.row().cell("lulesh").cell(10.25, 2);
  const std::string s = t.str();
  EXPECT_NE(s.find("hydro"), std::string::npos);
  EXPECT_NE(s.find("10.25"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(TextTable, RejectsTooManyCells) {
  TextTable t({"only"});
  t.row().cell("a");
  EXPECT_THROW(t.cell("b"), SimError);
}

TEST(Csv, RoundTripsThroughText) {
  CsvDoc doc({"a", "b"});
  doc.add_row({"1", "2"});
  doc.add_row({"x", "y"});
  const CsvDoc parsed = CsvDoc::parse(doc.str());
  ASSERT_EQ(parsed.rows().size(), 2u);
  EXPECT_EQ(parsed.rows()[1][1], "y");
  EXPECT_EQ(parsed.column("b"), 1u);
  EXPECT_THROW(parsed.column("zz"), SimError);
}

TEST(Csv, RejectsRaggedRow) {
  CsvDoc doc({"a", "b"});
  EXPECT_THROW(doc.add_row({"only-one"}), SimError);
}

TEST(Csv, FileRoundTrip) {
  CsvDoc doc({"k", "v"});
  doc.add_row({"answer", "42"});
  const std::string path = std::string(::testing::TempDir()) + "musa_csv_test.csv";
  doc.save(path);
  ASSERT_TRUE(CsvDoc::file_exists(path));
  const CsvDoc loaded = CsvDoc::load(path);
  EXPECT_EQ(loaded.rows()[0][0], "answer");
  std::remove(path.c_str());
}

TEST(Csv, RejectsCellsContainingDelimiters) {
  CsvDoc doc({"a", "b"});
  EXPECT_THROW(doc.add_row({"with,comma", "x"}), SimError);
  EXPECT_THROW(doc.add_row({"x", "with\nnewline"}), SimError);
  EXPECT_THROW(doc.add_row({"x", "with\rreturn"}), SimError);
  doc.add_row({"clean", "cells"});  // unaffected
  EXPECT_EQ(doc.rows().size(), 1u);
}

TEST(Csv, SaveIsAtomicReplaceLeavingNoTempFile) {
  const std::string path =
      std::string(::testing::TempDir()) + "musa_csv_atomic.csv";
  CsvDoc first({"k"});
  first.add_row({"old"});
  first.save(path);
  CsvDoc second({"k"});
  second.add_row({"new"});
  second.save(path);
  EXPECT_EQ(CsvDoc::load(path).rows()[0][0], "new");
  EXPECT_FALSE(CsvDoc::file_exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(Parallel, WorkQueueHandsOutEachIndexOnceUntilCancelled) {
  WorkQueue q(3);
  std::uint64_t i = 99;
  ASSERT_TRUE(q.next(i));
  EXPECT_EQ(i, 0u);
  ASSERT_TRUE(q.next(i));
  EXPECT_EQ(i, 1u);
  q.cancel();
  EXPECT_FALSE(q.next(i));  // index 2 is never handed out once cancelled

  WorkQueue drained(1);
  ASSERT_TRUE(drained.next(i));
  EXPECT_EQ(i, 0u);
  EXPECT_FALSE(drained.next(i));
  EXPECT_FALSE(drained.next(i));
}

TEST(Parallel, ParallelWorkersRethrowsWorkerException) {
  EXPECT_THROW(parallel_workers(4,
                                [](int w) {
                                  if (w == 2) throw SimError("worker 2 died");
                                }),
               SimError);
}

TEST(Progress, FormatDurationScalesUnits) {
  EXPECT_EQ(format_duration(5.2), "5s");
  EXPECT_EQ(format_duration(75.0), "1m15s");
  EXPECT_EQ(format_duration(3660.0), "1h01m");
  EXPECT_EQ(format_duration(-1.0), "?");
}

TEST(Progress, LineReportsRateAndEta) {
  ProgressReporter pr("sweep", 100, /*min_interval_s=*/1.0,
                      /*enabled=*/false);
  const std::string line = pr.line(50, 10.0);
  EXPECT_NE(line.find("sweep: 50/100"), std::string::npos);
  EXPECT_NE(line.find("50.0%"), std::string::npos);
  EXPECT_NE(line.find("5.00/s"), std::string::npos);
  EXPECT_NE(line.find("ETA 10s"), std::string::npos);
  // Finished: nothing remains to estimate — "-", never the old "ETA 0s".
  EXPECT_NE(pr.line(100, 20.0).find("ETA -"), std::string::npos);
  EXPECT_EQ(pr.line(100, 20.0).find("ETA 0s"), std::string::npos);
  pr.tick(100);  // disabled reporter stays silent but counts
  EXPECT_EQ(pr.done(), 100u);
}

TEST(Progress, LineReportsUnknownEtaOnZeroRate) {
  ProgressReporter pr("sweep", 100, /*min_interval_s=*/1.0,
                      /*enabled=*/false);
  // Zero elapsed time (or zero completions) means the rate is unmeasurable:
  // the ETA is unknown, not the old divide-by-zero "ETA 0s".
  EXPECT_NE(pr.line(50, 0.0).find("ETA ?"), std::string::npos);
  EXPECT_NE(pr.line(0, 10.0).find("ETA ?"), std::string::npos);
  // Overshoot (done > total, e.g. duplicate journal replay) is "done".
  EXPECT_NE(pr.line(120, 10.0).find("ETA -"), std::string::npos);
}

TEST(Progress, FinalLinePrintsExactlyOnceUnderFakeClock) {
  ProgressReporter pr("sweep", 4, /*min_interval_s=*/10.0,
                      /*enabled=*/true);
  std::vector<std::string> lines;
  pr.set_sink([&](const std::string& s) { lines.push_back(s); });

  pr.tick_at(1, 0.1);  // first tick always prints
  pr.tick_at(1, 0.2);  // inside the 10s rate-limit window: silent
  ASSERT_EQ(lines.size(), 1u);
  // The finishing tick lands inside min_interval_s too, but the 100% line
  // must print anyway — and exactly once, even when more ticks follow.
  pr.tick_at(2, 0.3);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("4/4"), std::string::npos);
  EXPECT_NE(lines[1].find("ETA -"), std::string::npos);
  pr.tick_at(1, 0.4);  // past-total tick: no duplicate final line
  pr.tick_at(0, 99.0);
  EXPECT_EQ(lines.size(), 2u);
  EXPECT_EQ(pr.done(), 5u);
}

TEST(Progress, IntermediateLinesRespectMinInterval) {
  ProgressReporter pr("sweep", 100, /*min_interval_s=*/2.0,
                      /*enabled=*/true);
  std::vector<std::string> lines;
  pr.set_sink([&](const std::string& s) { lines.push_back(s); });
  pr.tick_at(10, 0.5);  // first due line (interval measured from -inf)
  pr.tick_at(10, 1.0);  // within 2s of the last print: suppressed
  pr.tick_at(10, 2.6);  // due again
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("10/100"), std::string::npos);
  EXPECT_NE(lines[1].find("30/100"), std::string::npos);
}

TEST(FlatTable64, InsertFindGrow) {
  FlatTable64<int> t(4);  // force several grows
  for (std::uint64_t k = 0; k < 1000; ++k) t.insert(k * 11, static_cast<int>(k));
  EXPECT_EQ(t.size(), 1000u);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const int* v = t.find(k * 11);
    ASSERT_NE(v, nullptr) << "key " << k * 11;
    EXPECT_EQ(*v, static_cast<int>(k));
  }
  EXPECT_EQ(t.find(7), nullptr);
  EXPECT_FALSE(t.contains(7));
}

TEST(FlatTable64, FindOrInsertReturnsStableSlotPerCall) {
  FlatTable64<int> t;
  int& a = t.find_or_insert(42);
  a = 7;
  EXPECT_EQ(t.find_or_insert(42), 7);  // same slot, not a fresh default
  EXPECT_EQ(t.size(), 1u);
}

TEST(FlatTable64, EraseBackwardShiftKeepsProbeChainsIntact) {
  // Colliding keys probe past each other; erasing one must not break lookup
  // of the others (the backward-shift must relocate displaced entries).
  FlatTable64<int> t(8);
  const std::uint64_t cap = t.capacity();
  std::vector<std::uint64_t> keys;
  // Keys engineered to share a home slot: same value after the Fibonacci
  // hash is infeasible to construct directly, so just use enough keys that
  // chains form at this small capacity.
  for (std::uint64_t k = 1; keys.size() < cap / 2; ++k) keys.push_back(k * 97);
  for (std::uint64_t k : keys) t.insert(k, static_cast<int>(k));
  // Erase every other key; the rest must stay findable.
  for (std::size_t i = 0; i < keys.size(); i += 2) EXPECT_TRUE(t.erase(keys[i]));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const int* v = t.find(keys[i]);
    if (i % 2 == 0) {
      EXPECT_EQ(v, nullptr);
    } else {
      ASSERT_NE(v, nullptr);
      EXPECT_EQ(*v, static_cast<int>(keys[i]));
    }
  }
  EXPECT_FALSE(t.erase(123456789));  // absent key
}

TEST(FlatTable64, RandomChurnMatchesStdUnorderedMap) {
  FlatTable64<std::uint64_t> t;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(1234);
  for (int step = 0; step < 50000; ++step) {
    const std::uint64_t key = rng.next_below(512);  // small space → collisions
    switch (rng.next_below(3)) {
      case 0: {  // insert/overwrite
        const std::uint64_t val = rng.next_u64();
        t.find_or_insert(key) = val;
        ref[key] = val;
        break;
      }
      case 1:  // erase
        EXPECT_EQ(t.erase(key), ref.erase(key) > 0);
        break;
      default: {  // lookup
        const std::uint64_t* v = t.find(key);
        const auto it = ref.find(key);
        if (it == ref.end()) {
          EXPECT_EQ(v, nullptr);
        } else {
          ASSERT_NE(v, nullptr);
          EXPECT_EQ(*v, it->second);
        }
      }
    }
    ASSERT_EQ(t.size(), ref.size());
  }
  for (const auto& [k, v] : ref) {
    const std::uint64_t* got = t.find(k);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, v);
  }
}

TEST(FlatTable64, ClearEmptiesButKeepsCapacity) {
  FlatTable64<int> t;
  for (std::uint64_t k = 0; k < 100; ++k) t.insert(k, 1);
  const std::size_t cap = t.capacity();
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.capacity(), cap);
  EXPECT_EQ(t.find(5), nullptr);
  t.insert(5, 2);
  EXPECT_EQ(*t.find(5), 2);
}


// ---- Strict wire/journal field parsers (common/parse.hpp) ------------------
//
// Every rejection case here is a line the old atoi-style decoding would
// have silently turned into 0 — a *valid* chunk id / offset / attempt
// count — before the hardening pass. The matrix pins the full-consume
// contract both parsers share.

TEST(Parse, U64AcceptsOnlyWholeDecimalNumbers) {
  std::uint64_t v = 99;
  EXPECT_TRUE(parse_u64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_u64("42", &v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(parse_u64("18446744073709551615", &v));  // UINT64_MAX
  EXPECT_EQ(v, 18446744073709551615ull);

  const char* rejected[] = {
      "",      " ",      " 1",   "1 ",    "+1",    "-1",   "- 1",
      "1.5",   "1e3",    "0x10", "12abc", "abc",   "\t7",  "7\n",
      "18446744073709551616",  // UINT64_MAX + 1
      "99999999999999999999999999",
  };
  for (const char* s : rejected) {
    v = 7;
    EXPECT_FALSE(parse_u64(s, &v)) << "accepted: [" << s << "]";
  }
}

TEST(Parse, IntAcceptsOptionalMinusAndEnforcesRange) {
  int v = 99;
  EXPECT_TRUE(parse_int("0", &v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(parse_int("-1", &v));
  EXPECT_EQ(v, -1);
  EXPECT_TRUE(parse_int("2147483647", &v));
  EXPECT_EQ(v, 2147483647);
  EXPECT_TRUE(parse_int("-2147483648", &v));
  EXPECT_EQ(v, -2147483648);

  const char* rejected[] = {
      "",   "-",   "--1",  "+1",  " 1",  "1 ",  "1.0",
      "2147483648", "-2147483649", "12x", "0x1",
  };
  for (const char* s : rejected) {
    v = 7;
    EXPECT_FALSE(parse_int(s, &v)) << "accepted: [" << s << "]";
  }
}

}  // namespace
}  // namespace musa
