// Unit tests for the observability subsystem (src/obs/): the striped
// metric registry, the lock-free span tracer, and the Chrome-trace /
// metrics.json exporters — including a round-trip through a minimal
// in-test JSON validator (the merged trace must always parse).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace musa::obs {
namespace {

std::string tmp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON validator: enough of RFC 8259 to reject
// the truncation/escaping bugs an exporter can produce (unterminated
// strings, raw control characters, trailing garbage, unbalanced braces).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const unsigned char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (c < 0x20) return false;  // raw control char: invalid JSON
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i)
            if (pos_ + i >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_ + i])))
              return false;
          pos_ += 4;
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            std::string(".eE+-").find(s_[pos_]) != std::string::npos))
      ++pos_;
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

bool json_valid(const std::string& text) {
  return JsonChecker(text).valid();
}

// ---------------------------------------------------------------------------
// Metric registry

TEST(ObsMetrics, CounterSumsAcrossThreads) {
  Counter c;
  constexpr int kThreads = 8, kAdds = 10000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add();
    });
  for (auto& th : pool) th.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetrics, RegistryCreateOrGetReturnsSameMetric) {
  auto& reg = MetricRegistry::global();
  Counter& a = reg.counter("test.obs.same");
  Counter& b = reg.counter("test.obs.same");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  a.reset();
}

TEST(ObsMetrics, RegistryRejectsKindMismatch) {
  auto& reg = MetricRegistry::global();
  reg.counter("test.obs.kind_clash");
  EXPECT_THROW(reg.gauge("test.obs.kind_clash"), SimError);
  EXPECT_THROW(reg.histogram("test.obs.kind_clash"), SimError);
}

TEST(ObsMetrics, SnapshotIsNameSortedAndResetZeroes) {
  auto& reg = MetricRegistry::global();
  reg.counter("test.obs.snap.b").add(2);
  reg.counter("test.obs.snap.a").add(1);
  reg.gauge("test.obs.snap.g").set(2.5);

  const MetricsSnapshot snap = reg.snapshot();
  // std::map iteration gives ascending names — the export order contract.
  for (std::size_t i = 1; i < snap.counters.size(); ++i)
    EXPECT_LT(snap.counters[i - 1].first, snap.counters[i].first);
  std::uint64_t a = 0, b = 0;
  for (const auto& [name, v] : snap.counters) {
    if (name == "test.obs.snap.a") a = v;
    if (name == "test.obs.snap.b") b = v;
  }
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);

  reg.reset();
  EXPECT_EQ(reg.counter("test.obs.snap.a").value(), 0u);
  EXPECT_EQ(reg.gauge("test.obs.snap.g").value(), 0.0);
}

TEST(ObsMetrics, HistogramBucketsAndQuantiles) {
  Histogram h;
  // Bucket b holds values with bit_width == b: 0→0, 1→1, [2,3]→2, [4,7]→3.
  h.observe(0);
  h.observe(1);
  h.observe(2);
  h.observe(3);
  h.observe(7);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 13u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 2u);
  EXPECT_EQ(snap.buckets[3], 1u);
  EXPECT_NEAR(snap.mean(), 13.0 / 5.0, 1e-12);
  // Quantile bounds are bucket upper bounds: p0 lands in bucket 0, p100 in
  // bucket 3 (upper bound 2^3 - 1 = 7).
  EXPECT_EQ(snap.quantile_bound(0.0), 0u);
  EXPECT_EQ(snap.quantile_bound(1.0), 7u);
  EXPECT_EQ(snap.quantile_bound(0.5), 3u);  // median sample 2 → bucket 2

  Histogram::Snapshot empty;
  EXPECT_EQ(empty.quantile_bound(0.5), 0u);
  EXPECT_EQ(empty.mean(), 0.0);
}

// ---------------------------------------------------------------------------
// Tracer + spans

class TracerTest : public ::testing::Test {
 protected:
  void TearDown() override { Tracer::shutdown(); }
};

TEST_F(TracerTest, DisabledSpansEmitNothing) {
  ASSERT_FALSE(Tracer::enabled());
  {
    Span s("stage", "key");
    s.set_outcome(Outcome::kOk);
  }
  instant("marker", "key");
  TraceEvent ev;
  ev.name = "manual";
  Tracer::emit(ev);  // no-op when disarmed
  EXPECT_TRUE(Tracer::drain().empty());
  EXPECT_EQ(Tracer::now_us(), 0u);
}

TEST_F(TracerTest, SpansRecordOutcomeAttemptAndMonotoneTs) {
  Tracer::install();
  ASSERT_TRUE(Tracer::enabled());
  {
    Span s("burst", "hydro|cfg1");
    s.set_outcome(Outcome::kOk);
    s.set_attempt(2);
  }
  { Span s("kernel", "hydro|cfg1"); }
  instant("quarantine", "hydro|cfg2", Outcome::kQuarantined);

  const auto events = Tracer::drain();
  ASSERT_EQ(events.size(), 3u);
  // drain() sorts by ts; every complete event must carry dur and phase 'X'.
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_GE(events[i].ts_us, events[i - 1].ts_us);
  const TraceEvent* burst = nullptr;
  const TraceEvent* mark = nullptr;
  for (const auto& ev : events) {
    if (std::string(ev.name) == "burst") burst = &ev;
    if (std::string(ev.name) == "quarantine") mark = &ev;
  }
  ASSERT_NE(burst, nullptr);
  EXPECT_EQ(burst->phase, 'X');
  EXPECT_EQ(burst->outcome, Outcome::kOk);
  EXPECT_EQ(burst->attempt, 2);
  EXPECT_STREQ(burst->key, "hydro|cfg1");
  ASSERT_NE(mark, nullptr);
  EXPECT_EQ(mark->phase, 'i');
  EXPECT_EQ(mark->dur_us, 0u);
  EXPECT_EQ(mark->outcome, Outcome::kQuarantined);
}

TEST_F(TracerTest, ReinstallClearsRingAndLongKeysTruncate) {
  Tracer::install();
  { Span s("old", ""); }
  EXPECT_EQ(Tracer::drain().size(), 1u);
  Tracer::install();  // re-arm: prior events must be gone
  const std::string long_key(200, 'k');
  { Span s("fresh", long_key); }
  const auto events = Tracer::drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "fresh");
  EXPECT_EQ(std::string(events[0].key).size(), TraceEvent::kKeyBytes - 1);
}

TEST_F(TracerTest, TinyRingOverwritesOldestAndCountsDropped) {
  Tracer::install(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    TraceEvent ev;
    ev.name = "e";
    ev.ts_us = static_cast<std::uint64_t>(i);
    Tracer::emit(ev);
  }
  const auto events = Tracer::drain();
  EXPECT_EQ(events.size(), 4u);  // ring capacity
  EXPECT_EQ(Tracer::dropped(), 6u);
  // The *newest* events survive a wrap — the end of the sweep is the part
  // worth keeping when the ring is undersized.
  for (const auto& ev : events) EXPECT_GE(ev.ts_us, 6u);
}

TEST_F(TracerTest, ConcurrentEmittersLoseNothingWithinCapacity) {
  Tracer::install(/*capacity=*/1 << 12);
  constexpr int kThreads = 8, kEach = 200;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([] {
      for (int i = 0; i < kEach; ++i) Span s("mt", "k");
    });
  for (auto& th : pool) th.join();
  EXPECT_EQ(Tracer::drain().size(),
            static_cast<std::size_t>(kThreads) * kEach);
  EXPECT_EQ(Tracer::dropped(), 0u);
}

// ---------------------------------------------------------------------------
// Exporters

TEST(ObsExport, TraceEventJsonEscapesHostileKeys) {
  TraceEvent ev;
  ev.name = "stage";
  ev.ts_us = 5;
  ev.dur_us = 7;
  ev.outcome = Outcome::kOk;
  set_event_key(ev, "app\"with\\quotes\tand\ncontrol\x01" "chars");
  const std::string json = trace_event_json(ev, 1000, TraceMeta{3, "shard"});
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_NE(json.find("\\\"with\\\\quotes"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1005"), std::string::npos);  // epoch applied
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"outcome\":\"ok\""), std::string::npos);
}

TEST(ObsExport, ChromeTraceRoundTripIsValidAndOrdered) {
  Tracer::install();
  for (int i = 0; i < 4; ++i) {
    Span s("stage", "p" + std::to_string(i));
    s.set_outcome(Outcome::kOk);
  }
  const auto events = Tracer::drain();
  const std::uint64_t epoch = Tracer::epoch_unix_us();
  Tracer::shutdown();
  ASSERT_EQ(events.size(), 4u);

  const std::string path = tmp_path("obs_roundtrip.trace.json");
  write_chrome_trace(path, events, epoch, TraceMeta{1, "proc \"one\""});
  const std::string body = slurp(path);
  EXPECT_TRUE(json_valid(body)) << body;
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.find("process_name"), std::string::npos);
  EXPECT_NE(body.find("proc \\\"one\\\""), std::string::npos);
  // Events land in drain() order: wall-anchored ts never runs backwards.
  std::uint64_t last = 0;
  std::size_t at = 0, seen = 0;
  while ((at = body.find("\"ts\":", at)) != std::string::npos) {
    const std::uint64_t ts = std::stoull(body.substr(at + 5));
    EXPECT_GE(ts, last);
    EXPECT_GE(ts, epoch);
    last = ts;
    ++at;
    ++seen;
  }
  EXPECT_EQ(seen, 4u);  // metadata carries no ts
  std::remove(path.c_str());
}

TEST(ObsExport, SidecarMergeSplicesAllShardsIntoOneTimeline) {
  const std::string trace = tmp_path("obs_merge.trace.json");

  // An elastic worker and a run that did not finalize each serialise their
  // events to a sidecar named by trace_sidecar_path(trace, tag)...
  TraceEvent worker_ev;
  worker_ev.name = "point";
  worker_ev.ts_us = 10;
  worker_ev.dur_us = 5;
  set_event_key(worker_ev, "worker-point");
  const std::string worker_sidecar = trace_sidecar_path(trace, "worker-0");
  EXPECT_EQ(worker_sidecar, trace + ".worker-0.events.jsonl");
  write_trace_jsonl(worker_sidecar, {worker_ev}, /*epoch_unix_us=*/1000,
                    TraceMeta{7, "musa-worker-0"});

  TraceEvent run_ev = worker_ev;
  run_ev.ts_us = 15;
  set_event_key(run_ev, "run-point");
  const std::string run_sidecar = trace_sidecar_path(trace, "run");
  EXPECT_EQ(run_sidecar, trace + ".run.events.jsonl");
  write_trace_jsonl(run_sidecar, {run_ev}, /*epoch_unix_us=*/1000,
                    TraceMeta{0, "run_dse"});

  const auto found = find_trace_sidecars(trace);
  ASSERT_EQ(found.size(), 2u);
  EXPECT_EQ(found[0], run_sidecar);  // sorted: deterministic merge order
  EXPECT_EQ(found[1], worker_sidecar);

  // ...and the finalizing run merges both with its own events.
  TraceEvent final_ev = worker_ev;
  final_ev.ts_us = 20;
  set_event_key(final_ev, "final-point");
  write_chrome_trace(trace, {final_ev}, /*epoch_unix_us=*/1000,
                     TraceMeta{1, "run_dse"}, found);

  const std::string body = slurp(trace);
  EXPECT_TRUE(json_valid(body)) << body;
  EXPECT_NE(body.find("worker-point"), std::string::npos);
  EXPECT_NE(body.find("run-point"), std::string::npos);
  EXPECT_NE(body.find("final-point"), std::string::npos);
  // Each process keeps its own pid lane in the merged view.
  EXPECT_NE(body.find("\"pid\":7"), std::string::npos);
  EXPECT_NE(body.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(body.find("\"pid\":1"), std::string::npos);
  std::remove(worker_sidecar.c_str());
  std::remove(run_sidecar.c_str());
  std::remove(trace.c_str());
}

TEST(ObsExport, MetricsJsonAndSummaryTableRenderSnapshot) {
  auto& reg = MetricRegistry::global();
  reg.reset();
  reg.counter("test.obs.export.count").add(7);
  reg.histogram("test.obs.export.us").observe(100);
  reg.histogram("test.obs.export.us").observe(300);

  const std::string path = tmp_path("obs_metrics.json");
  write_metrics_json(path, reg.snapshot());
  const std::string body = slurp(path);
  EXPECT_TRUE(json_valid(body)) << body;
  EXPECT_NE(body.find("\"test.obs.export.count\": 7"), std::string::npos);
  EXPECT_NE(body.find("\"count\": 2"), std::string::npos);

  const std::string table = summary_table(reg.snapshot());
  EXPECT_NE(table.find("test.obs.export.count"), std::string::npos);
  EXPECT_NE(table.find("test.obs.export.us"), std::string::npos);
  // Zero-valued counters are elided from the one-screen summary.
  reg.counter("test.obs.export.zero");
  EXPECT_EQ(summary_table(reg.snapshot()).find("test.obs.export.zero"),
            std::string::npos);
  std::remove(path.c_str());
  reg.reset();
}

}  // namespace
}  // namespace musa::obs
