// Shared plumbing of the benchmark program (musa_bench): the run record every
// workload fills, the benchmark's own span log, the committed reference
// rows, and small numeric/file helpers.
#pragma once

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/dse.hpp"
#include "serve/wire.hpp"

namespace bench {

using Clock = std::chrono::steady_clock;

inline double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms(Clock::time_point a, Clock::time_point b) {
  return 1e3 * secs(a, b);
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
/// Median of whole-number samples (such as whole microseconds), read as
/// grouped data: each value stands for the unit interval around it, and
/// the median is interpolated inside its interval. A plain median of such
/// samples sticks to one integer from run to run.
double integer_median(std::vector<double> v);

/// Pins the calling thread to the `i`-th CPU it may run on (round robin)
/// until destroyed, then restores its affinity. Short single-thread samples
/// are spread over every CPU this way: on a shared host one CPU can run at
/// half speed for minutes while its neighbour is busy, and a sample series
/// that stayed on that CPU would read the host, not the program. Threads
/// and processes started while pinned inherit the pin.
class PinnedTo {
 public:
  explicit PinnedTo(int i);
  ~PinnedTo();
  PinnedTo(const PinnedTo&) = delete;
  PinnedTo& operator=(const PinnedTo&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Starts `args[0]` with `args`, its standard output sent to `stdout_fd`,
/// or by default to our standard error (ours carries only metric lines).
/// The child is killed if this process dies first, so no daemon outlives an
/// interrupted benchmark. Returns the pid, or -1.
pid_t spawn_child(std::vector<std::string> args, int stdout_fd = -1);

/// Peak resident set of this process (VmHWM), MiB, since the last
/// reset_peak_rss() or since it started.
double peak_rss_mb();
/// Lowers this process's peak resident set to its current one, so that
/// peak_rss_mb() measures one job; a no-op where the kernel refuses.
void reset_peak_rss();

std::string read_file(const std::string& path);
std::vector<std::string> split(const std::string& s, char sep);
/// Parses a multi-line JSON file with the wire parser, which, being a
/// line-protocol parser, takes no newlines. Throws on malformed input.
musa::serve::JsonValue parse_json_file(const std::string& path);
std::string join_cells(const std::vector<std::string>& cells);
/// Journal key ("app|config-id") of a cache row.
std::string row_key(const std::vector<std::string>& cells);

/// The committed dse_cache.csv: the byte-level reference every paper-grid
/// answer is checked against.
struct Reference {
  std::string text;                                     // file bytes
  std::vector<std::string> keys;                        // file (plan) order
  std::unordered_map<std::string, std::string> row_of;  // key -> CSV line
  static Reference load(const std::string& path);
};

/// Cache rows of a finalized sweep: key -> comma-joined cells.
std::unordered_map<std::string, std::string> read_cache_rows(
    const std::string& path);

/// Inputs a workload hands to the traced-pass layer probes.
struct ProbeInputs {
  std::vector<musa::core::MachineConfig> configs;  // component replay
  std::vector<std::pair<std::string, std::vector<std::string>>> rows;
  std::vector<std::string> request_lines;  // wire parse probe
  struct Reply {
    std::string id, key, row;
    bool cached = false;
  };
  std::vector<Reply> replies;                     // wire reply probe
  std::vector<musa::core::SweepOptions> plans;    // plan-build probe
  std::vector<std::string> sidecars;              // worker trace sidecars
};

/// What one workload run produced: the operation tally, the metric values
/// by name, and the first few failure descriptions.
struct Run {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;

  void fail(std::uint64_t n, const std::string& why);
};

/// The core.* stage figures: busy seconds per stage, points, occupancy, and
/// `minstr` simulated million instructions per kernel-busy second.
void set_stage_layers(Run& run, const musa::core::StageTimes& st,
                      double minstr, double occupancy);

/// The benchmark's own spans: one per layer call the benchmark makes,
/// carrying its parent and, for served queries, the request id (the wire
/// `id`). Off until arm(); kept in memory and exported when the run ends.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t ts_us = 0;   // tracer clock (obs::Tracer::now_us)
    std::uint64_t dur_us = 0;
    int id = 0;
    int parent = 0;
    std::uint32_t tid = 0;
    bool async = false;        // overlapping request span ('b'/'e' pair)
    std::string req;           // wire id of the request (async spans)
  };

  void arm() { on_ = true; }

  /// Opens a span under the innermost open one; 0 when disarmed or full.
  int open(const char* name);
  void close(int id);
  /// Records a finished request span that overlaps others in flight.
  void request(const char* name, Clock::time_point start,
               Clock::time_point end, const std::string& req);

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  static constexpr std::size_t kMaxSpans = 200000;
  static constexpr std::size_t kMaxRequests = 20000;  // keeps traces loadable
  std::size_t requests_ = 0;
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::uint64_t dropped_ = 0;
};

class Scope {
 public:
  Scope(SpanLog& log, const char* name) : log_(log), id_(log.open(name)) {}
  ~Scope() { log_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

/// Everything a workload needs to know about the invocation.
struct Ctx {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool smoke = false;
  bool trace = false;
  std::string trace_dir;  // absolute
  std::string root;       // checkout root, absolute
  std::string exe_dir;    // holds musa_bench and dse_serve
  std::string work;       // scratch dir, absolute; the process cwd
  const Reference* ref = nullptr;

  /// A sample or probe size: `full`, or `toy` under --smoke.
  std::size_t size(std::size_t full, std::size_t toy) const {
    return smoke ? toy : full;
  }
};

/// One workload: called untraced (end-to-end numbers) and, with --trace,
/// again traced (per-layer numbers). Returns the pass's primary cost figure
/// (lower is better) so the traced/untraced ratio is the tracing overhead.
using WorkloadFn = double (*)(const Ctx&, bool traced, Run&, SpanLog&,
                              ProbeInputs&);

double paper_sweep(const Ctx&, bool, Run&, SpanLog&, ProbeInputs&);
double extended_elastic(const Ctx&, bool, Run&, SpanLog&, ProbeInputs&);
double serve_cold(const Ctx&, bool, Run&, SpanLog&, ProbeInputs&);
double serve_cached(const Ctx&, bool, Run&, SpanLog&, ProbeInputs&);

/// Traced-pass probes shared by every workload (probes.cpp).
void run_probes(const Ctx&, const ProbeInputs&, Run&, SpanLog&);
/// Probes of a layer the workload itself does not run, on a few seeded
/// paper points, each answer checked: the in-process stage split
/// (core.*), an elastic job (sweep.*) and a daemon answering an open loop
/// (serve.server_p50_us, serve.io_p50_us, gen.late_p99_ms).
void probe_stages(const Ctx&, Run&, SpanLog&);
void probe_elastic(const Ctx&, Run&, SpanLog&);
void probe_serve(const Ctx&, Run&, SpanLog&);
/// Writes <trace_dir>/<workload>.trace.json (Perfetto-loadable) and the
/// per-layer self times into <trace_dir>/layers.json.
void export_trace(const Ctx&, const ProbeInputs&, const SpanLog&, Run&);

/// Config of a plan key ("app|config-id") and its app name.
musa::core::MachineConfig key_config(const std::string& key);
std::string key_app(const std::string& key);
/// JSON members (after the id) of a wire `point` request for a plan key.
std::string point_body(const std::string& key);

/// Draws `n` distinct elements of `pool` (seeded partial Fisher-Yates),
/// returned in pool order.
template <typename T>
std::vector<T> draw(const std::vector<T>& pool, std::size_t n,
                    std::uint64_t seed);

}  // namespace bench

#include "common/rng.hpp"

template <typename T>
std::vector<T> bench::draw(const std::vector<T>& pool, std::size_t n,
                           std::uint64_t seed) {
  std::vector<std::size_t> idx(pool.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  n = std::min(n, idx.size());
  musa::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i)
    std::swap(idx[i], idx[i + rng.next_below(idx.size() - i)]);
  idx.resize(n);
  std::sort(idx.begin(), idx.end());
  std::vector<T> out;
  out.reserve(n);
  for (const std::size_t i : idx) out.push_back(pool[i]);
  return out;
}
