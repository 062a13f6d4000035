#include "bench_common.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <csignal>

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace bench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

double integer_median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double m = v[v.size() / 2];
  const auto first = std::lower_bound(v.begin(), v.end(), m);
  const auto last = std::upper_bound(v.begin(), v.end(), m);
  const double below = static_cast<double>(first - v.begin());
  const double at = static_cast<double>(last - first);
  return m - 0.5 + (0.5 * static_cast<double>(v.size()) - below) / at;
}

PinnedTo::PinnedTo(int i) {
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  const int n = CPU_COUNT(&saved_);
  if (n <= 1) return;
  int want = i % n;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_) || want-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
    return;
  }
}

PinnedTo::~PinnedTo() {
  if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
}

pid_t spawn_child(std::vector<std::string> args, int stdout_fd) {
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  // Child: only async-signal-safe calls until exec.
  if (::prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || ::getppid() != parent)
    ::_exit(127);
  ::dup2(stdout_fd >= 0 ? stdout_fd : STDERR_FILENO, STDOUT_FILENO);
  ::execv(argv[0], argv.data());
  ::_exit(127);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void reset_peak_rss() {
  // "5" resets the high-water mark of the resident set (proc(5)).
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw musa::SimError("cannot read " + path, musa::ErrorClass::kIo);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t at = s.find(sep, start);
    out.push_back(s.substr(start, at - start));
    if (at == std::string::npos) return out;
    start = at + 1;
  }
}

musa::serve::JsonValue parse_json_file(const std::string& path) {
  std::string text = read_file(path);
  std::replace(text.begin(), text.end(), '\n', ' ');
  musa::serve::JsonValue doc;
  std::string err;
  if (!musa::serve::parse_json(text, &doc, &err))
    throw musa::SimError(path + ": " + err, musa::ErrorClass::kIo);
  return doc;
}

std::string join_cells(const std::vector<std::string>& cells) {
  std::string out;
  for (const auto& c : cells) {
    if (!out.empty()) out += ',';
    out += c;
  }
  return out;
}

std::string row_key(const std::vector<std::string>& cells) {
  const musa::core::SimResult r = musa::core::DseEngine::from_row(cells);
  return musa::core::DseEngine::point_key(r.app, r.config);
}

musa::core::MachineConfig key_config(const std::string& key) {
  return musa::core::MachineConfig::parse_id(key.substr(key.find('|') + 1));
}

std::string key_app(const std::string& key) {
  return key.substr(0, key.find('|'));
}

std::string point_body(const std::string& key) {
  return "\"op\":\"point\",\"app\":\"" + key_app(key) + "\",\"config\":\"" +
         key.substr(key.find('|') + 1) + "\"";
}

Reference Reference::load(const std::string& path) {
  Reference ref;
  ref.text = read_file(path);
  const std::vector<std::string> lines = split(ref.text, '\n');
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    const std::string key = row_key(split(lines[i], ','));
    ref.keys.push_back(key);
    ref.row_of.emplace(key, lines[i]);
  }
  MUSA_CHECK_MSG(!ref.keys.empty(), "empty reference cache " + path);
  return ref;
}

std::unordered_map<std::string, std::string> read_cache_rows(
    const std::string& path) {
  std::unordered_map<std::string, std::string> rows;
  const std::vector<std::string> lines = split(read_file(path), '\n');
  for (std::size_t i = 1; i < lines.size(); ++i)
    if (!lines[i].empty()) rows.emplace(row_key(split(lines[i], ',')), lines[i]);
  return rows;
}

void Run::fail(std::uint64_t n, const std::string& why) {
  failed += n;
  if (problems.size() < 20) problems.push_back(why);
}

void set_stage_layers(Run& run, const musa::core::StageTimes& st,
                      double minstr, double occupancy) {
  run.per_layer["core.kernel_busy_s"] = st.kernel_s;
  run.per_layer["core.replay_busy_s"] = st.replay_s;
  run.per_layer["core.burst_busy_s"] = st.burst_s;
  run.per_layer["core.power_busy_s"] = st.power_s;
  run.per_layer["core.points_timed"] = static_cast<double>(st.points);
  run.per_layer["core.occupancy"] = occupancy;
  run.per_layer["core.sim_minstr_per_s"] =
      st.kernel_s > 0 ? minstr / st.kernel_s : 0.0;
}

int SpanLog::open(const char* name) {
  if (!on_) return 0;
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return 0;
  }
  Span s;
  s.name = name;
  s.ts_us = musa::obs::Tracer::now_us();
  s.id = static_cast<int>(spans_.size()) + 1;
  s.parent = stack_.empty() ? 0 : stack_.back();
  s.tid = musa::obs::thread_id();
  spans_.push_back(s);
  stack_.push_back(s.id);
  return s.id;
}

void SpanLog::close(int id) {
  if (id == 0) return;
  Span& s = spans_[static_cast<std::size_t>(id - 1)];
  s.dur_us = musa::obs::Tracer::now_us() - s.ts_us;
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void SpanLog::request(const char* name, Clock::time_point start,
                      Clock::time_point end, const std::string& req) {
  if (!on_) return;
  if (spans_.size() >= kMaxSpans || requests_ >= kMaxRequests) {
    ++dropped_;
    return;
  }
  ++requests_;
  // Tracer time of a steady_clock instant: now_us() minus its age.
  const auto now = Clock::now();
  const auto age_us = [&](Clock::time_point tp) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(now - tp)
            .count());
  };
  const std::uint64_t t = musa::obs::Tracer::now_us();
  Span s;
  s.name = name;
  s.ts_us = t - std::min(t, age_us(start));
  s.dur_us = t - std::min(t, age_us(end)) - s.ts_us;
  s.id = static_cast<int>(spans_.size()) + 1;
  s.parent = stack_.empty() ? 0 : stack_.back();
  s.tid = musa::obs::thread_id();
  s.async = true;
  s.req = req;
  spans_.push_back(std::move(s));
}

}  // namespace bench
