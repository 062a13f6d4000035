#include "verify/faultpoint.hpp"

#include <chrono>
#include <cstdlib>
#include <mutex>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "common/check.hpp"
#include "common/deadline.hpp"
#include "common/journal.hpp"  // fnv1a64

namespace musa::verify {

namespace {

/// Global active plan + per-(spec, key) fire counters. Guarded by a mutex:
/// fault sites sit at stage boundaries (a handful of calls per sweep
/// point), never inside the per-instruction hot loops.
struct GlobalPlan {
  std::mutex mu;
  FaultPlan plan;
  bool armed = false;
  std::unordered_map<std::string, int> fires;  // "<spec-index>|<key>" -> n
};

GlobalPlan& global_plan() {
  static GlobalPlan g;
  return g;
}

double num_field(const std::string& s, const char* what) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0')
    throw SimError(std::string("bad MUSA_FAULT ") + what + ": \"" + s + "\"",
                   ErrorClass::kConfig);
  return v;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char ch : s) {
    if (ch == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(ch);
    }
  }
  out.push_back(cur);
  return out;
}

FaultKind parse_kind(const std::string& name) {
  for (FaultKind k : {FaultKind::kIo, FaultKind::kModel, FaultKind::kInjected,
                      FaultKind::kDelay, FaultKind::kCorrupt, FaultKind::kKill,
                      FaultKind::kHang, FaultKind::kBabble})
    if (name == fault_kind_name(k)) return k;
  throw SimError("bad MUSA_FAULT kind: \"" + name +
                     "\" (want io|model|injected|delay|corrupt|"
                     "kill|hang|babble)",
                 ErrorClass::kConfig);
}

bool is_process_kind(FaultKind kind) {
  return kind == FaultKind::kKill || kind == FaultKind::kHang ||
         kind == FaultKind::kBabble;
}

/// One fault evaluation: checks the pure decision, then the per-(spec,key)
/// fire budget, and acts. Returns true for a fired corrupt-kind spec.
bool evaluate(std::size_t spec_index, const FaultSpec& spec, const char* site,
              const std::string& key) {
  if (!spec.matches(site)) return false;
  if (!fault_decision(spec, site, key)) return false;

  {
    GlobalPlan& g = global_plan();
    std::lock_guard<std::mutex> lock(g.mu);
    int max_fires = 0;  // 0 = unlimited
    if (spec.kind == FaultKind::kCorrupt)
      max_fires = spec.param > 0 ? spec.param : 1;
    else if (is_process_kind(spec.kind))
      max_fires = 1;  // param is a duration here, never a fire budget
    else if (spec.kind != FaultKind::kDelay)
      max_fires = spec.param;
    if (max_fires > 0) {
      int& n = g.fires[std::to_string(spec_index) + "|" + key];
      if (n >= max_fires) return false;  // fault has cleared
      ++n;
    }
  }

  const std::string where =
      std::string("injected fault at ") + site + " for " + key;
  switch (spec.kind) {
    case FaultKind::kIo:
      throw SimError(where + " (io)", ErrorClass::kIo, site);
    case FaultKind::kModel:
      throw SimError(where + " (model)", ErrorClass::kModel, site);
    case FaultKind::kInjected:
      throw SimError(where, ErrorClass::kInjected, site);
    case FaultKind::kDelay:
      std::this_thread::sleep_for(
          std::chrono::milliseconds(spec.param > 0 ? spec.param : 1000));
      // A delay only *becomes* a fault through the watchdog: poll it here
      // so sites past the hot loops still convert to timeout quarantines.
      deadline::check_now();
      return false;
    case FaultKind::kCorrupt:
      return true;
    case FaultKind::kKill:
    case FaultKind::kHang:
    case FaultKind::kBabble:
      return true;  // reported by process_fault(); the caller acts
  }
  return false;
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kIo: return "io";
    case FaultKind::kModel: return "model";
    case FaultKind::kInjected: return "injected";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kKill: return "kill";
    case FaultKind::kHang: return "hang";
    case FaultKind::kBabble: return "babble";
  }
  return "injected";
}

bool FaultSpec::matches(const char* site_name) const {
  if (!site.empty() && site.back() == '*')
    return std::string_view(site_name).substr(0, site.size() - 1) ==
           std::string_view(site).substr(0, site.size() - 1);
  return site == site_name;
}

bool fault_decision(const FaultSpec& spec, const char* site,
                    const std::string& key) {
  if (spec.prob <= 0.0) return false;
  if (spec.prob >= 1.0) return true;
  // Decision = hash(site | key) mixed with the seed, mapped to [0, 1).
  // Pure in its inputs: independent of threads, processes, and retries.
  std::uint64_t h = fnv1a64(std::string(site) + "|" + key);
  h ^= (spec.seed + 1) * 0x9E3779B97F4A7C15ull;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  const double u =
      static_cast<double>(h >> 11) / static_cast<double>(1ull << 53);
  return u < spec.prob;
}

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  for (const std::string& item : split(text, ',')) {
    if (item.empty()) continue;
    const std::vector<std::string> f = split(item, ':');
    if (f.size() < 4 || f.size() > 5)
      throw SimError("bad MUSA_FAULT spec \"" + item +
                         "\" (want site:kind:seed:prob[:param])",
                     ErrorClass::kConfig);
    FaultSpec spec;
    spec.site = f[0];
    if (spec.site.empty())
      throw SimError("bad MUSA_FAULT spec \"" + item + "\": empty site",
                     ErrorClass::kConfig);
    spec.kind = parse_kind(f[1]);
    spec.seed = static_cast<std::uint64_t>(num_field(f[2], "seed"));
    spec.prob = num_field(f[3], "prob");
    if (spec.prob < 0.0 || spec.prob > 1.0)
      throw SimError("bad MUSA_FAULT prob in \"" + item + "\" (want [0,1])",
                     ErrorClass::kConfig);
    if (f.size() == 5) {
      spec.param = static_cast<int>(num_field(f[4], "param"));
      if (spec.param < 0)
        throw SimError("bad MUSA_FAULT param in \"" + item + "\" (want >= 0)",
                       ErrorClass::kConfig);
    }
    plan.specs_.push_back(std::move(spec));
  }
  return plan;
}

FaultPlan FaultPlan::from_env() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once before workers spawn.
  const char* env = std::getenv("MUSA_FAULT");
  return env != nullptr ? parse(env) : FaultPlan{};
}

std::string FaultPlan::str() const {
  std::string out;
  for (const FaultSpec& s : specs_) {
    if (!out.empty()) out += ", ";
    out += s.site;
    out += ':';
    out += fault_kind_name(s.kind);
    out += " p=" + std::to_string(s.prob);
    if (s.param > 0) out += " param=" + std::to_string(s.param);
  }
  return out.empty() ? "none" : out;
}

void FaultPlan::install(FaultPlan plan) {
  GlobalPlan& g = global_plan();
  std::lock_guard<std::mutex> lock(g.mu);
  g.armed = !plan.empty();
  g.plan = std::move(plan);
  g.fires.clear();
}

bool FaultPlan::active() {
  GlobalPlan& g = global_plan();
  std::lock_guard<std::mutex> lock(g.mu);
  return g.armed;
}

void fault_point(const char* site, const std::string& key) {
  GlobalPlan& g = global_plan();
  // Snapshot the specs under the lock, evaluate outside it (evaluation can
  // sleep or throw). Plans are installed before workers spawn, so the copy
  // is only contention, not a race window.
  std::vector<FaultSpec> specs;
  {
    std::lock_guard<std::mutex> lock(g.mu);
    if (!g.armed) return;
    specs = g.plan.specs();
  }
  for (std::size_t i = 0; i < specs.size(); ++i)
    if (specs[i].kind != FaultKind::kCorrupt && !is_process_kind(specs[i].kind))
      evaluate(i, specs[i], site, key);
}

bool fault_corrupt(const char* site, const std::string& key) {
  GlobalPlan& g = global_plan();
  std::vector<FaultSpec> specs;
  {
    std::lock_guard<std::mutex> lock(g.mu);
    if (!g.armed) return false;
    specs = g.plan.specs();
  }
  bool corrupt = false;
  for (std::size_t i = 0; i < specs.size(); ++i)
    if (specs[i].kind == FaultKind::kCorrupt &&
        evaluate(i, specs[i], site, key))
      corrupt = true;
  return corrupt;
}

void arm_journal_corruption(ResultJournal& journal) {
  if (!FaultPlan::active()) return;
  journal.set_append_mutator(
      [](const std::string& key, const std::string& line) {
        if (!fault_corrupt("journal.append", key)) return line;
        std::string out = line;
        const std::size_t pos = out.size() >= 2 ? out.size() - 2 : 0;
        out[pos] = out[pos] == '0' ? '1' : '0';
        return out;
      });
}

ProcessFault process_fault(const char* site, const std::string& key) {
  GlobalPlan& g = global_plan();
  std::vector<FaultSpec> specs;
  {
    std::lock_guard<std::mutex> lock(g.mu);
    if (!g.armed) return {};
    specs = g.plan.specs();
  }
  // First armed process-kind spec that fires wins; one verdict per call
  // keeps the worker's reaction unambiguous (it cannot both die and hang).
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!is_process_kind(specs[i].kind)) continue;
    if (!evaluate(i, specs[i], site, key)) continue;
    ProcessFault fault;
    switch (specs[i].kind) {
      case FaultKind::kKill:
        fault.action = ProcessFault::Action::kKill;
        break;
      case FaultKind::kHang:
        fault.action = ProcessFault::Action::kHang;
        fault.delay_ms = specs[i].param > 0 ? specs[i].param : 60000;
        break;
      default:
        fault.action = ProcessFault::Action::kBabble;
        fault.delay_ms = specs[i].param > 0 ? specs[i].param : 1000;
        break;
    }
    return fault;
  }
  return {};
}

}  // namespace musa::verify
