// Deterministic fault injection — how the sweep supervisor itself is
// tested.
//
// Named fault sites sit at the pipeline's stage boundaries (trace load,
// burst pre-pass, kernel replay, DRAM construction, power, journal append).
// A FaultPlan — parsed from `MUSA_FAULT` or `run_dse --inject` — arms a set
// of fault specs against those sites:
//
//   MUSA_FAULT = spec[,spec...]
//   spec       = site:kind:seed:prob[:param]
//
//   site   fault-site name, exact or prefix glob ("pipeline.*")
//   kind   io | model | injected  -> throw SimError of that class
//          delay                  -> sleep `param` ms, then poll the
//                                    watchdog (a delay under an armed
//                                    deadline becomes a timeout quarantine)
//          corrupt                -> fault_corrupt() returns true (the
//                                    journal then writes a checksum-
//                                    detectable corrupted record)
//          kill | hang | babble   -> process-level faults, reported by
//                                    process_fault() and acted on by the
//                                    elastic sweep worker: die by SIGKILL,
//                                    stop computing but keep the process
//                                    (heartbeats stop too), or keep
//                                    heartbeating without making progress
//   seed   decision seed (determinism knob)
//   prob   firing probability in [0, 1]
//   param  io/model/injected: max fires per (spec, key); 0 = unlimited.
//          A fault with param=N "clears after N attempts" — the retry-policy
//          tests use this. delay: sleep milliseconds (fires unlimited).
//          corrupt: max fires per key, default 1 (a corrupt fault that
//          re-fires on every recompute would never converge).
//          hang/babble: how long to misbehave, in milliseconds (defaults
//          60000 / 1000); process kinds always budget 1 fire per
//          (spec, key) per process — a respawned worker that drew the same
//          chunk faults again (it is a fresh process), while the
//          controller's in-process fallback never evaluates worker sites,
//          which is what bounds the convergence chain.
//
// Whether a spec fires for a given (site, key) is a pure function of
// (site, key, seed, prob) — independent of thread schedule, worker count,
// and process layout — so a chaos run is reproducible bit-for-bit and a given
// sweep point faults identically on every retry until its max-fires budget
// clears. Keys are sweep-point keys ("app|config-id") or file paths.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace musa::verify {

enum class FaultKind { kIo, kModel, kInjected, kDelay, kCorrupt,
                       kKill, kHang, kBabble };

const char* fault_kind_name(FaultKind kind);

struct FaultSpec {
  std::string site;  // exact name, or prefix glob ending in '*'
  FaultKind kind = FaultKind::kInjected;
  std::uint64_t seed = 0;
  double prob = 1.0;
  int param = 0;  // max fires (throwing kinds) / delay ms (kDelay)

  bool matches(const char* site_name) const;
};

/// Pure firing decision (no fire-count bookkeeping) — exposed so tests can
/// predict exactly which points a chaos plan will hit.
bool fault_decision(const FaultSpec& spec, const char* site,
                    const std::string& key);

class FaultPlan {
 public:
  FaultPlan() = default;

  /// Parses "site:kind:seed:prob[:param][,spec...]"; throws
  /// SimError{config} on malformed input.
  static FaultPlan parse(const std::string& text);

  /// Plan from the MUSA_FAULT environment variable (empty when unset).
  static FaultPlan from_env();

  bool empty() const { return specs_.empty(); }
  const std::vector<FaultSpec>& specs() const { return specs_; }
  std::string str() const;

  /// Installs `plan` as the process-global active plan (replacing any
  /// previous one and resetting fire counters). Install before spawning
  /// sweep workers; sites consult the global plan lock-free when empty.
  static void install(FaultPlan plan);
  static void clear() { install(FaultPlan{}); }
  static bool active();

 private:
  std::vector<FaultSpec> specs_;
};

/// Evaluates every armed spec matching `site` for `key`: may throw a
/// SimError (io/model/injected kinds, class-tagged accordingly) or sleep
/// (delay kind; afterwards the watchdog deadline is polled, so a delayed
/// point under budget quarantines as `timeout`). No-op without a plan.
void fault_point(const char* site, const std::string& key);

/// True when a corrupt-kind spec fires at `site` for `key`.
bool fault_corrupt(const char* site, const std::string& key);

/// Verdict of the process-level fault kinds (kill/hang/babble) at a site.
/// Unlike fault_point(), nothing is thrown or slept here: the caller — the
/// elastic sweep worker, at site "worker.chunk" keyed by chunk id — is the
/// one that must die, stall, or babble, because only it knows its own
/// heartbeat machinery. In-process execution never consults this, so the
/// controller's fallback path is immune by construction.
struct ProcessFault {
  enum class Action { kNone, kKill, kHang, kBabble };
  Action action = Action::kNone;
  int delay_ms = 0;  // how long to hang / babble
};
ProcessFault process_fault(const char* site, const std::string& key);

}  // namespace musa::verify
