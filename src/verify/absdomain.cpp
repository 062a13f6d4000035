#include "verify/absdomain.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "verify/config_rules.hpp"

namespace musa::verify {

Box Box::full(const core::SpaceAxes& axes) {
  Box b;
  for (int d = 0; d < core::SpaceAxes::kDims; ++d) {
    b.begin[d] = 0;
    b.end[d] = axes.dim_size(d);
  }
  return b;
}

std::uint64_t Box::points() const {
  std::uint64_t n = 1;
  for (int d = 0; d < core::SpaceAxes::kDims; ++d) {
    if (end[d] <= begin[d]) return 0;
    n *= static_cast<std::uint64_t>(end[d] - begin[d]);
  }
  return n;
}

std::string Box::str() const {
  std::string out;
  for (int d = 0; d < core::SpaceAxes::kDims; ++d) {
    if (!out.empty()) out += ' ';
    out += std::string(core::SpaceAxes::dim_name(d)) + "[" +
           std::to_string(begin[d]) + "," + std::to_string(end[d]) + ")";
  }
  return out;
}

namespace {

using core::MachineConfig;
using core::SpaceAxes;

constexpr std::uint32_t bit(int dim) { return 1u << static_cast<unsigned>(dim); }

/// The concrete predicate of a registered rule, by id — abstract transfer
/// functions never re-implement a rule's logic, they evaluate the real one
/// on whole candidate values (soundness by construction on categorical and
/// per-value dimensions).
template <typename T>
const typename RuleSet<T>::CheckFn& concrete_rule(const RuleSet<T>& set,
                                                  const std::string& id) {
  for (const auto& r : set.rules())
    if (r.id == id) return r.check;
  throw SimError("absdomain: no concrete rule with id " + id);
}

/// Evaluates a pass/fail predicate (empty string = pass) on every candidate
/// index of one dimension within the box: all pass → kSat, all fail →
/// kViolated (detail = first failure), mixed → kUnknown. Exact whenever the
/// rule depends on this dimension alone, including at singletons.
AbsVerdict scan_dim(const Box& box, int dim,
                    const std::function<std::string(int)>& pred) {
  int pass = 0;
  int fail = 0;
  std::string first_fail;
  for (int i = box.begin[dim]; i < box.end[dim]; ++i) {
    std::string detail = pred(i);
    if (detail.empty()) {
      ++pass;
    } else {
      if (fail == 0) first_fail = std::move(detail);
      ++fail;
    }
    if (pass > 0 && fail > 0) return {Tri::kUnknown, {}};
  }
  if (fail == 0) return {Tri::kSat, {}};
  return {Tri::kViolated, std::move(first_fail)};
}

/// Machine-level rule whose concrete predicate reads exactly one
/// MachineConfig field: probe configs vary that field over the axis while
/// every other field keeps its (valid) default.
AbsVerdict machine_axis_rule(const SpaceAxes& axes, const Box& box, int dim,
                             const std::string& id) {
  const auto& fn = concrete_rule(machine_rules(), id);
  return scan_dim(box, dim, [&](int i) {
    MachineConfig probe;
    switch (dim) {
      case SpaceAxes::kDimFreq: probe.freq_ghz = axes.freqs_ghz[i]; break;
      case SpaceAxes::kDimVector: probe.vector_bits = axes.vector_bits[i]; break;
      case SpaceAxes::kDimChannels:
        probe.mem_channels = axes.mem_channels[i];
        break;
      case SpaceAxes::kDimCores: probe.cores = axes.core_counts[i]; break;
      case SpaceAxes::kDimRanks: probe.ranks = axes.rank_counts[i]; break;
      default:
        throw SimError("absdomain: machine_axis_rule on non-machine dim");
    }
    return fn(probe);
  });
}

AbsVerdict core_axis_rule(const SpaceAxes& axes, const Box& box,
                          const std::string& id) {
  const auto& fn = concrete_rule(core_rules(), id);
  return scan_dim(box, SpaceAxes::kDimCore,
                  [&](int i) { return fn(axes.core_presets[i]); });
}

AbsVerdict dram_axis_rule(const SpaceAxes& axes, const Box& box,
                          const std::string& id) {
  const auto& fn = concrete_rule(dram_rules(), id);
  return scan_dim(box, SpaceAxes::kDimTech, [&](int i) {
    return fn(dramsim::timing_for(axes.mem_techs[i]));
  });
}

/// Hierarchy rules that read only the per-level geometry the cache label
/// determines (cache.geometry / cache.pow2 / cache.latency-order never look
/// at num_cores): resolve each label at num_cores = 1 and evaluate the
/// concrete predicate. An unresolvable label counts as a failure here too,
/// but classification never reaches these rules for such a box —
/// cache.label precedes them in the catalogue.
AbsVerdict hierarchy_label_rule(const SpaceAxes& axes, const Box& box,
                                const std::string& id) {
  const auto& fn = concrete_rule(hierarchy_rules(), id);
  return scan_dim(box, SpaceAxes::kDimCache, [&](int i) -> std::string {
    MachineConfig probe;
    probe.cache_label = axes.cache_labels[i];
    try {
      return fn(probe.cache_config(1));
    } catch (const SimError& e) {
      return e.what();
    }
  });
}

AbsVerdict cache_label_rule(const SpaceAxes& axes, const Box& box) {
  return scan_dim(box, SpaceAxes::kDimCache, [&](int i) -> std::string {
    MachineConfig probe;
    probe.cache_label = axes.cache_labels[i];
    try {
      probe.cache_config(1);
      return {};
    } catch (const SimError& e) {
      return e.what();
    }
  });
}

AbsVerdict cache_cores_rule(const SpaceAxes& axes, const Box& box) {
  const auto& fn = concrete_rule(hierarchy_rules(), "cache.cores");
  return scan_dim(box, SpaceAxes::kDimCores, [&](int i) {
    cachesim::HierarchyConfig h;  // rule reads num_cores only
    h.num_cores = axes.core_counts[i];
    return fn(h);
  });
}

/// cache.inclusion couples the cache label with the core count. Its
/// violation condition — L1 > L2, or num_cores·L2 > shared L3 — is
/// nondecreasing in num_cores, so per label it suffices to evaluate the
/// concrete rule at the smallest and largest core counts in the box:
/// failing at the minimum fails everywhere, passing at the maximum passes
/// everywhere, and anything else is a genuine mixed region.
AbsVerdict cache_inclusion_rule(const SpaceAxes& axes, const Box& box) {
  const auto& fn = concrete_rule(hierarchy_rules(), "cache.inclusion");
  const int kCores = SpaceAxes::kDimCores;
  int lo = axes.core_counts[box.begin[kCores]];
  int hi = lo;
  for (int i = box.begin[kCores]; i < box.end[kCores]; ++i) {
    lo = std::min(lo, axes.core_counts[i]);
    hi = std::max(hi, axes.core_counts[i]);
  }
  int sat = 0;
  int vio = 0;
  std::string first_fail;
  for (int i = box.begin[SpaceAxes::kDimCache]; i < box.end[SpaceAxes::kDimCache];
       ++i) {
    MachineConfig probe;
    probe.cache_label = axes.cache_labels[i];
    std::string at_lo;
    std::string at_hi;
    try {
      at_lo = fn(probe.cache_config(lo));
      at_hi = fn(probe.cache_config(hi));
    } catch (const SimError& e) {
      // Unresolvable label counts as violated here too, though cache.label
      // precedes this rule in the catalogue and reports it first.
      at_lo = e.what();
      at_hi = at_lo;
    }
    if (!at_lo.empty()) {
      // Fails at the minimum core count → fails box-wide for this label.
      if (vio == 0) first_fail = std::move(at_lo);
      ++vio;
    } else if (at_hi.empty()) {
      ++sat;  // passes at the maximum core count → passes box-wide
    } else {
      return {Tri::kUnknown, {}};  // mixed along cores for this label
    }
    if (sat > 0 && vio > 0) return {Tri::kUnknown, {}};
  }
  if (vio == 0) return {Tri::kSat, {}};
  return {Tri::kViolated, std::move(first_fail)};
}

AbsRule make_abstract(const std::string& id) {
  using SA = SpaceAxes;
  if (id == "freq.range")
    return {id, bit(SA::kDimFreq), [id](const SpaceAxes& a, const Box& b) {
              return machine_axis_rule(a, b, SA::kDimFreq, id);
            }};
  if (id == "vector.width")
    return {id, bit(SA::kDimVector), [id](const SpaceAxes& a, const Box& b) {
              return machine_axis_rule(a, b, SA::kDimVector, id);
            }};
  if (id == "mem.channels")
    return {id, bit(SA::kDimChannels), [id](const SpaceAxes& a, const Box& b) {
              return machine_axis_rule(a, b, SA::kDimChannels, id);
            }};
  if (id == "machine.size")
    return {id, bit(SA::kDimCores) | bit(SA::kDimRanks),
            [id](const SpaceAxes& a, const Box& b) {
              // cores ∈ [1,1024] AND ranks ∈ [1,2^20]: the two predicates
              // are independent, so scan each axis with the other held at
              // its valid default. A point violates iff either axis value
              // does.
              const AbsVerdict c = machine_axis_rule(a, b, SA::kDimCores, id);
              if (c.status == Tri::kViolated) return c;
              const AbsVerdict r = machine_axis_rule(a, b, SA::kDimRanks, id);
              if (r.status == Tri::kViolated) return r;
              if (c.status == Tri::kSat && r.status == Tri::kSat) return c;
              return AbsVerdict{Tri::kUnknown, {}};
            }};
  if (id.rfind("core.", 0) == 0)
    return {id, bit(SA::kDimCore), [id](const SpaceAxes& a, const Box& b) {
              return core_axis_rule(a, b, id);
            }};
  if (id == "cache.label")
    return {id, bit(SA::kDimCache), [](const SpaceAxes& a, const Box& b) {
              return cache_label_rule(a, b);
            }};
  if (id == "cache.geometry" || id == "cache.pow2" ||
      id == "cache.latency-order")
    return {id, bit(SA::kDimCache), [id](const SpaceAxes& a, const Box& b) {
              return hierarchy_label_rule(a, b, id);
            }};
  if (id == "cache.cores")
    return {id, bit(SA::kDimCores), [](const SpaceAxes& a, const Box& b) {
              return cache_cores_rule(a, b);
            }};
  if (id == "cache.inclusion")
    return {id, bit(SA::kDimCache) | bit(SA::kDimCores),
            [](const SpaceAxes& a, const Box& b) {
              return cache_inclusion_rule(a, b);
            }};
  if (id.rfind("dram.", 0) == 0)
    return {id, bit(SA::kDimTech), [id](const SpaceAxes& a, const Box& b) {
              return dram_axis_rule(a, b, id);
            }};
  // A new concrete rule without an abstract counterpart must fail loudly:
  // the analyzer would otherwise silently stop covering it.
  throw SimError("absdomain: no abstract transfer function for rule " + id);
}

}  // namespace

const std::vector<AbsRule>& abstract_machine_rules() {
  static const std::vector<AbsRule> rules = [] {
    std::vector<AbsRule> out;
    for (const auto& id : machine_rule_ids()) out.push_back(make_abstract(id));
    return out;
  }();
  return rules;
}

BoxVerdict classify_box(const core::SpaceAxes& axes, const Box& box) {
  MUSA_CHECK_MSG(box.points() > 0, "classify_box: empty box");
  for (const auto& rule : abstract_machine_rules()) {
    const AbsVerdict v = rule.check(axes, box);
    if (v.status == Tri::kSat) continue;
    return {v.status, rule.id, rule.deps, v.detail};
  }
  return {};
}

}  // namespace musa::verify
