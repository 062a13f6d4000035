// Interval abstract domain over the design-space grid.
//
// A Box is a hyper-rectangle of a SpaceAxes grid: one half-open index range
// per dimension into that dimension's sorted candidate list. Every concrete
// MachineConfig inside the box projects, per dimension, to a value within
// the box's range — the classic interval abstraction, specialised to finite
// value axes.
//
// Each constraint rule that check_machine() can emit has an *abstract
// transfer function* here: given a box it returns
//   kSat       — every point in the box satisfies the rule,
//   kViolated  — every point in the box violates the rule,
//   kUnknown   — the rule cannot decide the whole box (mixed, or the
//                abstraction is too coarse at this width).
//
// Transfer-function contract (the soundness argument, DESIGN.md §7g):
//   1. Soundness: kSat/kViolated verdicts hold for *every* concrete point
//      of the box. Transfer functions may only consult (a) the concrete
//      rule predicate itself, evaluated on whole candidate values of the
//      dimensions the rule reads, and (b) documented monotonicity of the
//      violation condition in a numeric dimension.
//   2. Exactness at singletons: a box of width 1 in every dependency
//      dimension must decide (never kUnknown) and must equal the concrete
//      rule verdict — this is what makes the recursive box-splitting engine
//      (space_analysis.hpp) terminate with the exact pointwise answer.
//   3. Honest dependencies: `deps` lists exactly the dimensions the
//      concrete predicate reads; the splitting engine only splits
//      dependency dimensions of the first undecided rule.
// Per-box cost is O(Σ |dimension values in range|) — never the product.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/config_space.hpp"
#include "verify/constraint.hpp"

namespace musa::verify {

/// Three-valued abstract verdict.
enum class Tri : std::uint8_t { kSat, kViolated, kUnknown };

/// A hyper-rectangle of a SpaceAxes grid: per-dimension half-open index
/// ranges [begin, end) into the axis value lists.
struct Box {
  std::array<int, core::SpaceAxes::kDims> begin{};
  std::array<int, core::SpaceAxes::kDims> end{};

  /// The whole grid.
  static Box full(const core::SpaceAxes& axes);

  int width(int dim) const { return end[dim] - begin[dim]; }
  std::uint64_t points() const;

  /// "core[0,4) cache[1,2) ..." — only non-full dims when `axes` given.
  std::string str() const;
};

/// Verdict of one abstract rule on one box.
struct AbsVerdict {
  Tri status = Tri::kUnknown;
  std::string detail;  // kViolated: offending values, from the concrete rule
};

/// Abstract counterpart of one concrete rule.
struct AbsRule {
  std::string id;      // equals the concrete rule id (machine_rule_ids())
  std::uint32_t deps;  // bitmask of SpaceAxes dims the transfer fn reads
  std::function<AbsVerdict(const core::SpaceAxes&, const Box&)> check;
};

/// The abstract counterpart of every rule in machine_rule_ids(), in the
/// same order. A coverage test asserts the id lists match exactly.
const std::vector<AbsRule>& abstract_machine_rules();

/// First-undecided classification of a box against the rule catalogue:
/// walks abstract_machine_rules() in order and stops at the first rule that
/// is not kSat. kViolated means every point in the box violates `rule` and
/// every *earlier* rule is satisfied box-wide — i.e. `rule` is exactly the
/// first rule pointwise lint would report for each point, which is what
/// makes analyzer kill counts diffable against pointwise reports. kUnknown
/// names the first undecided rule and its deps so the splitting engine
/// knows which dimensions to bisect.
struct BoxVerdict {
  Tri status = Tri::kSat;
  std::string rule;    // empty when kSat
  std::uint32_t deps = 0;
  std::string detail;  // kViolated only
};

BoxVerdict classify_box(const core::SpaceAxes& axes, const Box& box);

}  // namespace musa::verify
