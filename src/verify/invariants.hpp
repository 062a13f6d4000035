// Result verification: physical-consistency invariants checked after every
// simulated sweep point and over every result row loaded from a cache or
// journal. A simulation that emits a NaN, breaks energy = power · time, or
// reports more IPC than the core can issue is a model bug (or on-disk
// corruption) — it must never flow silently into a paper figure.
//
// Freshly computed points are enforced (violations throw SimError naming
// the offending point); rows loaded from disk are filtered (a violating row
// is dropped and recomputed, exactly like a checksum failure). The
// `--no-verify` flag on run_dse / SweepOptions::verify turns enforcement
// off for perf experiments.
#pragma once

#include "core/pipeline.hpp"
#include "cpusim/runtime.hpp"
#include "netsim/dimemas.hpp"
#include "verify/constraint.hpp"

namespace musa::verify {

/// The invariant set over one simulation result. Bounds are cross-layer:
/// IPC against the core's issue width and vector lanes, bandwidth against
/// the memory technology's channel peak, energy against power · time.
const RuleSet<core::SimResult>& result_rules();

/// Evaluates result_rules() with the point key "app|config-id" as subject.
std::vector<Violation> check_result(const core::SimResult& r);

/// Throws SimError naming the offending point on any violation.
void verify_result(const core::SimResult& r);

/// Node-level task timeline sanity (Fig. 3 input): segments are
/// time-ordered (start <= end), inside [0, makespan], on a valid core.
std::vector<Violation> check_core_timeline(
    const std::vector<cpusim::TimelineSeg>& segs, int cores, double makespan,
    const std::string& subject);

/// Rank-level MPI timeline sanity (Fig. 4 input): per-rank segments are
/// monotone non-overlapping, inside [0, makespan], on a valid rank.
std::vector<Violation> check_rank_timeline(
    const std::vector<netsim::RankSeg>& segs, int ranks, double makespan,
    const std::string& subject);

}  // namespace musa::verify
