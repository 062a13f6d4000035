// Shared plumbing for the bench drivers (run_dse, sweep_bench, dse_lint,
// dse_loadtest, dse_figures): the DSE cache location and the fixed
// 24-point bench sweep.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "common/table.hpp"
#include "core/dse.hpp"
#include "core/pipeline.hpp"

namespace musa::bench {

/// DSE result cache shared by all bench drivers (override with
/// MUSA_DSE_CACHE; the sweep runs once and is reused afterwards).
inline std::string dse_cache_path() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at bench startup,
  // before any worker threads exist.
  if (const char* env = std::getenv("MUSA_DSE_CACHE")) return env;
  return "dse_cache.csv";
}

/// The fixed 24-point sub-sweep shared by sweep_bench and `run_dse
/// --bench`: one app (hydro) across 4 core presets x 3 frequencies x 2
/// channel counts. Small enough for CI, wide enough to exercise every
/// pipeline stage — the chaos leg injects faults into exactly this space.
inline std::vector<core::MachineConfig> bench_space() {
  std::vector<core::MachineConfig> configs;
  for (const auto& core : cpusim::core_presets())
    for (double freq : {1.5, 2.0, 2.5})
      for (int channels : {4, 8}) {
        core::MachineConfig c;
        c.core = core;
        c.freq_ghz = freq;
        c.mem_channels = channels;
        configs.push_back(c);
      }
  return configs;
}

inline const char* bench_app() { return "hydro"; }

}  // namespace musa::bench
