// Physical/simulation units used across the MUSA libraries.
//
// Convention: microarchitectural simulators count in *cycles* (uint64_t);
// system-level components (network, power, reports) use *seconds* (double).
// Conversions always go through Frequency to keep the clock domain explicit.
#pragma once

#include <cstdint>

namespace musa {

using Cycle = std::uint64_t;

constexpr double kKilo = 1e3;
constexpr double kMega = 1e6;
constexpr double kGiga = 1e9;

constexpr std::uint64_t kKiB = 1024ull;
constexpr std::uint64_t kMiB = 1024ull * kKiB;
constexpr std::uint64_t kGiB = 1024ull * kMiB;

/// A clock domain. Converts between cycles and wall-clock seconds.
struct Frequency {
  double ghz = 1.0;

  constexpr double hz() const { return ghz * 1e9; }
  constexpr double period_ns() const { return 1.0 / ghz; }
  constexpr double cycles_to_seconds(double cycles) const {
    return cycles / hz();
  }
};

}  // namespace musa
