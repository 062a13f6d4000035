// The architectural design space (paper Table I) and the unconventional
// application-specific configurations (paper Table II), plus the axis-wise
// grid description (SpaceAxes) the static space analyzer
// (verify/space_analysis.hpp) reasons over without enumerating points.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cachesim/hierarchy.hpp"
#include "cpusim/core_config.hpp"
#include "dramsim/timing.hpp"

namespace musa::core {

/// One simulated machine point: node microarchitecture + scale.
struct MachineConfig {
  cpusim::CoreConfig core = cpusim::core_medium();
  std::string cache_label = "32M:256K";
  double freq_ghz = 2.0;
  int vector_bits = 128;
  int mem_channels = 4;
  dramsim::MemTech mem_tech = dramsim::MemTech::kDdr4_2333;
  int cores = 32;   // cores per node
  int ranks = 256;  // MPI ranks (one per node)

  /// L2/L3 configuration for this label, sized for `num_cores` L2s.
  cachesim::HierarchyConfig cache_config(int num_cores) const;

  /// Unique identifier, e.g. "medium|32M:256K|2.0GHz|128b|4ch-DDR4-2333|32c".
  /// Ranks other than 256 append a seventh field ("|4r"); 256, the only
  /// rank count of the paper and extended grids, keeps the six-field form
  /// every committed cache key uses.
  std::string id() const;

  /// The key used to find a config's normalisation partner: the id with the
  /// named dimension blanked out (dimension ∈ {core, cache, freq, vector,
  /// channels, cores}).
  std::string id_without(const std::string& dimension) const;

  /// Inverse of id(): parses "core|cache|F.FGHz|Nb|Nch-TECH|Nc[|Nr]" back
  /// into a config (ranks default to 256 without the seventh field). Throws
  /// SimError naming the broken field; `dse_lint --explain` uses this to
  /// lint a point given on the command line.
  static MachineConfig parse_id(const std::string& id);
};

/// Axis-wise description of a rectangular design-space grid: the set of
/// candidate values per dimension, whose cross product is the space. The
/// paper's 864-point grid and the ≥10⁶-point extended grid are both
/// instances; the static analyzer (verify/space_analysis.hpp) classifies
/// whole sub-boxes of such a grid against the constraint rules without
/// visiting individual points.
///
/// Dimension order is fixed (core outermost .. ranks innermost) and the
/// linear index is row-major over it; ConfigSpace::full_space() is the
/// row-major enumeration of paper(), so cache and journal keys line up.
struct SpaceAxes {
  static constexpr int kDims = 8;
  enum : int {
    kDimCore = 0,
    kDimCache = 1,
    kDimFreq = 2,
    kDimVector = 3,
    kDimChannels = 4,
    kDimTech = 5,
    kDimCores = 6,
    kDimRanks = 7,
  };

  std::vector<cpusim::CoreConfig> core_presets;
  std::vector<std::string> cache_labels;
  std::vector<double> freqs_ghz;
  std::vector<int> vector_bits;
  std::vector<int> mem_channels;
  std::vector<dramsim::MemTech> mem_techs;
  std::vector<int> core_counts;
  std::vector<int> rank_counts;

  /// The paper's Table I grid as axes: 4 × 3 × 4 × 3 × 2 × 1 × 3 × 1 = 864.
  static SpaceAxes paper();

  /// A ≥10⁶-point extended grid (ROADMAP item 2): every memory technology,
  /// 0.5–6.0 GHz in 0.1 steps, vector widths 32–8192, 1–128 channels and
  /// 1–2048 cores. Deliberately contains infeasible regions (vector widths
  /// outside [64, 4096], 128 channels, 2048 cores, aggregate-L2-vs-L3
  /// overflows at high core counts) so the analyzer has something to prune.
  static SpaceAxes extended();

  std::uint64_t points() const;
  int dim_size(int dim) const;
  static const char* dim_name(int dim);

  /// Human-readable value of one axis entry, e.g. "2.0GHz" or "DDR4-2333".
  std::string value_name(int dim, int index) const;

  /// Config at a per-dimension index tuple / row-major linear index.
  MachineConfig config_at(const std::array<int, kDims>& idx) const;
  MachineConfig config_at(std::uint64_t linear) const;
  std::uint64_t linear_of(const std::array<int, kDims>& idx) const;
};

/// The paper's 864-point grid (paper Table I):
/// 4 OoO × 3 caches × 4 frequencies × 3 vector widths × 2 channel counts ×
/// 3 core counts. The per-dimension value lists are the single source
/// SpaceAxes::paper() is built from.
class ConfigSpace {
 public:
  static const std::vector<std::string>& cache_labels();
  static const std::vector<double>& frequencies();
  static const std::vector<int>& vector_widths();
  static const std::vector<int>& channel_counts();
  static const std::vector<int>& core_counts();

  /// All 864 configurations, 256 ranks each: SpaceAxes::paper() in
  /// row-major order.
  static std::vector<MachineConfig> full_space();

  /// The best-performing conventional point used as the Table II baseline.
  static MachineConfig dse_best(const std::string& app_name);

  /// Table II rows: (label, config) pairs for SPMZ and LULESH.
  static std::vector<std::pair<std::string, MachineConfig>>
  unconventional(const std::string& app_name);
};

}  // namespace musa::core
