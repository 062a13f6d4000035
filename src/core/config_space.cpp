#include "core/config_space.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/check.hpp"

namespace musa::core {

namespace {
cpusim::CoreConfig core_by_label(const std::string& label) {
  for (const auto& c : cpusim::core_presets())
    if (c.label == label) return c;
  throw SimError("unknown core label: " + label);
}

std::string dim_string(const MachineConfig& c, const std::string& skip) {
  char freq[16];
  std::snprintf(freq, sizeof freq, "%.1fGHz", c.freq_ghz);
  std::string out;
  auto add = [&](const std::string& dim, const std::string& value) {
    out += dim == skip ? std::string("*") : value;
    out += '|';
  };
  add("core", c.core.label);
  add("cache", c.cache_label);
  add("freq", freq);
  add("vector", std::to_string(c.vector_bits) + "b");
  add("channels", std::to_string(c.mem_channels) + "ch-" +
                      dramsim::mem_tech_name(c.mem_tech));
  add("cores", std::to_string(c.cores) + "c");
  out.pop_back();
  return out;
}
}  // namespace

namespace {

/// Splits "Nb"-style suffixed integers ("128b", "4ch", "32c"); throws
/// SimError when the suffix or the digits are missing.
int suffixed_int(const std::string& field, const std::string& suffix,
                 const char* what) {
  if (field.size() <= suffix.size() ||
      field.compare(field.size() - suffix.size(), suffix.size(), suffix) != 0)
    throw SimError(std::string("config id: ") + what + " field \"" + field +
                   "\" does not end in \"" + suffix + "\"");
  const std::string digits = field.substr(0, field.size() - suffix.size());
  char* end = nullptr;
  const long v = std::strtol(digits.c_str(), &end, 10);
  if (end == digits.c_str() || *end != '\0')
    throw SimError(std::string("config id: ") + what + " field \"" + field +
                   "\" is not an integer");
  return static_cast<int>(v);
}

}  // namespace

MachineConfig MachineConfig::parse_id(const std::string& id) {
  std::vector<std::string> fields;
  std::string cur;
  for (char ch : id) {
    if (ch == '|') {
      fields.push_back(cur);
      cur.clear();
    } else {
      cur += ch;
    }
  }
  fields.push_back(cur);
  if (fields.size() != 6)
    throw SimError("config id \"" + id + "\" must have 6 |-separated fields "
                   "(core|cache|freq|vector|channels-tech|cores)");

  MachineConfig c;
  c.core = core_by_label(fields[0]);
  c.cache_label = fields[1];

  const std::string& freq = fields[2];
  if (freq.size() <= 3 || freq.compare(freq.size() - 3, 3, "GHz") != 0)
    throw SimError("config id: frequency field \"" + freq +
                   "\" does not end in GHz");
  char* end = nullptr;
  const std::string freq_digits = freq.substr(0, freq.size() - 3);
  c.freq_ghz = std::strtod(freq_digits.c_str(), &end);
  if (end == freq_digits.c_str() || *end != '\0')
    throw SimError("config id: frequency field \"" + freq +
                   "\" is not a number");

  c.vector_bits = suffixed_int(fields[3], "b", "vector width");

  const std::string& chans = fields[4];
  const std::size_t dash = chans.find("ch-");
  if (dash == std::string::npos)
    throw SimError("config id: channel field \"" + chans +
                   "\" is not Nch-TECH");
  c.mem_channels = suffixed_int(chans.substr(0, dash + 2), "ch", "channel");
  const std::string tech = chans.substr(dash + 3);
  bool tech_found = false;
  for (auto t : {dramsim::MemTech::kDdr4_2333, dramsim::MemTech::kDdr4_2666,
                 dramsim::MemTech::kLpddr4_3200, dramsim::MemTech::kWideIo2,
                 dramsim::MemTech::kHbm2})
    if (tech == dramsim::mem_tech_name(t)) {
      c.mem_tech = t;
      tech_found = true;
    }
  if (!tech_found)
    throw SimError("config id: unknown memory tech \"" + tech + "\"");

  c.cores = suffixed_int(fields[5], "c", "core count");
  return c;  // ranks stay at the default: the id does not carry them
}

cachesim::HierarchyConfig MachineConfig::cache_config(int num_cores) const {
  if (cache_label == "32M:256K") return cachesim::cache_32m_256k(num_cores);
  if (cache_label == "64M:512K") return cachesim::cache_64m_512k(num_cores);
  if (cache_label == "96M:1M") return cachesim::cache_96m_1m(num_cores);
  throw SimError("unknown cache label: " + cache_label);
}

std::string MachineConfig::id() const { return dim_string(*this, ""); }

std::string MachineConfig::id_without(const std::string& dimension) const {
  return dim_string(*this, dimension);
}

const std::vector<std::string>& ConfigSpace::cache_labels() {
  static const std::vector<std::string> v = {"32M:256K", "64M:512K",
                                             "96M:1M"};
  return v;
}
const std::vector<double>& ConfigSpace::frequencies() {
  static const std::vector<double> v = {1.5, 2.0, 2.5, 3.0};
  return v;
}
const std::vector<int>& ConfigSpace::vector_widths() {
  static const std::vector<int> v = {128, 256, 512};
  return v;
}
const std::vector<int>& ConfigSpace::channel_counts() {
  static const std::vector<int> v = {4, 8};
  return v;
}
const std::vector<int>& ConfigSpace::core_counts() {
  static const std::vector<int> v = {1, 32, 64};
  return v;
}

std::vector<MachineConfig> ConfigSpace::full_space() {
  const SpaceAxes axes = SpaceAxes::paper();
  std::vector<MachineConfig> space;
  space.reserve(static_cast<std::size_t>(axes.points()));
  for (std::uint64_t linear = 0; linear < axes.points(); ++linear)
    space.push_back(axes.config_at(linear));
  MUSA_CHECK_MSG(space.size() == 864, "Table I grid must have 864 points");
  return space;
}

SpaceAxes SpaceAxes::paper() {
  SpaceAxes a;
  a.core_presets = cpusim::core_presets();
  a.cache_labels = ConfigSpace::cache_labels();
  a.freqs_ghz = ConfigSpace::frequencies();
  a.vector_bits = ConfigSpace::vector_widths();
  a.mem_channels = ConfigSpace::channel_counts();
  a.mem_techs = {dramsim::MemTech::kDdr4_2333};
  a.core_counts = ConfigSpace::core_counts();
  a.rank_counts = {256};
  return a;
}

SpaceAxes SpaceAxes::extended() {
  SpaceAxes a;
  a.core_presets = cpusim::core_presets();
  a.cache_labels = ConfigSpace::cache_labels();
  // 0.5 .. 6.0 GHz in 0.1 steps. Generated as i/10 so every value survives
  // the %.1f round-trip through config ids exactly (no 0.25-style values
  // that would collide once formatted).
  for (int i = 5; i <= 60; ++i) a.freqs_ghz.push_back(i / 10.0);
  a.vector_bits = {32, 64, 128, 256, 512, 1024, 2048, 4096, 8192};
  a.mem_channels = {1, 2, 4, 8, 16, 32, 64, 128};
  a.mem_techs = {dramsim::MemTech::kDdr4_2333, dramsim::MemTech::kDdr4_2666,
                 dramsim::MemTech::kLpddr4_3200, dramsim::MemTech::kWideIo2,
                 dramsim::MemTech::kHbm2};
  a.core_counts = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048};
  a.rank_counts = {256};
  return a;
}

std::uint64_t SpaceAxes::points() const {
  std::uint64_t n = 1;
  for (int d = 0; d < kDims; ++d)
    n *= static_cast<std::uint64_t>(dim_size(d));
  return n;
}

int SpaceAxes::dim_size(int dim) const {
  switch (dim) {
    case kDimCore: return static_cast<int>(core_presets.size());
    case kDimCache: return static_cast<int>(cache_labels.size());
    case kDimFreq: return static_cast<int>(freqs_ghz.size());
    case kDimVector: return static_cast<int>(vector_bits.size());
    case kDimChannels: return static_cast<int>(mem_channels.size());
    case kDimTech: return static_cast<int>(mem_techs.size());
    case kDimCores: return static_cast<int>(core_counts.size());
    case kDimRanks: return static_cast<int>(rank_counts.size());
    default: throw SimError("SpaceAxes: bad dimension " + std::to_string(dim));
  }
}

const char* SpaceAxes::dim_name(int dim) {
  switch (dim) {
    case kDimCore: return "core";
    case kDimCache: return "cache";
    case kDimFreq: return "freq";
    case kDimVector: return "vector";
    case kDimChannels: return "channels";
    case kDimTech: return "tech";
    case kDimCores: return "cores";
    case kDimRanks: return "ranks";
    default: throw SimError("SpaceAxes: bad dimension " + std::to_string(dim));
  }
}

std::string SpaceAxes::value_name(int dim, int index) const {
  MUSA_CHECK_MSG(index >= 0 && index < dim_size(dim),
                 "SpaceAxes: value index out of range");
  switch (dim) {
    case kDimCore: return core_presets[index].label;
    case kDimCache: return cache_labels[index];
    case kDimFreq: {
      char buf[16];
      std::snprintf(buf, sizeof buf, "%.1fGHz", freqs_ghz[index]);
      return buf;
    }
    case kDimVector: return std::to_string(vector_bits[index]) + "b";
    case kDimChannels: return std::to_string(mem_channels[index]) + "ch";
    case kDimTech: return dramsim::mem_tech_name(mem_techs[index]);
    case kDimCores: return std::to_string(core_counts[index]) + "c";
    default: return std::to_string(rank_counts[index]) + "r";
  }
}

MachineConfig SpaceAxes::config_at(const std::array<int, kDims>& idx) const {
  for (int d = 0; d < kDims; ++d)
    MUSA_CHECK_MSG(idx[d] >= 0 && idx[d] < dim_size(d),
                   "SpaceAxes: index out of range");
  MachineConfig c;
  c.core = core_presets[idx[kDimCore]];
  c.cache_label = cache_labels[idx[kDimCache]];
  c.freq_ghz = freqs_ghz[idx[kDimFreq]];
  c.vector_bits = vector_bits[idx[kDimVector]];
  c.mem_channels = mem_channels[idx[kDimChannels]];
  c.mem_tech = mem_techs[idx[kDimTech]];
  c.cores = core_counts[idx[kDimCores]];
  c.ranks = rank_counts[idx[kDimRanks]];
  return c;
}

MachineConfig SpaceAxes::config_at(std::uint64_t linear) const {
  MUSA_CHECK_MSG(linear < points(), "SpaceAxes: linear index out of range");
  std::array<int, kDims> idx{};
  for (int d = kDims - 1; d >= 0; --d) {
    const auto size = static_cast<std::uint64_t>(dim_size(d));
    idx[d] = static_cast<int>(linear % size);
    linear /= size;
  }
  return config_at(idx);
}

std::uint64_t SpaceAxes::linear_of(const std::array<int, kDims>& idx) const {
  std::uint64_t linear = 0;
  for (int d = 0; d < kDims; ++d) {
    MUSA_CHECK_MSG(idx[d] >= 0 && idx[d] < dim_size(d),
                   "SpaceAxes: index out of range");
    linear = linear * static_cast<std::uint64_t>(dim_size(d)) +
             static_cast<std::uint64_t>(idx[d]);
  }
  return linear;
}

MachineConfig ConfigSpace::dse_best(const std::string& app_name) {
  // Best execution-time conventional configs at 64 cores / 2 GHz (§V-D).
  MachineConfig c;
  c.freq_ghz = 2.0;
  c.cores = 64;
  if (app_name == "spmz") {
    c.core = core_by_label("aggressive");
    c.vector_bits = 512;
    c.cache_label = "96M:1M";
    c.mem_channels = 8;
    return c;
  }
  if (app_name == "lulesh") {
    c.core = core_by_label("high");
    c.vector_bits = 512;
    c.cache_label = "96M:1M";
    c.mem_channels = 8;
    return c;
  }
  throw SimError("no Table II baseline for app: " + app_name);
}

std::vector<std::pair<std::string, MachineConfig>>
ConfigSpace::unconventional(const std::string& app_name) {
  std::vector<std::pair<std::string, MachineConfig>> rows;
  rows.emplace_back("Best-DSE", dse_best(app_name));
  if (app_name == "spmz") {
    MachineConfig vplus = rows[0].second;
    vplus.core = core_by_label("high");
    vplus.vector_bits = 1024;
    vplus.cache_label = "64M:512K";
    vplus.mem_channels = 4;
    rows.emplace_back("Vector+", vplus);
    MachineConfig vpp = vplus;
    vpp.vector_bits = 2048;
    rows.emplace_back("Vector++", vpp);
    return rows;
  }
  if (app_name == "lulesh") {
    MachineConfig mplus = rows[0].second;
    mplus.core = core_by_label("medium");
    mplus.vector_bits = 64;  // narrow scalar FPUs
    mplus.cache_label = "64M:512K";
    mplus.mem_channels = 16;
    rows.emplace_back("MEM+", mplus);
    MachineConfig mpp = mplus;
    mpp.mem_tech = dramsim::MemTech::kHbm2;
    mpp.mem_channels = 16;
    rows.emplace_back("MEM++", mpp);
    return rows;
  }
  throw SimError("no Table II rows for app: " + app_name);
}

}  // namespace musa::core
