#include "cachesim/cache.hpp"

#include "common/check.hpp"

namespace musa::cachesim {

Cache::Cache(const CacheConfig& config) : config_(config) {
  MUSA_CHECK_MSG(config.ways > 0, "cache needs at least one way");
  MUSA_CHECK_MSG(config.size_bytes >= kLineBytes * config.ways,
                 "cache smaller than one set");
  num_sets_ = config.num_sets();
  MUSA_CHECK_MSG(num_sets_ > 0, "cache has zero sets");
  if ((num_sets_ & (num_sets_ - 1)) == 0) {
    set_mask_ = num_sets_ - 1;
    while ((1ull << tag_shift_) < num_sets_) ++tag_shift_;
  }
  lines_.assign(num_sets_ * config.ways, Line{});
}

Cache::Cache(const Cache& other)
    : config_(other.config_),
      stats_(other.stats_),
      lines_(other.lines_),
      num_sets_(other.num_sets_),
      set_mask_(other.set_mask_),
      tag_shift_(other.tag_shift_),
      stamp_(other.stamp_),
      hint_line_(~0ull),
      hint_(nullptr) {}

Cache& Cache::operator=(const Cache& other) {
  if (this != &other) *this = Cache(other);
  return *this;
}

bool Cache::probe(std::uint64_t addr) const {
  const std::uint64_t line_addr = addr / kLineBytes;
  std::uint64_t set, tag;
  split(line_addr, set, tag);
  const Line* base = &lines_[set * config_.ways];
  for (int w = 0; w < config_.ways; ++w)
    if (base[w].holds(valid_key(tag))) return true;
  return false;
}

void Cache::flush(bool clear_stats) {
  for (auto& line : lines_) line = Line{};
  hint_line_ = ~0ull;
  if (clear_stats) stats_ = CacheStats{};
}

}  // namespace musa::cachesim
