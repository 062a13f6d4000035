// Set-associative cache model with LRU replacement and write-back,
// write-allocate policy. One instance models one cache array; the 3-level
// node hierarchy is assembled in hierarchy.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace musa::cachesim {

constexpr std::uint64_t kLineBytes = 64;

struct CacheConfig {
  std::uint64_t size_bytes = 32 * 1024;
  int ways = 8;
  int latency_cycles = 4;  // load-to-use latency on hit

  std::uint64_t num_sets() const { return size_bytes / kLineBytes / ways; }
};

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;

  double miss_ratio() const {
    return accesses ? static_cast<double>(misses) / accesses : 0.0;
  }
  /// Misses per kilo-instruction given an instruction count.
  double mpki(std::uint64_t instrs) const {
    return instrs ? 1000.0 * static_cast<double>(misses) / instrs : 0.0;
  }
};

/// Result of one cache access.
struct AccessOutcome {
  bool hit = false;
  bool writeback = false;        // a dirty victim was evicted
  std::uint64_t victim_addr = 0; // line address of the dirty victim
};

class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// Copies start without the try_hit hint: it points into the *source's*
  /// lines_, so a probe of the copy through it would write the source's LRU
  /// and dirty bits — a data race when the source is a shared memo
  /// snapshot. Moves keep it (the line storage moves with them).
  Cache(const Cache& other);
  Cache& operator=(const Cache& other);
  Cache(Cache&&) noexcept = default;
  Cache& operator=(Cache&&) noexcept = default;

  /// Looks up `addr`; on miss the line is allocated (possibly evicting a
  /// dirty victim, reported in the outcome so the caller can propagate the
  /// write-back down the hierarchy). `is_write` marks the line dirty.
  ///
  /// Defined inline below: this is the innermost call of the replay hot
  /// loop (tens of millions of calls per sweep) and must not cost a
  /// cross-TU call per line.
  AccessOutcome access(std::uint64_t addr, bool is_write);

  /// Hit-only probe for the batched replay fast path: if `addr` hits, the
  /// side effects are exactly those of access() on a hit (access count, LRU
  /// stamp, dirty marking) and the call returns true. On a miss it touches
  /// NOTHING — no counters, no allocation — so the caller can re-drive the
  /// same address through access() and end up in the identical state a
  /// single access() call would have produced. Skips the victim tracking
  /// access() performs up front, which is pure waste on the ~95% of replay
  /// accesses that hit.
  bool try_hit(std::uint64_t addr, bool is_write);

  /// True if the line holding addr is currently resident (no state change).
  bool probe(std::uint64_t addr) const;

  /// Invalidate all lines and optionally clear statistics.
  void flush(bool clear_stats = true);

  /// Clear statistics only (contents stay warm) — used after cache warm-up.
  void reset_stats() { stats_ = CacheStats{}; }

  const CacheConfig& config() const { return config_; }
  const CacheStats& stats() const { return stats_; }

 private:
  /// 16 bytes: the valid and dirty bits ride in the low bits of the tag
  /// word (line-address tags are < 2^58, so the shift loses nothing), which
  /// cuts every array — and every copy of a warm memo snapshot — by a third.
  struct Line {
    std::uint64_t word = 0;  // tag << kTagShift | dirty | valid; 0 = invalid
    std::uint64_t lru = 0;   // global stamp; smaller = older

    bool valid() const { return (word & kValid) != 0; }
    bool dirty() const { return (word & kDirty) != 0; }
    std::uint64_t tag() const { return word >> kTagShift; }
    /// True if the line is valid and holds `key` (= valid_key(tag)).
    bool holds(std::uint64_t key) const { return (word & ~kDirty) == key; }
    void mark(bool is_write) {
      word |= static_cast<std::uint64_t>(is_write) * kDirty;
    }
  };
  static constexpr std::uint64_t kValid = 1, kDirty = 2;
  static constexpr int kTagShift = 2;
  static std::uint64_t valid_key(std::uint64_t tag) {
    return (tag << kTagShift) | kValid;
  }
  static_assert(sizeof(Line) == 16, "cache lines should stay 16 bytes");

  /// Set/tag split of a line address. Most arrays have power-of-two set
  /// counts, where the div/mod pair (20+ cycle latency each, on every access
  /// of the sweep hot path) reduces to mask and shift; the generic path
  /// stays for scaled L3 shares, whose set counts are arbitrary.
  void split(std::uint64_t line_addr, std::uint64_t& set,
             std::uint64_t& tag) const {
    if (set_mask_ != 0) {
      set = line_addr & set_mask_;
      tag = line_addr >> tag_shift_;
    } else {
      set = line_addr % num_sets_;
      tag = line_addr / num_sets_;
    }
  }

  CacheConfig config_;
  CacheStats stats_;
  std::vector<Line> lines_;  // sets × ways, row-major by set
  std::uint64_t num_sets_;
  std::uint64_t set_mask_ = 0;  // num_sets_ - 1 if power of two, else 0
  int tag_shift_ = 0;
  std::uint64_t stamp_ = 0;
  // Last line try_hit resolved, so back-to-back probes of one line (the
  // common streaming pattern: consecutive lanes walking a 64-byte line)
  // skip the way scan. A line can only stop being resident through a miss
  // allocation, so access() drops the hint on every miss; lines_ never
  // reallocates after construction, so the cached pointer stays valid (a
  // copy drops it, see the copy constructor).
  std::uint64_t hint_line_ = ~0ull;
  Line* hint_ = nullptr;
};

inline AccessOutcome Cache::access(std::uint64_t addr, bool is_write) {
  ++stats_.accesses;
  const std::uint64_t line_addr = addr / kLineBytes;
  std::uint64_t set, tag;
  split(line_addr, set, tag);
  MUSA_DCHECK_MSG((set + 1) * config_.ways <= lines_.size(),
                  "set index out of range");
  Line* base = &lines_[set * config_.ways];
  const std::uint64_t key = valid_key(tag);

  Line* victim = base;
  for (int w = 0; w < config_.ways; ++w) {
    Line& line = base[w];
    if (line.holds(key)) {
      line.lru = ++stamp_;
      line.mark(is_write);
      return {.hit = true};
    }
    if (!line.valid()) {
      victim = &line;  // prefer an invalid way
    } else if (victim->valid() && line.lru < victim->lru) {
      victim = &line;
    }
  }

  ++stats_.misses;
  hint_line_ = ~0ull;  // the allocation below may replace the hinted line
  AccessOutcome out;
  if (victim->valid() && victim->dirty()) {
    ++stats_.writebacks;
    out.writeback = true;
    out.victim_addr = (victim->tag() * num_sets_ + set) * kLineBytes;
  }
  victim->word = key;
  victim->mark(is_write);
  victim->lru = ++stamp_;
  return out;
}

inline bool Cache::try_hit(std::uint64_t addr, bool is_write) {
  const std::uint64_t line_addr = addr / kLineBytes;
  if (line_addr == hint_line_) {
    ++stats_.accesses;
    hint_->lru = ++stamp_;
    hint_->mark(is_write);
    return true;
  }
  std::uint64_t set, tag;
  split(line_addr, set, tag);
  MUSA_DCHECK_MSG((set + 1) * config_.ways <= lines_.size(),
                  "set index out of range");
  Line* base = &lines_[set * config_.ways];
  const std::uint64_t key = valid_key(tag);
  for (int w = 0; w < config_.ways; ++w) {
    Line& line = base[w];
    if (line.holds(key)) {
      ++stats_.accesses;
      line.lru = ++stamp_;
      line.mark(is_write);
      hint_line_ = line_addr;
      hint_ = &line;
      return true;
    }
  }
  return false;
}

}  // namespace musa::cachesim
