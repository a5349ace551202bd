// DRAM-cache metadata: one store for every fine- and coarse-grained cache.
//
// Alloy-style caches keep tags *inside* the DRAM rows (TAD); the controller
// cannot consult them without a DRAM read. This class is the simulator-side
// mirror of that in-DRAM state: policies update it when the corresponding
// DRAM traffic is issued, and every timing/bandwidth cost of reaching the
// real tags is charged through the DRAM model (the probe reads).
//
// Geometry is (capacity, line_blocks, ways). The paper's caches are
// direct-mapped (ways = 1); the N-way organization follows the authors'
// R-Cache direction: all ways of a set sit in adjacent device slots, so one
// probe burst reads every tag (they live in the row's ECC lanes), while
// data for any way but the probed one costs the controller another burst.
// LRU stamps exist only when ways > 1, so a direct-mapped store keeps its
// 16-byte lines and its 12-byte snapshot records.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitops.hpp"
#include "common/serialize.hpp"
#include "common/types.hpp"

namespace redcache {

class TagStore {
 public:
  struct Line {
    std::uint64_t tag = 0;
    std::uint8_t r_count = 0;  ///< reuse count (saturating, tag/ECC byte)
    bool valid = false;
    bool dirty = false;
    /// Installed by a writeback rather than a demand fetch. Such fills are
    /// often trailing stores of finished blocks; the alpha feedback loop
    /// excludes them from its dead-fill statistics.
    bool write_filled = false;
  };

  /// `capacity_bytes` of data, organized as `line_blocks` 64 B blocks per
  /// line (1 for the fine-grained caches; 2/4 for the granularity study)
  /// and `ways` lines per set.
  TagStore(std::uint64_t capacity_bytes, std::uint32_t line_blocks,
           std::uint32_t ways = 1)
      : ways_(ways),
        line_blocks_(line_blocks),
        line_bytes_(std::uint64_t{line_blocks} * kBlockBytes),
        num_sets_(capacity_bytes / line_bytes_ / ways),
        lines_(num_sets_ * ways),
        lru_(ways > 1 ? lines_.size() : 0) {}

  std::uint64_t num_sets() const { return num_sets_; }
  std::uint32_t ways() const { return ways_; }
  std::uint32_t line_blocks() const { return line_blocks_; }
  std::uint64_t line_bytes() const { return line_bytes_; }

  std::uint64_t SetOf(Addr addr) const {
    return (addr / line_bytes_) % num_sets_;
  }
  std::uint64_t TagOf(Addr addr) const { return addr / line_bytes_ / num_sets_; }

  Line& line(std::uint64_t set, std::uint32_t way = 0) {
    return lines_[set * ways_ + way];
  }
  const Line& line(std::uint64_t set, std::uint32_t way = 0) const {
    return lines_[set * ways_ + way];
  }

  /// Way holding `addr`, or ways() if absent.
  std::uint32_t FindWay(Addr addr) const {
    const Line* base = &lines_[SetOf(addr) * ways_];
    const std::uint64_t tag = TagOf(addr);
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (base[w].valid && base[w].tag == tag) return w;
    }
    return ways_;
  }

  bool Hit(Addr addr) const { return FindWay(addr) != ways_; }

  /// Replacement victim of `set`: an invalid way first, else the LRU way.
  std::uint32_t VictimWay(std::uint64_t set) const {
    if (ways_ == 1) return 0;
    const std::uint64_t base = set * ways_;
    std::uint32_t victim = 0;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (!lines_[base + w].valid) return w;
      if (lru_[base + w] < lru_[base + victim]) victim = w;
    }
    return victim;
  }

  /// Most recently touched valid way of `set` (way 0 when none is valid):
  /// the way whose data a probe burst returns.
  std::uint32_t MruWay(std::uint64_t set) const {
    const std::uint64_t base = set * ways_;
    std::uint32_t mru = 0;
    for (std::uint32_t w = 1; w < ways_; ++w) {
      if (lines_[base + w].valid &&
          (!lines_[base + mru].valid || lru_[base + w] > lru_[base + mru])) {
        mru = w;
      }
    }
    return mru;
  }

  /// Mark (set, way) most recently used (no-op when direct-mapped).
  void Touch(std::uint64_t set, std::uint32_t way) {
    if (ways_ > 1) lru_[set * ways_ + way] = ++tick_;
  }

  /// Main-memory address of the line currently stored in (set, way).
  Addr VictimAddr(std::uint64_t set, std::uint32_t way = 0) const {
    return (line(set, way).tag * num_sets_ + set) * line_bytes_;
  }

  /// Address *within the HBM device* used for timing: the physical slot of
  /// (set, way), plus the block offset the request targets within the line.
  Addr HbmAddr(std::uint64_t set, Addr demand_addr,
               std::uint32_t way = 0) const {
    const Addr offset = demand_addr % line_bytes_;
    return (set * ways_ + way) * line_bytes_ + BlockAlign(offset);
  }

  /// Increment a line's saturating r-count and return the new value.
  std::uint32_t BumpRcount(std::uint64_t set, std::uint32_t way = 0) {
    Line& l = line(set, way);
    if (l.r_count != 0xff) ++l.r_count;
    return l.r_count;
  }

  /// Valid lines (a full scan: for recounting after a restore).
  std::uint64_t CountValid() const {
    std::uint64_t n = 0;
    for (const Line& l : lines_) n += l.valid ? 1 : 0;
    return n;
  }

  void Snapshot(ser::Writer& w) const {
    w.Section("dmtags");
    w.U64(lines_.size());
    // 12-byte records via a bulk span — see sram/cache.hpp.
    std::uint8_t* p = w.Raw(12 * lines_.size());
    for (const Line& l : lines_) {
      ser::PutU64(p, l.tag);
      p[8] = l.r_count;
      p[9] = l.valid ? 1 : 0;
      p[10] = l.dirty ? 1 : 0;
      p[11] = l.write_filled ? 1 : 0;
      p += 12;
    }
    if (ways_ > 1) {
      w.U64Seq(lru_);
      w.U64(tick_);
    }
  }
  void Restore(ser::Reader& r) {
    r.Section("dmtags");
    if (r.SeqLen(12) != lines_.size()) {
      throw ser::SerializeError("tag store geometry mismatch");
    }
    const std::uint8_t* p = r.Raw(12 * lines_.size());
    for (Line& l : lines_) {
      l.tag = ser::GetU64(p);
      l.r_count = p[8];
      l.valid = p[9] != 0;
      l.dirty = p[10] != 0;
      l.write_filled = p[11] != 0;
      p += 12;
    }
    if (ways_ > 1) {
      if (r.SeqLen(8) != lru_.size()) {
        throw ser::SerializeError("tag store LRU geometry mismatch");
      }
      for (std::uint64_t& stamp : lru_) stamp = r.U64();
      tick_ = r.U64();
    }
  }

 private:
  std::uint32_t ways_;
  std::uint32_t line_blocks_;
  std::uint64_t line_bytes_;
  std::uint64_t num_sets_;
  std::vector<Line> lines_;
  std::vector<std::uint64_t> lru_;  ///< per-line LRU stamps (ways > 1 only)
  std::uint64_t tick_ = 0;
};

}  // namespace redcache
