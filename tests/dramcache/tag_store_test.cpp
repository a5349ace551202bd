// The one DRAM-cache tag store, at direct-mapped (ways = 1) and N-way
// geometries. Each check takes (ways, line_blocks) so the direct-mapped and
// set-associative cases run the same assertions.
#include "dramcache/tag_store.hpp"

#include <gtest/gtest.h>

#include <string>

namespace redcache {
namespace {

// A direct-mapped store keeps its 16-byte lines: LRU stamps live apart.
static_assert(sizeof(TagStore::Line) == 16);

/// Install `addr` into `way` of its set.
void Install(TagStore& t, Addr addr, std::uint32_t way) {
  auto& line = t.line(t.SetOf(addr), way);
  line.valid = true;
  line.tag = t.TagOf(addr);
}

void ExpectGeometry(std::uint32_t ways, std::uint32_t line_blocks) {
  TagStore t(1_MiB, line_blocks, ways);
  EXPECT_EQ(t.ways(), ways);
  EXPECT_EQ(t.line_bytes(), 64u * line_blocks);
  EXPECT_EQ(t.num_sets(), 1_MiB / (64 * line_blocks) / ways);
}

void ExpectHitRequiresValidAndMatchingTag(std::uint32_t ways,
                                          std::uint32_t line_blocks) {
  TagStore t(1_MiB, line_blocks, ways);
  const Addr a = 0x12340;
  const Addr alias = a + 1_MiB / ways;  // same set, different tag
  EXPECT_FALSE(t.Hit(a));
  EXPECT_EQ(t.FindWay(a), ways);  // absent
  Install(t, a, ways - 1);
  EXPECT_TRUE(t.Hit(a));
  EXPECT_EQ(t.FindWay(a), ways - 1);
  EXPECT_EQ(t.SetOf(alias), t.SetOf(a));
  EXPECT_FALSE(t.Hit(alias));
}

void ExpectVictimAddrRoundTrips(std::uint32_t ways,
                                std::uint32_t line_blocks) {
  TagStore t(1_MiB, line_blocks, ways);
  const Addr a = 0x735ac0 / t.line_bytes() * t.line_bytes();  // line aligned
  Install(t, a, ways - 1);
  EXPECT_EQ(t.VictimAddr(t.SetOf(a), ways - 1), a);
}

void ExpectHbmAddrStaysInsideDevice(std::uint32_t ways,
                                    std::uint32_t line_blocks) {
  TagStore t(1_MiB, line_blocks, ways);
  for (Addr a = 0; a < 8_MiB; a += 4096 + 192) {
    for (std::uint32_t w = 0; w < ways; ++w) {
      EXPECT_LT(t.HbmAddr(t.SetOf(a), a, w), 1_MiB);
    }
  }
  // The ways of a set occupy distinct device slots.
  for (std::uint32_t w = 1; w < ways; ++w) {
    EXPECT_NE(t.HbmAddr(5, 0, w), t.HbmAddr(5, 0, w - 1));
  }
}

void ExpectRcountSaturates(std::uint32_t ways, std::uint32_t line_blocks) {
  TagStore t(64_KiB, line_blocks, ways);
  for (int i = 0; i < 300; ++i) {
    EXPECT_LE(t.BumpRcount(3, ways - 1), 255u);
  }
  EXPECT_EQ(t.line(3, ways - 1).r_count, 255);
}

std::string SnapshotBytes(const TagStore& t) {
  ser::Writer w;
  t.Snapshot(w);
  return w.TakeString();
}

// --- direct-mapped (ways = 1) ------------------------------------------------

TEST(DirectMappedTags, GeometryDerivation) {
  ExpectGeometry(1, 1);
  ExpectGeometry(1, 4);
}

TEST(DirectMappedTags, SetWrapsAtCapacity) {
  TagStore t(1_MiB, 1);
  EXPECT_EQ(t.SetOf(0x40), t.SetOf(0x40 + 1_MiB));
  EXPECT_NE(t.TagOf(0x40), t.TagOf(0x40 + 1_MiB));
}

TEST(DirectMappedTags, HitRequiresValidAndMatchingTag) {
  ExpectHitRequiresValidAndMatchingTag(1, 1);
}

TEST(DirectMappedTags, VictimAddrRoundTrips) {
  ExpectVictimAddrRoundTrips(1, 1);
}

TEST(DirectMappedTags, VictimAddrRoundTripsForWideLines) {
  ExpectVictimAddrRoundTrips(1, 4);
}

TEST(DirectMappedTags, HbmAddrStaysInsideDevice) {
  ExpectHbmAddrStaysInsideDevice(1, 4);
}

TEST(DirectMappedTags, HbmAddrSelectsRequestedBlockWithinLine) {
  TagStore t(1_MiB, 4);
  const Addr line_base = 0x100;  // not line aligned -> block 1 of its line
  const Addr hbm0 = t.HbmAddr(t.SetOf(line_base), line_base & ~Addr{255});
  const Addr hbm1 = t.HbmAddr(t.SetOf(line_base), line_base);
  EXPECT_EQ(hbm1 - hbm0, 0x100u & 0xffu);
}

TEST(DirectMappedTags, BumpRcountSaturates) { ExpectRcountSaturates(1, 1); }

TEST(DirectMappedTags, SnapshotIsTwelveBytesPerLine) {
  TagStore t(64_KiB, 1);
  // Section tag (4 bytes) + line count (8), then one 12-byte record per
  // line and nothing else: no LRU stamps at ways = 1.
  EXPECT_EQ(SnapshotBytes(t).size(), 4 + 8 + 12 * t.num_sets());
}

// --- set-associative (ways > 1) ----------------------------------------------

TEST(NWayTags, GeometryDerivation) { ExpectGeometry(4, 1); }

TEST(NWayTags, FindWayLocatesInstalledBlock) {
  ExpectHitRequiresValidAndMatchingTag(2, 1);
}

TEST(NWayTags, VictimPrefersInvalidWays) {
  TagStore t(1_MiB, 1, 4);
  t.line(7, 0).valid = true;
  t.Touch(7, 0);
  EXPECT_NE(t.VictimWay(7), 0u);  // some invalid way wins
}

TEST(NWayTags, VictimIsLeastRecentlyTouched) {
  TagStore t(1_MiB, 1, 3);
  for (std::uint32_t w = 0; w < 3; ++w) {
    t.line(9, w).valid = true;
    t.Touch(9, w);
  }
  t.Touch(9, 0);  // refresh way 0: way 1 is now LRU
  EXPECT_EQ(t.VictimWay(9), 1u);
  EXPECT_EQ(t.MruWay(9), 0u);
}

TEST(NWayTags, VictimAddrRoundTrips) { ExpectVictimAddrRoundTrips(2, 1); }

TEST(NWayTags, HbmAddrDistinctPerWayAndWithinDevice) {
  ExpectHbmAddrStaysInsideDevice(4, 1);
}

TEST(NWayTags, RcountSaturates) { ExpectRcountSaturates(2, 1); }

TEST(NWayTags, SnapshotRoundTripKeepsLruOrder) {
  TagStore t(64_KiB, 1, 4);
  for (std::uint32_t w : {2u, 0u, 3u, 1u}) {
    t.line(6, w).valid = true;
    t.line(6, w).tag = w + 10;
    t.Touch(6, w);
  }
  t.Touch(6, 2);  // LRU order now 0, 3, 1, 2
  const std::string blob = SnapshotBytes(t);

  TagStore u(64_KiB, 1, 4);
  ser::Reader r(blob);
  u.Restore(r);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(SnapshotBytes(u), blob);
  EXPECT_EQ(u.MruWay(6), 2u);
  for (std::uint32_t expected : {0u, 3u, 1u, 2u}) {
    EXPECT_EQ(u.VictimWay(6), expected);
    u.Touch(6, expected);
  }
  // New touches continue after the restored stamps.
  EXPECT_EQ(u.VictimWay(6), 0u);
  EXPECT_EQ(u.line(6, 3).tag, 13u);
}

}  // namespace
}  // namespace redcache
