#include "core/rcu.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace redcache {
namespace {

DramAddress Loc(std::uint32_t ch, std::uint32_t bank, std::uint64_t row) {
  return {.channel = ch, .rank = 0, .bank = bank, .row = row, .column = 0};
}

TEST(Rcu, InsertAndContains) {
  RcuManager rcu(4);
  EXPECT_TRUE(rcu.Insert(0x1000, Loc(0, 0, 1)).empty());
  EXPECT_TRUE(rcu.Contains(0x1000));
  EXPECT_FALSE(rcu.Contains(0x2000));
  EXPECT_EQ(rcu.block_hits(), 1u);
  EXPECT_EQ(rcu.searches(), 2u);
}

TEST(Rcu, DuplicateInsertUpdatesInPlace) {
  RcuManager rcu(4);
  (void)rcu.Insert(0x1000, Loc(0, 0, 1));
  EXPECT_TRUE(rcu.Insert(0x1000, Loc(0, 0, 1)).empty());
  EXPECT_EQ(rcu.size(), 1u);
  EXPECT_EQ(rcu.updates_in_place(), 1u);
}

TEST(Rcu, CapacityEvictsOldest) {
  RcuManager rcu(2);
  (void)rcu.Insert(0xa, Loc(0, 0, 1));
  (void)rcu.Insert(0xb, Loc(0, 0, 2));
  const auto evicted = rcu.Insert(0xc, Loc(0, 0, 3));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].block, 0xau);
  EXPECT_EQ(rcu.capacity_flushes(), 1u);
  EXPECT_EQ(rcu.size(), 2u);
}

TEST(Rcu, MatchIndexPopsSameRowOnly) {
  RcuManager rcu(8);
  (void)rcu.Insert(0x1, Loc(0, 1, 7));
  (void)rcu.Insert(0x2, Loc(0, 1, 7));
  (void)rcu.Insert(0x3, Loc(0, 1, 8));   // other row
  (void)rcu.Insert(0x4, Loc(1, 1, 7));   // other channel
  const auto matched = rcu.MatchIndex(Loc(0, 1, 7));
  EXPECT_EQ(matched.size(), 2u);
  EXPECT_EQ(rcu.size(), 2u);
  EXPECT_EQ(rcu.merged_flushes(), 2u);
}

TEST(Rcu, PopChannelDrainsOnlyThatChannel) {
  RcuManager rcu(8);
  (void)rcu.Insert(0x1, Loc(0, 0, 1));
  (void)rcu.Insert(0x2, Loc(1, 0, 1));
  (void)rcu.Insert(0x3, Loc(0, 2, 9));
  const auto popped = rcu.PopChannel(0);
  EXPECT_EQ(popped.size(), 2u);
  EXPECT_EQ(rcu.size(), 1u);
  EXPECT_TRUE(rcu.Contains(0x2));
  EXPECT_EQ(rcu.idle_flushes(), 2u);
}

TEST(Rcu, RemoveDropsEntry) {
  RcuManager rcu(4);
  (void)rcu.Insert(0x5, Loc(0, 0, 1));
  rcu.Remove(0x5);
  EXPECT_FALSE(rcu.Contains(0x5));
  rcu.Remove(0x5);  // idempotent
  EXPECT_EQ(rcu.size(), 0u);
}

TEST(Rcu, PopAllEmptiesQueue) {
  RcuManager rcu(8);
  for (Addr a = 0; a < 5; ++a) (void)rcu.Insert(a * 64, Loc(0, 0, a));
  EXPECT_EQ(rcu.PopAll().size(), 5u);
  EXPECT_EQ(rcu.size(), 0u);
}

TEST(Rcu, CapacityZeroForceFlushesEveryInsert) {
  RcuManager rcu(0);
  EXPECT_TRUE(rcu.full());
  const auto evicted = rcu.Insert(0x40, Loc(0, 0, 1));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].block, 0x40u);
  EXPECT_EQ(rcu.size(), 0u);
  EXPECT_FALSE(rcu.Contains(0x40));
  EXPECT_EQ(rcu.capacity_flushes(), 1u);
  // Stays degenerate on repeat.
  EXPECT_EQ(rcu.Insert(0x80, Loc(0, 0, 2)).size(), 1u);
  EXPECT_EQ(rcu.capacity_flushes(), 2u);
}

TEST(Rcu, CapacityOneEvictsOnEverySecondInsert) {
  RcuManager rcu(1);
  EXPECT_TRUE(rcu.Insert(0xa, Loc(0, 0, 1)).empty());
  const auto evicted = rcu.Insert(0xb, Loc(0, 0, 2));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].block, 0xau);
  EXPECT_EQ(rcu.size(), 1u);
  EXPECT_TRUE(rcu.Contains(0xb));
}

TEST(Rcu, ForceFlushOrderIsFifo) {
  RcuManager rcu(2);
  (void)rcu.Insert(0x1, Loc(0, 0, 1));
  (void)rcu.Insert(0x2, Loc(0, 0, 2));
  const auto first = rcu.Insert(0x3, Loc(0, 0, 3));
  const auto second = rcu.Insert(0x4, Loc(0, 0, 4));
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(first[0].block, 0x1u);   // oldest leaves first
  EXPECT_EQ(second[0].block, 0x2u);
}

TEST(Rcu, ContainsIsFalseAfterCapacityEviction) {
  RcuManager rcu(1);
  (void)rcu.Insert(0x100, Loc(0, 0, 1));
  (void)rcu.Insert(0x200, Loc(0, 0, 2));
  EXPECT_FALSE(rcu.Contains(0x100));
  EXPECT_TRUE(rcu.Contains(0x200));
}

TEST(Rcu, ContainsIsFalseAfterMatchIndexDrain) {
  RcuManager rcu(4);
  (void)rcu.Insert(0x100, Loc(0, 1, 7));
  ASSERT_EQ(rcu.MatchIndex(Loc(0, 1, 7)).size(), 1u);
  EXPECT_FALSE(rcu.Contains(0x100));
}

TEST(Rcu, FullFlag) {
  RcuManager rcu(2);
  EXPECT_FALSE(rcu.full());
  (void)rcu.Insert(0x1, Loc(0, 0, 1));
  (void)rcu.Insert(0x2, Loc(0, 0, 2));
  EXPECT_TRUE(rcu.full());
}

TEST(Rcu, IdleDrainWakesOnlyForIdleOwners) {
  RcuManager rcu(8);
  (void)rcu.Insert(0x1, Loc(2, 0, 1));
  (void)rcu.Insert(0x2, Loc(2, 1, 1));
  EXPECT_EQ(rcu.parked(2), 2u);
  EXPECT_EQ(rcu.parked(0), 0u);
  EXPECT_EQ(rcu.parked(9), 0u);
  // Channels 0 and 1 are idle but own nothing; channel 2 is busy.
  const auto busy2 = [](std::uint32_t ch) { return ch != 2; };
  EXPECT_FALSE(rcu.IdleDrainDue(busy2));
  const auto all_idle = [](std::uint32_t) { return true; };
  EXPECT_TRUE(rcu.IdleDrainDue(all_idle));
}

TEST(Rcu, DrainIdleFlushesIdleOwnersInChannelOrder) {
  RcuManager rcu(8);
  (void)rcu.Insert(0x1, Loc(3, 0, 1));
  (void)rcu.Insert(0x2, Loc(1, 0, 1));
  (void)rcu.Insert(0x3, Loc(2, 0, 1));  // busy channel: stays parked
  (void)rcu.Insert(0x4, Loc(1, 2, 5));
  std::vector<Addr> flushed;
  rcu.DrainIdle([](std::uint32_t ch) { return ch != 2; },
                [&](const std::vector<RcuManager::Entry>& entries) {
                  for (const auto& e : entries) flushed.push_back(e.block);
                });
  EXPECT_EQ(flushed, (std::vector<Addr>{0x2, 0x4, 0x1}));
  EXPECT_EQ(rcu.idle_flushes(), 3u);
  EXPECT_EQ(rcu.size(), 1u);
  EXPECT_EQ(rcu.parked(2), 1u);
  EXPECT_EQ(rcu.parked(1), 0u);
  EXPECT_FALSE(rcu.IdleDrainDue([](std::uint32_t ch) { return ch != 2; }));
}

TEST(Rcu, ParkedCountsFollowEveryRemovalPath) {
  RcuManager rcu(2);
  (void)rcu.Insert(0x1, Loc(0, 0, 1));
  (void)rcu.Insert(0x2, Loc(1, 0, 1));
  (void)rcu.Insert(0x3, Loc(1, 1, 1));  // capacity-evicts 0x1 (channel 0)
  EXPECT_EQ(rcu.parked(0), 0u);
  EXPECT_EQ(rcu.parked(1), 2u);
  rcu.Remove(0x2);
  EXPECT_EQ(rcu.parked(1), 1u);
  ASSERT_EQ(rcu.MatchIndex(Loc(1, 1, 1)).size(), 1u);
  EXPECT_EQ(rcu.parked(1), 0u);
  (void)rcu.Insert(0x4, Loc(0, 0, 1));
  (void)rcu.PopAll();
  EXPECT_EQ(rcu.parked(0), 0u);
  EXPECT_FALSE(rcu.IdleDrainDue([](std::uint32_t) { return true; }));
}

TEST(Rcu, RestoreRebuildsParkedCounts) {
  RcuManager rcu(4);
  (void)rcu.Insert(0x1, Loc(1, 0, 1));
  (void)rcu.Insert(0x2, Loc(3, 0, 1));
  ser::Writer w;
  rcu.Snapshot(w);
  RcuManager restored(4);
  ser::Reader r(w.buffer().data(), w.buffer().size());
  restored.Restore(r);
  EXPECT_EQ(restored.parked(1), 1u);
  EXPECT_EQ(restored.parked(3), 1u);
  EXPECT_TRUE(restored.IdleDrainDue([](std::uint32_t ch) { return ch == 3; }));
}

}  // namespace
}  // namespace redcache
