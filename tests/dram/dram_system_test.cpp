#include "dram/dram_system.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace redcache {
namespace {

class RecordingObserver : public ColumnCommandObserver {
 public:
  void OnColumnCommand(const IssuedColumnCommand& cmd) override {
    commands.push_back(cmd);
  }
  std::vector<IssuedColumnCommand> commands;
};

std::vector<DramCompletion> Drain(DramSystem& sys, std::size_t n,
                                  Cycle limit = 1000000) {
  std::vector<DramCompletion> out;
  for (Cycle t = 0; t <= limit && out.size() < n; ++t) {
    sys.Tick(t);
    for (const auto& c : sys.completions()) out.push_back(c);
    sys.completions().clear();
  }
  return out;
}

TEST(DramSystem, RequestsRouteToMappedChannel) {
  DramSystem sys(HbmCacheConfig(8_MiB));
  for (Addr block = 0; block < 8; ++block) {
    EXPECT_EQ(sys.ChannelOf(block * 64), block % 4);
  }
}

TEST(DramSystem, CompletionCarriesUserTag) {
  DramSystem sys(HbmCacheConfig(8_MiB));
  sys.Enqueue(0, false, 0, /*user_tag=*/0xdeadbeef);
  const auto done = Drain(sys, 1);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].user_tag, 0xdeadbeefu);
  EXPECT_EQ(done[0].addr, 0u);
  EXPECT_FALSE(done[0].is_write);
}

TEST(DramSystem, ParallelChannelsOverlap) {
  DramSystem sys(HbmCacheConfig(8_MiB));
  // One block per channel: all four should finish at (nearly) the same time.
  for (Addr block = 0; block < 4; ++block) {
    sys.Enqueue(block * 64, false, 0, block);
  }
  const auto done = Drain(sys, 4);
  ASSERT_EQ(done.size(), 4u);
  const Cycle spread = done.back().done - done.front().done;
  EXPECT_LE(spread, 4u);  // truly parallel service
}

TEST(DramSystem, InflightTracksOutstanding) {
  DramSystem sys(HbmCacheConfig(8_MiB));
  sys.Enqueue(0, false, 0);
  sys.Enqueue(64, true, 0);
  EXPECT_EQ(sys.inflight(), 2u);
  (void)Drain(sys, 2);
  EXPECT_EQ(sys.inflight(), 0u);
}

TEST(DramSystem, ObserverSeesColumnCommands) {
  DramSystem sys(HbmCacheConfig(8_MiB));
  RecordingObserver obs;
  sys.SetObserver(&obs);
  sys.Enqueue(0, true, 0);
  sys.Enqueue(64, false, 0);
  (void)Drain(sys, 2);
  ASSERT_EQ(obs.commands.size(), 2u);
  EXPECT_TRUE(obs.commands[0].is_write || obs.commands[1].is_write);
}

TEST(DramSystem, ExportStatsUsesConfigName) {
  DramSystem sys(MainMemoryConfig(64_MiB));
  sys.Enqueue(0, false, 0);
  (void)Drain(sys, 1);
  StatSet stats;
  sys.ExportStats(stats);
  EXPECT_EQ(stats.GetCounter("ddr4.read_bursts"), 1u);
  EXPECT_EQ(stats.GetCounter("ddr4.transactions"), 1u);
  EXPECT_GT(stats.GetCounter("ddr4.activates"), 0u);
}

TEST(DramSystem, TransactionQueueEmptyChecks) {
  DramSystem sys(HbmCacheConfig(8_MiB));
  EXPECT_TRUE(sys.TransactionQueuesEmpty());
  sys.Enqueue(0, false, 0);
  EXPECT_FALSE(sys.TransactionQueuesEmpty());
  EXPECT_FALSE(sys.ChannelTransactionQueueEmpty(0));
  EXPECT_TRUE(sys.ChannelTransactionQueueEmpty(1));
  (void)Drain(sys, 1);
  EXPECT_TRUE(sys.TransactionQueuesEmpty());
}

TEST(DramSystem, HighLoadDrainsCompletely) {
  DramSystem sys(MainMemoryConfig(64_MiB));
  std::uint64_t submitted = 0;
  Cycle t = 0;
  std::uint64_t done_count = 0;
  std::uint64_t state = 7;
  while (submitted < 2000 || done_count < submitted) {
    if (submitted < 2000) {
      const Addr addr = (SplitMix64(state) % (16_MiB / 64)) * 64;
      if (sys.CanAccept(addr)) {
        sys.Enqueue(addr, (submitted & 3) == 0, t);
        submitted++;
      }
    }
    sys.Tick(t);
    done_count += sys.completions().size();
    sys.completions().clear();
    ++t;
    ASSERT_LT(t, 50000000u) << "DRAM system failed to drain";
  }
  EXPECT_EQ(done_count, 2000u);
}

TEST(DramSystem, RefreshingQueryReflectsRankState) {
  DramSystem sys(HbmCacheConfig(8_MiB));
  // Drive the clock past several refresh intervals; at some point the
  // addressed rank must report refreshing.
  bool saw_refresh = false;
  for (Cycle t = 0; t < 3 * HbmCacheConfig().timing.tREFI && !saw_refresh;
       ++t) {
    sys.Tick(t);
    saw_refresh = sys.Refreshing(0, t);
  }
  EXPECT_TRUE(saw_refresh);
}

// An enqueue that lands after the device tick at `now` cannot be served at
// `now` any more: the channel re-arms at the next command slot or later,
// never at a past or due-now cycle that would buy an empty visit.
TEST(DramSystem, EnqueueAfterTheTickWakesAtTheNextSlotOrLater) {
  DramSystem sys(HbmCacheConfig(8_MiB));
  for (const Cycle now : {Cycle{100}, Cycle{101}}) {
    sys.Tick(now);
    sys.Enqueue(now * 64, false, now);
    EXPECT_GE(sys.NextEventHint(now), TimingLanes::AlignUp(now + 1))
        << "cycle " << now;
  }
  // Before this cycle's tick the request may still issue at `now`.
  DramSystem fresh(HbmCacheConfig(8_MiB));
  fresh.Tick(199);
  fresh.Enqueue(0, false, 200);
  EXPECT_LE(fresh.NextEventHint(200), Cycle{200});
}

}  // namespace
}  // namespace redcache
