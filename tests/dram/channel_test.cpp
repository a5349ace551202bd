#include "dram/channel.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dram/address.hpp"

namespace redcache {
namespace {

DramConfig TestConfig() {
  DramConfig cfg = HbmCacheConfig(8_MiB);
  cfg.geometry.channels = 1;  // single channel under test
  return cfg;
}

class ChannelHarness {
 public:
  ChannelHarness() : cfg_(TestConfig()), mapper_(cfg_.geometry),
                     ch_(cfg_, 0) {}

  DramRequest MakeReq(Addr addr, bool write, Cycle now,
                      std::uint32_t bursts = 1) {
    DramRequest r;
    r.id = next_id_++;
    r.addr = BlockAlign(addr);
    r.loc = mapper_.Map(addr);
    r.is_write = write;
    r.bursts = bursts;
    r.arrival = now;
    return r;
  }

  /// Tick until `n` completions have been delivered (or `limit` cycles).
  std::vector<DramCompletion> RunUntil(std::size_t n, Cycle limit = 200000) {
    std::vector<DramCompletion> done;
    for (Cycle t = 0; t <= limit && done.size() < n; ++t) {
      ch_.Tick(t, done);
    }
    return done;
  }

  DramConfig cfg_;
  AddressMapper mapper_;
  DramChannel ch_;
  RequestId next_id_ = 1;
};

TEST(DramChannel, SingleReadLatencyIsActPlusCasPlusBurst) {
  ChannelHarness h;
  h.ch_.Enqueue(h.MakeReq(0, false, 0));
  const auto done = h.RunUntil(1);
  ASSERT_EQ(done.size(), 1u);
  const auto& t = h.cfg_.timing;
  // ACT at cycle 0, column at tRCD (aligned), data ends tCAS + tBL later.
  const Cycle expected = t.tRCD + t.tCAS + t.tBL;
  EXPECT_GE(done[0].done, expected);
  EXPECT_LE(done[0].done, expected + 2 * kCpuCyclesPerDramCycle);
}

TEST(DramChannel, RowHitReadsSpacedByTccd) {
  ChannelHarness h;
  // Two blocks in the same row (channel-interleaved: same channel blocks
  // are 1 channel apart but with channels=1 every block is here).
  h.ch_.Enqueue(h.MakeReq(0, false, 0));
  h.ch_.Enqueue(h.MakeReq(64, false, 0));
  const auto done = h.RunUntil(2);
  ASSERT_EQ(done.size(), 2u);
  const Cycle gap = done[1].done - done[0].done;
  EXPECT_GE(gap, h.cfg_.timing.tCCD);
  EXPECT_LE(gap, h.cfg_.timing.tCCD + 2 * kCpuCyclesPerDramCycle);
}

TEST(DramChannel, WriteThenReadPaysTurnaround) {
  ChannelHarness h;
  h.ch_.Enqueue(h.MakeReq(0, true, 0));
  // Let the write complete first (reads would otherwise preempt it), then
  // issue a read: its command must respect tWTR from the write data end.
  const auto wdone = h.RunUntil(1);
  ASSERT_EQ(wdone.size(), 1u);
  ASSERT_TRUE(wdone[0].is_write);
  const Cycle write_data_end = wdone[0].done;
  h.ch_.Enqueue(h.MakeReq(64, false, write_data_end));
  std::vector<DramCompletion> done;
  for (Cycle t = write_data_end; t < write_data_end + 100000 && done.empty();
       ++t) {
    h.ch_.Tick(t, done);
  }
  ASSERT_EQ(done.size(), 1u);
  const auto& t = h.cfg_.timing;
  const Cycle read_cmd = done[0].done - t.tCAS - t.tBL;
  EXPECT_GE(read_cmd + 1, write_data_end + t.tWTR);
  EXPECT_EQ(h.ch_.counters().turnarounds_wr, 1u);
}

TEST(DramChannel, ReadsPreemptQueuedWrites) {
  ChannelHarness h;
  h.ch_.Enqueue(h.MakeReq(0, true, 0));
  h.ch_.Enqueue(h.MakeReq(64, false, 0));
  const auto done = h.RunUntil(2);
  ASSERT_EQ(done.size(), 2u);
  // With write-drain policy the demand read is served first.
  EXPECT_FALSE(done[0].is_write);
  EXPECT_TRUE(done[1].is_write);
}

TEST(DramChannel, RowConflictForcesPrechargeActivate) {
  ChannelHarness h;
  const auto& geo = h.cfg_.geometry;
  // Two addresses in the same bank but different rows: stride one full
  // row's worth of blocks across the bank dimension.
  const Addr row_stride = geo.row_bytes * geo.banks_per_rank *
                          geo.ranks_per_channel;
  h.ch_.Enqueue(h.MakeReq(0, false, 0));
  h.ch_.Enqueue(h.MakeReq(row_stride, false, 0));
  const auto done = h.RunUntil(2);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(h.ch_.counters().activates, 2u);
  EXPECT_EQ(h.ch_.counters().precharges, 1u);
  // Second access waits at least tRAS + tRP after the first activate.
  const auto& t = h.cfg_.timing;
  EXPECT_GE(done[1].done, t.tRAS + t.tRP + t.tRCD + t.tCAS + t.tBL);
}

TEST(DramChannel, MultiBurstOccupiesBusProportionally) {
  ChannelHarness h;
  h.ch_.Enqueue(h.MakeReq(0, false, 0, /*bursts=*/4));
  const auto done = h.RunUntil(1);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(h.ch_.counters().read_bursts, 4u);
  EXPECT_EQ(h.ch_.counters().data_busy_cycles, 4 * h.cfg_.timing.tBL);
}

TEST(DramChannel, RefreshHappensPeriodically) {
  ChannelHarness h;
  std::vector<DramCompletion> done;
  for (Cycle t = 0; t < 3 * h.cfg_.timing.tREFI; ++t) {
    h.ch_.Tick(t, done);
  }
  // Two ranks, ~3 tREFI windows each: expect several refreshes.
  EXPECT_GE(h.ch_.counters().refreshes, 4u);
}

TEST(DramChannel, BytesAccountedWithSideband) {
  ChannelHarness h;
  h.ch_.Enqueue(h.MakeReq(0, false, 0));
  (void)h.RunUntil(1);
  EXPECT_EQ(h.ch_.counters().bytes_transferred,
            h.cfg_.geometry.burst_bytes + h.cfg_.geometry.sideband_bytes);
}

TEST(DramChannel, QueueRespectsCapacity) {
  ChannelHarness h;
  for (std::uint32_t i = 0; i < h.cfg_.controller.queue_depth; ++i) {
    ASSERT_TRUE(h.ch_.CanAccept());
    h.ch_.Enqueue(h.MakeReq(i * 64, false, 0));
  }
  EXPECT_FALSE(h.ch_.CanAccept());
  const auto done = h.RunUntil(h.cfg_.controller.queue_depth, 2000000);
  EXPECT_EQ(done.size(), h.cfg_.controller.queue_depth);
  EXPECT_TRUE(h.ch_.CanAccept());
}

TEST(DramChannel, ManyRandomRequestsAllComplete) {
  ChannelHarness h;
  std::vector<DramCompletion> done;
  std::uint64_t submitted = 0;
  Cycle t = 0;
  std::uint64_t state = 99;
  while (submitted < 500 && t < 5000000) {
    if (h.ch_.CanAccept()) {
      const Addr addr = (SplitMix64(state) % (4_MiB / 64)) * 64;
      h.ch_.Enqueue(h.MakeReq(addr, (submitted % 3) == 0, t));
      submitted++;
    }
    h.ch_.Tick(t, done);
    ++t;
  }
  while (done.size() < submitted && t < 10000000) {
    h.ch_.Tick(t, done);
    ++t;
  }
  EXPECT_EQ(done.size(), submitted);
  // Completion timestamps never exceed delivery time.
  // (Checked implicitly: Tick only delivers done <= now.)
  EXPECT_GT(h.ch_.counters().row_hits, 0u);
}

TEST(DramChannel, NextEventHintAdvances) {
  ChannelHarness h;
  // Idle channel: hint points at refresh bookkeeping, not now.
  EXPECT_GT(h.ch_.NextEventHint(100), 100u);
  h.ch_.Enqueue(h.MakeReq(0, false, 100));
  EXPECT_LE(h.ch_.NextEventHint(100), 102u);
}

// A channel that just issued an ACTIVATE for its only queued read has
// nothing to do until the column command's tRCD gate: its hint is that
// cycle, not the next command slot.
TEST(DramChannelWake, ActivateSleepsUntilTheColumnIsReady) {
  ChannelHarness h;
  h.ch_.Enqueue(h.MakeReq(0, false, 0));
  std::vector<DramCompletion> done;
  h.ch_.Tick(0, done);
  ASSERT_EQ(h.ch_.counters().activates, 1u);
  const Cycle column_at = TimingLanes::AlignUp(h.cfg_.timing.tRCD);
  EXPECT_EQ(h.ch_.NextEventHint(0), column_at);
  // The hint is exact: the column command issues on that cycle.
  for (Cycle t = 1; t <= column_at; ++t) h.ch_.Tick(t, done);
  EXPECT_EQ(h.ch_.counters().row_hits, 1u);
}

// An idle channel whose refresh is due but blocked (a write's recovery
// holds its bank open) sleeps until the bank can close. It must not hint
// at or before `now`, which makes the run loop poll every cycle.
TEST(DramChannelWake, IdleChannelWithBlockedRefreshHintsPastNow) {
  ChannelHarness h;
  const auto& t = h.cfg_.timing;
  const std::uint32_t rank = h.MakeReq(0, true, 0).loc.rank;
  const Cycle refresh_due = t.tREFI / 2 + rank * (t.tREFI / 8);
  const Cycle arrive = refresh_due - 40;
  std::vector<DramCompletion> done;
  Cycle blocked_cycles = 0;
  for (Cycle now = 0; now < refresh_due + t.tRFC; ++now) {
    if (now == arrive) h.ch_.Enqueue(h.MakeReq(0, true, now));
    h.ch_.Tick(now, done);
    if (now >= refresh_due && h.ch_.QueueSize() == 0 &&
        !h.ch_.RankRefreshing(rank, now) && h.ch_.counters().refreshes == 0) {
      ++blocked_cycles;
    }
    ASSERT_GT(h.ch_.NextEventHint(now), now) << "cycle " << now;
  }
  EXPECT_GT(blocked_cycles, 0u) << "the refresh was never due but blocked";
  EXPECT_EQ(h.ch_.counters().refreshes, 1u);
}

}  // namespace
}  // namespace redcache
