// Validates the Fig. 7 operation flow of the RedCache controller:
// alpha bypass, probe/hit/miss paths, gamma last-write invalidation,
// dirty-miss write bypass, the RCU update modes and bypass-on-refresh.
#include "dramcache/redcache.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "controller_harness.hpp"

namespace redcache {
namespace {

RedCacheOptions NoAlphaOptions() {
  RedCacheOptions o = RedCacheOptions::Full();
  o.alpha_enabled = false;  // every request may use the cache
  o.bypass_on_refresh = false;
  return o;
}

std::unique_ptr<RedCacheController> Make(RedCacheOptions o,
                                         const char* name = "test") {
  return std::make_unique<RedCacheController>(SmallMemConfig(), o, 1, name);
}

// --- Alpha counting ---------------------------------------------------------

TEST(RedCacheFlow, ColdPageBypassesToMainMemory) {
  RedCacheOptions o = RedCacheOptions::Full();
  o.alpha.initial_alpha = 1;
  o.alpha.adaptive = false;
  o.bypass_on_refresh = false;
  ControllerHarness h(Make(o));
  h.Read(0x4000);
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ctrl.alpha_bypasses"), 1u);
  EXPECT_EQ(s.GetCounter("hbm.read_bursts"), 0u);  // never probed
  EXPECT_EQ(s.GetCounter("ddr4.read_bursts"), 1u);
  EXPECT_EQ(h.completions.size(), 1u);
}

TEST(RedCacheFlow, PageQualifiesAfterEnoughTraffic) {
  RedCacheOptions o = RedCacheOptions::Full();
  o.alpha.initial_alpha = 1;
  o.alpha.adaptive = false;
  o.bypass_on_refresh = false;
  ControllerHarness h(Make(o));
  // 64 accesses to one page qualify it (alpha=1 average per block).
  for (std::uint32_t i = 0; i < kBlocksPerPage; ++i) {
    h.Read(0x10000 + i * kBlockBytes);
    h.RunToIdle();
  }
  const auto probes_before = h.Stats().GetCounter("hbm.read_bursts");
  EXPECT_GT(probes_before, 0u);  // the qualifying access already probes
  h.Read(0x10000);
  h.RunToIdle();
  EXPECT_GT(h.Stats().GetCounter("hbm.read_bursts"), probes_before);
}

TEST(RedCacheFlow, ColdWritebackRoutedOffPackage) {
  RedCacheOptions o = RedCacheOptions::Full();
  o.alpha.initial_alpha = 4;
  o.alpha.adaptive = false;
  o.bypass_on_refresh = false;
  ControllerHarness h(Make(o));
  h.Writeback(0x20000);
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ddr4.write_bursts"), 1u);
  EXPECT_EQ(s.GetCounter("hbm.write_bursts"), 0u);
}

// --- Probe / hit / miss paths ----------------------------------------------

TEST(RedCacheFlow, MissFillsThenHits) {
  ControllerHarness h(Make(NoAlphaOptions()));
  h.Read(0x4000);
  h.RunToIdle();
  h.Read(0x4000);
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ctrl.cache_misses"), 1u);
  EXPECT_EQ(s.GetCounter("ctrl.cache_hits"), 1u);
  EXPECT_EQ(s.GetCounter("ctrl.fills"), 1u);
}

TEST(RedCacheFlow, WriteMissOnCleanSetInstalls) {
  // Fig. 7: a write miss with no dirty resident installs the block (the
  // CPU supplied the data, so no main-memory fetch is needed).
  ControllerHarness h(Make(NoAlphaOptions()));
  h.Writeback(0x4000);
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ctrl.fills"), 1u);
  EXPECT_EQ(s.GetCounter("ddr4.read_bursts"), 0u);
  EXPECT_EQ(s.GetCounter("ddr4.write_bursts"), 0u);
  h.Read(0x4000);
  h.RunToIdle();
  EXPECT_EQ(h.Stats().GetCounter("ctrl.cache_hits"), 1u);
}

TEST(RedCacheFlow, DirtyResidentWriteMissCounted) {
  ControllerHarness h(Make(NoAlphaOptions()));
  const Addr a = 0x4000;
  const Addr b = a + 1_MiB;  // same direct-mapped set
  h.Read(a);       // fill a
  h.RunToIdle();
  h.Writeback(a);  // write hit -> a dirty in cache
  h.RunToIdle();
  h.Writeback(b);  // write miss with dirty resident -> bypass, a survives
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ctrl.dirty_miss_bypasses"), 1u);
  h.Read(a);  // the dirty resident is still cached
  h.RunToIdle();
  EXPECT_EQ(h.Stats().GetCounter("ctrl.cache_hits") -
                s.GetCounter("ctrl.cache_hits"),
            1u);
}

TEST(RedCacheFlow, ReadMissEvictsDirtyVictim) {
  ControllerHarness h(Make(NoAlphaOptions()));
  const Addr a = 0x4000;
  const Addr b = a + 1_MiB;
  h.Read(a);       // fill
  h.RunToIdle();
  h.Writeback(a);  // write hit -> dirty resident
  h.RunToIdle();
  const auto wr_before = h.Stats().GetCounter("ddr4.write_bursts");
  h.Read(b);  // read miss: fill b, write back dirty a
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ctrl.victim_writebacks"), 1u);
  EXPECT_EQ(s.GetCounter("ddr4.write_bursts"), wr_before + 1);
}

// --- Gamma counting ---------------------------------------------------------

TEST(RedCacheFlow, LastWriteInvalidatesAndGoesOffPackage) {
  RedCacheOptions o = NoAlphaOptions();
  o.gamma.initial_gamma = 1;  // any reused block's next write is "last"
  ControllerHarness h(Make(o));
  h.Read(0x4000);  // fill (r=0)
  h.RunToIdle();
  h.Read(0x4000);  // hit (r=1)
  h.RunToIdle();
  const auto hbm_writes_before = h.Stats().GetCounter("hbm.write_bursts");
  h.Writeback(0x4000);  // r=2 >= gamma -> invalidate, route to DDR4
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ctrl.gamma_invalidations"), 1u);
  EXPECT_EQ(s.GetCounter("ddr4.write_bursts"), 1u);
  EXPECT_EQ(s.GetCounter("hbm.write_bursts"), hbm_writes_before);
  // The block is gone: next read misses.
  h.Read(0x4000);
  h.RunToIdle();
  EXPECT_EQ(s.GetCounter("ctrl.cache_hits") + 1,
            h.Stats().GetCounter("ctrl.cache_hits") +
                (h.Stats().GetCounter("ctrl.cache_misses") -
                 s.GetCounter("ctrl.cache_misses")));
}

TEST(RedCacheFlow, YoungBlockWriteStaysInCache) {
  RedCacheOptions o = NoAlphaOptions();
  o.gamma.initial_gamma = 100;
  ControllerHarness h(Make(o));
  h.Read(0x4000);
  h.RunToIdle();
  h.Writeback(0x4000);  // r=1 < gamma: normal write hit
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ctrl.gamma_invalidations"), 0u);
  EXPECT_EQ(s.GetCounter("ctrl.write_hits"), 1u);
  EXPECT_EQ(s.GetCounter("ddr4.write_bursts"), 0u);
}

TEST(RedCacheFlow, GammaDisabledNeverInvalidates) {
  RedCacheOptions o = RedCacheOptions::AlphaOnly();
  o.alpha.initial_alpha = 1;
  o.alpha.adaptive = false;
  ControllerHarness h(Make(o));
  // Qualify the page, then hammer writes: no gamma invalidations ever.
  for (std::uint32_t i = 0; i < 2 * kBlocksPerPage; ++i) {
    h.Read(0x10000 + (i % kBlocksPerPage) * kBlockBytes);
    h.RunToIdle();
  }
  for (int i = 0; i < 8; ++i) {
    h.Writeback(0x10000);
    h.RunToIdle();
  }
  EXPECT_EQ(h.Stats().GetCounter("ctrl.gamma_invalidations"), 0u);
}

// --- r-count update modes ---------------------------------------------------

TEST(RedCacheFlow, ImmediateModeWritesUpdatePerReadHit) {
  RedCacheOptions o = RedCacheOptions::Basic();
  o.alpha_enabled = false;
  o.bypass_on_refresh = false;
  ControllerHarness h(Make(o));
  h.Read(0x4000);
  h.RunToIdle();
  const auto w0 = h.Stats().GetCounter("hbm.write_bursts");
  h.Read(0x4000);  // read hit -> immediate r-count write
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ctrl.immediate_updates"), 1u);
  EXPECT_EQ(s.GetCounter("hbm.write_bursts"), w0 + 1);
}

TEST(RedCacheFlow, InSituModeHasNoUpdateTraffic) {
  RedCacheOptions o = RedCacheOptions::InSitu();
  o.alpha_enabled = false;
  o.bypass_on_refresh = false;
  ControllerHarness h(Make(o));
  h.Read(0x4000);
  h.RunToIdle();
  const auto w0 = h.Stats().GetCounter("hbm.write_bursts");
  h.Read(0x4000);
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ctrl.insitu_updates"), 1u);
  EXPECT_EQ(s.GetCounter("hbm.write_bursts"), w0);
}

TEST(RedCacheFlow, RcuModeParksAndDrainsUpdates) {
  ControllerHarness h(Make(NoAlphaOptions()));
  h.Read(0x4000);
  h.RunToIdle();
  h.Read(0x4040);  // second block: fill
  h.RunToIdle();
  h.Read(0x4000);  // read hit -> parked in RCU
  h.RunToIdle();   // queue goes idle -> condition 2 drains it
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ctrl.rcu_inserts"), 1u);
  EXPECT_EQ(s.GetCounter("ctrl.rcu_idle_flushes") +
                s.GetCounter("ctrl.rcu_merged_flushes") +
                s.GetCounter("ctrl.rcu_capacity_flushes"),
            1u);
}

TEST(RedCacheFlow, RcuServesRepeatReadsAsBlockCache) {
  // RCU entries only linger while their channel stays busy (an idle channel
  // drains them — condition 2), so repeat reads must arrive under load.
  ControllerHarness h(Make(NoAlphaOptions()));
  constexpr int kBlocks = 64;
  for (int i = 0; i < kBlocks; ++i) {
    h.Read(0x40000 + i * kBlockBytes);  // warm fills
  }
  h.RunToIdle();
  std::size_t reads = 0;
  for (int i = 0; i < 3000; ++i) {
    h.Read(0x40000 + (i % kBlocks) * kBlockBytes);  // hot repeats under load
    reads++;
  }
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_GE(s.GetCounter("ctrl.rcu_served_reads"), 1u);
  EXPECT_EQ(h.completions.size(), reads + kBlocks);
}

TEST(RedCacheFlow, RcuParkedOnBusyChannelAddsNoWakeAndDrainsWhenItEmpties) {
  auto owned = Make(NoAlphaOptions());
  RedCacheController& ctrl = *owned;
  const RcuManager& rcu = ctrl.rcu();
  const DramSystem& hbm = *ctrl.hbm();
  const DramSystem& mm = *ctrl.mainmem();
  ControllerHarness h(std::move(owned));
  ASSERT_GE(hbm.num_channels(), 2u);

  // Blocks one channel-stride apart share HBM channel 0 (the mapper
  // interleaves channels on the low block bits); warm them into the cache.
  const Addr stride = Addr{hbm.num_channels()} * kBlockBytes;
  constexpr int kBlocks = 16;  // below the 32-entry RCU: no capacity flush
  const auto block = [&](int i) { return 0x40000 + i * stride; };
  for (int i = 0; i < kBlocks; ++i) {
    ASSERT_EQ(hbm.ChannelOf(block(i) % (1_MiB)), 0u);
    h.Read(block(i));
  }
  h.RunToIdle();
  ASSERT_EQ(rcu.size(), 0u);

  // Re-read them all at once: every probe hits and queues on channel 0, so
  // the early hits park behind later probes while the other channels idle.
  // Channel 0's queue empties on the visit its last probe read issues.
  const std::uint64_t reads_before = hbm.channel_counters(0).read_bursts;
  const auto probes_issued = [&] {
    return hbm.channel_counters(0).read_bursts - reads_before;
  };
  Cycle now = h.now();
  for (int i = 0; i < kBlocks; ++i) {
    ASSERT_TRUE(ctrl.CanAcceptRead());
    ctrl.SubmitRead(block(i), 1000 + i, now);
  }
  int quiet_visits = 0;  // parked on a busy channel, next visit beyond now+1
  bool drained = false;
  while (!drained) {
    ASSERT_LT(now, h.now() + 1'000'000) << "channel 0 never drained";
    const std::uint32_t parked_before = rcu.parked(0);
    const Cycle wake = ctrl.Tick(now);
    ctrl.read_completions().clear();
    if (probes_issued() < kBlocks) {
      // Still busy: nothing parked on channel 0 may drain, and the parked
      // updates add no wake of their own — pacing is exactly the devices'.
      ASSERT_EQ(rcu.idle_flushes() + rcu.merged_flushes() +
                    rcu.capacity_flushes(),
                0u)
          << "an update drained while its channel was busy, cycle " << now;
      ASSERT_FALSE(hbm.ChannelTransactionQueueEmpty(0));
      if (rcu.parked(0) > 0) {
        EXPECT_EQ(wake,
                  std::min(hbm.NextEventHint(now), mm.NextEventHint(now)))
            << "cycle " << now;
        if (wake > now + 1) ++quiet_visits;
      }
    } else {
      // The last probe issued this visit: everything parked before it
      // drains now, as idle flushes.
      drained = true;
      EXPECT_GT(parked_before, 0u);
      EXPECT_EQ(rcu.parked(0), 0u);
      EXPECT_GE(rcu.idle_flushes(), parked_before);
      EXPECT_EQ(rcu.merged_flushes(), 0u);
      EXPECT_EQ(rcu.capacity_flushes(), 0u);
    }
    now = std::max(now + 1, wake);
  }
  EXPECT_GT(quiet_visits, 0) << "a parked update still polls every cycle";
}

// --- Bypass-on-refresh ------------------------------------------------------

TEST(RedCacheFlow, RefreshWindowsBypassEventually) {
  RedCacheOptions o = RedCacheOptions::Full();
  o.alpha_enabled = false;
  ControllerHarness h(Make(o));
  // Keep issuing reads across several refresh intervals; some must land in
  // a refresh window and bypass.
  const Cycle refi = SmallMemConfig().hbm.timing.tREFI;
  std::size_t reads = 0;
  while (h.now() < 4 * refi) {
    h.Read((reads % 512) * kBlockBytes);
    reads++;
    h.RunUntilCompletions(reads);
  }
  EXPECT_GT(h.Stats().GetCounter("ctrl.refresh_bypasses"), 0u);
}

// --- Alpha adaptation -------------------------------------------------------

TEST(RedCacheFlow, AlphaRisesUnderUselessFills) {
  RedCacheOptions o = RedCacheOptions::Full();
  o.alpha.initial_alpha = 1;
  o.alpha.adaptive = true;
  o.bypass_on_refresh = false;
  o.epoch_requests = 512;
  ControllerHarness h(Make(o));
  // Streaming misses: blocks fill and are evicted without reuse.
  for (Addr a = 0; a < 20000; ++a) {
    h.Read(a * kBlockBytes);
  }
  h.RunToIdle();
  EXPECT_GT(h.Stats().GetCounter("ctrl.alpha_value"), 1u);
}

}  // namespace
}  // namespace redcache
