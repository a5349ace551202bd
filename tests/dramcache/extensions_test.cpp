// Tests for the extension organizations: the set-associative RedCache and
// the coarse-grained footprint cache baseline.
#include <gtest/gtest.h>

#include <stdexcept>

#include "common/serialize.hpp"
#include "controller_harness.hpp"
#include "dramcache/footprint.hpp"
#include "dramcache/redcache.hpp"
#include "verify/shadow_checker.hpp"

namespace redcache {
namespace {

RedCacheOptions PlainOptions() {
  RedCacheOptions o = RedCacheOptions::Full();
  o.alpha_enabled = false;
  o.gamma_enabled = false;
  o.bypass_on_refresh = false;
  o.update_mode = RedCacheOptions::UpdateMode::kInSitu;
  return o;
}

std::unique_ptr<RedCacheController> MakeAssoc(std::uint32_t ways,
                                              RedCacheOptions o) {
  return std::make_unique<RedCacheController>(SmallMemConfig(), o, ways);
}

// --- Associative RedCache ---------------------------------------------------

TEST(AssocRedCache, MissFillThenHit) {
  ControllerHarness h(MakeAssoc(2, PlainOptions()));
  h.Read(0x4000);
  h.RunToIdle();
  h.Read(0x4000);
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ctrl.cache_misses"), 1u);
  EXPECT_EQ(s.GetCounter("ctrl.cache_hits"), 1u);
  EXPECT_EQ(h.completions.size(), 2u);
}

TEST(AssocRedCache, TwoWaysHoldConflictingBlocks) {
  // 1 MiB 2-way: sets = 8192; addresses 1 MiB/2 apart share a set.
  ControllerHarness h(MakeAssoc(2, PlainOptions()));
  const Addr a = 0x4000;
  const Addr b = a + 512_KiB;
  const Addr c = a + 1_MiB;
  h.Read(a);
  h.RunToIdle();
  h.Read(b);
  h.RunToIdle();
  h.Read(a);  // still resident: 2 ways
  h.Read(b);
  h.RunToIdle();
  EXPECT_EQ(h.Stats().GetCounter("ctrl.cache_hits"), 2u);
  h.Read(c);  // evicts the LRU way
  h.RunToIdle();
  EXPECT_EQ(h.Stats().GetCounter("ctrl.fills"), 3u);
}

TEST(AssocRedCache, DirectMappedDegeneratesToConflicts) {
  ControllerHarness h(MakeAssoc(1, PlainOptions()));
  const Addr a = 0x4000;
  const Addr b = a + 1_MiB;  // same set when ways=1
  h.Read(a);
  h.RunToIdle();
  h.Read(b);
  h.RunToIdle();
  h.Read(a);
  h.RunToIdle();
  EXPECT_EQ(h.Stats().GetCounter("ctrl.cache_misses"), 3u);
}

TEST(AssocRedCache, NonMruHitCostsExtraBurst) {
  ControllerHarness h(MakeAssoc(2, PlainOptions()));
  const Addr a = 0x4000;
  const Addr b = a + 512_KiB;  // same set, other way
  h.Read(a);
  h.RunToIdle();
  h.Read(b);
  h.RunToIdle();
  // b is now MRU; reading a hits the non-MRU way -> extra data burst.
  const auto reads_before = h.Stats().GetCounter("hbm.read_bursts");
  h.Read(a);
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ctrl.non_mru_hits"), 1u);
  EXPECT_EQ(s.GetCounter("hbm.read_bursts"), reads_before + 2);
}

TEST(AssocRedCache, MruHitServedByProbeAlone) {
  ControllerHarness h(MakeAssoc(2, PlainOptions()));
  h.Read(0x4000);
  h.RunToIdle();
  const auto reads_before = h.Stats().GetCounter("hbm.read_bursts");
  h.Read(0x4000);  // MRU hit
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ctrl.mru_hits"), 1u);
  EXPECT_EQ(s.GetCounter("hbm.read_bursts"), reads_before + 1);
}

TEST(AssocRedCache, DirtyVictimWrittenBack) {
  ControllerHarness h(MakeAssoc(1, PlainOptions()));
  const Addr a = 0x4000;
  h.Read(a);
  h.RunToIdle();
  h.Writeback(a);  // dirty the resident
  h.RunToIdle();
  h.Read(a + 1_MiB);  // evicts dirty a
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ctrl.victim_writebacks"), 1u);
  EXPECT_GE(s.GetCounter("ddr4.write_bursts"), 1u);
  // Three probes and no victim read: the probe returned the victim's data.
  EXPECT_EQ(s.GetCounter("hbm.read_bursts"), 3u);
}

TEST(AssocRedCache, DirtyVictimOffTheProbedWayCostsARead) {
  ControllerHarness h(MakeAssoc(2, PlainOptions()));
  const Addr a = 0x4000;
  const Addr b = a + 512_KiB;  // same set, other way
  h.Read(a);
  h.Read(b);
  h.RunToIdle();
  h.Writeback(a);  // a dirty and MRU
  h.RunToIdle();
  h.Read(b);  // b MRU: a is now the dirty LRU victim
  h.RunToIdle();
  const auto reads_before = h.Stats().GetCounter("hbm.read_bursts");
  h.Read(a + 1_MiB);  // probe returns b's data; evicting a needs a read
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ctrl.victim_writebacks"), 1u);
  EXPECT_EQ(s.GetCounter("hbm.read_bursts"), reads_before + 2);
}

TEST(AssocRedCache, AlphaBypassStillApplies) {
  RedCacheOptions o = PlainOptions();
  o.alpha_enabled = true;
  o.alpha.initial_alpha = 4;
  o.alpha.adaptive = false;
  ControllerHarness h(MakeAssoc(2, o));
  h.Read(0x9000);
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ctrl.alpha_bypasses"), 1u);
  EXPECT_EQ(s.GetCounter("hbm.read_bursts"), 0u);
}

// The alpha table never un-qualifies a page, so a resident block on a cold
// page comes only from restored state: the 2-way controller under a strict
// ShadowChecker warms the page and makes block `x` dirty-resident, then
// takes the tag state of a twin that ran with alpha off (same block dirty,
// empty alpha table). A read of `x` must still come from the cache, and a
// bypassed writeback must drop the cached copy.
TEST(AssocRedCache, ColdPageDirtyCopyStaysCoherent) {
  RedCacheOptions o = PlainOptions();
  o.alpha_enabled = true;
  o.alpha.initial_alpha = 1;  // 64 requests qualify a page
  o.alpha.adaptive = false;
  const Addr x = 0x9000;
  const Addr page = x & ~Addr{4095};

  auto owned = MakeAssoc(2, o);
  RedCacheController* inner = owned.get();
  ControllerHarness h(std::make_unique<ShadowChecker>(std::move(owned)));
  RedCacheOptions no_alpha = o;
  no_alpha.alpha_enabled = false;
  ControllerHarness twin(MakeAssoc(2, no_alpha));
  for (Addr i = 0; i < 64; ++i) h.Read(page + 64 * (1 + i % 63));
  for (ControllerHarness* c : {&h, &twin}) {
    c->Read(x);
    c->RunToIdle();
    c->Writeback(x);  // dirty hit
    c->RunToIdle();
  }
  ASSERT_GT(h.Stats().GetCounter("verify.model_events"), 0u);
  ser::Writer w;
  twin.ctrl().Snapshot(w);
  const std::string blob = w.TakeString();
  ser::Reader r(blob);
  inner->Restore(r);
  ASSERT_TRUE(inner->tags().Hit(x));
  ASSERT_FALSE(inner->alpha().IsHot(x));

  const auto mm_reads = h.Stats().GetCounter("ddr4.read_bursts");
  h.Read(x);  // cold page, dirty resident: only the cache has the data
  h.RunToIdle();
  EXPECT_EQ(h.Stats().GetCounter("ddr4.read_bursts"), mm_reads);
  h.Writeback(x);  // cold page: main memory takes the data
  h.RunToIdle();
  EXPECT_FALSE(inner->tags().Hit(x));
  h.Read(x);
  h.RunToIdle();
  EXPECT_EQ(h.Stats().GetCounter("verify.divergences"), 0u);
}

TEST(AssocRedCache, MoreWaysThanLinesIsRejected) {
  // 1 MiB holds 16384 lines: 32768 ways leave no set.
  EXPECT_THROW(MakeAssoc(32768, PlainOptions()), std::invalid_argument);
}

TEST(AssocRedCache, HigherAssociativityRaisesHitRateUnderConflicts) {
  auto run = [](std::uint32_t ways) {
    ControllerHarness h(MakeAssoc(ways, PlainOptions()));
    // Four streams aliasing to the same sets of a 1 MiB cache.
    for (int round = 0; round < 6; ++round) {
      for (Addr s = 0; s < 4; ++s) {
        for (Addr b = 0; b < 32; ++b) {
          h.Read(0x40000 + s * 1_MiB + b * kBlockBytes);
        }
      }
    }
    h.RunToIdle();
    return h.Stats().GetCounter("ctrl.cache_hits");
  };
  EXPECT_GT(run(4), run(1));
}

// --- Footprint (coarse-grained) cache ---------------------------------------

std::unique_ptr<FootprintCacheController> MakeFootprint() {
  return std::make_unique<FootprintCacheController>(SmallMemConfig(), 2048);
}

TEST(FootprintCache, FetchesOnlyDemandedBlocks) {
  ControllerHarness h(MakeFootprint());
  h.Read(0x4000);
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ctrl.page_misses"), 1u);
  EXPECT_EQ(s.GetCounter("ddr4.read_bursts"), 1u);  // one block, not a page
}

TEST(FootprintCache, NoProbeTrafficOnHits) {
  ControllerHarness h(MakeFootprint());
  h.Read(0x4000);
  h.RunToIdle();
  const auto hbm_reads = h.Stats().GetCounter("hbm.read_bursts");
  h.Read(0x4000);  // block hit: single HBM data read, no tag probe
  h.RunToIdle();
  EXPECT_EQ(h.Stats().GetCounter("hbm.read_bursts"), hbm_reads + 1);
  EXPECT_EQ(h.Stats().GetCounter("ctrl.cache_hits"), 1u);
}

TEST(FootprintCache, NeighbourBlockIsAPageHitButBlockMiss) {
  ControllerHarness h(MakeFootprint());
  h.Read(0x4000);
  h.RunToIdle();
  h.Read(0x4040);  // same 2 KiB page, different block
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ctrl.page_misses"), 1u);
  EXPECT_EQ(s.GetCounter("ctrl.block_misses"), 2u);
}

TEST(FootprintCache, EvictionWritesBackOnlyDirtyBlocks) {
  ControllerHarness h(MakeFootprint());
  const Addr page = 0x4000;
  h.Read(page);
  h.Read(page + 64);
  h.RunToIdle();
  h.Writeback(page + 64);  // one dirty block
  h.RunToIdle();
  // 1 MiB / 2 KiB pages = 512 sets; conflict stride 1 MiB.
  h.Read(page + 1_MiB);
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ctrl.page_evictions"), 1u);
  EXPECT_EQ(s.GetCounter("ctrl.dirty_blocks_written_back"), 1u);
}

TEST(FootprintCache, WritebackInstallsWithoutFetch) {
  ControllerHarness h(MakeFootprint());
  h.Writeback(0x8000);
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ddr4.read_bursts"), 0u);
  EXPECT_EQ(s.GetCounter("hbm.write_bursts"), 1u);
}

TEST(FootprintCache, ServesMixedTrafficToCompletion) {
  ControllerHarness h(MakeFootprint());
  std::size_t reads = 0;
  for (Addr a = 0; a < 3000; ++a) {
    const Addr addr = (a * 977) % (4_MiB / 64) * 64;
    if (a % 3 == 0) {
      h.Writeback(addr);
    } else {
      h.Read(addr);
      reads++;
    }
  }
  h.RunToIdle();
  EXPECT_EQ(h.completions.size(), reads);
}

}  // namespace
}  // namespace redcache
