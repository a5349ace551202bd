// Adaptation-focused tests: gamma premature-invalidation feedback, the
// write-fill exclusion in alpha's statistics, and RCU behaviour under load.
#include <gtest/gtest.h>

#include "controller_harness.hpp"
#include "dramcache/redcache.hpp"

namespace redcache {
namespace {

RedCacheOptions NoAlpha() {
  RedCacheOptions o = RedCacheOptions::Full();
  o.alpha_enabled = false;
  o.bypass_on_refresh = false;
  return o;
}

std::unique_ptr<RedCacheController> Make(RedCacheOptions o) {
  return std::make_unique<RedCacheController>(SmallMemConfig(), o, 1, "t");
}

TEST(RedCacheAdaptation, PrematureInvalidationRaisesGamma) {
  RedCacheOptions o = NoAlpha();
  o.gamma.initial_gamma = 4;
  o.gamma.min_gamma = 4;
  ControllerHarness h(Make(o));
  const Addr a = 0x4000;
  h.Read(a);
  h.RunToIdle();
  for (int i = 0; i < 4; ++i) {
    h.Read(a);
    h.RunToIdle();
  }
  h.Writeback(a);  // r >= gamma: invalidated as "last write"
  h.RunToIdle();
  ASSERT_EQ(h.Stats().GetCounter("ctrl.gamma_invalidations"), 1u);
  const auto gamma_before = h.Stats().GetCounter("ctrl.gamma_value");
  h.Read(a);  // the block was NOT dead: premature signal
  h.RunToIdle();
  EXPECT_GT(h.Stats().GetCounter("ctrl.gamma_value"), gamma_before);
  EXPECT_EQ(h.Stats().GetCounter("ctrl.gamma_premature"), 1u);
}

TEST(RedCacheAdaptation, NaturalEvictionFeedsLifetimeSamples) {
  RedCacheOptions o = NoAlpha();
  o.gamma.initial_gamma = 100;
  o.gamma.down_damping = 1;
  ControllerHarness h(Make(o));
  const Addr a = 0x4000;
  const Addr b = a + 1_MiB;  // same set
  // a gets 2 reuses, then b evicts it -> lifetime sample 2 < gamma.
  h.Read(a);
  h.RunToIdle();
  h.Read(a);
  h.Read(a);
  h.RunToIdle();
  h.Read(b);
  h.RunToIdle();
  EXPECT_LT(h.Stats().GetCounter("ctrl.gamma_value"), 100u);
}

TEST(RedCacheAdaptation, GammaInvalidationIsNotALifetimeSample) {
  RedCacheOptions o = NoAlpha();
  o.gamma.initial_gamma = 2;
  o.gamma.min_gamma = 2;
  o.gamma.down_damping = 1;
  ControllerHarness h(Make(o));
  const Addr a = 0x4000;
  h.Read(a);
  h.RunToIdle();
  h.Read(a);
  h.RunToIdle();
  h.Writeback(a);  // r=2 >= gamma -> truncated lifetime; must not sample
  h.RunToIdle();
  EXPECT_EQ(h.Stats().GetCounter("ctrl.gamma_invalidations"), 1u);
  EXPECT_EQ(h.Stats().GetCounter("ctrl.gamma_value"), 2u);
}

TEST(RedCacheAdaptation, RcuUpdatesDeduplicatePerBlock) {
  ControllerHarness h(Make(NoAlpha()));
  const Addr a = 0x4000;
  h.Read(a);
  h.RunToIdle();
  // Two back-to-back hits on the same block: the second update lands in
  // the still-parked entry (no duplicate).
  h.Read(a);
  h.Read(a);
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_GE(s.GetCounter("ctrl.rcu_inserts"), 2u);
  // No entry is flushed more than once, and in-place updates never create
  // duplicate entries (dedup itself is unit-tested in rcu_test).
  const auto flushes = s.GetCounter("ctrl.rcu_merged_flushes") +
                       s.GetCounter("ctrl.rcu_idle_flushes") +
                       s.GetCounter("ctrl.rcu_capacity_flushes");
  EXPECT_LE(flushes, s.GetCounter("ctrl.rcu_inserts"));
}

TEST(RedCacheAdaptation, RcuCapacityFlushUnderHitStorm) {
  ControllerHarness h(Make(NoAlpha()));
  // Warm 64 blocks, then hit them in a rotation faster than the channels
  // drain: the 32-entry queue must overflow via condition 3.
  for (int i = 0; i < 64; ++i) h.Read(0x40000 + i * kBlockBytes);
  h.RunToIdle();
  for (int i = 0; i < 1024; ++i) {
    h.Read(0x40000 + (i % 64) * kBlockBytes);
  }
  h.RunToIdle();
  EXPECT_GT(h.Stats().GetCounter("ctrl.rcu_capacity_flushes"), 0u);
}

TEST(RedCacheAdaptation, EveryParkedUpdateEventuallyWritten) {
  ControllerHarness h(Make(NoAlpha()));
  for (int i = 0; i < 32; ++i) h.Read(0x40000 + i * kBlockBytes);
  h.RunToIdle();
  for (int i = 0; i < 512; ++i) {
    h.Read(0x40000 + (i % 32) * kBlockBytes);
  }
  h.RunToIdle();
  const StatSet s = h.Stats();
  const auto flushed = s.GetCounter("ctrl.rcu_merged_flushes") +
                       s.GetCounter("ctrl.rcu_idle_flushes") +
                       s.GetCounter("ctrl.rcu_capacity_flushes");
  // inserts = new entries + in-place updates; when idle, nothing parked.
  EXPECT_GT(flushed, 0u);
  // Each flush became an HBM write (plus fills and the probe traffic).
  EXPECT_GE(s.GetCounter("hbm.write_bursts"), flushed);
}

TEST(RedCacheAdaptation, AlphaValueStaysInBounds) {
  RedCacheOptions o = RedCacheOptions::Full();
  o.alpha.min_alpha = 1;
  o.alpha.max_alpha = 3;
  o.epoch_requests = 256;
  o.bypass_on_refresh = false;
  ControllerHarness h(Make(o));
  for (Addr a = 0; a < 30000; ++a) {
    h.Read((a * 97 % 65536) * kBlockBytes);
  }
  h.RunToIdle();
  const auto alpha = h.Stats().GetCounter("ctrl.alpha_value");
  EXPECT_GE(alpha, 1u);
  EXPECT_LE(alpha, 3u);
}

}  // namespace
}  // namespace redcache
