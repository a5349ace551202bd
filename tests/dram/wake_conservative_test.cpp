// Wake conservativeness property (DESIGN.md section 10).
//
// A component's advertised wake (Tick return / NextEventHint) promises that
// ticking it strictly earlier, with no new input, changes nothing
// observable. The test drives two identical instances with the same
// adversarial fuzz-trace-derived schedule: the reference is ticked every
// cycle, the subject only at its advertised wakes. Any wake that lands too
// late shows up as diverging completions, acceptance, or final counters;
// the reference's off-wake ticks prove spurious ticks are harmless.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "dram/dram_system.hpp"
#include "dramcache/policy_registry.hpp"
#include "sim/presets.hpp"
#include "verify/fuzz_trace.hpp"

namespace redcache {
namespace {

struct ScheduledRef {
  Cycle at = 0;
  Addr addr = 0;
  bool is_write = false;
};

/// Merge the fuzz trace's per-core streams into one time-ordered schedule
/// (each core's clock advances by its own gaps).
std::vector<ScheduledRef> BuildSchedule(std::uint64_t seed, Addr addr_mod) {
  FuzzTraceParams params;
  params.seed = seed;
  params.cores = 2;
  params.refs_per_core = 1200;
  FuzzTraceSource trace(params);

  std::vector<ScheduledRef> refs;
  for (std::uint32_t core = 0; core < trace.num_cores(); ++core) {
    Cycle t = 0;
    MemRef r;
    while (trace.Next(core, r)) {
      t += r.gap;
      refs.push_back({t, (r.addr % addr_mod) & ~Addr{63}, r.is_write});
    }
  }
  std::stable_sort(refs.begin(), refs.end(),
                   [](const ScheduledRef& a, const ScheduledRef& b) {
                     return a.at < b.at;
                   });
  return refs;
}

/// When a scheduled request reaches the device relative to the device tick
/// of its cycle. A controller enqueues on both sides: deferred ops pumped
/// before the tick, fills and new transactions after it.
enum class EnqueueOrder { kBeforeTick, kMixed };

void RunDramSystemDifferential(EnqueueOrder order) {
  const auto refs = BuildSchedule(/*seed=*/7, /*addr_mod=*/4_MiB);

  DramSystem ref(HbmCacheConfig(4_MiB));
  DramSystem sub(HbmCacheConfig(4_MiB));
  std::vector<DramCompletion> done_ref, done_sub;
  Cycle sub_wake = 0;
  std::uint64_t sub_ticks = 0;
  std::uint64_t after_tick = 0;
  std::size_t cursor = 0;
  Cycle now = 0;

  const auto drain = [](DramSystem& sys, std::vector<DramCompletion>& out) {
    auto& c = sys.completions();
    out.insert(out.end(), c.begin(), c.end());
    c.clear();
  };
  // Offers the next due reference to both systems; true if it was taken.
  const auto enqueue = [&]() {
    if (cursor >= refs.size() || now < refs[cursor].at) return false;
    const ScheduledRef& r = refs[cursor];
    const bool can_ref = ref.CanAccept(r.addr);
    EXPECT_EQ(can_ref, sub.CanAccept(r.addr)) << "cycle " << now;
    if (!can_ref) return false;
    ref.Enqueue(r.addr, r.is_write, now);
    sub.Enqueue(r.addr, r.is_write, now);
    sub_wake = std::min(sub_wake, sub.NextEventHint(now));
    ++cursor;
    return true;
  };

  while (cursor < refs.size() || !ref.TransactionQueuesEmpty() ||
         !sub.TransactionQueuesEmpty() || ref.inflight() != 0 ||
         sub.inflight() != 0) {
    ASSERT_LT(now, Cycle{50'000'000}) << "drain did not converge";
    // Mixed order sends every other reference after the tick, so both
    // re-arm paths (EnqueueWake before, the post-tick hint after) run.
    const bool late = order == EnqueueOrder::kMixed && cursor % 2 == 1;
    if (!late) enqueue();
    ref.Tick(now);
    drain(ref, done_ref);
    const bool sub_ticked = now >= sub_wake;
    if (sub_ticked) {
      sub.Tick(now);
      sub_wake = sub.NextEventHint(now);
      ++sub_ticks;
      drain(sub, done_sub);
    }
    if (late && enqueue() && sub_ticked) {
      // Done with `now`: the re-armed wake must not buy an empty visit.
      ASSERT_GT(sub_wake, now) << "post-tick enqueue re-armed in the past";
      ++after_tick;
    }
    ++now;
  }
  if (order == EnqueueOrder::kMixed) {
    EXPECT_GT(after_tick, refs.size() / 8) << "too few post-tick enqueues";
  }

  ASSERT_EQ(done_ref.size(), done_sub.size());
  for (std::size_t i = 0; i < done_ref.size(); ++i) {
    EXPECT_EQ(done_ref[i].addr, done_sub[i].addr) << "completion " << i;
    EXPECT_EQ(done_ref[i].done, done_sub[i].done) << "completion " << i;
    EXPECT_EQ(done_ref[i].is_write, done_sub[i].is_write) << "completion " << i;
  }

  // Under load the channel is due almost every DRAM cycle, so the busy
  // phase only proves some skipping happened; the idle window below is
  // where the wake list must earn its keep (refresh wakes only).
  EXPECT_LT(sub_ticks, now) << "wake gating never skipped a cycle";

  const Cycle idle_end = now + 30000;
  std::uint64_t idle_ticks = 0;
  while (now < idle_end) {
    ref.Tick(now);
    drain(ref, done_ref);
    if (now >= sub_wake) {
      sub.Tick(now);
      sub_wake = sub.NextEventHint(now);
      ++idle_ticks;
      drain(sub, done_sub);
    }
    ++now;
  }
  EXPECT_LT(idle_ticks, 30000 / 10)
      << "idle channels must sleep between refresh wakes";

  StatSet stats_ref, stats_sub;
  ref.ExportStats(stats_ref);
  sub.ExportStats(stats_sub);
  EXPECT_EQ(stats_ref.counters(), stats_sub.counters());
}

TEST(WakeConservative, DramSystemMatchesPerCycleReference) {
  RunDramSystemDifferential(EnqueueOrder::kBeforeTick);
}

TEST(WakeConservative, DramSystemMatchesPerCycleReferenceEnqueueAfterTick) {
  RunDramSystemDifferential(EnqueueOrder::kMixed);
}

class ControllerWakeConservative
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ControllerWakeConservative, MatchesPerCycleReference) {
  MemControllerConfig cfg;
  cfg.hbm = HbmCacheConfig(1_MiB);
  cfg.mainmem = MainMemoryConfig(64_MiB);
  const auto refs = BuildSchedule(/*seed=*/11, /*addr_mod=*/32_MiB);

  auto ref = MakePolicy(GetParam(), cfg);
  auto sub = MakePolicy(GetParam(), cfg);
  std::vector<ReadCompletion> done_ref, done_sub;
  Cycle sub_wake = 0;
  std::uint64_t sub_ticks = 0;
  std::uint64_t next_tag = 1;
  std::size_t cursor = 0;
  Cycle now = 0;

  const auto drain = [](MemController& c, std::vector<ReadCompletion>& out) {
    auto& done = c.read_completions();
    out.insert(out.end(), done.begin(), done.end());
    done.clear();
  };

  while (cursor < refs.size() || !ref->Idle() || !sub->Idle()) {
    ASSERT_LT(now, Cycle{50'000'000}) << "drain did not converge";
    bool submitted = false;
    if (cursor < refs.size() && now >= refs[cursor].at) {
      const ScheduledRef& r = refs[cursor];
      const bool can_ref =
          r.is_write ? ref->CanAcceptWriteback() : ref->CanAcceptRead();
      const bool can_sub =
          r.is_write ? sub->CanAcceptWriteback() : sub->CanAcceptRead();
      ASSERT_EQ(can_ref, can_sub) << "cycle " << now;
      if (can_ref) {
        if (r.is_write) {
          ref->SubmitWriteback(r.addr, now);
          sub->SubmitWriteback(r.addr, now);
        } else {
          ref->SubmitRead(r.addr, next_tag, now);
          sub->SubmitRead(r.addr, next_tag, now);
          ++next_tag;
        }
        submitted = true;
        ++cursor;
      }
    }
    ref->Tick(now);
    drain(*ref, done_ref);
    if (submitted || now >= sub_wake) {
      sub_wake = sub->Tick(now);
      ++sub_ticks;
      drain(*sub, done_sub);
    }
    ++now;
  }

  ASSERT_EQ(done_ref.size(), done_sub.size());
  for (std::size_t i = 0; i < done_ref.size(); ++i) {
    EXPECT_EQ(done_ref[i].tag, done_sub[i].tag) << "completion " << i;
    EXPECT_EQ(done_ref[i].addr, done_sub[i].addr) << "completion " << i;
    EXPECT_EQ(done_ref[i].done, done_sub[i].done) << "completion " << i;
  }

  StatSet stats_ref, stats_sub;
  ref->ExportStats(stats_ref);
  sub->ExportStats(stats_sub);
  EXPECT_EQ(stats_ref.counters(), stats_sub.counters());

  EXPECT_LT(sub_ticks, now / 2) << "wake gating never skipped a cycle";
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ControllerWakeConservative,
    ::testing::Values("Alloy", "Bear", "Red-Basic", "RedCache",
                      "RedCache-4way", "Banshee", "TicToc"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      name.erase(std::remove_if(name.begin(), name.end(),
                                [](char c) {
                                  return !std::isalnum(
                                      static_cast<unsigned char>(c));
                                }),
                 name.end());
      return name;
    });

}  // namespace
}  // namespace redcache
