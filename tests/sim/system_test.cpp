#include "sim/system.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "sim/runner.hpp"

namespace redcache {
namespace {

RunSpec TinySpec(const std::string& policy, const std::string& wl = "LREG") {
  RunSpec spec;
  spec.policy = policy;
  spec.workload = wl;
  spec.scale = 0.02;
  spec.preset = EvalPreset();
  spec.preset.hierarchy.num_cores = 4;
  return spec;
}

TEST(System, RunsToCompletion) {
  const RunResult r = RunOne(TinySpec("Alloy"));
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.exec_cycles, 0u);
  EXPECT_GT(r.stats.GetCounter("core.refs"), 0u);
}

TEST(System, EveryArchCompletesEveryTinyWorkload) {
  for (const char* a : {"No-HBM", "IDEAL", "Alloy", "Bear", "RedCache"}) {
    for (const std::string wl : {"LREG", "HIST", "RDX"}) {
      const RunResult r = RunOne(TinySpec(a, wl));
      EXPECT_TRUE(r.completed) << a << "/" << wl;
      EXPECT_GT(r.exec_cycles, 0u);
    }
  }
}

TEST(System, DeterministicExecution) {
  const RunResult a = RunOne(TinySpec("RedCache"));
  const RunResult b = RunOne(TinySpec("RedCache"));
  EXPECT_EQ(a.exec_cycles, b.exec_cycles);
  EXPECT_EQ(a.stats.GetCounter("hbm.bytes_transferred"),
            b.stats.GetCounter("hbm.bytes_transferred"));
}

TEST(System, MemoryTrafficConservation) {
  const RunResult r = RunOne(TinySpec("Alloy"));
  // Every below-L3 read the cores issued must be answered.
  EXPECT_EQ(r.stats.GetCounter("core.misses"),
            r.stats.GetCounter("ctrl.reads"));
  // Hits+misses equals probed requests.
  EXPECT_EQ(r.stats.GetCounter("ctrl.cache_hits") +
                r.stats.GetCounter("ctrl.cache_misses"),
            r.stats.GetCounter("ctrl.reads") +
                r.stats.GetCounter("ctrl.writebacks"));
}

TEST(System, IdealFasterThanNoHbm) {
  const RunResult ideal = RunOne(TinySpec("IDEAL", "OCN"));
  const RunResult nohbm = RunOne(TinySpec("No-HBM", "OCN"));
  EXPECT_LT(ideal.exec_cycles, nohbm.exec_cycles);
}

TEST(System, EnergyPopulated) {
  const RunResult r = RunOne(TinySpec("RedCache"));
  EXPECT_GT(r.energy.SystemNj(), 0.0);
  EXPECT_GT(r.energy.HbmCacheNj(), 0.0);
  EXPECT_GT(r.energy.cpu_nj, 0.0);
}

TEST(System, RequestObserverSeesTraffic) {
  auto spec = TinySpec("No-HBM");
  auto sys = BuildSystem(spec);
  std::uint64_t reads = 0, wbs = 0;
  sys->SetRequestObserver([&](Addr, bool is_wb) {
    if (is_wb) wbs++; else reads++;
  });
  const RunResult r = sys->Run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(reads, r.stats.GetCounter("core.misses"));
}

TEST(System, MaxCyclesBoundsRun) {
  auto spec = TinySpec("Alloy");
  spec.max_cycles = 5000;
  const RunResult r = RunOne(spec);
  EXPECT_FALSE(r.completed);
  EXPECT_LE(r.exec_cycles, 2 * 5000u);
}

TEST(System, ScaleEnvOverride) {
  EXPECT_DOUBLE_EQ(EffectiveScale(2.0), 2.0);
  setenv("REDCACHE_REFS_SCALE", "0.5", 1);
  EXPECT_DOUBLE_EQ(EffectiveScale(2.0), 1.0);
  unsetenv("REDCACHE_REFS_SCALE");
}

/// Fixed-latency memory with a periodic background wake (standing in for
/// DRAM refresh), recording the cycle each read arrives.
class FixedLatencyMemory final : public MemController {
 public:
  static constexpr Cycle kLatency = 100;
  static constexpr Cycle kPeriod = 100000;

  const char* name() const override { return "fixed-latency"; }
  bool CanAcceptRead() const override { return true; }
  bool CanAcceptWriteback() const override { return true; }
  void SubmitRead(Addr addr, std::uint64_t tag, Cycle now) override {
    submits.push_back(now);
    pending_.push_back({addr, tag, now + kLatency});
  }
  void SubmitWriteback(Addr, Cycle) override {}
  Cycle Tick(Cycle now) override {
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->done <= now) {
        done_.push_back(*it);
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
    return NextEventHint(now);
  }
  std::vector<ReadCompletion>& read_completions() override { return done_; }
  Cycle NextEventHint(Cycle now) const override {
    Cycle next = (now / kPeriod + 1) * kPeriod;
    for (const ReadCompletion& p : pending_) next = std::min(next, p.done);
    return next;
  }
  void ExportStats(StatSet&) const override {}
  bool Idle() const override { return pending_.empty(); }

  std::vector<Cycle> submits;

 private:
  std::vector<ReadCompletion> pending_;
  std::vector<ReadCompletion> done_;
};

/// Per-core reference lists replayed verbatim.
class ScriptedTrace final : public TraceSource {
 public:
  explicit ScriptedTrace(std::vector<std::vector<MemRef>> refs)
      : refs_(std::move(refs)), pos_(refs_.size(), 0) {}
  bool Next(std::uint32_t core, MemRef& out) override {
    if (pos_[core] == refs_[core].size()) return false;
    out = refs_[core][pos_[core]++];
    return true;
  }
  std::uint32_t num_cores() const override {
    return static_cast<std::uint32_t>(refs_.size());
  }
  std::uint64_t footprint_bytes() const override { return 0; }
  std::string name() const override { return "scripted"; }

 private:
  std::vector<std::vector<MemRef>> refs_;
  std::vector<std::size_t> pos_;
};

/// Every miss is dependent, so a core that issued one waits (kWaiting) and
/// only its completion can wake it.
std::unique_ptr<System> ScriptedSystem(std::vector<std::vector<MemRef>> refs,
                                       FixedLatencyMemory** mem) {
  HierarchyConfig hierarchy;
  hierarchy.num_cores = static_cast<std::uint32_t>(refs.size());
  CoreParams params;
  params.dependent_fraction = 1.0;
  auto owned = std::make_unique<FixedLatencyMemory>();
  *mem = owned.get();
  return std::make_unique<System>(
      hierarchy, params, std::move(owned),
      std::make_unique<ScriptedTrace>(std::move(refs)));
}

TEST(System, CompletionAloneWakesAWaitingCore) {
  constexpr Cycle L = FixedLatencyMemory::kLatency;
  FixedLatencyMemory* mem = nullptr;
  // Core 0 issues A, waits for it, then issues B at once; core 1 computes
  // until 3L and then issues C, so it is not due when A completes.
  auto sys = ScriptedSystem({{{.addr = 0x10000, .gap = 0},
                              {.addr = 0x20000, .gap = 0}},
                             {{.addr = 0x30000, .gap = 3 * L}}},
                            &mem);
  const RunResult r = sys->Run(/*max_cycles=*/FixedLatencyMemory::kPeriod);
  ASSERT_TRUE(r.completed);
  // B issues on the visit A's completion woke core 0.
  EXPECT_EQ(mem->submits, (std::vector<Cycle>{0, L, 3 * L}));
  // Visits: 0, L (A done), 2L (B done), 3L (C issues), 4L (C done, exit).
  EXPECT_EQ(r.ticks_executed, 5u);
  EXPECT_EQ(r.exec_cycles, 4 * L);
}

TEST(System, CoreFinishingInsideProgressExitsOnThatVisit) {
  constexpr Cycle L = FixedLatencyMemory::kLatency;
  FixedLatencyMemory* mem = nullptr;
  // A misses; after its completion the core retires an L1 hit on A and
  // runs out of trace inside that same Progress call.
  auto sys = ScriptedSystem(
      {{{.addr = 0x10000, .gap = 0}, {.addr = 0x10000, .gap = 5}}}, &mem);
  const RunResult r = sys->Run(/*max_cycles=*/FixedLatencyMemory::kPeriod);
  ASSERT_TRUE(r.completed);
  // Exit on the completion visit: one more visit would land on the
  // memory's background wake and stretch the run to kPeriod.
  EXPECT_EQ(r.ticks_executed, 2u);
  EXPECT_EQ(r.exec_cycles, L + 5 + CoreParams{}.l1_hit_cost);
  EXPECT_EQ(r.stats.GetCounter("core.l1_hits"), 1u);
}

}  // namespace
}  // namespace redcache
