// Skip-ahead vs single-cycle stepping differential.
//
// REDCACHE_NO_SKIP=1 forces System::Run to advance time one cycle per
// visit instead of jumping to the next wake. If every component's wake is
// conservative (DESIGN.md section 10), the two pacing modes visit the same
// state-changing cycles and must produce byte-identical statistics — on
// every Table II workload, for a representative controller of each family.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>

#include "sim/runner.hpp"
#include "workloads/benchmarks.hpp"

namespace redcache {
namespace {

class ScopedNoSkip {
 public:
  ScopedNoSkip() { ::setenv("REDCACHE_NO_SKIP", "1", /*overwrite=*/1); }
  ~ScopedNoSkip() { ::unsetenv("REDCACHE_NO_SKIP"); }
};

using Param = std::tuple<std::string, std::string>;

class NoSkipDifferential : public ::testing::TestWithParam<Param> {};

// Recorded skip-ahead economics: cycles_skipped per differential cell as
// measured before the SoA timing-core refactor (DESIGN.md section 12); the
// RedCache-4way floors were recorded with the precise RCU idle-drain wake.
// Skipping must never get *worse* than these floors — a decrease means a
// wake hint regressed to "poll every slot" somewhere.
// Regenerate (intentional pacing changes only) with
//   REDCACHE_UPDATE_SKIP_BASELINE=1 ./build/tests/sim/sim_tests
//     --gtest_filter='SkipBaseline.Regenerate'
std::string SkipBaselinePath() { return REDCACHE_SKIP_BASELINE_FILE; }

const std::vector<std::string>& BaselinePolicies() {
  static const std::vector<std::string> kPolicies = {"Alloy", "Bear",
                                                     "RedCache",
                                                     "RedCache-4way"};
  return kPolicies;
}

std::map<std::string, std::uint64_t> LoadSkipBaseline() {
  std::map<std::string, std::uint64_t> table;
  std::ifstream in(SkipBaselinePath());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    std::uint64_t skipped = 0;
    if (fields >> key >> skipped) table[key] = skipped;
  }
  return table;
}

RunSpec Spec(const std::string& policy, const std::string& wl) {
  RunSpec spec;
  spec.policy = policy;
  spec.workload = wl;
  spec.scale = 0.02;
  spec.ignore_env_scale = true;
  spec.preset = EvalPreset();
  spec.preset.hierarchy.num_cores = 4;
  return spec;
}

TEST_P(NoSkipDifferential, IdenticalStats) {
  const auto [policy, wl] = GetParam();

  const RunResult skip = RunOne(Spec(policy, wl));
  ASSERT_TRUE(skip.completed);

  RunResult step;
  {
    ScopedNoSkip no_skip;
    step = RunOne(Spec(policy, wl));
  }
  ASSERT_TRUE(step.completed);

  EXPECT_EQ(skip.exec_cycles, step.exec_cycles);
  EXPECT_EQ(skip.stats.counters(), step.stats.counters());

  // The loop economics differ but must cover the same span: stepping
  // executes every cycle, skip-ahead trades executed ticks for skipped
  // cycles one-for-one.
  EXPECT_EQ(step.cycles_skipped, 0u);
  EXPECT_GT(skip.cycles_skipped, 0u);
  EXPECT_EQ(skip.ticks_executed + skip.cycles_skipped,
            step.ticks_executed + step.cycles_skipped);

  // Skip-economics floor: at least as many cycles skipped as the recorded
  // pre-refactor baseline for this cell (see SkipBaselinePath above).
  static const auto baseline = LoadSkipBaseline();
  const auto it = baseline.find(policy + "/" + wl);
  if (it != baseline.end()) {
    EXPECT_GE(skip.cycles_skipped, it->second)
        << "wake hints got less exact: " << policy << "/" << wl
        << " skipped fewer cycles than the recorded baseline";
  }
}

/// Regenerates the cycles_skipped floor file; only runs when
/// REDCACHE_UPDATE_SKIP_BASELINE is set.
TEST(SkipBaseline, Regenerate) {
  const char* env = std::getenv("REDCACHE_UPDATE_SKIP_BASELINE");
  if (env == nullptr || env[0] == '\0' || std::string(env) == "0") {
    GTEST_SKIP() << "set REDCACHE_UPDATE_SKIP_BASELINE=1 to regenerate "
                 << SkipBaselinePath();
  }
  std::ofstream out(SkipBaselinePath());
  ASSERT_TRUE(out.good());
  out << "# cycles_skipped floor per skip/no-skip differential cell\n"
      << "# (policy/workload  cycles_skipped), spec: scale=0.02 eval preset\n"
      << "# 4 cores. Regenerate: REDCACHE_UPDATE_SKIP_BASELINE=1 sim_tests\n"
      << "#   --gtest_filter='SkipBaseline.Regenerate'\n";
  for (const std::string& policy : BaselinePolicies()) {
    for (const std::string& wl : WorkloadLabels()) {
      const RunResult skip = RunOne(Spec(policy, wl));
      ASSERT_TRUE(skip.completed) << policy << "/" << wl;
      out << policy << "/" << wl << " " << skip.cycles_skipped << "\n";
    }
  }
  std::printf("wrote %zu cells to %s\n",
              BaselinePolicies().size() * WorkloadLabels().size(),
              SkipBaselinePath().c_str());
}

// Pacing ceiling on a loaded cell. The skip floors above run at scale 0.02,
// where no HBM channel stays busy long enough for parked RCU updates or
// deep DRAM queues to matter. LU at scale 0.25 — the smallest scale at
// which it loads the cache — keeps channels busy: a wake that polls while
// any channel is idle instead of while an owning channel is idle, or a
// channel that wakes at every command slot after issuing instead of at
// its next ready cycle, shows up here as ticks. History for RedCache /
// RedCache-4way / Alloy: any-idle-channel RCU wake 2.78M / 5.10M / —;
// precise RCU wake 2.33M / 2.28M / 3.64M; channel wakes settled at issue
// with post-tick enqueue wakes and the refresh-aware idle hint 1.72M /
// 1.70M / 2.64M.
std::uint64_t TicksOnLoadedLu(const std::string& policy) {
  RunSpec spec;
  spec.policy = policy;
  spec.workload = "LU";
  spec.scale = 0.25;
  spec.ignore_env_scale = true;
  spec.preset = EvalPreset();
  const RunResult r = RunOne(spec);
  EXPECT_TRUE(r.completed) << policy;
  std::printf("%s on LU scale 0.25: %llu ticks\n", policy.c_str(),
              static_cast<unsigned long long>(r.ticks_executed));
  return r.ticks_executed;
}

TEST(PacingCeiling, LoadedLuRedCacheFamily) {
  for (const std::string policy : {"RedCache", "RedCache-4way"}) {
    EXPECT_LT(TicksOnLoadedLu(policy), 2'000'000u)
        << policy << " on LU: the run loop visits more than it must";
  }
}

TEST(PacingCeiling, LoadedLuAlloy) {
  EXPECT_LT(TicksOnLoadedLu("Alloy"), 3'000'000u)
      << "Alloy on LU: the run loop visits more than it must";
}

INSTANTIATE_TEST_SUITE_P(
    TableII, NoSkipDifferential,
    ::testing::Combine(::testing::Values("Alloy", "Bear", "RedCache",
                                         "RedCache-4way", "Banshee",
                                         "TicToc"),
                       ::testing::ValuesIn(WorkloadLabels())),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string name = std::get<0>(info.param) + "_" +
                         std::get<1>(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace redcache
