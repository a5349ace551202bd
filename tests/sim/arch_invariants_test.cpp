// Cross-architecture invariants: for every controller, on several
// workloads, a run must complete, answer every demand read exactly once,
// keep its internal accounting consistent, and stay deterministic.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>

#include "sim/runner.hpp"

namespace redcache {
namespace {

constexpr const char* kPolicies[] = {
    "No-HBM",    "IDEAL",     "Alloy",      "Bear",     "Red-Alpha",
    "Red-Gamma", "Red-Basic", "Red-InSitu", "RedCache",
};

/// Index into kPolicies. The matrix carries the index rather than the name
/// so each case's test id, which prints the raw parameter bytes, stays the
/// same as when the matrix was keyed by an enum of these nine systems.
struct PolicyIndex {
  std::uint32_t i;
};

using Param = std::tuple<PolicyIndex, std::string>;

class ArchInvariants : public ::testing::TestWithParam<Param> {};

RunSpec SmallSpec(PolicyIndex policy, const std::string& wl) {
  RunSpec spec;
  spec.policy = kPolicies[policy.i];
  spec.workload = wl;
  spec.scale = 0.05;
  spec.preset = EvalPreset();
  spec.preset.hierarchy.num_cores = 4;
  return spec;
}

TEST_P(ArchInvariants, CompletesAndConserves) {
  const auto [policy, wl] = GetParam();
  const RunResult r = RunOne(SmallSpec(policy, wl));
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.exec_cycles, 0u);

  // Every L3 miss became exactly one controller read.
  EXPECT_EQ(r.stats.GetCounter("core.misses"), r.stats.GetCounter("ctrl.reads"));

  // Refs were fully consumed and the hit counters partition them.
  const auto refs = r.stats.GetCounter("core.refs");
  EXPECT_EQ(refs, r.stats.GetCounter("core.l1_hits") +
                      r.stats.GetCounter("core.l2_hits") +
                      r.stats.GetCounter("core.l3_hits") +
                      r.stats.GetCounter("core.misses"));

  // Off-chip devices only move whole bursts.
  if (std::string(kPolicies[policy.i]) != "IDEAL") {
    EXPECT_GT(r.stats.GetCounter("ddr4.transactions"), 0u) << "below-L3 "
        "traffic must reach main memory for non-ideal systems";
  }
  EXPECT_GT(r.energy.SystemNj(), 0.0);
}

TEST_P(ArchInvariants, Deterministic) {
  const auto [policy, wl] = GetParam();
  const RunResult a = RunOne(SmallSpec(policy, wl));
  const RunResult b = RunOne(SmallSpec(policy, wl));
  EXPECT_EQ(a.exec_cycles, b.exec_cycles);
  EXPECT_EQ(a.stats.GetCounter("hbm.bytes_transferred"),
            b.stats.GetCounter("hbm.bytes_transferred"));
  EXPECT_EQ(a.stats.GetCounter("ddr4.bytes_transferred"),
            b.stats.GetCounter("ddr4.bytes_transferred"));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ArchInvariants,
    ::testing::Combine(::testing::Values(PolicyIndex{0}, PolicyIndex{1},
                                         PolicyIndex{2}, PolicyIndex{3},
                                         PolicyIndex{4}, PolicyIndex{5},
                                         PolicyIndex{6}, PolicyIndex{7},
                                         PolicyIndex{8}),
                       ::testing::Values(std::string("LREG"),
                                         std::string("RDX"),
                                         std::string("BRN"))),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string name = std::string(kPolicies[std::get<0>(info.param).i]) +
                         "_" + std::get<1>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace redcache
