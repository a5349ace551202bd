// Self-tests of the benchmark: its metric arithmetic, and that the timing
// decorators forward every call unchanged (a decorated System simulates
// exactly what BuildSystem's does).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cells.hpp"
#include "host_probe.hpp"
#include "metrics.hpp"

namespace perfbench {
namespace {

using namespace redcache;

const std::string kValidator = PERFBENCH_TELEMETRY_VALIDATOR;

TEST(Metrics, MedianOfOddEvenAndEmpty) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({7.5}), 7.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(Metrics, MeanOfValuesAndEmpty) {
  EXPECT_EQ(Mean({1.0, 2.0, 6.0}), 3.0);
  EXPECT_EQ(Mean({7.5}), 7.5);
  EXPECT_EQ(Mean({}), 0.0);
}

TEST(Metrics, SumOfSlotMinimaTakesTheFastestRepetitionPerSlot) {
  // Repetition 2 was slow in slot 0, repetition 3 in slot 1.
  EXPECT_EQ(SumOfSlotMinima({{1.0, 2.0}, {5.0, 2.0}, {1.0, 9.0}}), 3.0);
  EXPECT_EQ(SumOfSlotMinima({{4.0, 1.0}, {1.0, 4.0}}), 2.0);
  EXPECT_EQ(SumOfSlotMinima({{1.0, 2.0}}), 3.0);
  EXPECT_EQ(SumOfSlotMinima({}), 0.0);
  EXPECT_EQ(SumOfSlotMinima({{1.0, 2.0}, {1.0}}), 0.0);
}

TEST(Metrics, HostSlowdownIsTheSlotMinimaAgainstQuietTime) {
  // Slot minima 1 and 2 against a quiet slot of 1: 1.5 times slower.
  EXPECT_EQ(HostSlowdown({{1.0, 4.0}, {3.0, 2.0}}, 1.0), 1.5);
  EXPECT_EQ(HostSlowdown({{0.5, 0.5}}, 1.0), 0.5);
  EXPECT_EQ(HostSlowdown({}, 1.0), 1.0);
}

TEST(Metrics, HostProbeSlotTimesTheWalk) {
  HostProbe probe;
  // 16,384 dependent loads take at least 13 us even from L1 at 5 GHz; a
  // walk the compiler dropped or moved outside the clock reads takes less.
  for (int i = 0; i < 3; ++i) EXPECT_GT(probe.Slot(), 6e-6);
}

TEST(Metrics, RatioWithZeroBaseIsZero) {
  EXPECT_EQ(Ratio(5.0, 0.0), 0.0);
  EXPECT_EQ(Ratio(0.0, 0.0), 0.0);
  EXPECT_EQ(Ratio(3.0, 4.0), 0.75);
  EXPECT_EQ(Pct(1.0, 0.0), 0.0);
  EXPECT_EQ(Pct(1.0, 8.0), 12.5);
}

TEST(Metrics, SampleErrorIsRelativeToTruth) {
  EXPECT_DOUBLE_EQ(SampleErrPct(200.0, 190.0), 5.0);
  EXPECT_DOUBLE_EQ(SampleErrPct(200.0, 210.0), 5.0);
  EXPECT_EQ(SampleErrPct(0.0, 10.0), 0.0);
}

TEST(Metrics, CiMissIsZeroWhenCoveredElseDistanceOutside) {
  // Interval [90, 110].
  EXPECT_EQ(CiMissPct(100.0, 100.0, 10.0), 0.0);
  EXPECT_EQ(CiMissPct(110.0, 100.0, 10.0), 0.0);
  EXPECT_EQ(CiMissPct(90.0, 100.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(CiMissPct(120.0, 100.0, 10.0), 100.0 * 10.0 / 120.0);
  EXPECT_DOUBLE_EQ(CiMissPct(80.0, 100.0, 10.0), 100.0 * 10.0 / 80.0);
  // A zero-width interval misses by the whole error.
  EXPECT_DOUBLE_EQ(CiMissPct(200.0, 190.0, 0.0), SampleErrPct(200.0, 190.0));
}

TEST(Metrics, HistogramBucketsCoverEveryValueOnce) {
  for (std::uint64_t v : {0ull, 1ull, 7ull, 8ull, 9ull, 15ull, 16ull, 100ull,
                          1000ull, 123456789ull, ~0ull >> 1, ~0ull}) {
    const std::size_t i = CallHistogram::Index(v);
    EXPECT_LE(v, CallHistogram::UpperEdge(i)) << v;
    if (i > 0) {
      EXPECT_GT(v, CallHistogram::UpperEdge(i - 1)) << v;
    }
  }
  EXPECT_EQ(CallHistogram::UpperEdge(CallHistogram::Index(~0ull)), ~0ull);
}

TEST(Metrics, HistogramQuantiles) {
  CallHistogram h;
  EXPECT_EQ(h.Quantile(0.99), 0u);
  for (int i = 0; i < 99; ++i) h.Add(3);
  h.Add(1000);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.Quantile(0.5), 3u);
  EXPECT_EQ(h.Quantile(0.99), 3u);
  EXPECT_EQ(h.Quantile(1.0),
            CallHistogram::UpperEdge(CallHistogram::Index(1000)));
  EXPECT_GE(h.Quantile(1.0), 1000u);
  EXPECT_LT(h.Quantile(1.0), 1250u);  // within a quarter of the true value
}

RunSpec TinySpec(const char* policy, const char* workload, bool mix) {
  WorkloadDef def{"tiny", policy, workload, mix, 0.02, 0, false, 1.0};
  return SpecOf(def, 7);
}

struct Outcome {
  RunResult result;
  std::string ndjson;
};

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Run `system` with live telemetry at `epoch` cycles into `path`.
Outcome RunWithTelemetry(System& system, const RunSpec& spec,
                         const std::string& path, LayerLedger* ledger) {
  TelemetryStream telemetry(path, 5000, ledger);
  system.SetTelemetry(&telemetry.sampler());
  obs::TelemetryMeta meta = TelemetryMetaOf(spec);
  telemetry.Begin(meta);
  if (ledger != nullptr) ledger->BeginRun();
  Outcome out;
  out.result = system.Run();
  if (ledger != nullptr) ledger->EndRun();
  meta.exec_cycles = out.result.exec_cycles;
  telemetry.End(meta);
  out.ndjson = Slurp(path);
  return out;
}

void ExpectIdentical(const RunResult& a, const RunResult& b) {
  EXPECT_TRUE(a.completed);
  EXPECT_EQ(StatBytes(a.stats), StatBytes(b.stats));
  EXPECT_EQ(a.exec_cycles, b.exec_cycles);
  EXPECT_EQ(a.ticks_executed, b.ticks_executed);
  EXPECT_EQ(a.cycles_skipped, b.cycles_skipped);
  EXPECT_EQ(a.energy.SystemNj(), b.energy.SystemNj());
}

class Forwarding : public ::testing::TestWithParam<bool> {};

TEST_P(Forwarding, DecoratedSystemMatchesBuildSystem) {
  const bool mix = GetParam();
  const RunSpec spec = mix ? TinySpec("Alloy", "LU:1,RDX:1", true)
                           : TinySpec("RedCache", "LU", false);
  const std::string dir = ::testing::TempDir();
  const Outcome plain = RunWithTelemetry(*BuildSystem(spec), spec,
                                         dir + "/plain.ndjson", nullptr);
  LayerLedger ledger;
  const Outcome timed = RunWithTelemetry(
      *BuildBenchSystem(spec, 0, &ledger, nullptr), spec,
      dir + "/timed.ndjson", &ledger);
  ExpectIdentical(plain.result, timed.result);
  EXPECT_EQ(plain.ndjson, timed.ndjson);

  // Every boundary saw traffic, and the obs spans match the epochs.
  const std::uint64_t refs = plain.result.stats.GetCounter("core.refs");
  EXPECT_GE(ledger.trace_next.calls, refs);
  EXPECT_GT(ledger.ctrl_tick.calls, 0u);
  EXPECT_GT(ledger.ctrl_other.calls, 0u);
  std::uint64_t epochs = 0;
  EXPECT_EQ(ValidateStream(kValidator, dir + "/timed.ndjson"), "");
  EXPECT_EQ(CheckEndTotals(dir + "/timed.ndjson", timed.result.stats, &epochs),
            "");
  EXPECT_GT(epochs, 1u);
  EXPECT_EQ(ledger.obs_spans, epochs);
  EXPECT_GT(ledger.obs_bytes, 0u);
  EXPECT_LE(ledger.obs_stamps + ledger.trace_next.stamps +
                ledger.ctrl_tick.stamps + ledger.ctrl_other.stamps,
            static_cast<std::uint64_t>(ledger.run_stamps()));

  // The trace hands out exactly the references the cores retire.
  std::vector<std::uint64_t> per_tenant;
  EXPECT_EQ(CountTraceRefs(spec, 0, &per_tenant), refs);
  ASSERT_EQ(per_tenant.size(), mix ? 2u : 1u);
  if (mix) {
    EXPECT_EQ(per_tenant[0], plain.result.stats.GetCounter("tenant0.refs"));
    EXPECT_EQ(per_tenant[1], plain.result.stats.GetCounter("tenant1.refs"));
  }
}

INSTANTIATE_TEST_SUITE_P(SingleAndMix, Forwarding, ::testing::Bool());

TEST(Forwarding, UndecoratedBenchBuildMatchesBuildSystemWithoutTelemetry) {
  const RunSpec spec = TinySpec("RedCache", "RDX", false);
  SetupTimes times;
  const RunResult a = BuildSystem(spec)->Run();
  const RunResult b = BuildBenchSystem(spec, 0, nullptr, &times)->Run();
  ExpectIdentical(a, b);
  EXPECT_GT(times.total_s, 0.0);
  EXPECT_LE(times.trace_s + times.policy_s, times.total_s);
}

TEST(Forwarding, SeedSaltChangesTheTrace) {
  const RunSpec spec = TinySpec("RedCache", "LU", false);
  const RunResult a = BuildBenchSystem(spec, 0, nullptr, nullptr)->Run();
  const RunResult b = BuildBenchSystem(spec, 1, nullptr, nullptr)->Run();
  EXPECT_NE(StatBytes(a.stats), StatBytes(b.stats));
}

TEST(TelemetryCheck, RejectsABrokenStream) {
  const RunSpec spec = TinySpec("Alloy", "LU", false);
  const std::string path = ::testing::TempDir() + "/broken.ndjson";
  const Outcome run = RunWithTelemetry(*BuildSystem(spec), spec, path, nullptr);
  ASSERT_EQ(ValidateStream(kValidator, path), "");
  ASSERT_EQ(CheckEndTotals(path, run.result.stats, nullptr), "");

  // Bump one epoch's core.refs delta: the deltas no longer sum to the total.
  const std::string key = "\"core.refs\":";
  std::string text = run.ndjson;
  const std::size_t at = text.find(key, text.find("\"type\":\"epoch\""));
  ASSERT_NE(at, std::string::npos);
  text.insert(at + key.size(), "1");
  std::ofstream(path) << text;
  EXPECT_NE(ValidateStream(kValidator, path), "");

  // An end record whose totals disagree with the run's counters.
  text = run.ndjson;
  const std::size_t total = text.find(key, text.rfind("\"type\":\"end\""));
  ASSERT_NE(total, std::string::npos);
  text.insert(total + key.size(), "1");
  std::ofstream(path) << text;
  EXPECT_NE(CheckEndTotals(path, run.result.stats, nullptr), "");

  // A stream cut before its end record is rejected by both.
  std::ofstream(path) << run.ndjson.substr(0, run.ndjson.rfind("{\"type\""));
  EXPECT_NE(ValidateStream(kValidator, path), "");
  EXPECT_NE(CheckEndTotals(path, run.result.stats, nullptr), "");

  EXPECT_NE(ValidateStream("", path), "");
}

}  // namespace
}  // namespace perfbench
