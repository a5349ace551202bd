// The benchmark's workloads and the System construction they share with the
// self-tests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "layer_timing.hpp"
#include "sim/runner.hpp"
#include "sim/sampling.hpp"

namespace perfbench {

struct WorkloadDef {
  const char* name;
  const char* policy;
  /// Table II label, or a tenant mix in the CLI's --mix syntax.
  const char* workload;
  bool mix;
  double scale;
  /// Live NDJSON telemetry epoch in cycles; 0 = telemetry off.
  redcache::Cycle epoch_cycles;
  /// SMARTS-sampled through RunSampled (CLI-default interval, fraction 0.1).
  bool sampled;
  /// Host seconds one end-to-end repetition is budgeted on the reference
  /// machine. A run of S seconds makes floor(S / rep_s) repetitions (at
  /// least one), a count fixed by S alone, however fast the host is.
  double rep_s;
};

/// The benchmark's workloads, in BENCHMARK.json order. Why each was chosen
/// is in README.md.
const std::vector<WorkloadDef>& Workloads();
const WorkloadDef* FindWorkload(const std::string& name);

/// The run spec of `def`. The benchmark seed is the core seed; the
/// environment's REDCACHE_REFS_SCALE is ignored.
redcache::RunSpec SpecOf(const WorkloadDef& def, std::uint64_t seed);

/// Sampling options users get from the CLI's `--sample 0.1`, with an
/// explicit replay thread count.
redcache::SamplingOptions SampledOptions(unsigned jobs);

/// Host seconds spent building one System.
struct SetupTimes {
  double trace_s = 0.0;   ///< MakeWorkload (every tenant) + mix source
  double policy_s = 0.0;  ///< MakePolicy
  double total_s = 0.0;   ///< spec in, System ready to run
};

/// BuildSystem for the specs the benchmark runs (a Table II workload or a
/// tenant mix), with the trace generators salted by `seed_salt` and, when
/// `ledger` is set, the trace and controller wrapped in timing decorators.
/// With seed_salt 0 and no ledger the System is the one BuildSystem makes.
std::unique_ptr<redcache::System> BuildBenchSystem(
    const redcache::RunSpec& spec, std::uint64_t seed_salt,
    LayerLedger* ledger, SetupTimes* times);

/// References a fresh copy of the spec's trace hands out, drained core by
/// core; `per_tenant` (when set) receives each tenant's share for a mix.
std::uint64_t CountTraceRefs(const redcache::RunSpec& spec,
                             std::uint64_t seed_salt,
                             std::vector<std::uint64_t>* per_tenant);

/// Every counter and histogram of `stats`, serialized: equal bytes mean
/// byte-identical statistics.
std::string StatBytes(const redcache::StatSet& stats);

/// Live NDJSON telemetry for one run, wired like obs::TelemetrySession but
/// with the sink optionally wrapped in a TimedSink.
class TelemetryStream {
 public:
  TelemetryStream(const std::string& path, redcache::Cycle epoch_cycles,
                  LayerLedger* ledger);

  redcache::obs::EpochSampler& sampler() { return sampler_; }
  void Begin(const redcache::obs::TelemetryMeta& meta);
  void End(const redcache::obs::TelemetryMeta& meta);

 private:
  redcache::obs::EpochSampler sampler_;
  std::unique_ptr<redcache::obs::TelemetrySink> sink_;
};

/// Run the repository's NDJSON validator (`python3 validator path`, the
/// script scripts/check_telemetry.py) on the stream at `path` and wait for
/// it. Returns "" when it accepts the stream; its reasons go to stderr.
std::string ValidateStream(const std::string& validator,
                           const std::string& path);

/// Check that the totals in the end record of the NDJSON stream at `path`
/// equal the run's final counters, and read its epoch count. Returns ""
/// when they agree, else the first problem.
std::string CheckEndTotals(const std::string& path,
                           const redcache::StatSet& final_stats,
                           std::uint64_t* epochs);

}  // namespace perfbench
