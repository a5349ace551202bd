#include "cells.hpp"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "dramcache/policy_registry.hpp"
#include "obs/json.hpp"
#include "tenant/accounting.hpp"
#include "tenant/mix_trace.hpp"

namespace perfbench {

using namespace redcache;

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> kDefs = {
      {"redcache_lu", "RedCache", "LU", false, 0.5, 0, false, 3.5},
      {"alloy_mix_telemetry", "Alloy", "LU:1,RDX:1", true, 0.25, 10000, false,
       5.0},
      {"sampled_rdx", "RedCache", "RDX", false, 1.0, 0, true, 1.5},
  };
  return kDefs;
}

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& d : Workloads()) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

RunSpec SpecOf(const WorkloadDef& def, std::uint64_t seed) {
  RunSpec spec;
  spec.policy = def.policy;
  if (def.mix) {
    spec.mix = tenant::MixSpec::Parse(def.workload);
  } else {
    spec.workload = def.workload;
  }
  spec.preset = EvalPreset();
  spec.scale = def.scale;
  spec.ignore_env_scale = true;
  spec.seed = seed;
  return spec;
}

SamplingOptions SampledOptions(unsigned jobs) {
  SamplingOptions opts;  // interval and functional latency: CLI defaults
  opts.fraction = 0.10;
  opts.jobs = jobs;
  return opts;
}

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

WorkloadBuildParams BuildParamsOf(const RunSpec& spec, std::uint64_t salt) {
  WorkloadBuildParams wp;
  wp.num_cores = spec.preset.hierarchy.num_cores;
  wp.scale = spec.ignore_env_scale ? spec.scale : EffectiveScale(spec.scale);
  wp.seed_salt = salt;
  return wp;
}

std::uint64_t Drain(TraceSource& trace) {
  std::uint64_t refs = 0;
  MemRef ref;
  for (std::uint32_t c = 0; c < trace.num_cores(); ++c) {
    while (trace.Next(c, ref)) ++refs;
  }
  return refs;
}

}  // namespace

// Mirrors BuildSystem (sim/runner.cpp) for the spec shapes the benchmark
// runs. BuildSystem offers no seed salt and no hook to wrap the trace or
// the controller, and the benchmark may not change the simulator, hence
// the copy; the self-tests pin it to BuildSystem's stats.
std::unique_ptr<System> BuildBenchSystem(const RunSpec& spec,
                                         std::uint64_t seed_salt,
                                         LayerLedger* ledger,
                                         SetupTimes* times) {
  const auto t0 = Clock::now();
  const WorkloadBuildParams wp = BuildParamsOf(spec, seed_salt);
  std::unique_ptr<TraceSource> trace;
  std::unique_ptr<tenant::TenantAccounting> acct;
  if (spec.mix.active()) {
    std::vector<std::unique_ptr<TraceSource>> children;
    std::uint64_t max_footprint = 0;
    for (const tenant::TenantSpec& t : spec.mix.tenants) {
      auto child = MakeWorkload(t.workload, wp);
      max_footprint = std::max(max_footprint, child->footprint_bytes());
      children.push_back(std::move(child));
    }
    const auto map = tenant::TenantAddressMap::Plan(
        spec.mix.mode, spec.mix.num_tenants(), max_footprint,
        spec.preset.mem.mainmem.geometry.capacity_bytes, spec.mix.window_bits);
    acct = std::make_unique<tenant::TenantAccounting>(map);
    for (std::uint32_t t = 0; t < spec.mix.num_tenants(); ++t) {
      acct->SetSoloBaseline(t, spec.mix.tenants[t].solo_exec_cycles,
                            spec.mix.tenants[t].solo_refs);
    }
    trace = std::make_unique<tenant::MixTraceSource>(
        std::move(children), spec.mix.tenants, map);
  } else {
    trace = MakeWorkload(spec.workload, wp);
  }
  const auto t1 = Clock::now();
  auto controller = MakePolicy(PolicyNameOf(spec), spec.preset.mem);
  const auto t2 = Clock::now();
  if (ledger != nullptr) {
    trace = std::make_unique<TimedTrace>(std::move(trace), *ledger);
    controller =
        std::make_unique<TimedController>(std::move(controller), *ledger);
  }
  auto system = std::make_unique<System>(
      spec.preset.hierarchy, spec.preset.core, std::move(controller),
      std::move(trace), spec.seed);
  if (acct != nullptr) system->SetTenantAccounting(std::move(acct));
  if (times != nullptr) {
    times->trace_s = Seconds(t0, t1);
    times->policy_s = Seconds(t1, t2);
    times->total_s = Seconds(t0, Clock::now());
  }
  return system;
}

std::uint64_t CountTraceRefs(const RunSpec& spec, std::uint64_t seed_salt,
                             std::vector<std::uint64_t>* per_tenant) {
  const WorkloadBuildParams wp = BuildParamsOf(spec, seed_salt);
  std::vector<std::string> labels;
  if (spec.mix.active()) {
    for (const tenant::TenantSpec& t : spec.mix.tenants) {
      labels.push_back(t.workload);
    }
  } else {
    labels.push_back(spec.workload);
  }
  std::uint64_t total = 0;
  if (per_tenant != nullptr) per_tenant->clear();
  for (const std::string& label : labels) {
    const std::uint64_t refs = Drain(*MakeWorkload(label, wp));
    total += refs;
    if (per_tenant != nullptr) per_tenant->push_back(refs);
  }
  return total;
}

std::string StatBytes(const StatSet& stats) {
  ser::Writer w;
  stats.Snapshot(w);
  const auto& buf = w.buffer();
  return std::string(buf.begin(), buf.end());
}

TelemetryStream::TelemetryStream(const std::string& path, Cycle epoch_cycles,
                                 LayerLedger* ledger)
    : sampler_(epoch_cycles) {
  sink_ = obs::FdTelemetrySink::OpenPath(path);
  if (ledger != nullptr) {
    sink_ = std::make_unique<TimedSink>(std::move(sink_), *ledger);
  }
  // As in TelemetrySession: a streaming sink keeps no series in memory.
  sampler_.SetSink(sink_.get(), /*retain_epochs=*/false);
}

void TelemetryStream::Begin(const obs::TelemetryMeta& meta) {
  sink_->WriteLine(obs::NdjsonHeaderLine(meta, sampler_));
}

void TelemetryStream::End(const obs::TelemetryMeta& meta) {
  sink_->WriteLine(obs::NdjsonEndLine(meta, sampler_));
  if (!sink_->ok()) {
    throw std::runtime_error("telemetry sink " + sink_->describe() +
                             " broke during the run");
  }
}

std::string ValidateStream(const std::string& validator,
                           const std::string& path) {
  if (validator.empty()) return "no telemetry validator given";
  // The validator's report goes to stderr: stdout carries the result line.
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
  std::vector<std::string> args = {"python3", validator, path};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int err = posix_spawnp(&pid, "python3", &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (err != 0) return "cannot start python3: " + std::string(strerror(err));
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return "lost the validator process";
  }
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return "";
  return validator + " rejected " + path;
}

std::string CheckEndTotals(const std::string& path, const StatSet& final_stats,
                           std::uint64_t* epochs) {
  std::ifstream in(path);
  if (!in) return "cannot read " + path;
  std::string line, last;
  while (std::getline(in, line)) {
    if (!line.empty()) last = line;
  }
  obs::JsonValue rec;
  std::string error;
  if (!obs::ParseJson(last, rec, &error)) return "bad last record: " + error;
  const obs::JsonValue* type = rec.Find("type");
  const obs::JsonValue* n = rec.Find("num_epochs");
  const obs::JsonValue* totals = rec.Find("totals");
  if (type == nullptr || type->string != "end" || n == nullptr ||
      totals == nullptr || !totals->is_object()) {
    return "last record is not an end record with totals";
  }
  if (totals->Find("core.refs") == nullptr) return "totals lack core.refs";
  for (const auto& [counter, total] : totals->object) {
    if (final_stats.HasCounter(counter) &&
        static_cast<double>(final_stats.GetCounter(counter)) != total.number) {
      return "end total of " + counter + " differs from the run's counter";
    }
  }
  if (epochs != nullptr) *epochs = static_cast<std::uint64_t>(n->number);
  return "";
}

}  // namespace perfbench
