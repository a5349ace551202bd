// The benchmark's measuring program. run.py builds it and runs
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR --telemetry-validator scripts/check_telemetry.py
//
// With --trace 0 it repeats the workload a fixed number of times for about
// S seconds and reports the end-to-end metrics. Inside a detailed
// repetition a checkpoint hook times one host probe slot every
// kProbeCycles simulated cycles; a sampled repetition is followed by a
// block of probe slots. With --trace 1
// it runs the workload once plain and once with the timing decorators of
// layer_timing.hpp, checks that both runs produce byte-identical
// statistics, and reports the per-layer metrics.
// Every run is one operation; any failed output check fails it. The last
// line of standard output is the result object.
#include <sched.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cells.hpp"
#include "host_probe.hpp"
#include "metrics.hpp"

namespace {

using namespace redcache;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

/// Systems built purely to time set-up: one batch after each repetition of
/// an end-to-end run (spread over the run, so one burst of host noise
/// cannot move them all), and one block for a traced run.
constexpr int kSetupBatch = 64;
constexpr int kSetupBuilds = 25;
/// A detailed repetition times one host probe slot (about 2.5 ms) every
/// kProbeCycles simulated cycles (every 0.1 s or so), so the probe samples
/// the moments it corrects. RunSampled offers no hook; a block of
/// kProbeSlots slots follows each sampled repetition instead.
constexpr Cycle kProbeCycles = 1'600'000;
constexpr int kProbeSlots = 8;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string validator;  ///< scripts/check_telemetry.py
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] "
               "[--telemetry-validator SCRIPT]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") Usage("--trace takes 0 or 1");
        a.trace = val == "1";
      } else if (key == "--work-dir") {
        a.work_dir = val;
      } else if (key == "--telemetry-validator") {
        a.validator = val;
      } else {
        Usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + key + ": " + val);
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (!(a.seconds > 0)) Usage("--seconds must be positive");
  return a;
}

unsigned CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(CPU_COUNT(&set), 1));
}

/// Peak resident set of this program so far, in MiB: VmHWM, which starts
/// afresh at exec (getrusage's ru_maxrss would carry over the launching
/// interpreter's peak). End-to-end runs read it after their first
/// repetition: later repetitions and set-up builds only add allocator
/// history, which would make the figure depend on how many fit in a run.
double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Operations attempted and failed. A run that throws or fails a check is
/// one failed operation; its problem goes to stderr.
struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Run `op`, which returns "" when every check passed.
  bool Run(const std::string& what, const std::function<std::string()>& op) {
    ++attempted;
    std::string problem;
    try {
      problem = op();
    } catch (const std::exception& e) {
      problem = std::string("threw: ") + e.what();
    }
    if (problem.empty()) return true;
    ++failed;
    std::fprintf(stderr, "perfbench: %s FAILED: %s\n", what.c_str(),
                 problem.c_str());
    return false;
  }
};

std::string Num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void PrintResult(const Ops& ops, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += ops.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ops.attempted);
  out += ", \"failed\": " + std::to_string(ops.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// --- output checks ---------------------------------------------------------

/// What a workload's trace hands out, counted once per invocation.
struct Expected {
  std::uint64_t refs = 0;
  std::vector<std::uint64_t> tenant_refs;
};

std::string CheckRun(const RunResult& r, const Expected& want) {
  if (!r.completed) return "run did not complete";
  const std::uint64_t refs = r.stats.GetCounter("core.refs");
  if (refs != want.refs) {
    return "core.refs " + std::to_string(refs) + " != " +
           std::to_string(want.refs) + " references handed out";
  }
  if (want.tenant_refs.size() > 1) {
    std::uint64_t sum = 0;
    for (std::size_t t = 0; t < want.tenant_refs.size(); ++t) {
      const std::uint64_t got =
          r.stats.GetCounter("tenant" + std::to_string(t) + ".refs");
      if (got != want.tenant_refs[t]) {
        return "tenant" + std::to_string(t) + ".refs " + std::to_string(got) +
               " != its trace's " + std::to_string(want.tenant_refs[t]);
      }
      sum += got;
    }
    if (sum != refs) return "per-tenant refs do not sum to core.refs";
  }
  return "";
}

/// Byte equality of two files, read in chunks so a stream of tens of MB
/// never sits in the measuring process's memory.
bool SameBytes(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  if (!fa || !fb) return false;
  std::vector<char> ba(1 << 16), bb(1 << 16);
  while (fa && fb) {
    fa.read(ba.data(), static_cast<std::streamsize>(ba.size()));
    fb.read(bb.data(), static_cast<std::streamsize>(bb.size()));
    if (fa.gcount() != fb.gcount() ||
        !std::equal(ba.begin(), ba.begin() + fa.gcount(), bb.begin())) {
      return false;
    }
  }
  return fa.eof() && fb.eof();
}

// --- one detailed run ------------------------------------------------------

struct DetailedRun {
  RunResult result;
  double run_s = 0.0;           ///< Run's wall time less the probe's
  std::vector<double> probe_s;  ///< host probe slots, one per kProbeCycles
  SetupTimes setup;
};

/// Build, run and check one detailed cell. With a ledger, the trace,
/// controller and telemetry sink are timed. With a probe, a recurring
/// checkpoint hook times one probe slot every kProbeCycles, and the hook's
/// time is left out of run_s. The hook adds one loop visit per slot and
/// cannot change the run's statistics (sim/system.hpp).
std::string RunDetailed(const WorkloadDef& def, const RunSpec& spec,
                        std::uint64_t salt, const Expected& want,
                        const std::string& telemetry_path, LayerLedger* ledger,
                        HostProbe* probe, DetailedRun& out) {
  auto system = BuildBenchSystem(spec, salt, ledger, &out.setup);
  double probe_wall = 0.0;
  if (probe != nullptr) {
    system->SetCheckpointHook(
        kProbeCycles, kProbeCycles, [&out, &probe_wall, probe](Cycle) {
          const auto t0 = Clock::now();
          out.probe_s.push_back(probe->Slot());
          probe_wall += SecondsSince(t0);
        });
  }
  std::unique_ptr<TelemetryStream> telemetry;
  obs::TelemetryMeta meta;
  if (def.epoch_cycles > 0) {
    telemetry = std::make_unique<TelemetryStream>(telemetry_path,
                                                  def.epoch_cycles, ledger);
    meta = TelemetryMetaOf(spec);
    system->SetTelemetry(&telemetry->sampler());
    telemetry->Begin(meta);
  }
  if (ledger != nullptr) ledger->BeginRun();
  const auto t0 = Clock::now();
  out.result = system->Run();
  out.run_s = SecondsSince(t0) - probe_wall;
  if (ledger != nullptr) ledger->EndRun();
  if (telemetry != nullptr) {
    meta.exec_cycles = out.result.exec_cycles;
    telemetry->End(meta);
  }
  return CheckRun(out.result, want);
}

/// Check the NDJSON stream a run wrote to `path`. Streams of the same spec
/// must be byte-identical, so only the first goes through the validator
/// script and the end-total check; it is then moved aside to
/// `<path>.checked`, which `reference` names, and later streams are
/// compared with it.
std::string CheckStream(const std::string& validator, const std::string& path,
                        const RunResult& r, std::string& reference) {
  if (!reference.empty()) {
    return SameBytes(path, reference)
               ? ""
               : "telemetry stream differs from the first run's";
  }
  std::uint64_t epochs = 0;
  std::string problem = ValidateStream(validator, path);
  if (problem.empty()) problem = CheckEndTotals(path, r.stats, &epochs);
  if (problem.empty() && epochs == 0) problem = "no telemetry epochs";
  if (problem.empty()) {
    reference = path + ".checked";
    std::filesystem::rename(path, reference);
  }
  return problem;
}

/// The detailed reference run a sampled estimate is scored against. It
/// goes through the same BuildSystem path RunSampled uses (seed salt 0).
std::string RunTruth(const RunSpec& spec, const Expected& want,
                     RunResult& truth) {
  truth = BuildBenchSystem(spec, 0, nullptr, nullptr)->Run();
  return CheckRun(truth, want);
}

std::string CheckEstimate(const SamplingEstimate& est, const RunResult& truth) {
  if (est.degenerate) return "sampling degenerated to a full detailed run";
  if (est.intervals == 0 || !(est.est_exec_cycles > 0)) {
    return "no measurement intervals";
  }
  const std::uint64_t refs = truth.stats.GetCounter("core.refs");
  if (est.total_refs != refs) {
    return "total_refs " + std::to_string(est.total_refs) +
           " != detailed core.refs " + std::to_string(refs);
  }
  return "";
}

Expected ExpectedOf(const RunSpec& spec, std::uint64_t salt) {
  Expected want;
  want.refs = CountTraceRefs(spec, salt, &want.tenant_refs);
  return want;
}

/// Build the spec's System `n` times, appending each build's times.
void TimeSetup(const RunSpec& spec, std::uint64_t salt, int n,
               std::vector<SetupTimes>& out) {
  for (int i = 0; i < n; ++i) {
    SetupTimes t;
    BuildBenchSystem(spec, salt, nullptr, &t);
    out.push_back(t);
  }
}

/// Mean set-up time of one batch of kSetupBatch builds. A single build
/// takes a fraction of a millisecond, short enough for timer and allocator
/// noise to dominate it; a batch is one sample.
double SetupBatch(const RunSpec& spec, std::uint64_t salt) {
  std::vector<SetupTimes> builds;
  TimeSetup(spec, salt, kSetupBatch, builds);
  double total = 0.0;
  for (const SetupTimes& t : builds) total += t.total_s;
  const double mean = total / kSetupBatch;
  std::fprintf(stderr, "perfbench: set-up batch: %.3f us per build\n",
               mean * 1e6);
  return mean;
}

/// The host's slowdown over a run, from its probe slots; logged so the
/// raw figures can be recovered from the reported ones.
double LogSlowdown(const std::vector<std::vector<double>>& probes,
                   double quiet_slot_s) {
  const double slowdown = HostSlowdown(probes, quiet_slot_s);
  std::fprintf(stderr, "perfbench: host slowdown %.4f\n", slowdown);
  return slowdown;
}

/// The end-to-end run's fixed repetition count for `seconds`.
int Repetitions(const WorkloadDef& def, double seconds) {
  return std::max(1, static_cast<int>(seconds / def.rep_s));
}

double Energy_mJ(const RunResult& r) { return r.energy.SystemNj() / 1e6; }

void LogRep(std::size_t n, double run_s, double refs_per_s) {
  std::fprintf(stderr, "perfbench: repetition %zu: %.3f s, %.0f refs/s\n", n,
               run_s, refs_per_s);
}

// --- end-to-end (trace 0) ---------------------------------------------------

std::vector<Metric> EndToEndDetailed(const WorkloadDef& def, const Args& a,
                                     Ops& ops) {
  const RunSpec spec = SpecOf(def, a.seed);
  const std::uint64_t salt = a.seed;
  const Expected want = ExpectedOf(spec, salt);
  const std::string ndjson = a.work_dir + "/" + def.name + ".ndjson";

  std::vector<double> setup;
  std::vector<double> rates;
  std::vector<std::vector<double>> probes;
  HostProbe probe;
  std::string first_stats;
  std::string first_stream;
  Cycle exec = 0;
  double energy = 0.0;
  double peak_rss = 0.0;
  const int reps = Repetitions(def, a.seconds);
  for (int rep = 1; rep <= reps; ++rep) {
    DetailedRun run;
    // The probe's chain is built after the peak RSS is read, so the first
    // repetition runs without it.
    HostProbe* rep_probe = rep == 1 ? nullptr : &probe;
    const bool ok = ops.Run(
        "repetition " + std::to_string(rep), [&] {
          std::string p = RunDetailed(def, spec, salt, want, ndjson, nullptr,
                                      rep_probe, run);
          if (p.empty() && def.epoch_cycles > 0) {
            p = CheckStream(a.validator, ndjson, run.result, first_stream);
          }
          if (!p.empty()) return p;
          const std::string bytes = StatBytes(run.result.stats);
          if (first_stats.empty()) {
            first_stats = bytes;
            exec = run.result.exec_cycles;
            energy = Energy_mJ(run.result);
          } else if (bytes != first_stats || run.result.exec_cycles != exec) {
            return std::string("repetition's stats differ from the first's");
          } else if (!probes.empty() &&
                     run.probe_s.size() != probes.front().size()) {
            return std::string("repetition's probe slots differ in number");
          }
          return std::string();
        });
    if (ok) {
      rates.push_back(Ratio(static_cast<double>(want.refs), run.run_s));
      if (rep_probe != nullptr) probes.push_back(run.probe_s);
      LogRep(static_cast<std::size_t>(rep), run.run_s, rates.back());
    }
    if (peak_rss == 0.0) peak_rss = PeakRssMib();
    setup.push_back(SetupBatch(spec, salt));
  }

  // Other work on a shared host slows the simulator for seconds to
  // minutes at a time. The mean over the run's fixed number of repetitions
  // averages the short spells; the host probe's slowdown takes out part of
  // the load that lasts the whole run (README.md, "Steadiness").
  const double slowdown = LogSlowdown(probes, HostProbe::kQuietSlotS);
  return {{"refs_per_s", Mean(rates) * slowdown, "refs/s"},
          {"setup_s", Mean(setup) / slowdown, "s"},
          {"peak_rss_mib", peak_rss, "MiB"},
          {"sim_cycles", static_cast<double>(exec), "cycles"},
          {"energy_mj", energy, "mJ"}};
}

std::vector<Metric> EndToEndSampled(const WorkloadDef& def, const Args& a,
                                    unsigned jobs, Ops& ops) {
  const RunSpec spec = SpecOf(def, a.seed);
  const Expected want = ExpectedOf(spec, 0);
  RunResult truth;
  ops.Run("detailed reference run",
          [&] { return RunTruth(spec, want, truth); });

  const SamplingOptions opts = SampledOptions(jobs);
  std::vector<double> setup;
  std::vector<std::vector<double>> probes;
  HostProbe probe;
  std::vector<double> rates;
  double first_est = -1.0;
  double peak_rss = 0.0;
  const int reps = Repetitions(def, a.seconds);
  for (int rep = 1; rep <= reps; ++rep) {
    ops.Run("sampled repetition " + std::to_string(rep), [&] {
      const auto t0 = Clock::now();
      const SamplingEstimate est = RunSampled(spec, opts);
      const double wall = SecondsSince(t0);
      std::string p = CheckEstimate(est, truth);
      if (!p.empty()) return p;
      if (first_est < 0) {
        first_est = est.est_exec_cycles;
      } else if (est.est_exec_cycles != first_est) {
        return std::string("repetition's estimate differs from the first's");
      }
      rates.push_back(Ratio(static_cast<double>(est.total_refs), wall));
      LogRep(static_cast<std::size_t>(rep), wall, rates.back());
      return std::string();
    });
    if (peak_rss == 0.0) peak_rss = PeakRssMib();
    setup.push_back(SetupBatch(spec, 0));
    probes.push_back(probe.Block(kProbeSlots));
  }

  // As above. The simulated result of the cell is the detailed run's: a
  // sampled estimate moves with the seed-chosen phase of its intervals, so
  // its error is reported per layer (sampling.err_pct) instead.
  const double slowdown = LogSlowdown(probes, HostProbe::kQuietSlotS);
  return {{"refs_per_s", Mean(rates) * slowdown, "refs/s"},
          {"setup_s", Mean(setup) / slowdown, "s"},
          {"peak_rss_mib", peak_rss, "MiB"},
          {"sim_cycles", static_cast<double>(truth.exec_cycles), "cycles"},
          {"energy_mj", Energy_mJ(truth), "mJ"}};
}

// --- per layer (trace 1) ---------------------------------------------------

/// Simulated counters of the modelled layers.
void AddSimulatedLayers(const StatSet& s, double exec_cycles,
                        std::uint32_t hbm_channels, std::vector<Metric>& m) {
  auto c = [&s](const std::string& name) {
    return static_cast<double>(s.GetCounter(name));
  };
  const double rcu_flushes = c("ctrl.rcu_merged_flushes") +
                             c("ctrl.rcu_capacity_flushes") +
                             c("ctrl.rcu_idle_flushes");
  m.push_back({"dramcache.hit_pct",
               Pct(c("ctrl.cache_hits"),
                   c("ctrl.cache_hits") + c("ctrl.cache_misses")),
               "%"});
  m.push_back({"core.alpha_bypass_pct",
               Pct(c("ctrl.alpha_bypasses"), c("ctrl.alpha_lookups")), "%"});
  m.push_back({"core.rcu_merged_pct",
               Pct(c("ctrl.rcu_merged_flushes"), rcu_flushes), "%"});
  m.push_back({"core.gamma_invalidations", c("ctrl.gamma_invalidations"),
               "count"});
  m.push_back({"core.refresh_bypasses", c("ctrl.refresh_bypasses"), "count"});
  for (const char* dev : {"hbm", "ddr4"}) {
    const std::string p = dev;
    m.push_back({"dram." + p + "_row_hit_pct",
                 Pct(c(p + ".row_hits"),
                     c(p + ".row_hits") + c(p + ".row_misses")),
                 "%"});
  }
  m.push_back({"dram.hbm_turnarounds",
               c("hbm.turnarounds_rw") + c("hbm.turnarounds_wr"), "count"});
  for (const char* dev : {"hbm", "ddr4"}) {
    const std::string p = dev;
    m.push_back({"dram." + p + "_queue_wait_per_txn",
                 Ratio(c(p + ".queue_wait_cycles"), c(p + ".transactions")),
                 "cycles/txn"});
  }
  m.push_back({"dram.hbm_busy_pct",
               Pct(c("hbm.data_busy_cycles"), exec_cycles * hbm_channels),
               "%"});
  m.push_back({"dram.hbm_bytes", c("hbm.bytes_transferred"), "B"});
  m.push_back({"dram.ddr4_bytes", c("ddr4.bytes_transferred"), "B"});
  m.push_back({"sram.l1_hit_pct",
               Pct(c("core.l1_hits"), c("core.l1_accesses")), "%"});
  m.push_back({"sram.l2_hit_pct",
               Pct(c("core.l2_hits"), c("core.l2_accesses")), "%"});
  m.push_back({"sram.l3_miss_per_kref",
               1000.0 * Ratio(c("core.misses"), c("core.refs")),
               "misses/kref"});
}

/// Host-time split of one traced run (`traced`), against its untraced twin.
void AddHostLayers(const LayerLedger& l, const RunResult& traced,
                   double untraced_run_s, std::vector<Metric>& m) {
  const double refs = static_cast<double>(traced.stats.GetCounter("core.refs"));
  const double run = l.run_stamps();
  const double ctrl = static_cast<double>(l.ctrl_tick.stamps +
                                          l.ctrl_other.stamps);
  const double next = static_cast<double>(l.trace_next.stamps);
  const double obs = static_cast<double>(l.obs_stamps);
  const double ticks = static_cast<double>(traced.ticks_executed);
  const double hist_ns = l.ToNs(1.0);
  m.push_back({"sim.ticks_per_ref", Ratio(ticks, refs), "ticks/ref"});
  m.push_back({"sim.skip_pct",
               Pct(static_cast<double>(traced.cycles_skipped),
                   ticks + static_cast<double>(traced.cycles_skipped)),
               "%"});
  m.push_back({"sim.loop_self_pct", Pct(run - ctrl - next - obs, run), "%"});
  m.push_back({"dramcache.spin_pct",
               Pct(static_cast<double>(l.tick_spins),
                   static_cast<double>(l.ctrl_tick.calls)),
               "%"});
  m.push_back({"dramcache.tick_calls_per_ref",
               Ratio(static_cast<double>(l.ctrl_tick.calls), refs),
               "calls/ref"});
  m.push_back({"dramcache.tick_ns",
               l.ToNs(Ratio(static_cast<double>(l.ctrl_tick.stamps),
                            static_cast<double>(l.ctrl_tick.calls))),
               "ns"});
  m.push_back({"dramcache.tick_p99_ns",
               hist_ns * static_cast<double>(l.ctrl_tick.hist.Quantile(0.99)),
               "ns"});
  m.push_back({"dramcache.host_pct", Pct(ctrl, run), "%"});
  m.push_back({"workloads.next_ns",
               l.ToNs(Ratio(next, static_cast<double>(l.trace_next.calls))),
               "ns"});
  m.push_back({"workloads.next_p99_ns",
               hist_ns * static_cast<double>(l.trace_next.hist.Quantile(0.99)),
               "ns"});
  m.push_back({"workloads.host_pct", Pct(next, run), "%"});
  const double spans = static_cast<double>(l.obs_spans);
  m.push_back({"obs.us_per_epoch", l.ToNs(Ratio(obs, spans)) / 1000.0, "us"});
  m.push_back({"obs.host_pct", Pct(obs, run), "%"});
  m.push_back({"obs.bytes_per_epoch",
               Ratio(static_cast<double>(l.obs_bytes), spans), "B"});
  m.push_back({"obs.epochs", spans, "count"});
  m.push_back({"trace.overhead_pct",
               Pct(l.run_ns() / 1e9 - untraced_run_s, untraced_run_s), "%"});
}

void AddSetupLayers(const std::vector<SetupTimes>& builds,
                    std::vector<Metric>& m) {
  std::vector<double> trace_s, policy_s;
  for (const SetupTimes& t : builds) {
    trace_s.push_back(t.trace_s);
    policy_s.push_back(t.policy_s);
  }
  m.push_back({"setup.trace_build_s", Median(trace_s), "s"});
  m.push_back({"setup.policy_build_s", Median(policy_s), "s"});
}

void AddSamplingLayers(const SamplingEstimate* est, double truth_cycles,
                       std::vector<Metric>& m) {
  const SamplingEstimate none;
  const SamplingEstimate& e = est != nullptr ? *est : none;
  m.push_back({"sampling.functional_s", e.functional_seconds, "s"});
  m.push_back({"sampling.replay_s", e.replay_seconds, "s"});
  m.push_back({"sampling.intervals", static_cast<double>(e.intervals),
               "count"});
  m.push_back({"sampling.err_pct",
               est != nullptr ? SampleErrPct(truth_cycles, e.est_exec_cycles)
                              : 0.0,
               "%"});
  m.push_back({"sampling.ci_miss_pct",
               est != nullptr ? CiMissPct(truth_cycles, e.est_exec_cycles,
                                          e.ci_half_cycles)
                              : 0.0,
               "%"});
}

/// The traced twin of an untraced run must not perturb the simulation.
std::string CheckIdentity(const RunResult& plain, const RunResult& traced) {
  if (StatBytes(plain.stats) != StatBytes(traced.stats)) {
    return "traced run's StatSet differs from the untraced run's";
  }
  if (plain.exec_cycles != traced.exec_cycles) {
    return "traced run's exec_cycles differ from the untraced run's";
  }
  return "";
}

std::vector<Metric> PerLayerDetailed(const WorkloadDef& def, const Args& a,
                                     Ops& ops) {
  const RunSpec spec = SpecOf(def, a.seed);
  const std::uint64_t salt = a.seed;
  const Expected want = ExpectedOf(spec, salt);
  std::vector<SetupTimes> builds;
  TimeSetup(spec, salt, kSetupBuilds, builds);
  const std::string plain_path = a.work_dir + "/" + def.name + ".ndjson";
  const std::string traced_path =
      a.work_dir + "/" + def.name + ".traced.ndjson";

  DetailedRun plain;
  std::string plain_stream;
  ops.Run("untraced run", [&] {
    std::string p = RunDetailed(def, spec, salt, want, plain_path, nullptr,
                                nullptr, plain);
    if (p.empty() && def.epoch_cycles > 0) {
      p = CheckStream(a.validator, plain_path, plain.result, plain_stream);
    }
    return p;
  });
  LayerLedger ledger;
  DetailedRun traced;
  ops.Run("traced run", [&] {
    std::string p = RunDetailed(def, spec, salt, want, traced_path, &ledger,
                                nullptr, traced);
    if (p.empty()) p = CheckIdentity(plain.result, traced.result);
    if (p.empty() && def.epoch_cycles > 0) {
      p = CheckStream(a.validator, traced_path, traced.result, plain_stream);
    }
    return p;
  });

  std::vector<Metric> m;
  AddHostLayers(ledger, traced.result, plain.run_s, m);
  AddSetupLayers(builds, m);
  AddSamplingLayers(nullptr, 0.0, m);
  AddSimulatedLayers(plain.result.stats,
                     static_cast<double>(plain.result.exec_cycles),
                     spec.preset.mem.hbm.geometry.channels, m);
  return m;
}

/// Sampled workload: the sampling.* layer comes from one RunSampled; the
/// host split comes from re-running its functional pass (same spec and
/// fixed latency, without checkpoint capture) plain and traced, since
/// RunSampled builds its Systems internally.
std::vector<Metric> PerLayerSampled(const WorkloadDef& def, const Args& a,
                                    unsigned jobs, Ops& ops) {
  const RunSpec spec = SpecOf(def, a.seed);
  const Expected want = ExpectedOf(spec, 0);
  const SamplingOptions opts = SampledOptions(jobs);
  RunResult truth;
  ops.Run("detailed reference run",
          [&] { return RunTruth(spec, want, truth); });
  SamplingEstimate est;
  ops.Run("sampled run", [&] {
    est = RunSampled(spec, opts);
    return CheckEstimate(est, truth);
  });
  std::vector<SetupTimes> builds;
  TimeSetup(spec, 0, kSetupBuilds, builds);

  auto functional = [&](LayerLedger* ledger, RunResult& r, double& run_s) {
    auto system = BuildBenchSystem(spec, 0, ledger, nullptr);
    system->SetFunctionalTiming(opts.functional_latency);
    if (ledger != nullptr) ledger->BeginRun();
    const auto t0 = Clock::now();
    r = system->Run();
    run_s = SecondsSince(t0);
    if (ledger != nullptr) ledger->EndRun();
    return CheckRun(r, want);
  };
  RunResult plain, traced;
  double plain_s = 0.0, traced_s = 0.0;
  LayerLedger ledger;
  ops.Run("untraced functional pass",
          [&] { return functional(nullptr, plain, plain_s); });
  ops.Run("traced functional pass", [&] {
    std::string p = functional(&ledger, traced, traced_s);
    return p.empty() ? CheckIdentity(plain, traced) : p;
  });

  std::vector<Metric> m;
  AddHostLayers(ledger, traced, plain_s, m);
  AddSetupLayers(builds, m);
  AddSamplingLayers(&est, static_cast<double>(truth.exec_cycles), m);
  AddSimulatedLayers(est.est_stats, est.est_exec_cycles,
                     spec.preset.mem.hbm.geometry.channels, m);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadDef* def = FindWorkload(args.workload);
  if (def == nullptr) Usage("unknown workload " + args.workload);
  // Both switches change what a run simulates or how long it is; a result
  // taken under either is not comparable with any other.
  for (const char* var : {"REDCACHE_NO_SKIP", "REDCACHE_REFS_SCALE"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", var);
      return 2;
    }
  }
  const unsigned jobs = CpuCount();
  std::printf("env: nproc=%u build=%s compiler=%s workload=%s seed=%llu\n",
              jobs, PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, def->name,
              static_cast<unsigned long long>(args.seed));

  Ops ops;
  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = def->sampled ? PerLayerSampled(*def, args, jobs, ops)
                           : PerLayerDetailed(*def, args, ops);
  } else {
    metrics = def->sampled ? EndToEndSampled(*def, args, jobs, ops)
                           : EndToEndDetailed(*def, args, ops);
  }
  PrintResult(ops, metrics);
  return 0;
}
