// redcache_cli — the swiss-army driver for one-off experiments.
//
//   redcache_cli --policy RedCache --workload LU
//   redcache_cli --policy Alloy --workload RDX --scale 0.5 --stats
//   redcache_cli --policy RedCache-4way --workload FT   # = --ways 4
//   redcache_cli --footprint --workload HIST
//   redcache_cli --capture lu.rctr --workload LU        # snapshot a trace
//   redcache_cli --policy Bear --replay lu.rctr         # replay it
//   redcache_cli --policy RedCache --workload LU
//       --telemetry t.json --trace t.perfetto.json      # observability
//   redcache_cli --sweep --jobs 4                       # full eval matrix
//   redcache_cli --sweep --policies Alloy,RedCache --workloads LU,RDX
//   redcache_cli --list                                 # policy names
//
// Policies are registry names (--list); --arch/--archs are aliases of
// --policy/--policies.
//
// Exit code 0 on success; prints a one-line summary plus optional full
// counter dump.
#include <signal.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "dramcache/footprint.hpp"
#include "dramcache/policy_registry.hpp"
#include "dramcache/redcache.hpp"
#include "obs/epoch_sampler.hpp"
#include "obs/telemetry_sink.hpp"
#include "obs/trace.hpp"
#include "obs/trace_spill.hpp"
#include "sim/batch.hpp"
#include "sim/sampling.hpp"
#include "tenant/mix_trace.hpp"
#include "tenant/qos.hpp"
#include "tenant/stream_trace.hpp"
#include "verify/shadow_checker.hpp"
#include "workloads/trace_file.hpp"

namespace {

using namespace redcache;

struct CliOptions {
  std::string arch = "RedCache";
  std::string workload = "LU";
  std::optional<std::string> replay_path;
  std::optional<std::string> capture_path;
  std::optional<std::string> telemetry_path;  ///< epoch series ("-" = stdout
                                              ///< NDJSON, .ndjson stream,
                                              ///< .csv, else JSON)
  std::optional<std::string> trace_out_path;  ///< Chrome trace-event JSON
  std::optional<std::string> report_path;     ///< --sweep batch report JSON
  obs::EpochSpec epoch;                       ///< --epoch N | auto[:MIN:MAX]
  std::size_t trace_window = 0;  ///< --trace ring capacity; spill the rest
  std::string telemetry_dir;     ///< --sweep per-cell NDJSON directory
  double scale = 1.0;
  bool paper_preset = false;
  bool dump_stats = false;
  bool list = false;
  std::uint32_t ways = 0;         ///< >1 selects an N-way RedCache
  bool footprint = false;         ///< coarse-grained baseline
  bool verify = false;            ///< shadow-check the run
  std::optional<std::uint64_t> hbm_mib;
  std::optional<std::uint32_t> alpha;
  std::optional<std::uint32_t> gamma;
  std::uint64_t seed = 1;
  std::string mix;                ///< --mix "LU:2,RDX:1@8" tenant list
  std::string mix_mode = "offset";  ///< address placement: offset|interleave
  std::uint32_t mix_window_bits = 0;  ///< 0 = planner default
  std::string serve_path;         ///< stream an RCTR trace ("-" = stdin)
  std::string checkpoint_path;    ///< --checkpoint blob destination
  Cycle checkpoint_at = 0;        ///< --checkpoint-at cycle (default 0)
  std::string restore_path;       ///< --restore blob to resume from
  std::string sample;             ///< --sample P[:INTERVAL] sampled run
  bool no_solo = false;           ///< skip the solo baselines for --mix QoS
  bool sweep = false;             ///< run a (policy x workload) matrix
  std::string sweep_archs;        ///< comma list; empty = evaluation set
  std::string sweep_workloads;    ///< comma list; empty = all Table II
  unsigned jobs = 0;              ///< worker threads for --sweep (0 = auto)
};

void PrintUsage() {
  std::printf(
      "usage: redcache_cli [options]\n"
      "  --policy NAME      registered cache policy (--list shows them;\n"
      "                     default RedCache). --arch is an alias.\n"
      "  --workload LABEL   Table II label (default LU)\n"
      "  --replay FILE      replay a captured trace instead of a workload\n"
      "  --capture FILE     write the workload's trace to FILE and exit\n"
      "  --telemetry FILE   write per-epoch time series. \"-\" streams NDJSON\n"
      "                     records to stdout as epochs close (live); .ndjson\n"
      "                     streams to a file/FIFO; .csv => CSV; else JSON\n"
      "  --trace FILE       write a Chrome trace-event JSON (Perfetto /\n"
      "                     chrome://tracing) of DRAM commands + decisions\n"
      "  --trace-window N   keep an N-event ring and spill older events to\n"
      "                     the --trace file incrementally: full-run traces\n"
      "                     in bounded memory (default: ring only, last 256K)\n"
      "  --epoch SPEC       telemetry epoch pacing: N cycles, \"auto\"\n"
      "                     (variance-driven, clamped to [preset/8, 4x]),\n"
      "                     or \"auto:MIN:MAX\" (explicit clamp band)\n"
      "  --scale X          workload scale factor (default 1.0)\n"
      "  --paper            use the verbatim Table I preset (2 GiB HBM)\n"
      "  --hbm-mib N        override HBM cache capacity\n"
      "  --ways N           N-way associative RedCache (extension)\n"
      "  --footprint        coarse-grained footprint-cache baseline\n"
      "  --alpha N          pin alpha (disables adaptation)\n"
      "  --gamma N          pin gamma (disables adaptation)\n"
      "  --seed N           simulation seed\n"
      "  --mix SPEC         co-schedule tenants: LABEL[:WEIGHT[@MIN_GAP]]\n"
      "                     comma-separated, e.g. LU:2,RDX:1@8. The label\n"
      "                     \"serve\" streams from --serve. Prints per-tenant\n"
      "                     QoS lines (hit rate, bandwidth share, slowdown\n"
      "                     vs solo) after the run.\n"
      "  --mix-mode M       tenant address placement: offset (disjoint\n"
      "                     windows, default) or interleave (page-granular)\n"
      "  --mix-window-bits N  override the per-tenant window size (log2)\n"
      "  --no-solo          skip the solo baseline runs (QoS lines then\n"
      "                     omit the slowdown column)\n"
      "  --serve PATH       serve mode: ingest an RCTR trace stream from a\n"
      "                     pipe / FIFO / file (\"-\" = stdin); SIGTERM or\n"
      "                     EOF drains gracefully\n"
      "  --checkpoint FILE  write a full-state checkpoint blob to FILE\n"
      "  --checkpoint-at N  cycle for --checkpoint (default 0 = run start)\n"
      "  --restore FILE     resume from a checkpoint blob captured by a run\n"
      "                     with the same policy/workload/preset/seed;\n"
      "                     the resumed run is bit-identical to the\n"
      "                     uninterrupted one\n"
      "  --sample P[:INT]   SMARTS sampled run: fast-forward functionally,\n"
      "                     replay a fraction P of cycles in detail in\n"
      "                     parallel (interval INT cycles, default 200000)\n"
      "                     and report estimates with a 95%% CI\n"
      "  --verify           run under the shadow checker; exit 1 on any\n"
      "                     divergence from the reference memory model\n"
      "  --stats            dump every counter after the run\n"
      "  --sweep            run an (arch x workload) matrix on a worker pool\n"
      "  --report FILE      write a host-side profiling report of --sweep\n"
      "                     (per-cell wall time, cache layer, phases,\n"
      "                     per-cell telemetry paths + epoch counts)\n"
      "  --telemetry-dir D  with --sweep: stream each simulated cell's\n"
      "                     NDJSON series to D/<cell-key>.ndjson\n"
      "  --policies A,B,..  policies for --sweep (default: every policy\n"
      "                     registered with sweep=true). --archs is an alias.\n"
      "  --workloads X,Y,.. workloads for --sweep (default: all Table II)\n"
      "  --jobs N           worker threads for --sweep (default: \n"
      "                     REDCACHE_JOBS, then hardware concurrency)\n"
      "  --list             list registered policies and workloads\n");
}

bool ParseArgs(int argc, char** argv, CliOptions& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--policy" || arg == "--arch") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.arch = v;
    } else if (arg == "--workload") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.workload = v;
    } else if (arg == "--replay") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.replay_path = v;
    } else if (arg == "--telemetry") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.telemetry_path = v;
    } else if (arg == "--trace") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.trace_out_path = v;
    } else if (arg == "--report") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.report_path = v;
    } else if (arg == "--epoch") {
      const char* v = value();
      if (v == nullptr) return false;
      if (!obs::ParseEpochSpec(v, opt.epoch)) {
        std::fprintf(stderr,
                     "bad --epoch %s (want N, auto, or auto:MIN:MAX)\n", v);
        return false;
      }
    } else if (arg == "--trace-window") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.trace_window = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
      if (opt.trace_window == 0) {
        std::fprintf(stderr, "bad --trace-window %s (want N >= 1)\n", v);
        return false;
      }
    } else if (arg == "--telemetry-dir") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.telemetry_dir = v;
    } else if (arg == "--capture") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.capture_path = v;
    } else if (arg == "--scale") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.scale = std::atof(v);
    } else if (arg == "--paper") {
      opt.paper_preset = true;
    } else if (arg == "--hbm-mib") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.hbm_mib = std::strtoull(v, nullptr, 10);
    } else if (arg == "--ways") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.ways = static_cast<std::uint32_t>(std::atoi(v));
    } else if (arg == "--footprint") {
      opt.footprint = true;
    } else if (arg == "--alpha") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.alpha = static_cast<std::uint32_t>(std::atoi(v));
    } else if (arg == "--gamma") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.gamma = static_cast<std::uint32_t>(std::atoi(v));
    } else if (arg == "--seed") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--mix") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.mix = v;
    } else if (arg == "--mix-mode") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.mix_mode = v;
    } else if (arg == "--mix-window-bits") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.mix_window_bits = static_cast<std::uint32_t>(std::atoi(v));
    } else if (arg == "--no-solo") {
      opt.no_solo = true;
    } else if (arg == "--serve") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.serve_path = v;
    } else if (arg == "--checkpoint") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.checkpoint_path = v;
    } else if (arg == "--checkpoint-at") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.checkpoint_at = std::strtoull(v, nullptr, 10);
    } else if (arg == "--restore") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.restore_path = v;
    } else if (arg == "--sample") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.sample = v;
    } else if (arg == "--verify") {
      opt.verify = true;
    } else if (arg == "--sweep") {
      opt.sweep = true;
    } else if (arg == "--policies" || arg == "--archs") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.sweep_archs = v;
    } else if (arg == "--workloads") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.sweep_workloads = v;
    } else if (arg == "--jobs") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.jobs = static_cast<unsigned>(std::atoi(v));
    } else if (arg == "--stats") {
      opt.dump_stats = true;
    } else if (arg == "--list") {
      opt.list = true;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

RedCacheOptions TunedOptions(const CliOptions& opt) {
  RedCacheOptions o = RedCacheOptions::Full();
  if (opt.alpha) {
    o.alpha.initial_alpha = *opt.alpha;
    o.alpha.min_alpha = *opt.alpha;
    o.alpha.max_alpha = *opt.alpha;
    o.alpha.adaptive = false;
  }
  if (opt.gamma) {
    o.gamma.initial_gamma = *opt.gamma;
    o.gamma.min_gamma = *opt.gamma;
    o.gamma.max_gamma = *opt.gamma;
  }
  return o;
}

/// Where human-readable run output goes: stderr when `--telemetry -` owns
/// stdout for the NDJSON stream, stdout otherwise.
FILE* HumanOut(const CliOptions& opt) {
  return opt.telemetry_path && *opt.telemetry_path == "-" ? stderr : stdout;
}

/// Canonical registry casing for `name`; extension labels (RedCache-4way,
/// footprint-2KB) pass through unchanged.
std::string CanonicalPolicy(const std::string& name) {
  return PolicyRegistry::Instance().Has(name)
             ? PolicyRegistry::Instance().Get(name).name
             : name;
}

/// Close the run's telemetry session (end record for streams, file write
/// otherwise) and print the one-line summary. Shared by both run paths.
bool FinishTelemetry(obs::TelemetrySession& session, obs::TelemetryMeta meta,
                     Cycle exec_cycles, FILE* out) {
  meta.exec_cycles = exec_cycles;
  if (!session.Close(meta)) {
    std::fprintf(stderr, "failed to write telemetry to %s\n",
                 session.path().c_str());
    return false;
  }
  std::fprintf(out, "telemetry: %s\n", session.Summary().c_str());
  return true;
}

/// Write the command trace: via the spill writer's Finish (windowed mode,
/// file already holds the spilled prefix) or the whole-buffer writer.
bool FinishTrace(const CliOptions& opt, obs::TraceBuffer& ring,
                 obs::TraceSpillWriter* spill, FILE* out) {
  const std::string& path = *opt.trace_out_path;
  if (spill != nullptr) {
    const std::uint64_t spilled = spill->spilled();
    if (!spill->Finish(ring)) {
      std::fprintf(stderr, "failed to write trace to %s\n", path.c_str());
      return false;
    }
    std::fprintf(out,
                 "trace: %llu events (%llu spilled, window %zu, 0 dropped) "
                 "-> %s (load in Perfetto / chrome://tracing)\n",
                 static_cast<unsigned long long>(ring.emitted()),
                 static_cast<unsigned long long>(spilled), ring.capacity(),
                 path.c_str());
    return true;
  }
  if (!obs::WriteChromeTrace(path, ring)) {
    std::fprintf(stderr, "failed to write trace to %s\n", path.c_str());
    return false;
  }
  std::fprintf(out,
               "trace: %llu events (%llu dropped, ring %zu) -> %s "
               "(load in Perfetto / chrome://tracing)\n",
               static_cast<unsigned long long>(ring.emitted()),
               static_cast<unsigned long long>(ring.dropped()),
               ring.capacity(), path.c_str());
  return true;
}

std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : list) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

/// Parse --mix/--mix-mode/--mix-window-bits into `mix`. Returns 0, or 2 on
/// a bad mode (MixSpec::Parse throws its own error for bad tenant syntax).
int ParseMixOptions(const CliOptions& opt, tenant::MixSpec& mix) {
  mix = tenant::MixSpec::Parse(opt.mix);
  if (opt.mix_mode == "interleave") {
    mix.mode = tenant::TenantAddressMap::Mode::kInterleave;
  } else if (opt.mix_mode != "offset") {
    std::fprintf(stderr, "unknown --mix-mode %s (offset|interleave)\n",
                 opt.mix_mode.c_str());
    return 2;
  }
  mix.window_bits = opt.mix_window_bits;
  return 0;
}

/// "LU+RDX" — human-readable tenant list for cache keys and table rows.
std::string JoinedTenantLabels(const tenant::MixSpec& mix) {
  std::string joined;
  for (const tenant::TenantSpec& t : mix.tenants) {
    if (!joined.empty()) joined += "+";
    joined += t.workload;
  }
  return joined;
}

/// --sweep: the (policy x workload) evaluation matrix on the batch engine.
/// Cells go through the fingerprinted cache when REDCACHE_CACHE_DIR is set.
/// Default sweep columns: the paper's seven evaluation policies in their
/// canonical order, then every other registry policy with sweep=true
/// (rival families like Banshee and TicToc) in registry order.
std::vector<std::string> DefaultSweepPolicies() {
  std::vector<std::string> policies = EvaluationPolicies();
  for (const std::string& name : PolicyRegistry::Instance().SweepNames()) {
    if (std::find(policies.begin(), policies.end(), name) == policies.end()) {
      policies.push_back(name);
    }
  }
  return policies;
}

int RunSweep(const CliOptions& opt) {
  const SimPreset preset = opt.paper_preset ? PaperPreset() : EvalPreset();
  std::vector<std::string> policies;
  if (opt.sweep_archs.empty()) {
    policies = DefaultSweepPolicies();
  } else {
    for (const std::string& name : SplitCommas(opt.sweep_archs)) {
      PolicyRegistry::Instance().Get(name);  // fail fast with the full list
      policies.push_back(name);
    }
  }
  // With --mix the matrix is (policy x one mix cell): every policy runs the
  // same co-schedule, plus each tenant's solo cell for the slowdown column.
  tenant::MixSpec mix;
  if (!opt.mix.empty()) {
    if (const int rc = ParseMixOptions(opt, mix); rc != 0) return rc;
  }
  const std::vector<std::string> workloads =
      mix.active() ? std::vector<std::string>{"mix:" + mix.Describe()}
      : opt.sweep_workloads.empty() ? WorkloadLabels()
                                    : SplitCommas(opt.sweep_workloads);

  std::vector<CellSpec> cells;
  cells.reserve(policies.size() * workloads.size());
  for (const std::string& wl : workloads) {
    for (const std::string& p : policies) {
      CellSpec cell;
      cell.spec.policy = p;
      cell.spec.workload = mix.active() ? JoinedTenantLabels(mix) : wl;
      cell.spec.scale = opt.scale;
      cell.spec.preset = preset;
      cell.spec.seed = opt.seed;
      cell.spec.mix = mix;
      cells.push_back(std::move(cell));
    }
  }
  const std::size_t num_mix_cells = cells.size();
  if (mix.active() && !opt.no_solo) {
    for (const std::string& p : policies) {
      for (const tenant::TenantSpec& t : mix.tenants) {
        CellSpec solo;
        solo.spec.policy = p;
        solo.spec.workload = t.workload;
        solo.spec.scale = opt.scale;
        solo.spec.preset = preset;
        solo.spec.seed = opt.seed;
        cells.push_back(std::move(solo));
      }
    }
  }

  BatchOptions bopts;
  bopts.jobs = opt.jobs;
  bopts.label = "sweep";
  bopts.telemetry_dir = opt.telemetry_dir;
  bopts.epoch = opt.epoch;
  BatchReport report;
  if (opt.report_path || !opt.telemetry_dir.empty()) bopts.report = &report;
  const std::vector<RunResult> results = RunCells(cells, bopts);
  if (!opt.telemetry_dir.empty()) {
    std::size_t streamed = 0;
    std::uint64_t epochs = 0;
    for (const CellProfile& c : report.cells) {
      if (c.telemetry_path.empty()) continue;
      streamed++;
      epochs += c.telemetry_epochs;
    }
    std::printf("telemetry: %zu/%zu cells streamed %llu epochs -> %s/ "
                "(cache hits carry no telemetry)\n",
                streamed, report.cells.size(),
                static_cast<unsigned long long>(epochs),
                opt.telemetry_dir.c_str());
  }
  if (opt.report_path) {
    if (!WriteBatchReportJson(*opt.report_path, report)) {
      std::fprintf(stderr, "failed to write report to %s\n",
                   opt.report_path->c_str());
      return 1;
    }
    std::printf("batch report written to %s\n", opt.report_path->c_str());
  }

  std::vector<std::string> header = {"workload"};
  for (const std::string& p : policies) header.push_back(p);
  TextTable table(header);
  std::size_t idx = 0;
  for (const std::string& wl : workloads) {
    std::vector<std::string> row = {wl};
    for (std::size_t a = 0; a < policies.size(); ++a) {
      row.push_back(TextTable::Num(
          static_cast<double>(results[idx++].exec_cycles) / 1e6, 1));
    }
    table.AddRow(std::move(row));
  }
  std::printf("execution time (Mcycles), %s preset, scale %.2f:\n%s\n",
              preset.name, opt.scale, table.Render().c_str());

  // Per-tenant QoS under every policy — printed only for a mix sweep;
  // classic sweeps emit exactly the table above, as before.
  if (mix.active()) {
    for (std::size_t p = 0; p < policies.size(); ++p) {
      std::vector<tenant::TenantQos> rows =
          tenant::QosFromStats(results[p].stats);
      if (!opt.no_solo) {
        for (std::size_t t = 0; t < mix.tenants.size(); ++t) {
          const RunResult& solo =
              results[num_mix_cells + p * mix.tenants.size() + t];
          tenant::ApplySoloBaseline(rows, static_cast<std::uint32_t>(t),
                                    solo.exec_cycles);
        }
      }
      std::printf("%s:\n", policies[p].c_str());
      for (const tenant::TenantQos& row : rows) {
        const std::string label = row.tenant < mix.tenants.size()
                                      ? mix.tenants[row.tenant].workload
                                      : "?";
        std::printf("  %s\n",
                    tenant::FormatQosLine(rows, row, label).c_str());
      }
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// --mix / --serve: co-scheduled tenants and long-run trace streaming.

volatile std::sig_atomic_t g_serve_stop = 0;

void OnServeStop(int) { g_serve_stop = 1; }

/// SIGTERM/SIGINT request a graceful drain: the handler only sets the flag,
/// and SA_RESTART is deliberately absent so a blocked stream read() returns
/// EINTR and notices the request instead of resuming forever.
void InstallServeSignalHandlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = OnServeStop;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

/// The StreamTraceSource feeding this run, if any: the trace itself in
/// plain serve mode, or the "serve" tenant inside a mix.
tenant::StreamTraceSource* FindStream(TraceSource& trace) {
  if (auto* s = dynamic_cast<tenant::StreamTraceSource*>(&trace)) return s;
  if (auto* m = dynamic_cast<tenant::MixTraceSource*>(&trace)) {
    for (std::size_t t = 0; t < m->num_children(); ++t) {
      if (auto* s = FindStream(m->child(t))) return s;
    }
  }
  return nullptr;
}

int RunMixServe(const CliOptions& opt) {
  if (opt.capture_path || opt.replay_path || opt.footprint || opt.ways > 1) {
    std::fprintf(stderr,
                 "--mix/--serve cannot be combined with --capture, --replay, "
                 "--footprint or --ways\n");
    return 2;
  }
  SimPreset preset = opt.paper_preset ? PaperPreset() : EvalPreset();
  if (opt.hbm_mib) preset.mem.hbm = HbmCacheConfig(*opt.hbm_mib << 20);

  RunSpec spec;
  spec.policy = opt.arch;
  spec.preset = preset;
  spec.scale = opt.scale;
  spec.seed = opt.seed;
  spec.verify = opt.verify;
  spec.serve_path = opt.serve_path;
  if (!opt.mix.empty()) {
    if (const int rc = ParseMixOptions(opt, spec.mix); rc != 0) return rc;
  }

  // Solo baselines for the slowdown column: each workload tenant first runs
  // alone (through the batch cache, so repeated invocations are free under
  // REDCACHE_CACHE_DIR). A streamed "serve" tenant has no synthetic solo
  // run; its slowdown stays unreported.
  if (spec.mix.active() && !opt.no_solo) {
    for (tenant::TenantSpec& t : spec.mix.tenants) {
      if (t.workload == "serve") continue;
      CellSpec solo;
      solo.spec.policy = spec.policy;
      solo.spec.workload = t.workload;
      solo.spec.preset = preset;
      solo.spec.scale = opt.scale;
      solo.spec.seed = opt.seed;
      const RunResult r = RunCellCached(solo);
      t.solo_exec_cycles = r.exec_cycles;
      t.solo_refs = r.stats.GetCounter("core.refs");
    }
  }

  auto system = BuildSystem(spec);
  FILE* out = HumanOut(opt);

  // Observability: live telemetry stream and/or (windowed) command trace —
  // a long serve run traces end-to-end through --trace-window in bounded
  // memory exactly like a single-shot run.
  std::unique_ptr<obs::TelemetrySession> telemetry;
  obs::TelemetryMeta meta = TelemetryMetaOf(spec);
  const std::string workload_label = system->trace().name();
  meta.workload = workload_label;
  if (opt.telemetry_path) {
    telemetry = std::make_unique<obs::TelemetrySession>(
        *opt.telemetry_path, opt.epoch, preset.telemetry_epoch_cycles);
    system->SetTelemetry(&telemetry->sampler());
    telemetry->Begin(meta);
  }
  obs::TraceBuffer trace_buffer(opt.trace_window != 0
                                    ? opt.trace_window
                                    : obs::TraceBuffer::kDefaultCapacity);
  std::unique_ptr<obs::TraceSpillWriter> spill;
  std::optional<obs::TraceScope> trace_scope;
  if (opt.trace_out_path) {
    if (opt.trace_window != 0) {
      spill = std::make_unique<obs::TraceSpillWriter>(*opt.trace_out_path);
      if (!spill->ok()) {
        std::fprintf(stderr, "cannot open trace file %s\n",
                     opt.trace_out_path->c_str());
        return 1;
      }
      trace_buffer.SetSpill(spill.get());
    }
    trace_scope.emplace(&trace_buffer);
  }

  tenant::StreamTraceSource* stream = FindStream(system->trace());
  if (stream != nullptr) {
    InstallServeSignalHandlers();
    stream->SetStopFlag(&g_serve_stop);
  }

  const RunResult r = system->Run();
  trace_scope.reset();

  if (!r.completed) {
    std::fprintf(stderr, "simulation did not complete\n");
    return 1;
  }
  if (spec.verify) {
    if (auto* checker = dynamic_cast<ShadowChecker*>(&system->controller())) {
      checker->CheckDrained();
      std::fprintf(out, "%s\n", checker->Summary().c_str());
    }
  }
  if (stream != nullptr) {
    std::fprintf(out, "stream: %llu records ingested%s\n",
                 static_cast<unsigned long long>(stream->total_records()),
                 g_serve_stop != 0 ? " (stopped by signal, drained)" : "");
  }

  const auto hits = r.stats.GetCounter("ctrl.cache_hits");
  const auto misses = r.stats.GetCounter("ctrl.cache_misses");
  std::fprintf(
      out,
      "%s on %s: %llu cycles (%.2f ms @3.2GHz), hit rate %.1f%%, "
      "HBM %.3f GB, DDR4 %.3f GB, system energy %.2f mJ\n",
      opt.arch.c_str(), workload_label.c_str(),
      static_cast<unsigned long long>(r.exec_cycles),
      static_cast<double>(r.exec_cycles) / 3.2e9 * 1e3,
      hits + misses == 0
          ? 0.0
          : 100.0 * static_cast<double>(hits) /
                static_cast<double>(hits + misses),
      static_cast<double>(r.HbmBytes()) / 1e9,
      static_cast<double>(r.MmBytes()) / 1e9, r.energy.SystemNj() / 1e6);

  // Per-tenant QoS: only a mix prints these (plain --serve runs stay
  // single-tenant and export no tenant counters at all).
  if (spec.mix.active()) {
    std::vector<tenant::TenantQos> rows = tenant::QosFromStats(r.stats);
    for (std::uint32_t t = 0; t < spec.mix.num_tenants(); ++t) {
      tenant::ApplySoloBaseline(rows, t, spec.mix.tenants[t].solo_exec_cycles);
    }
    for (const tenant::TenantQos& row : rows) {
      const std::string label = row.tenant < spec.mix.num_tenants()
                                    ? spec.mix.tenants[row.tenant].workload
                                    : "?";
      std::fprintf(out, "%s\n",
                   tenant::FormatQosLine(rows, row, label).c_str());
    }
  }

  if (telemetry != nullptr &&
      !FinishTelemetry(*telemetry, meta, r.exec_cycles, out)) {
    return 1;
  }
  if (opt.trace_out_path &&
      !FinishTrace(opt, trace_buffer, spill.get(), out)) {
    return 1;
  }
  if (opt.dump_stats) {
    std::fprintf(out, "%s", r.stats.ToString().c_str());
  }
  return 0;
}

/// --checkpoint / --restore / --sample: runs driven through RunSpec, so
/// the blob's compatibility key covers exactly the inputs that shape
/// results. Mixes are allowed (the blob captures tenant state); the
/// trace/extension flags that bypass the policy registry are not.
int RunSpecMode(const CliOptions& opt) {
  if (opt.capture_path || opt.replay_path || opt.footprint || opt.ways > 1 ||
      opt.alpha || opt.gamma || !opt.serve_path.empty() ||
      opt.trace_out_path) {
    std::fprintf(stderr,
                 "--checkpoint/--restore/--sample cannot be combined with "
                 "--capture, --replay, --footprint, --ways, --alpha, "
                 "--gamma, --serve or --trace\n");
    return 2;
  }
  SimPreset preset = opt.paper_preset ? PaperPreset() : EvalPreset();
  if (opt.hbm_mib) preset.mem.hbm = HbmCacheConfig(*opt.hbm_mib << 20);

  RunSpec spec;
  spec.policy = opt.arch;
  spec.workload = opt.workload;
  spec.preset = preset;
  spec.scale = opt.scale;
  spec.seed = opt.seed;
  spec.verify = opt.verify;
  if (!opt.mix.empty()) {
    if (const int rc = ParseMixOptions(opt, spec.mix); rc != 0) return rc;
  }
  if (opt.telemetry_path) spec.telemetry_path = *opt.telemetry_path;
  spec.epoch = opt.epoch;
  spec.checkpoint_path = opt.checkpoint_path;
  spec.checkpoint_at = opt.checkpoint_at;
  spec.restore_path = opt.restore_path;
  FILE* out = HumanOut(opt);

  if (!opt.sample.empty()) {
    if (!opt.checkpoint_path.empty() || !opt.restore_path.empty()) {
      std::fprintf(stderr,
                   "--sample manages its own checkpoints; drop "
                   "--checkpoint/--restore\n");
      return 2;
    }
    SamplingOptions sopts;
    sopts.jobs = opt.jobs;
    char* rest = nullptr;
    sopts.fraction = std::strtod(opt.sample.c_str(), &rest);
    if (rest != nullptr && *rest == ':') {
      sopts.interval_cycles = std::strtoull(rest + 1, nullptr, 10);
    }
    const SamplingEstimate est = RunSampled(spec, sopts);
    if (est.degenerate) {
      std::fprintf(out,
                   "sampling degenerated to one full detailed run (run "
                   "shorter than the first measurement interval)\n");
    }
    std::fprintf(
        out,
        "%s on %s (sampled %.1f%%): est %.0f cycles +/- %.0f "
        "(95%% CI, +/-%.2f%%), %llu intervals, %llu refs\n",
        opt.arch.c_str(), opt.workload.c_str(), sopts.fraction * 100.0,
        est.est_exec_cycles, est.ci_half_cycles, est.ci_pct,
        static_cast<unsigned long long>(est.intervals),
        static_cast<unsigned long long>(est.total_refs));
    std::fprintf(out,
                 "sampling passes: functional %.2fs + parallel replay "
                 "%.2fs\n",
                 est.functional_seconds, est.replay_seconds);
    if (opt.report_path) {
      BatchReport report;
      report.label = "sample";
      report.jobs = sopts.jobs;
      report.wall_seconds = est.functional_seconds + est.replay_seconds;
      CellProfile prof;
      prof.key = CellKey(CellSpec{spec, ""});
      prof.arch = opt.arch;
      prof.workload = opt.workload;
      prof.wall_seconds = report.wall_seconds;
      prof.sim_seconds = report.wall_seconds;
      prof.exec_cycles = est.est_stats.GetCounter("sys.exec_cycles");
      prof.sampled = true;
      prof.sampling_intervals = est.intervals;
      prof.sampling_ci_pct = est.ci_pct;
      report.cells.push_back(prof);
      if (!WriteBatchReportJson(*opt.report_path, report)) {
        std::fprintf(stderr, "cannot write report to %s\n",
                     opt.report_path->c_str());
        return 1;
      }
    }
    if (opt.dump_stats) {
      std::fprintf(out, "%s", est.est_stats.ToString().c_str());
    }
    return 0;
  }

  const RunResult r = RunOne(spec);
  if (!r.completed) {
    std::fprintf(stderr, "simulation did not complete\n");
    return 1;
  }
  if (!opt.checkpoint_path.empty() && opt.checkpoint_at >= r.exec_cycles) {
    std::fprintf(stderr,
                 "warning: --checkpoint-at %llu is past the end of the run "
                 "(%llu cycles); no checkpoint was written\n",
                 static_cast<unsigned long long>(opt.checkpoint_at),
                 static_cast<unsigned long long>(r.exec_cycles));
  }
  const auto hits = r.stats.GetCounter("ctrl.cache_hits");
  const auto misses = r.stats.GetCounter("ctrl.cache_misses");
  std::fprintf(
      out,
      "%s on %s: %llu cycles (%.2f ms @3.2GHz), hit rate %.1f%%, "
      "HBM %.3f GB, DDR4 %.3f GB, system energy %.2f mJ\n",
      opt.arch.c_str(), opt.workload.c_str(),
      static_cast<unsigned long long>(r.exec_cycles),
      static_cast<double>(r.exec_cycles) / 3.2e9 * 1e3,
      hits + misses == 0
          ? 0.0
          : 100.0 * static_cast<double>(hits) /
                static_cast<double>(hits + misses),
      static_cast<double>(r.HbmBytes()) / 1e9,
      static_cast<double>(r.MmBytes()) / 1e9, r.energy.SystemNj() / 1e6);
  if (opt.dump_stats) {
    std::fprintf(out, "%s", r.stats.ToString().c_str());
  }
  return 0;
}

int Run(const CliOptions& opt) {
  SimPreset preset = opt.paper_preset ? PaperPreset() : EvalPreset();
  if (opt.hbm_mib) {
    preset.mem.hbm = HbmCacheConfig(*opt.hbm_mib << 20);
  }

  // Trace source: captured file or synthetic workload.
  std::unique_ptr<TraceSource> trace;
  if (opt.replay_path) {
    trace = std::make_unique<FileTraceSource>(*opt.replay_path);
  } else {
    WorkloadBuildParams wp;
    wp.num_cores = preset.hierarchy.num_cores;
    wp.scale = EffectiveScale(opt.scale);
    trace = MakeWorkload(opt.workload, wp);
  }

  if (opt.capture_path) {
    TraceFileWriter writer(*opt.capture_path, trace->num_cores());
    writer.CaptureAll(*trace);
    writer.Flush();
    std::printf("captured %llu records to %s\n",
                static_cast<unsigned long long>(writer.records_written()),
                opt.capture_path->c_str());
    return 0;
  }

  // Controller: extension flags first, then the standard registry.
  std::unique_ptr<MemController> ctrl;
  std::string arch_label = opt.arch;
  std::string display;  // outlives `system`, which owns the controller
  if (opt.footprint) {
    ctrl = std::make_unique<FootprintCacheController>(preset.mem);
    arch_label = "footprint-2KB";
  } else if (opt.ways > 1 || opt.alpha || opt.gamma) {
    // --ways N with default tuning builds exactly the RedCache-Nway policy.
    const std::uint32_t ways = std::max<std::uint32_t>(opt.ways, 1);
    const std::string suffix =
        ways > 1 ? std::to_string(ways) + "way" : std::string("pinned");
    arch_label = "RedCache-" + suffix;
    display = "redcache-" + suffix;
    ctrl = std::make_unique<RedCacheController>(
        preset.mem, TunedOptions(opt), ways, display.c_str());
  } else {
    // Unknown names fail here with a message listing every registered
    // policy (see PolicyRegistry::Get).
    ctrl = MakePolicy(opt.arch, preset.mem);
  }

  ShadowChecker* shadow = nullptr;
  if (opt.verify) {
    auto checked = std::make_unique<ShadowChecker>(std::move(ctrl));
    shadow = checked.get();
    ctrl = std::move(checked);
  }

  System system(preset.hierarchy, preset.core, std::move(ctrl),
                std::move(trace), opt.seed);
  FILE* out = HumanOut(opt);

  // Observability: epoch sampler and/or command trace, both opt-in and
  // inert (single branch per probe) when the flags are absent.
  std::unique_ptr<obs::TelemetrySession> telemetry;
  obs::TelemetryMeta meta;
  if (opt.telemetry_path) {
    meta.arch = arch_label;
    meta.workload = opt.replay_path ? *opt.replay_path : opt.workload;
    meta.preset = preset.name;
    meta.policy = CanonicalPolicy(arch_label);
    telemetry = std::make_unique<obs::TelemetrySession>(
        *opt.telemetry_path, opt.epoch, preset.telemetry_epoch_cycles);
    system.SetTelemetry(&telemetry->sampler());
    telemetry->Begin(meta);
  }
  obs::TraceBuffer trace_buffer(opt.trace_window != 0
                                    ? opt.trace_window
                                    : obs::TraceBuffer::kDefaultCapacity);
  std::unique_ptr<obs::TraceSpillWriter> spill;
  std::optional<obs::TraceScope> trace_scope;
  if (opt.trace_out_path) {
    if (opt.trace_window != 0) {
      spill = std::make_unique<obs::TraceSpillWriter>(*opt.trace_out_path);
      if (!spill->ok()) {
        std::fprintf(stderr, "cannot open trace file %s\n",
                     opt.trace_out_path->c_str());
        return 1;
      }
      trace_buffer.SetSpill(spill.get());
    }
    trace_scope.emplace(&trace_buffer);
  }

  const RunResult r = system.Run();
  trace_scope.reset();

  if (telemetry != nullptr &&
      !FinishTelemetry(*telemetry, meta, r.exec_cycles, out)) {
    return 1;
  }
  if (opt.trace_out_path &&
      !FinishTrace(opt, trace_buffer, spill.get(), out)) {
    return 1;
  }
  if (!r.completed) {
    std::fprintf(stderr, "simulation did not complete\n");
    return 1;
  }
  if (shadow != nullptr) {
    shadow->CheckDrained();
    std::fprintf(out, "%s\n", shadow->Summary().c_str());
    if (shadow->divergence_count() != 0) {
      for (const std::string& msg : shadow->divergence_messages()) {
        std::fprintf(stderr, "divergence: %s\n", msg.c_str());
      }
      return 1;
    }
  }

  const auto hits = r.stats.GetCounter("ctrl.cache_hits");
  const auto misses = r.stats.GetCounter("ctrl.cache_misses");
  std::fprintf(
      out,
      "%s on %s: %llu cycles (%.2f ms @3.2GHz), hit rate %.1f%%, "
      "HBM %.3f GB, DDR4 %.3f GB, system energy %.2f mJ\n",
      arch_label.c_str(),
      opt.replay_path ? opt.replay_path->c_str() : opt.workload.c_str(),
      static_cast<unsigned long long>(r.exec_cycles),
      static_cast<double>(r.exec_cycles) / 3.2e9 * 1e3,
      hits + misses == 0
          ? 0.0
          : 100.0 * static_cast<double>(hits) /
                static_cast<double>(hits + misses),
      static_cast<double>(r.HbmBytes()) / 1e9,
      static_cast<double>(r.MmBytes()) / 1e9, r.energy.SystemNj() / 1e6);
  const std::uint64_t span = r.ticks_executed + r.cycles_skipped;
  std::fprintf(out,
               "event loop: %llu ticks executed, %llu cycles skipped "
               "(%.1f%%)\n",
               static_cast<unsigned long long>(r.ticks_executed),
               static_cast<unsigned long long>(r.cycles_skipped),
               span == 0 ? 0.0
                         : 100.0 * static_cast<double>(r.cycles_skipped) /
                               static_cast<double>(span));

  if (opt.dump_stats) {
    std::fprintf(out, "%s", r.stats.ToString().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  if (!ParseArgs(argc, argv, opt)) {
    PrintUsage();
    return 2;
  }
  if (opt.list) {
    std::printf("registered policies:\n");
    TextTable table({"name", "family", "diff", "golden", "sweep", "summary"});
    for (const PolicyInfo& info : PolicyRegistry::Instance().Infos()) {
      table.AddRow({info.name, info.family, info.differential ? "y" : "-",
                    info.golden ? "y" : "-", info.sweep ? "y" : "-",
                    info.summary});
    }
    std::printf("%s", table.Render().c_str());
    std::printf("workloads:");
    for (const std::string& wl : WorkloadLabels()) {
      std::printf(" %s", wl.c_str());
    }
    std::printf("\nextensions: --ways N (N-way RedCache), "
                "--footprint (coarse-grained baseline)\n");
    return 0;
  }
  try {
    if (opt.sweep) return RunSweep(opt);
    if (!opt.checkpoint_path.empty() || !opt.restore_path.empty() ||
        !opt.sample.empty()) {
      return RunSpecMode(opt);
    }
    if (!opt.mix.empty() || !opt.serve_path.empty()) return RunMixServe(opt);
    return Run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
