// Epoch time-series sampling over StatSet counters.
//
// The simulator's counters are cumulative; the interesting behavior is
// dynamic (gamma adapting per hit, the alpha table warming up, the RCU
// queue draining). The EpochSampler snapshots a cumulative StatSet every N
// simulated cycles and records the per-epoch *increment* of every counter,
// giving hit/miss/bypass rates, per-channel utilization, bandwidth and
// flush-reason time series without touching the simulation itself.
//
// Counter names with the "gauge." prefix are point-in-time values (queue
// depths, the current gamma, alpha-table occupancy): they are recorded raw
// at the sample instant, not differenced. Everything else is recorded as a
// signed per-epoch delta (signed because a few legacy ExportStats names,
// e.g. ctrl.resident_lines, are gauges exported as counters and may move
// down).
//
// Interned epochs (DESIGN.md section 14): counter names are resolved to
// dense IDs once per run (an EpochLayout, filled as names first appear)
// and every per-epoch quantity is a flat array indexed by ID — the capture
// (StatSet::BeginCapture), the previous cumulative values and the record.
// A delta is one subtraction per ID; the writers emit precomputed, already
// escaped JSON key fragments in precomputed orders; names are looked up
// only by tests and tools.
//
// Invariant (tested): the per-epoch deltas of a counter sum exactly to its
// final cumulative value, because deltas telescope — regardless of epoch
// width, adaptive resizing, or an early (serve-mode EOF) residual epoch.
//
// Two optional attachments (DESIGN.md section 14):
//  - a TelemetrySink (obs/telemetry_sink.hpp): each record is serialized
//    as one NDJSON line and written the moment the epoch closes, so a
//    long-running serve simulation can be watched live;
//  - an AdaptiveEpochController (obs/adaptive_epoch.hpp): the sampling
//    period shrinks across detected phase changes and grows back when the
//    series is flat, clamped to a [min, max] band.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace redcache::obs {

class AdaptiveEpochController;
struct AdaptiveEpochConfig;
class TelemetrySink;

/// Prefix marking point-in-time values (recorded raw, never differenced).
inline constexpr const char* kGaugePrefix = "gauge.";

/// The run's counter IDs and everything the writers need per ID, derived
/// once when an ID first appears: whether it is a gauge, the key it is
/// written under (gauge prefix stripped), that key as an escaped JSON
/// fragment (`"key":`), the two emission orders, and the IDs the derived
/// metrics read. Append-only, like the IDs.
class EpochLayout {
 public:
  static constexpr std::uint32_t kNone = CounterIds::kNone;

  /// Extend the per-ID tables over every interned ID; re-sorts the
  /// emission orders only when IDs were added.
  void Sync();

  CounterIds& ids() { return ids_; }
  const CounterIds& ids() const { return ids_; }
  std::uint32_t size() const { return static_cast<std::uint32_t>(key_.size()); }
  bool gauge(std::uint32_t id) const { return gauge_[id] != 0; }
  const std::string& key(std::uint32_t id) const { return key_[id]; }
  const std::string& json_key(std::uint32_t id) const { return json_key_[id]; }
  /// IDs by key in byte order (NDJSON records) and in natural order
  /// (NaturalNameLess: the JSON and CSV writers).
  const std::vector<std::uint32_t>& byte_order() const { return byte_order_; }
  const std::vector<std::uint32_t>& natural_order() const {
    return natural_order_;
  }

  // Derived-metric inputs (kNone until the counter first appears).
  std::uint32_t hits = kNone;
  std::uint32_t misses = kNone;
  std::uint32_t alpha_bypasses = kNone;
  std::uint32_t refresh_bypasses = kNone;
  /// Counters named "*.bytes_transferred" (summed for bandwidth).
  std::vector<std::uint32_t> bytes_ids;

 private:
  CounterIds ids_;
  std::vector<std::uint8_t> gauge_;
  std::vector<std::string> key_;
  std::vector<std::string> json_key_;
  std::vector<std::uint32_t> byte_order_;
  std::vector<std::uint32_t> natural_order_;
};

struct EpochRecord {
  Cycle begin = 0;
  Cycle end = 0;
  /// By counter ID: a counter's per-epoch increment, a gauge's raw value
  /// at `end` (bit-cast). An ID belongs to the record only where `present`
  /// is set — a counter no layer exported this epoch is absent, not zero.
  /// Records made before an ID existed are shorter than the layout.
  std::vector<std::int64_t> values;
  std::vector<std::uint8_t> present;
  /// The sampler's layout (IDs to names); set on every record it makes.
  std::shared_ptr<const EpochLayout> layout;

  bool Has(std::uint32_t id) const {
    return id < present.size() && present[id] != 0;
  }
  /// Name lookups (tests, tools): counters by full name, gauges by name
  /// without the "gauge." prefix. Delta/Gauge throw std::out_of_range when
  /// the name is not in the record.
  bool HasDelta(const std::string& name) const;
  std::int64_t Delta(const std::string& name) const;
  bool HasGauge(const std::string& name) const;
  std::uint64_t Gauge(const std::string& name) const;
  /// Every counter delta in the record, by name.
  std::map<std::string, std::int64_t> Deltas() const;
};

/// Per-epoch derived metrics computed from delta+gauges. All rates are
/// guarded against empty epochs (0/0 -> 0). Shared by the JSON / CSV /
/// NDJSON writers and the adaptive epoch controller.
struct DerivedMetrics {
  double hit_rate = 0.0;
  double bypass_rate = 0.0;
  double bw_bytes_per_cycle = 0.0;
};
DerivedMetrics DeriveMetrics(const EpochRecord& e);

/// How a run's telemetry epochs are paced: a fixed period, or the adaptive
/// controller seeded from the base period. Parsed from the CLI `--epoch`
/// value ("N", "auto", or "auto:MIN:MAX").
struct EpochSpec {
  Cycle cycles = 0;  ///< base period; 0 = the preset default
  bool adaptive = false;
  Cycle min_cycles = 0;  ///< adaptive lower clamp; 0 = base / 8
  Cycle max_cycles = 0;  ///< adaptive upper clamp; 0 = base * 4
};

/// Parse "--epoch" syntax: "250000" (fixed), "auto" (adaptive with derived
/// clamps), "auto:MIN:MAX" (explicit clamp band). Returns false (out
/// untouched) on anything else.
bool ParseEpochSpec(const std::string& text, EpochSpec& out);

class EpochSampler {
 public:
  /// `epoch_cycles` >= 1: nominal sampling period in simulated CPU cycles.
  /// The event-paced run loop clamps its time jumps to next_due(), so when
  /// attached to System::Run every record covers exactly epoch_cycles
  /// (except the Finalize residual). Driven by other loops a boundary may
  /// still be overshot; the record then covers the actual [begin, end).
  explicit EpochSampler(Cycle epoch_cycles);
  ~EpochSampler();
  EpochSampler(const EpochSampler&) = delete;
  EpochSampler& operator=(const EpochSampler&) = delete;

  /// Current sampling period. Constant unless adaptation is enabled.
  Cycle epoch_cycles() const { return epoch_cycles_; }

  /// Enable variance-driven epoch resizing (DESIGN.md section 14). Must be
  /// called before the first Sample. With adaptation on, every record also
  /// carries a "telemetry.epoch_cycles" gauge (the width that produced it)
  /// so the narrowing is visible in the exported series; with it off the
  /// output is byte-identical to pre-adaptive builds.
  void EnableAdaptive(const AdaptiveEpochConfig& cfg);
  bool adaptive() const { return adaptive_ != nullptr; }
  const AdaptiveEpochController* adaptive_controller() const {
    return adaptive_.get();
  }

  /// Attach a streaming sink: every record is written as one NDJSON epoch
  /// line the moment it closes. With `retain_epochs` false only the most
  /// recent record is kept in memory (bounded for arbitrarily long serve
  /// runs); the end-of-run JSON/CSV writers then see just that record, so
  /// retention should stay on when both outputs are wanted. The sink is
  /// borrowed and must outlive the sampler's last Sample/Finalize.
  void SetSink(TelemetrySink* sink, bool retain_epochs);

  /// Cheap inline check for the run loop.
  bool Due(Cycle now) const { return now >= next_due_; }

  /// Next epoch boundary. The event loop clamps its time jumps to this so
  /// epochs stay exact under skip-ahead (a clamped visit samples and
  /// re-derives the same wake; it cannot perturb simulation state).
  Cycle next_due() const { return next_due_; }

  /// The run's counter IDs. System::Run captures each epoch's snapshot
  /// against them (StatSet::BeginCapture) so Sample reads flat arrays.
  CounterIds& counter_ids() { return layout_->ids(); }
  const EpochLayout& layout() const { return *layout_; }

  /// Seed the telescoping baseline after a checkpoint restore. Epoch
  /// accounting resumes at `at` (the restored cycle): the first epoch
  /// begins there instead of 0, and `cumulative` — the restored run's
  /// counters as of `at` — becomes the carried baseline, so the first
  /// epoch's deltas measure only post-restore progress. The telescoping
  /// invariant then reads: sum(deltas) + baseline == final totals, with
  /// the baseline published in the NDJSON header for validators
  /// (scripts/check_telemetry.py). Must be called before the first Sample.
  void SeedBaseline(Cycle at, const StatSet& cumulative);
  bool restored() const { return restored_; }
  Cycle restored_at() const { return restored_at_; }
  /// Pre-restore cumulative value of every non-gauge counter (empty unless
  /// SeedBaseline was called).
  const std::map<std::string, std::uint64_t>& baseline() const {
    return baseline_;
  }

  /// Record the epoch ending at `now` from the cumulative snapshot: a
  /// capture against counter_ids() (the run loop's path) or any plain
  /// StatSet, whose names are interned here first.
  void Sample(Cycle now, const StatSet& cumulative);

  /// Record the residual partial epoch at end of run (no-op if nothing
  /// moved and no time passed since the last sample).
  void Finalize(Cycle end, const StatSet& cumulative);

  /// Retained records (all of them, unless a sink disabled retention).
  const std::vector<EpochRecord>& epochs() const { return epochs_; }

  /// Records ever closed, including residuals and non-retained ones.
  std::uint64_t total_epochs() const { return total_epochs_; }

  /// Final cumulative value of every non-gauge counter seen so far — the
  /// telescoping target the NDJSON end record publishes for validators.
  /// By name, built on call.
  std::map<std::string, std::uint64_t> cumulative() const;
  /// The same, by ID (meaningful where counter_seen(id)).
  const std::vector<std::uint64_t>& cumulative_values() const { return prev_; }
  bool counter_seen(std::uint32_t id) const {
    return id < seen_.size() && seen_[id] != 0;
  }

  /// Narrowest / widest period actually used (equal unless adaptive).
  Cycle min_width_used() const { return min_width_used_; }
  Cycle max_width_used() const { return max_width_used_; }

 private:
  /// The snapshot as flat arrays by ID (a flag vector may be shorter than
  /// the layout): a capture against this sampler's IDs as is, any other
  /// StatSet interned into the scratch arrays first.
  struct FlatView {
    const std::vector<std::uint64_t>& values;
    const std::vector<std::uint8_t>& present;
    bool Has(std::uint32_t id) const {
      return id < present.size() && present[id] != 0;
    }
  };
  FlatView Flatten(const StatSet& cumulative);
  void Record(Cycle now, const StatSet& cumulative);

  Cycle epoch_cycles_;
  Cycle next_due_;
  Cycle last_sample_ = 0;
  bool restored_ = false;
  Cycle restored_at_ = 0;
  std::map<std::string, std::uint64_t> baseline_;
  Cycle min_width_used_;
  Cycle max_width_used_;
  bool retain_ = true;
  std::uint64_t total_epochs_ = 0;
  TelemetrySink* sink_ = nullptr;
  std::unique_ptr<AdaptiveEpochController> adaptive_;
  std::shared_ptr<EpochLayout> layout_;
  std::uint32_t width_id_ = EpochLayout::kNone;  ///< telemetry.epoch_cycles
  std::vector<std::uint64_t> prev_;  ///< by ID: last cumulative value
  std::vector<std::uint8_t> seen_;   ///< by ID: counter ever recorded
  std::vector<std::uint64_t> scratch_values_;
  std::vector<std::uint8_t> scratch_present_;
  std::string line_;  ///< NDJSON line buffer, reused every epoch
  std::vector<EpochRecord> epochs_;
};

/// Run identification embedded in the serialized artifacts.
struct TelemetryMeta {
  std::string arch;
  std::string workload;
  std::string preset;
  /// Resolved registry policy name (canonical casing); may differ from
  /// `arch` for extension controllers ("RedCache-4way") and aliases.
  std::string policy;
  /// Canonical mix descriptor (MixSpec::Describe) when a multi-tenant mix
  /// was active; empty for single-tenant runs.
  std::string mix;
  Cycle exec_cycles = 0;
};

/// Per-epoch derived metrics (computed by the writers from delta+gauges):
/// hit_rate, bypass_rate, aggregate bytes/cycle, plus any gauges present.
/// JSON layout:
///   { "meta": {...}, "epochs": [ {"begin":..,"end":..,"derived":{..},
///     "gauges":{..}, "delta":{..}}, ... ] }
/// Counter keys are emitted in natural (numeric-aware) name order.
bool WriteTelemetryJson(const std::string& path, const EpochSampler& sampler,
                        const TelemetryMeta& meta);
std::string TelemetryJson(const EpochSampler& sampler,
                          const TelemetryMeta& meta);

/// CSV: one row per epoch; columns are begin, end, the derived metrics,
/// then the union of gauge and delta names in natural order (missing
/// values are empty cells) — the exact key set the JSON writer emits.
/// Meta values containing commas/quotes/spaces are double-quote escaped.
bool WriteTelemetryCsv(const std::string& path, const EpochSampler& sampler,
                       const TelemetryMeta& meta);
std::string TelemetryCsv(const EpochSampler& sampler,
                         const TelemetryMeta& meta);

}  // namespace redcache::obs
