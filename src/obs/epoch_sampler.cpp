#include "obs/epoch_sampler.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/adaptive_epoch.hpp"
#include "obs/json.hpp"
#include "obs/telemetry_sink.hpp"

namespace redcache::obs {

namespace {

bool IsGauge(const std::string& name) {
  return name.rfind(kGaugePrefix, 0) == 0;
}

bool EndsWith(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() > n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Printed with enough digits to round-trip; trailing-zero trimmed.
std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::int64_t DeltaOf(const EpochRecord& e, std::uint32_t id) {
  return e.Has(id) ? e.values[id] : 0;
}

/// CSV-quote a meta value when it contains characters that would break the
/// `key=value` comment line (commas from mix descriptors, quotes, spaces).
std::string CsvMetaValue(const std::string& v) {
  if (v.find_first_of(",\" ") == std::string::npos) return v;
  std::string out = "\"";
  for (char c : v) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// ID of `name` in `e`, or kNone when the record does not hold it.
std::uint32_t RecordId(const EpochRecord& e, const std::string& name) {
  const std::uint32_t id = e.layout->ids().Find(name);
  return e.Has(id) ? id : EpochLayout::kNone;
}

}  // namespace

void EpochLayout::Sync() {
  const std::uint32_t n = ids_.size();
  const std::uint32_t old = size();
  if (n == old) return;
  for (std::uint32_t id = old; id < n; ++id) {
    const std::string& name = ids_.name(id);
    const bool is_gauge = IsGauge(name);
    gauge_.push_back(is_gauge ? 1 : 0);
    key_.push_back(is_gauge ? name.substr(std::strlen(kGaugePrefix)) : name);
    json_key_.push_back("\"" + JsonEscape(key_.back()) + "\":");
    byte_order_.push_back(id);
    natural_order_.push_back(id);
    if (is_gauge) continue;
    if (name == "ctrl.cache_hits") hits = id;
    if (name == "ctrl.cache_misses") misses = id;
    if (name == "ctrl.alpha_bypasses") alpha_bypasses = id;
    if (name == "ctrl.refresh_bypasses") refresh_bypasses = id;
    if (EndsWith(name, ".bytes_transferred")) bytes_ids.push_back(id);
  }
  std::sort(byte_order_.begin(), byte_order_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return key_[a] < key_[b];
            });
  std::sort(natural_order_.begin(), natural_order_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return NaturalNameLess(key_[a], key_[b]);
            });
}

bool EpochRecord::HasDelta(const std::string& name) const {
  return !IsGauge(name) && RecordId(*this, name) != EpochLayout::kNone;
}

std::int64_t EpochRecord::Delta(const std::string& name) const {
  if (!HasDelta(name)) throw std::out_of_range("no delta for " + name);
  return values[RecordId(*this, name)];
}

bool EpochRecord::HasGauge(const std::string& name) const {
  return RecordId(*this, kGaugePrefix + name) != EpochLayout::kNone;
}

std::uint64_t EpochRecord::Gauge(const std::string& name) const {
  const std::uint32_t id = RecordId(*this, kGaugePrefix + name);
  if (id == EpochLayout::kNone) throw std::out_of_range("no gauge " + name);
  return static_cast<std::uint64_t>(values[id]);
}

std::map<std::string, std::int64_t> EpochRecord::Deltas() const {
  std::map<std::string, std::int64_t> out;
  for (std::uint32_t id = 0; id < present.size(); ++id) {
    if (Has(id) && !layout->gauge(id)) out[layout->key(id)] = values[id];
  }
  return out;
}

DerivedMetrics DeriveMetrics(const EpochRecord& e) {
  DerivedMetrics d;
  const EpochLayout& l = *e.layout;
  const double hits = static_cast<double>(DeltaOf(e, l.hits));
  const double misses = static_cast<double>(DeltaOf(e, l.misses));
  const double bypasses = static_cast<double>(
      DeltaOf(e, l.alpha_bypasses) + DeltaOf(e, l.refresh_bypasses));
  const double lookups = hits + misses + bypasses;
  if (lookups > 0) {
    d.hit_rate = hits / lookups;
    d.bypass_rate = bypasses / lookups;
  }
  const Cycle span = e.end - e.begin;
  if (span > 0) {
    std::int64_t bytes = 0;
    for (const std::uint32_t id : l.bytes_ids) bytes += DeltaOf(e, id);
    d.bw_bytes_per_cycle =
        static_cast<double>(bytes) / static_cast<double>(span);
  }
  return d;
}

bool ParseEpochSpec(const std::string& text, EpochSpec& out) {
  if (text.empty()) return false;
  if (text == "auto") {
    EpochSpec spec;
    spec.adaptive = true;
    out = spec;
    return true;
  }
  if (text.rfind("auto:", 0) == 0) {
    // "auto:MIN:MAX" — explicit clamp band in cycles.
    const std::size_t colon = text.find(':', 5);
    if (colon == std::string::npos) return false;
    EpochSpec spec;
    spec.adaptive = true;
    try {
      std::size_t used = 0;
      const std::string min_s = text.substr(5, colon - 5);
      const std::string max_s = text.substr(colon + 1);
      spec.min_cycles = std::stoull(min_s, &used);
      if (used != min_s.size()) return false;
      spec.max_cycles = std::stoull(max_s, &used);
      if (used != max_s.size()) return false;
    } catch (...) {
      return false;
    }
    if (spec.min_cycles < 1 || spec.max_cycles < spec.min_cycles) return false;
    out = spec;
    return true;
  }
  try {
    std::size_t used = 0;
    const Cycle cycles = std::stoull(text, &used);
    if (used != text.size() || cycles < 1) return false;
    EpochSpec spec;
    spec.cycles = cycles;
    out = spec;
    return true;
  } catch (...) {
    return false;
  }
}

EpochSampler::EpochSampler(Cycle epoch_cycles)
    : epoch_cycles_(std::max<Cycle>(epoch_cycles, 1)),
      next_due_(std::max<Cycle>(epoch_cycles, 1)),
      min_width_used_(epoch_cycles_),
      max_width_used_(epoch_cycles_),
      layout_(std::make_shared<EpochLayout>()) {}

EpochSampler::~EpochSampler() = default;

void EpochSampler::EnableAdaptive(const AdaptiveEpochConfig& cfg) {
  adaptive_ = std::make_unique<AdaptiveEpochController>(cfg);
}

void EpochSampler::SetSink(TelemetrySink* sink, bool retain_epochs) {
  sink_ = sink;
  retain_ = retain_epochs;
}

void EpochSampler::SeedBaseline(Cycle at, const StatSet& cumulative) {
  restored_ = true;
  restored_at_ = at;
  // Epoch boundaries resume from the restored cycle, not the nominal grid:
  // a restore under different epoch settings must not fabricate a giant
  // first epoch spanning [0, at) or a burst of degenerate ones.
  last_sample_ = at;
  next_due_ = at + epoch_cycles_;
  baseline_.clear();
  const FlatView flat = Flatten(cumulative);
  for (std::uint32_t id = 0; id < layout_->size(); ++id) {
    if (!flat.Has(id) || layout_->gauge(id)) continue;
    baseline_[layout_->key(id)] = flat.values[id];
    prev_[id] = flat.values[id];
    seen_[id] = 1;
  }
}

EpochSampler::FlatView EpochSampler::Flatten(const StatSet& cumulative) {
  const bool captured = cumulative.capture_ids() == &layout_->ids();
  if (!captured) {
    std::fill(scratch_present_.begin(), scratch_present_.end(),
              std::uint8_t{0});
    for (const auto& [name, value] : cumulative.counters()) {
      const std::uint32_t id = layout_->ids().Intern(name);
      if (id >= scratch_values_.size()) {
        scratch_values_.resize(id + 1, 0);
        scratch_present_.resize(id + 1, 0);
      }
      scratch_values_[id] = value;
      scratch_present_[id] = 1;
    }
  }
  layout_->Sync();
  prev_.resize(layout_->size(), 0);
  seen_.resize(layout_->size(), 0);
  if (captured) {
    return {cumulative.captured_values(), cumulative.captured_flags()};
  }
  return {scratch_values_, scratch_present_};
}

std::map<std::string, std::uint64_t> EpochSampler::cumulative() const {
  std::map<std::string, std::uint64_t> out;
  for (std::uint32_t id = 0; id < seen_.size(); ++id) {
    if (seen_[id] != 0) out[layout_->key(id)] = prev_[id];
  }
  return out;
}

void EpochSampler::Record(Cycle now, const StatSet& cumulative) {
  if (adaptive_ && width_id_ == EpochLayout::kNone) {
    width_id_ = layout_->ids().Intern(std::string(kGaugePrefix) +
                                      "telemetry.epoch_cycles");
  }
  const FlatView flat = Flatten(cumulative);
  const std::uint32_t n = layout_->size();
  // Streaming without retention keeps one record and reuses its storage.
  if (retain_ || epochs_.empty()) epochs_.emplace_back();
  EpochRecord& rec = epochs_.back();
  rec.begin = last_sample_;
  rec.end = now;
  rec.layout = layout_;
  rec.values.assign(n, 0);
  rec.present.assign(n, 0);
  for (std::uint32_t id = 0; id < n; ++id) {
    if (!flat.Has(id)) continue;
    const std::uint64_t value = flat.values[id];
    rec.present[id] = 1;
    if (layout_->gauge(id)) {
      rec.values[id] = static_cast<std::int64_t>(value);
      continue;
    }
    rec.values[id] = static_cast<std::int64_t>(value) -
                     static_cast<std::int64_t>(prev_[id]);
    prev_[id] = value;
    seen_[id] = 1;
  }
  if (adaptive_) {
    // Make the width that produced this record part of the record, so the
    // adaptive narrowing is visible in every exported series. Only when
    // adaptation is on: fixed-epoch output stays byte-identical.
    rec.values[width_id_] = static_cast<std::int64_t>(epoch_cycles_);
    rec.present[width_id_] = 1;
  }
  min_width_used_ = std::min(min_width_used_, epoch_cycles_);
  max_width_used_ = std::max(max_width_used_, epoch_cycles_);
  total_epochs_++;
  if (sink_) {
    line_.clear();
    AppendNdjsonEpochLine(line_, total_epochs_ - 1, rec);
    sink_->WriteLine(line_);
  }
  last_sample_ = now;
}

void EpochSampler::Sample(Cycle now, const StatSet& cumulative) {
  Record(now, cumulative);
  if (adaptive_) {
    epoch_cycles_ = adaptive_->Update(epochs_.back(), epoch_cycles_);
  }
  // Schedule from the sample that actually happened, not the nominal grid:
  // the event-paced loop can overshoot a boundary by a whole idle gap, and
  // grid-aligned scheduling would then emit a burst of degenerate epochs.
  next_due_ = now + epoch_cycles_;
}

void EpochSampler::Finalize(Cycle end, const StatSet& cumulative) {
  if (end <= last_sample_) {
    // Run ended exactly on (or before) a sample; refresh the final gauges
    // on the last record instead of emitting an empty epoch.
    if (!epochs_.empty()) {
      const FlatView flat = Flatten(cumulative);
      EpochRecord& last = epochs_.back();
      last.values.resize(layout_->size(), 0);
      last.present.resize(layout_->size(), 0);
      for (std::uint32_t id = 0; id < layout_->size(); ++id) {
        if (!flat.Has(id) || !layout_->gauge(id)) continue;
        last.values[id] = static_cast<std::int64_t>(flat.values[id]);
        last.present[id] = 1;
      }
    }
    return;
  }
  Record(end, cumulative);
}

namespace {

void AppendMetaJsonFields(std::ostringstream& os, const TelemetryMeta& meta,
                          const EpochSampler& sampler) {
  os << "\"arch\":\"" << JsonEscape(meta.arch) << "\",\"workload\":\""
     << JsonEscape(meta.workload) << "\",\"preset\":\""
     << JsonEscape(meta.preset) << "\",\"policy\":\""
     << JsonEscape(meta.policy) << "\",\"mix\":\"" << JsonEscape(meta.mix)
     << "\",\"epoch_cycles\":" << sampler.epoch_cycles();
}

}  // namespace

std::string TelemetryJson(const EpochSampler& sampler,
                          const TelemetryMeta& meta) {
  std::ostringstream os;
  os << "{\"meta\":{";
  AppendMetaJsonFields(os, meta, sampler);
  os << ",\"exec_cycles\":" << meta.exec_cycles
     << ",\"num_epochs\":" << sampler.epochs().size() << "},\"epochs\":[";
  const EpochLayout& l = sampler.layout();
  bool first_epoch = true;
  for (const EpochRecord& e : sampler.epochs()) {
    if (!first_epoch) os << ",";
    first_epoch = false;
    const DerivedMetrics d = DeriveMetrics(e);
    os << "{\"begin\":" << e.begin << ",\"end\":" << e.end
       << ",\"derived\":{\"hit_rate\":" << FormatDouble(d.hit_rate)
       << ",\"bypass_rate\":" << FormatDouble(d.bypass_rate)
       << ",\"bw_bytes_per_cycle\":" << FormatDouble(d.bw_bytes_per_cycle)
       << "},\"gauges\":{";
    bool first = true;
    for (const std::uint32_t id : l.natural_order()) {
      if (!e.Has(id) || !l.gauge(id)) continue;
      if (!first) os << ",";
      first = false;
      os << l.json_key(id) << static_cast<std::uint64_t>(e.values[id]);
    }
    os << "},\"delta\":{";
    first = true;
    for (const std::uint32_t id : l.natural_order()) {
      if (!e.Has(id) || l.gauge(id)) continue;
      if (!first) os << ",";
      first = false;
      os << l.json_key(id) << e.values[id];
    }
    os << "}}";
  }
  os << "]}";
  return os.str();
}

bool WriteTelemetryJson(const std::string& path, const EpochSampler& sampler,
                        const TelemetryMeta& meta) {
  std::ofstream out(path);
  if (!out) return false;
  out << TelemetryJson(sampler, meta) << '\n';
  return static_cast<bool>(out);
}

std::string TelemetryCsv(const EpochSampler& sampler,
                         const TelemetryMeta& meta) {
  // Column set = union across epochs, so a gauge that first appears late
  // (e.g. RCU depth after the first fill) still gets a column. The same
  // union rule covers every key JSON emits — gauge.skip_pct and the
  // per-tenant gauge.tenant<N>.* feeds included.
  const EpochLayout& l = sampler.layout();
  std::vector<std::uint8_t> used(l.size(), 0);
  for (const EpochRecord& e : sampler.epochs()) {
    for (std::uint32_t id = 0; id < e.present.size(); ++id) {
      used[id] |= e.present[id];
    }
  }
  std::vector<std::uint32_t> gauges, deltas;
  for (const std::uint32_t id : l.natural_order()) {
    if (used[id] != 0) (l.gauge(id) ? gauges : deltas).push_back(id);
  }

  std::ostringstream os;
  os << "# arch=" << CsvMetaValue(meta.arch)
     << " workload=" << CsvMetaValue(meta.workload)
     << " preset=" << CsvMetaValue(meta.preset)
     << " policy=" << CsvMetaValue(meta.policy)
     << " mix=" << CsvMetaValue(meta.mix)
     << " epoch_cycles=" << sampler.epoch_cycles()
     << " exec_cycles=" << meta.exec_cycles << "\n";
  os << "begin,end,hit_rate,bypass_rate,bw_bytes_per_cycle";
  for (const std::uint32_t id : gauges) os << ",gauge." << l.key(id);
  for (const std::uint32_t id : deltas) os << "," << l.key(id);
  os << "\n";
  for (const EpochRecord& e : sampler.epochs()) {
    const DerivedMetrics d = DeriveMetrics(e);
    os << e.begin << "," << e.end << "," << FormatDouble(d.hit_rate) << ","
       << FormatDouble(d.bypass_rate) << ","
       << FormatDouble(d.bw_bytes_per_cycle);
    for (const std::uint32_t id : gauges) {
      os << ",";
      if (e.Has(id)) os << static_cast<std::uint64_t>(e.values[id]);
    }
    for (const std::uint32_t id : deltas) {
      os << ",";
      if (e.Has(id)) os << e.values[id];
    }
    os << "\n";
  }
  return os.str();
}

bool WriteTelemetryCsv(const std::string& path, const EpochSampler& sampler,
                       const TelemetryMeta& meta) {
  std::ofstream out(path);
  if (!out) return false;
  out << TelemetryCsv(sampler, meta);
  return static_cast<bool>(out);
}

}  // namespace redcache::obs
