// Host-time attribution from outside the simulator: decorators around the
// three interfaces System calls into, built like verify/ShadowChecker
// (forward every call unchanged, observe on the way through).
//
//   TimedTrace       TraceSource    -> layer "workloads" (+ tenant mixing)
//   TimedController  MemController  -> layer "dramcache" (+ core, dram)
//   TimedSink        TelemetrySink  -> layer "obs"
//
// Whatever Run spends outside these calls is the run loop itself together
// with the cpu and sram layers, which System owns by value and so cannot be
// wrapped. Per boundary the ledger keeps a count, a stamp total and a
// per-call histogram; one span per call would not fit (a loaded cell makes
// tens of millions of Tick calls).
//
// Telemetry spans: System snapshots stats at an epoch boundary by calling
// MemController::ExportStats first and then hands the record to the sink.
// The controller decorator therefore opens an "obs" span at ExportStats and
// the sink decorator closes it after WriteLine, so snapshot building, delta
// computation, serialization and the write all count as obs time. A span
// that no WriteLine closes (the export after the loop, or a run without
// telemetry) is discarded and its time stays in the run-loop bucket.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "dramcache/controller.hpp"
#include "metrics.hpp"
#include "obs/telemetry_sink.hpp"
#include "workloads/trace.hpp"

namespace perfbench {

using redcache::Addr;
using redcache::Cycle;

/// Cheap monotonic stamp: the TSC where available (a few ns per read, so
/// the decorators can afford two per call), else steady_clock ticks. The
/// ledger converts stamps to nanoseconds by calibrating against
/// steady_clock over the whole run.
inline std::uint64_t Stamp() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Aggregates for one layer boundary.
struct Boundary {
  std::uint64_t calls = 0;
  std::uint64_t stamps = 0;
  CallHistogram hist;

  void Add(std::uint64_t d) {
    ++calls;
    stamps += d;
    hist.Add(d);
  }
};

/// Times one call into `b` from construction to destruction, so the call's
/// return value is computed inside the timed region.
class ScopedCall {
 public:
  explicit ScopedCall(Boundary& b) : b_(b), t0_(Stamp()) {}
  ~ScopedCall() { b_.Add(Stamp() - t0_); }
  ScopedCall(const ScopedCall&) = delete;
  ScopedCall& operator=(const ScopedCall&) = delete;

 private:
  Boundary& b_;
  std::uint64_t t0_;
};

class LayerLedger {
 public:
  Boundary trace_next;  ///< TraceSource::Next
  Boundary ctrl_tick;   ///< MemController::Tick
  Boundary ctrl_other;  ///< every other MemController call made by the loop
  /// Tick calls that returned now + 1 and produced no read completion: the
  /// loop will visit again next cycle with nothing delivered.
  std::uint64_t tick_spins = 0;
  /// Closed telemetry spans (one per epoch record) and their total.
  std::uint64_t obs_spans = 0;
  std::uint64_t obs_stamps = 0;
  std::uint64_t obs_bytes = 0;  ///< bytes of the records those spans wrote

  void OpenObsSpan() {
    if (!obs_open_) {
      obs_open_ = true;
      obs_begin_ = Stamp();
    }
  }
  void CloseObsSpan(std::size_t bytes) {
    if (!obs_open_) return;
    obs_open_ = false;
    ++obs_spans;
    obs_stamps += Stamp() - obs_begin_;
    obs_bytes += bytes;
  }

  /// Bracket System::Run. Calibrates stamps against steady_clock and drops
  /// a span still open when the run returns.
  void BeginRun() {
    wall0_ = std::chrono::steady_clock::now();
    stamp0_ = Stamp();
  }
  void EndRun() {
    run_stamps_ = Stamp() - stamp0_;
    run_ns_ = std::chrono::duration<double, std::nano>(
                  std::chrono::steady_clock::now() - wall0_)
                  .count();
    obs_open_ = false;
  }

  double run_ns() const { return run_ns_; }
  double run_stamps() const { return static_cast<double>(run_stamps_); }
  double ToNs(double stamps) const {
    return stamps * Ratio(run_ns_, static_cast<double>(run_stamps_));
  }

 private:
  bool obs_open_ = false;
  std::uint64_t obs_begin_ = 0;
  std::chrono::steady_clock::time_point wall0_;
  std::uint64_t stamp0_ = 0;
  std::uint64_t run_stamps_ = 0;
  double run_ns_ = 0.0;
};

class TimedTrace final : public redcache::TraceSource {
 public:
  TimedTrace(std::unique_ptr<redcache::TraceSource> inner, LayerLedger& ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  bool Next(std::uint32_t core, redcache::MemRef& out) override {
    ScopedCall timed(ledger_.trace_next);
    return inner_->Next(core, out);
  }
  std::uint32_t num_cores() const override { return inner_->num_cores(); }
  std::uint64_t footprint_bytes() const override {
    return inner_->footprint_bytes();
  }
  std::string name() const override { return inner_->name(); }
  void SampleTelemetry(redcache::StatSet& out) const override {
    inner_->SampleTelemetry(out);
  }
  bool checkpointable() const override { return inner_->checkpointable(); }
  void Snapshot(redcache::ser::Writer& w) const override {
    inner_->Snapshot(w);
  }
  void Restore(redcache::ser::Reader& r) override { inner_->Restore(r); }

 private:
  std::unique_ptr<redcache::TraceSource> inner_;
  LayerLedger& ledger_;
};

class TimedController final : public redcache::MemController {
 public:
  TimedController(std::unique_ptr<redcache::MemController> inner,
                  LayerLedger& ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  const char* name() const override { return inner_->name(); }
  bool CanAcceptRead() const override {
    ScopedCall timed(ledger_.ctrl_other);
    return inner_->CanAcceptRead();
  }
  bool CanAcceptWriteback() const override {
    ScopedCall timed(ledger_.ctrl_other);
    return inner_->CanAcceptWriteback();
  }
  void SubmitRead(Addr addr, std::uint64_t tag, Cycle now) override {
    ScopedCall timed(ledger_.ctrl_other);
    inner_->SubmitRead(addr, tag, now);
  }
  void SubmitWriteback(Addr addr, Cycle now) override {
    ScopedCall timed(ledger_.ctrl_other);
    inner_->SubmitWriteback(addr, now);
  }
  Cycle Tick(Cycle now) override {
    const std::uint64_t t0 = Stamp();
    const Cycle wake = inner_->Tick(now);
    ledger_.ctrl_tick.Add(Stamp() - t0);
    if (wake == now + 1 && inner_->read_completions().empty()) {
      ++ledger_.tick_spins;
    }
    return wake;
  }
  std::vector<redcache::ReadCompletion>& read_completions() override {
    return inner_->read_completions();
  }
  Cycle NextEventHint(Cycle now) const override {
    ScopedCall timed(ledger_.ctrl_other);
    return inner_->NextEventHint(now);
  }
  bool Idle() const override {
    ScopedCall timed(ledger_.ctrl_other);
    return inner_->Idle();
  }
  void ExportStats(redcache::StatSet& stats) const override {
    ledger_.OpenObsSpan();
    inner_->ExportStats(stats);
  }
  void SampleTelemetry(redcache::StatSet& out) const override {
    ledger_.OpenObsSpan();
    inner_->SampleTelemetry(out);
  }
  void SetVerifySink(redcache::VerifySink* sink) override {
    inner_->SetVerifySink(sink);
  }
  void SetTenantAccounting(redcache::tenant::TenantAccounting* acct) override {
    inner_->SetTenantAccounting(acct);
  }
  const MemController* underlying() const override {
    return inner_->underlying();
  }
  void Snapshot(redcache::ser::Writer& w) const override {
    inner_->Snapshot(w);
  }
  void Restore(redcache::ser::Reader& r) override { inner_->Restore(r); }
  void SetFunctionalTiming(Cycle fixed_latency) override {
    inner_->SetFunctionalTiming(fixed_latency);
  }

 private:
  std::unique_ptr<redcache::MemController> inner_;
  LayerLedger& ledger_;
};

class TimedSink final : public redcache::obs::TelemetrySink {
 public:
  TimedSink(std::unique_ptr<redcache::obs::TelemetrySink> inner,
            LayerLedger& ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  bool WriteLine(const std::string& line) override {
    const bool ok = inner_->WriteLine(line);
    ledger_.CloseObsSpan(line.size() + 1);
    return ok;
  }
  bool ok() const override { return inner_->ok(); }
  std::string describe() const override { return inner_->describe(); }

 private:
  std::unique_ptr<redcache::obs::TelemetrySink> inner_;
  LayerLedger& ledger_;
};

}  // namespace perfbench
