#include "dramcache/redcache.hpp"

#include <cassert>
#include <stdexcept>

#include "common/check.hpp"
#include "dramcache/policy_registry.hpp"
#include "obs/trace_macros.hpp"

namespace redcache {

namespace {
/// Registry entry for one RedCache option set at `ways`. The N-way
/// extensions stay out of the default sweep.
PolicyInfo RedCachePolicy(std::string name, std::string summary,
                          RedCacheOptions options, std::uint32_t ways,
                          const char* display, bool differential,
                          bool golden) {
  return {.name = std::move(name),
          .summary = std::move(summary),
          .family = "redcache",
          .differential = differential,
          .golden = golden,
          .sweep = ways == 1,
          .make = [options, ways, display](const MemControllerConfig& cfg) {
            return std::make_unique<RedCacheController>(cfg, options, ways,
                                                        display);
          }};
}

PolicyInfo NWayPolicy(std::string name, std::uint32_t ways,
                      const char* display) {
  return RedCachePolicy(
      std::move(name),
      std::to_string(ways) + "-way LRU RedCache (R-Cache direction extension)",
      RedCacheOptions::Full(), ways, display, /*differential=*/true,
      /*golden=*/false);
}
}  // namespace

REDCACHE_REGISTER_POLICY(
    red_alpha, (RedCachePolicy("Red-Alpha",
                               "direct-mapped cache + alpha admission only",
                               RedCacheOptions::AlphaOnly(), 1, "red-alpha",
                               /*differential=*/false, /*golden=*/false)));
REDCACHE_REGISTER_POLICY(
    red_gamma,
    (RedCachePolicy("Red-Gamma",
                    "Alloy + in-DRAM gamma last-write counting only",
                    RedCacheOptions::GammaOnly(), 1, "red-gamma",
                    /*differential=*/false, /*golden=*/false)));
REDCACHE_REGISTER_POLICY(
    red_basic,
    (RedCachePolicy("Red-Basic",
                    "alpha + gamma with immediate r-count updates (no RCU)",
                    RedCacheOptions::Basic(), 1, "red-basic",
                    /*differential=*/true, /*golden=*/false)));
REDCACHE_REGISTER_POLICY(
    red_insitu,
    (RedCachePolicy("Red-InSitu",
                    "alpha + gamma with free in-DRAM updates (upper bound)",
                    RedCacheOptions::InSitu(), 1, "red-insitu",
                    /*differential=*/false, /*golden=*/false)));
REDCACHE_REGISTER_POLICY(
    redcache_full,
    (RedCachePolicy("RedCache",
                    "full proposal: alpha + gamma + RCU + bypass-on-refresh",
                    RedCacheOptions::Full(), 1, "redcache",
                    /*differential=*/true, /*golden=*/true)));
REDCACHE_REGISTER_POLICY(redcache_2way,
                         (NWayPolicy("RedCache-2way", 2, "redcache-2way")));
REDCACHE_REGISTER_POLICY(redcache_4way,
                         (NWayPolicy("RedCache-4way", 4, "redcache-4way")));
REDCACHE_REGISTER_POLICY(redcache_8way,
                         (NWayPolicy("RedCache-8way", 8, "redcache-8way")));

namespace {
/// Policy-decision trace event (policy device renders on one track).
obs::TraceEvent PolicyEvent(Cycle now, obs::TraceEventType type, Addr addr,
                            std::uint64_t arg = 0) {
  return obs::TraceEvent{.cycle = now,
                         .type = type,
                         .device = obs::kTraceDevicePolicy,
                         .addr = addr,
                         .arg = arg};
}
}  // namespace

namespace {
enum State {
  kProbe = 0,    ///< waiting for the TAD probe read (txn.aux: probed way)
  kMissFetch,    ///< waiting for main memory after a probe miss
  kDirectFetch,  ///< bypassed read served by main memory
  kWayFetch,     ///< hit on a way the probe did not return: extra burst
};

/// Latency of a read served out of the RCU data RAM (SRAM on the
/// controller die; a handful of CPU cycles).
constexpr Cycle kRcuServeLatency = 6;
}  // namespace

RedCacheController::RedCacheController(MemControllerConfig cfg,
                                       RedCacheOptions options,
                                       std::uint32_t ways,
                                       const char* display_name)
    : ControllerBase((cfg.has_hbm = true, cfg)),
      opt_(options),
      display_name_(display_name),
      tags_(cfg.hbm.geometry.capacity_bytes, /*line_blocks=*/1, ways),
      alpha_(options.alpha),
      gamma_(options.gamma),
      rcu_(options.rcu_entries),
      recent_invalidations_(16384, ~Addr{0}) {
  assert(cfg.line_blocks == 1 && "RedCache is a fine-grained (64 B) cache");
  if (tags_.num_sets() == 0) {
    throw std::invalid_argument(std::to_string(ways) +
                                " ways leave no set in the HBM capacity");
  }
}

void RedCacheController::NoteGammaInvalidation(Addr block) {
  recent_invalidations_[BlockIndex(block) % recent_invalidations_.size()] =
      block;
}

void RedCacheController::CheckPrematureInvalidation(Addr block) {
  Addr& slot =
      recent_invalidations_[BlockIndex(block) % recent_invalidations_.size()];
  if (slot == block) {
    slot = ~Addr{0};
    gamma_.OnPrematureInvalidation();
  }
}

void RedCacheController::InvalidateBlock(std::uint64_t set, std::uint32_t way,
                                         bool lifetime_sample) {
  TagStore::Line& line = tags_.line(set, way);
  if (!line.write_filled) {
    // Alpha's feedback judges demand admissions only; trailing write fills
    // would otherwise dominate the dead-fill statistic and push alpha up.
    epoch_departures_++;
    if (line.r_count == 0) epoch_dead_departures_++;
  }
  if (lifetime_sample && opt_.gamma_enabled && line.r_count > 0) {
    gamma_.OnLifetimeSample(line.r_count);
  }
  departures_++;
  resident_--;
  line.valid = false;
  line.dirty = false;
}

void RedCacheController::Fill(Addr addr, bool dirty, std::uint32_t probed_way,
                              Cycle now) {
  const std::uint64_t set = tags_.SetOf(addr);
  const std::uint32_t way = tags_.VictimWay(set);
  TagStore::Line& line = tags_.line(set, way);
  if (line.valid) {
    const Addr victim = tags_.VictimAddr(set, way);
    rcu_.Remove(victim);
    if (line.dirty && !opt_.testing_drop_victim_writeback) {
      // Victim data came back with the probe read when the probe returned
      // this way; any other way is streamed out first. Then push it
      // off-package.
      if (way != probed_way) {
        SendHbm(kPostedOp, tags_.HbmAddr(set, victim, way),
                /*is_write=*/false, now);
      }
      NotifyVictimWriteback(victim);
      REDCACHE_TRACE_EVENT(PolicyEvent(
          now, obs::TraceEventType::kVictimWriteback, victim));
      SendMm(kPostedOp, victim, /*is_write=*/true, now);
      victim_writebacks_++;
    } else {
      NotifyInvalidate(victim);
    }
    InvalidateBlock(set, way, /*lifetime_sample=*/true);
  }
  NotifyFill(addr, dirty);
  line.valid = true;
  line.dirty = dirty;
  line.write_filled = dirty;  // fills carrying store data arrive dirty
  line.tag = tags_.TagOf(addr);
  line.r_count = 0;
  tags_.Touch(set, way);
  SendHbm(kPostedOp, tags_.HbmAddr(set, addr, way), /*is_write=*/true, now);
  fills_++;
  resident_++;
  REDCACHE_TRACE_EVENT(
      PolicyEvent(now, obs::TraceEventType::kFill, addr, dirty ? 1 : 0));
}

void RedCacheController::RouteToMainMemory(Txn& txn, Cycle now) {
  if (txn.is_writeback) {
    NotifyMmWrite(txn.addr);
    SendMm(kPostedOp, txn.addr, /*is_write=*/true, now);
    FreeTxn(txn);
    return;
  }
  txn.state = kDirectFetch;
  SendMm(TxnIndex(txn), txn.addr, /*is_write=*/false, now);
}

void RedCacheController::StartTxn(Txn& txn, Cycle now) {
  epoch_request_count_++;
  MaybeRetune(now);

  // --- Alpha counting: cold pages never touch the HBM cache. -------------
  if (opt_.alpha_enabled && !alpha_.OnRequest(txn.addr)) {
    // A copy installed while the page was still hot must not go stale.
    // Presence comes from the controller-side tag mirror, like the refresh
    // bypass below.
    const std::uint64_t cold_set = tags_.SetOf(txn.addr);
    const std::uint32_t cold_way = tags_.FindWay(txn.addr);
    const bool present = cold_way != tags_.ways();
    if (txn.is_writeback && present) {
      // Main memory receives the newest data; the cached copy is stale now.
      rcu_.Remove(txn.addr);
      NotifyMmWrite(txn.addr);
      InvalidateBlock(cold_set, cold_way, /*lifetime_sample=*/false);
      NotifyInvalidate(txn.addr);
      alpha_bypasses_++;
      REDCACHE_TRACE_EVENT(PolicyEvent(
          now, obs::TraceEventType::kAlphaBypass, txn.addr, alpha_.alpha()));
      SendMm(kPostedOp, txn.addr, /*is_write=*/true, now);
      FreeTxn(txn);
      return;
    }
    if (txn.is_writeback || !present ||
        !tags_.line(cold_set, cold_way).dirty) {
      alpha_bypasses_++;
      REDCACHE_TRACE_EVENT(PolicyEvent(
          now, obs::TraceEventType::kAlphaBypass, txn.addr, alpha_.alpha()));
      RouteToMainMemory(txn, now);
      return;
    }
    // Dirty resident copy: only the cache has the newest data — serve it
    // through the normal probe path despite the cold page.
  }

  const std::uint64_t set = tags_.SetOf(txn.addr);

  // --- RCU block cache: recently read blocks are still on the die. -------
  if (opt_.update_mode == RedCacheOptions::UpdateMode::kRcu &&
      !txn.is_writeback && rcu_.Contains(txn.addr)) {
    // Parked blocks are resident: every departure removes its RCU entry.
    const std::uint32_t way = tags_.FindWay(txn.addr);
    REDCACHE_CHECK(way != tags_.ways(), "RCU entry for a non-resident block");
    rcu_served_reads_++;
    hits_++;
    read_hits_++;
    const std::uint32_t r = tags_.BumpRcount(set, way);
    if (opt_.gamma_enabled) gamma_.OnHit(r);
    tags_.Touch(set, way);
    rcu_.Insert(txn.addr,
                hbm_->mapper().Map(tags_.HbmAddr(set, txn.addr, way)));
    NotifyServeRead(txn, ServeSource::kRcuRam);
    REDCACHE_TRACE_EVENT(
        PolicyEvent(now, obs::TraceEventType::kRcuServe, txn.addr, r));
    CompleteRead(txn, now + kRcuServeLatency);
    FreeTxn(txn);
    return;
  }

  // The probe reads every tag of the set plus the MRU way's data.
  const std::uint32_t probe_way = tags_.MruWay(set);
  const Addr probe_addr = tags_.HbmAddr(set, txn.addr, probe_way);

  // --- Bypass-on-refresh: don't queue behind a refreshing rank (only
  // worthwhile while the off-chip channel has headroom). ------------------
  if (opt_.bypass_on_refresh && hbm_->Refreshing(probe_addr, now) &&
      mm_->ChannelCanAccept(mm_->ChannelOf(txn.addr))) {
    const std::uint32_t way = tags_.FindWay(txn.addr);
    const bool present = way != tags_.ways();
    if (txn.is_writeback) {
      // Main memory receives the newest data; any cached copy is stale now.
      NotifyMmWrite(txn.addr);
      if (present) {
        rcu_.Remove(txn.addr);
        InvalidateBlock(set, way, /*lifetime_sample=*/false);
        NotifyInvalidate(txn.addr);
      }
      refresh_bypasses_++;
      REDCACHE_TRACE_EVENT(
          PolicyEvent(now, obs::TraceEventType::kRefreshBypass, txn.addr));
      SendMm(kPostedOp, txn.addr, /*is_write=*/true, now);
      FreeTxn(txn);
      return;
    }
    if (!present || !tags_.line(set, way).dirty) {
      // Clean or absent: the main-memory copy is current.
      refresh_bypasses_++;
      REDCACHE_TRACE_EVENT(
          PolicyEvent(now, obs::TraceEventType::kRefreshBypass, txn.addr));
      txn.state = kDirectFetch;
      SendMm(TxnIndex(txn), txn.addr, /*is_write=*/false, now);
      return;
    }
    // Dirty read hit: only the HBM copy is valid — fall through and wait.
  }

  txn.state = kProbe;
  txn.aux = probe_way;
  SendHbm(TxnIndex(txn), probe_addr, /*is_write=*/false, now);
}

void RedCacheController::RecordReadHitUpdate(Addr block, std::uint64_t set,
                                             std::uint32_t way, Cycle now) {
  switch (opt_.update_mode) {
    case RedCacheOptions::UpdateMode::kInSitu:
      insitu_updates_++;
      return;
    case RedCacheOptions::UpdateMode::kImmediate:
      immediate_updates_++;
      SendHbm(kPostedOp, tags_.HbmAddr(set, block, way), /*is_write=*/true,
              now);
      return;
    case RedCacheOptions::UpdateMode::kRcu: {
      const auto evicted = rcu_.Insert(
          block, hbm_->mapper().Map(tags_.HbmAddr(set, block, way)));
      FlushRcuEntries(evicted, now, obs::kRcuFlushCapacity);
      return;
    }
  }
}

void RedCacheController::FlushRcuEntries(
    const std::vector<RcuManager::Entry>& entries, Cycle now,
    std::uint64_t reason) {
  for (const RcuManager::Entry& e : entries) {
    const std::uint64_t set = tags_.SetOf(e.block);
    // A block that left the cache after its update was popped (between the
    // column command and PolicyTick) still drains: the write lands on the
    // set's victim way, the only slot of a direct-mapped set.
    std::uint32_t way = tags_.FindWay(e.block);
    if (way == tags_.ways()) way = tags_.VictimWay(set);
    REDCACHE_TRACE_EVENT(
        PolicyEvent(now, obs::TraceEventType::kRcuFlush, e.block, reason));
    // The drain write targets a remapped set address; only `e.block` (the
    // CPU-visible block) identifies the tenant whose update is draining.
    TenantScope scope(*this, e.block);
    CountRcuDrain(e.block);
    SendHbm(kPostedOp, tags_.HbmAddr(set, e.block, way), /*is_write=*/true,
            now);
  }
}

void RedCacheController::HandleProbeResult(Txn& txn, const DramCompletion& c,
                                           Cycle now) {
  const std::uint64_t set = tags_.SetOf(txn.addr);
  const std::uint32_t way = tags_.FindWay(txn.addr);

  if (way != tags_.ways()) {
    hits_++;
    const std::uint32_t r = tags_.BumpRcount(set, way);
    if (opt_.gamma_enabled) gamma_.OnHit(r);

    if (txn.is_writeback) {
      write_hits_++;
      if (opt_.gamma_enabled && gamma_.IsLastWrite(r)) {
        // Last write: invalidate and route the data off-package directly,
        // saving the HBM write, the future victim writeback and a bus
        // turnaround.
        gamma_invalidations_++;
        REDCACHE_TRACE_EVENT(PolicyEvent(
            now, obs::TraceEventType::kGammaInvalidate, txn.addr, r));
        rcu_.Remove(txn.addr);
        NotifyMmWrite(txn.addr);
        InvalidateBlock(set, way, /*lifetime_sample=*/false);
        NotifyInvalidate(txn.addr);
        NoteGammaInvalidation(txn.addr);
        SendMm(kPostedOp, txn.addr, /*is_write=*/true, now);
      } else {
        tags_.line(set, way).dirty = true;
        tags_.Touch(set, way);
        // A parked r-count update (and its RAM block copy) is superseded by
        // the write: drop it, or the RCU block cache would serve pre-write
        // data to the next read. The refreshed r-count rides inside the
        // data write's tag/ECC bits.
        rcu_.Remove(txn.addr);
        NotifyCacheWrite(txn.addr);
        SendHbm(kPostedOp, tags_.HbmAddr(set, txn.addr, way),
                /*is_write=*/true, now);
      }
      FreeTxn(txn);
      return;
    }

    read_hits_++;
    tags_.Touch(set, way);
    NotifyServeRead(txn, ServeSource::kCache);
    RecordReadHitUpdate(txn.addr, set, way, now);
    if (way != txn.aux) {
      // The probe returned another way's data: fetch this one with one more
      // burst. The tag check above decided the serve; the burst only adds
      // latency.
      non_mru_hits_++;
      txn.state = kWayFetch;
      SendHbm(TxnIndex(txn), tags_.HbmAddr(set, txn.addr, way),
              /*is_write=*/false, now);
      return;
    }
    CompleteRead(txn, c.done);
    FreeTxn(txn);
    return;
  }

  misses_++;
  if (opt_.gamma_enabled) CheckPrematureInvalidation(txn.addr);
  if (txn.is_writeback) {
    const TagStore::Line& victim = tags_.line(set, tags_.VictimWay(set));
    if (victim.valid && victim.dirty) {
      // Fig. 7: miss with a dirty resident — send the write to main memory
      // directly; no fill, no victim round trip.
      dirty_miss_bypasses_++;
      write_miss_bypasses_++;
      NotifyMmWrite(txn.addr);
      SendMm(kPostedOp, txn.addr, /*is_write=*/true, now);
    } else {
      Fill(txn.addr, /*dirty=*/true, txn.aux, now);
    }
    FreeTxn(txn);
    return;
  }
  txn.state = kMissFetch;
  SendMm(TxnIndex(txn), txn.addr, /*is_write=*/false, now);
}

void RedCacheController::OnDeviceComplete(Txn& txn, bool /*from_hbm*/,
                                          const DramCompletion& c, Cycle now) {
  switch (txn.state) {
    case kProbe:
      HandleProbeResult(txn, c, now);
      return;
    case kMissFetch:
      NotifyServeRead(txn, ServeSource::kMainMemory);
      CompleteRead(txn, c.done);
      Fill(txn.addr, /*dirty=*/false, txn.aux, now);
      FreeTxn(txn);
      return;
    case kDirectFetch:
      NotifyServeRead(txn, ServeSource::kMainMemory);
      CompleteRead(txn, c.done);
      FreeTxn(txn);
      return;
    case kWayFetch:
      CompleteRead(txn, c.done);
      FreeTxn(txn);
      return;
  }
}

void RedCacheController::OnColumnCommand(const IssuedColumnCommand& cmd) {
  if (opt_.update_mode != RedCacheOptions::UpdateMode::kRcu || !cmd.is_write) {
    return;
  }
  // Condition 1: a data write to this (channel, rank, bank, row) just
  // issued; parked updates for the same row can piggyback at tCCD cost.
  auto matches = rcu_.MatchIndex(cmd.loc);
  pending_rcu_flushes_.insert(pending_rcu_flushes_.end(), matches.begin(),
                              matches.end());
}

void RedCacheController::PolicyTick(Cycle now) {
  if (opt_.update_mode != RedCacheOptions::UpdateMode::kRcu) return;
  if (!pending_rcu_flushes_.empty()) {
    FlushRcuEntries(pending_rcu_flushes_, now, obs::kRcuFlushMerged);
    pending_rcu_flushes_.clear();
  }
  // Condition 2: drain parked updates into idle channels.
  rcu_.DrainIdle(HbmChannelIdle(),
                 [&](const std::vector<RcuManager::Entry>& entries) {
                   FlushRcuEntries(entries, now, obs::kRcuFlushIdle);
                 });
}

Cycle RedCacheController::PolicyWake(Cycle now) const {
  if (opt_.update_mode != RedCacheOptions::UpdateMode::kRcu) {
    return kNeverWake;
  }
  // Updates parked after this tick's drain (RCU-served reads insert during
  // admission) flush on the very next cycle if their own channel is idle.
  // An update parked on a busy channel needs no wake: that queue can only
  // empty inside the channel's device tick, which is a device wake, and
  // PolicyTick runs after it in the same controller tick. Merged flushes
  // (pending_rcu_flushes_) never persist across ticks — the observer fills
  // them during the device tick and PolicyTick drains them — but guard them
  // anyway so a future reordering cannot silently strand one.
  if (!pending_rcu_flushes_.empty()) return now + 1;
  return rcu_.IdleDrainDue(HbmChannelIdle()) ? now + 1 : kNeverWake;
}

void RedCacheController::MaybeRetune(Cycle now) {
  if (epoch_request_count_ < opt_.epoch_requests) return;
  epoch_request_count_ = 0;
  alpha_.AdvanceEpoch();
  if (opt_.alpha_enabled && epoch_departures_ > 0) {
    const double dead_fraction =
        static_cast<double>(epoch_dead_departures_) /
        static_cast<double>(epoch_departures_);
    alpha_.Retune(dead_fraction);
    REDCACHE_TRACE_EVENT(PolicyEvent(now, obs::TraceEventType::kRetune,
                                     /*addr=*/0, alpha_.alpha()));
  }
  epoch_departures_ = 0;
  epoch_dead_departures_ = 0;
}

void RedCacheController::SampleTelemetry(StatSet& out) const {
  ControllerBase::SampleTelemetry(out);
  out.Counter("gauge.gamma") = gamma_.gamma();
  out.Counter("gauge.alpha") = alpha_.alpha();
  out.Counter("gauge.alpha_pages_hot") = alpha_.pages_hot();
  out.Counter("gauge.alpha_pages_tracked") = alpha_.pages_tracked();
  out.Counter("gauge.rcu_depth") = rcu_.size();
  out.Counter("gauge.resident_lines") = resident_;
}

void RedCacheController::ExportOwnStats(StatSet& stats) const {
  stats.Counter("ctrl.cache_hits") = hits_;
  stats.Counter("ctrl.cache_misses") = misses_;
  stats.Counter("ctrl.read_hits") = read_hits_;
  stats.Counter("ctrl.write_hits") = write_hits_;
  stats.Counter("ctrl.fills") = fills_;
  stats.Counter("ctrl.victim_writebacks") = victim_writebacks_;
  stats.Counter("ctrl.evictions") = departures_;
  stats.Counter("ctrl.resident_lines") = resident_;
  stats.Counter("ctrl.alpha_bypasses") = alpha_bypasses_;
  stats.Counter("ctrl.refresh_bypasses") = refresh_bypasses_;
  stats.Counter("ctrl.gamma_invalidations") = gamma_invalidations_;
  stats.Counter("ctrl.dirty_miss_bypasses") = dirty_miss_bypasses_;
  stats.Counter("ctrl.write_miss_bypasses") = write_miss_bypasses_;
  stats.Counter("ctrl.rcu_served_reads") = rcu_served_reads_;
  stats.Counter("ctrl.immediate_updates") = immediate_updates_;
  stats.Counter("ctrl.insitu_updates") = insitu_updates_;
  stats.Counter("ctrl.alpha_lookups") = alpha_.lookups();
  stats.Counter("ctrl.alpha_buffer_misses") = alpha_.buffer_misses();
  stats.Counter("ctrl.alpha_value") = alpha_.alpha();
  stats.Counter("ctrl.alpha_pages_hot") = alpha_.pages_hot();
  stats.Counter("ctrl.alpha_pages_tracked") = alpha_.pages_tracked();
  stats.Counter("ctrl.gamma_value") = gamma_.gamma();
  stats.Counter("ctrl.gamma_updates") = gamma_.updates();
  stats.Counter("ctrl.gamma_premature") = gamma_.premature_invalidations();
  stats.Counter("ctrl.rcu_inserts") = rcu_.inserts();
  stats.Counter("ctrl.rcu_searches") = rcu_.searches();
  stats.Counter("ctrl.rcu_block_hits") = rcu_.block_hits();
  stats.Counter("ctrl.rcu_merged_flushes") = rcu_.merged_flushes();
  stats.Counter("ctrl.rcu_idle_flushes") = rcu_.idle_flushes();
  stats.Counter("ctrl.rcu_capacity_flushes") = rcu_.capacity_flushes();
  stats.Counter("ctrl.rcu_data_accesses") =
      rcu_.inserts() + rcu_.block_hits() + rcu_.merged_flushes() +
      rcu_.idle_flushes() + rcu_.capacity_flushes();
  if (tags_.ways() > 1) {
    // Probe-served read hits vs those that needed a second data burst.
    stats.Counter("ctrl.mru_hits") =
        read_hits_ - rcu_served_reads_ - non_mru_hits_;
    stats.Counter("ctrl.non_mru_hits") = non_mru_hits_;
  }
}

void RedCacheController::SnapshotPolicy(ser::Writer& w) const {
  w.Section("redc");
  tags_.Snapshot(w);
  alpha_.Snapshot(w);
  gamma_.Snapshot(w);
  rcu_.Snapshot(w);
  w.U64(pending_rcu_flushes_.size());
  for (const RcuManager::Entry& e : pending_rcu_flushes_) {
    RcuManager::SnapshotEntry(w, e);
  }
  w.U64(epoch_request_count_);
  w.U64(epoch_departures_);
  w.U64(epoch_dead_departures_);
  w.U64Seq(recent_invalidations_);
  for (const std::uint64_t* c : CheckpointCounters(*this)) w.U64(*c);
  if (tags_.ways() > 1) w.U64(non_mru_hits_);
}

void RedCacheController::RestorePolicy(ser::Reader& r) {
  r.Section("redc");
  tags_.Restore(r);
  alpha_.Restore(r);
  gamma_.Restore(r);
  rcu_.Restore(r);
  pending_rcu_flushes_.clear();
  const std::size_t n = r.SeqLen(32);
  for (std::size_t i = 0; i < n; ++i) {
    pending_rcu_flushes_.push_back(RcuManager::RestoreEntry(r));
  }
  epoch_request_count_ = r.U64();
  epoch_departures_ = r.U64();
  epoch_dead_departures_ = r.U64();
  if (r.SeqLen(8) != recent_invalidations_.size()) {
    throw ser::SerializeError("invalidation signature size mismatch");
  }
  for (Addr& a : recent_invalidations_) a = r.U64();
  for (std::uint64_t* c : CheckpointCounters(*this)) *c = r.U64();
  if (tags_.ways() > 1) non_mru_hits_ = r.U64();
  resident_ = tags_.CountValid();
}

}  // namespace redcache
