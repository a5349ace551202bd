#include "dramcache/assoc_redcache.hpp"

#include <cassert>

#include "dramcache/policy_registry.hpp"

namespace redcache {

namespace {
PolicyInfo AssocInfo(std::string name, std::uint32_t ways,
                     const char* display) {
  return {.name = std::move(name),
          .summary = std::to_string(ways) +
                     "-way LRU RedCache (R-Cache direction extension)",
          .family = "redcache",
          .differential = false,
          .golden = false,
          .sweep = false,
          .make = [ways, display](const MemControllerConfig& cfg) {
            return std::make_unique<AssocRedCacheController>(
                cfg, RedCacheOptions::Full(), ways, display);
          }};
}
}  // namespace

REDCACHE_REGISTER_POLICY(redcache_2way,
                         (AssocInfo("RedCache-2way", 2, "redcache-2way")));
REDCACHE_REGISTER_POLICY(redcache_4way,
                         (AssocInfo("RedCache-4way", 4, "redcache-4way")));
REDCACHE_REGISTER_POLICY(redcache_8way,
                         (AssocInfo("RedCache-8way", 8, "redcache-8way")));

namespace {
enum State {
  kProbe = 0,     ///< waiting for the tag probe (+ MRU data) read
  kWayFetch,      ///< hit on a non-MRU way: extra data burst in flight
  kMissFetch,     ///< waiting for main memory
  kDirectFetch,   ///< bypassed read served by main memory
};
}  // namespace

AssocRedCacheController::AssocRedCacheController(MemControllerConfig cfg,
                                                 RedCacheOptions options,
                                                 std::uint32_t ways,
                                                 const char* display_name)
    : ControllerBase((cfg.has_hbm = true, cfg)),
      opt_(options),
      display_name_(display_name),
      tags_(cfg.hbm.geometry.capacity_bytes, ways),
      alpha_(options.alpha),
      gamma_(options.gamma),
      rcu_(options.rcu_entries) {
  assert(ways >= 1);
}

std::uint32_t AssocRedCacheController::MruWay(std::uint64_t set) const {
  std::uint32_t mru = 0;
  for (std::uint32_t w = 1; w < tags_.ways(); ++w) {
    if (tags_.line(set, w).valid &&
        (!tags_.line(set, mru).valid ||
         tags_.line(set, w).lru > tags_.line(set, mru).lru)) {
      mru = w;
    }
  }
  return mru;
}

void AssocRedCacheController::Depart(std::uint64_t set, std::uint32_t way,
                                     bool lifetime_sample) {
  AssocTags::Line& line = tags_.line(set, way);
  if (!line.write_filled) {
    epoch_departures_++;
    if (line.r_count == 0) epoch_dead_departures_++;
  }
  if (lifetime_sample && opt_.gamma_enabled && line.r_count > 0) {
    gamma_.OnLifetimeSample(line.r_count);
  }
  line.valid = false;
  line.dirty = false;
}

void AssocRedCacheController::Fill(Addr addr, bool dirty, Cycle now) {
  const std::uint64_t set = tags_.SetOf(addr);
  const std::uint32_t way = tags_.VictimWay(set);
  AssocTags::Line& line = tags_.line(set, way);
  if (line.valid) {
    rcu_.Remove(tags_.VictimAddr(set, way));
    if (line.dirty) {
      // Dirty victim needs its data streamed out before the writeback.
      SendHbm(kPostedOp, tags_.HbmAddr(set, way), /*is_write=*/false, now);
      SendMm(kPostedOp, tags_.VictimAddr(set, way), /*is_write=*/true, now);
      victim_writebacks_++;
    }
    Depart(set, way, /*lifetime_sample=*/true);
  }
  line.valid = true;
  line.dirty = dirty;
  line.write_filled = dirty;
  line.tag = tags_.TagOf(addr);
  line.r_count = 0;
  tags_.Touch(set, way);
  SendHbm(kPostedOp, tags_.HbmAddr(set, way), /*is_write=*/true, now);
  fills_++;
}

void AssocRedCacheController::StartTxn(Txn& txn, Cycle now) {
  epoch_request_count_++;
  if (epoch_request_count_ >= opt_.epoch_requests) {
    epoch_request_count_ = 0;
    alpha_.AdvanceEpoch();
    if (opt_.alpha_enabled && epoch_departures_ > 0) {
      alpha_.Retune(static_cast<double>(epoch_dead_departures_) /
                    static_cast<double>(epoch_departures_));
    }
    epoch_departures_ = 0;
    epoch_dead_departures_ = 0;
  }

  if (opt_.alpha_enabled && !alpha_.OnRequest(txn.addr)) {
    alpha_bypasses_++;
    if (txn.is_writeback) {
      SendMm(kPostedOp, txn.addr, /*is_write=*/true, now);
      FreeTxn(txn);
      return;
    }
    txn.state = kDirectFetch;
    SendMm(TxnIndex(txn), txn.addr, /*is_write=*/false, now);
    return;
  }

  txn.state = kProbe;
  const std::uint64_t set = tags_.SetOf(txn.addr);
  SendHbm(TxnIndex(txn), tags_.HbmAddr(set, MruWay(set)), /*is_write=*/false,
          now);
}

void AssocRedCacheController::HandleProbeResult(Txn& txn,
                                                const DramCompletion& c,
                                                Cycle now) {
  const std::uint64_t set = tags_.SetOf(txn.addr);
  const std::uint32_t way = tags_.FindWay(txn.addr);

  if (way != tags_.ways()) {
    hits_++;
    const std::uint32_t r = tags_.BumpRcount(set, way);
    if (opt_.gamma_enabled) gamma_.OnHit(r);
    AssocTags::Line& line = tags_.line(set, way);

    if (txn.is_writeback) {
      if (opt_.gamma_enabled && gamma_.IsLastWrite(r)) {
        gamma_invalidations_++;
        rcu_.Remove(txn.addr);
        Depart(set, way, /*lifetime_sample=*/false);
        SendMm(kPostedOp, txn.addr, /*is_write=*/true, now);
      } else {
        line.dirty = true;
        tags_.Touch(set, way);
        SendHbm(kPostedOp, tags_.HbmAddr(set, way), /*is_write=*/true, now);
      }
      FreeTxn(txn);
      return;
    }

    const bool was_mru = way == MruWay(set);
    tags_.Touch(set, way);
    if (was_mru) {
      mru_hits_++;
      NotifyServeRead(txn, ServeSource::kCache);
      CompleteRead(txn, c.done);
      switch (opt_.update_mode) {
        case RedCacheOptions::UpdateMode::kInSitu:
          insitu_updates_++;
          break;
        case RedCacheOptions::UpdateMode::kImmediate:
          immediate_updates_++;
          SendHbm(kPostedOp, tags_.HbmAddr(set, way), /*is_write=*/true, now);
          break;
        case RedCacheOptions::UpdateMode::kRcu:
          FlushRcuEntries(
              rcu_.Insert(txn.addr,
                          hbm_->mapper().Map(tags_.HbmAddr(set, way))),
              now);
          break;
      }
      FreeTxn(txn);
      return;
    }
    // Hit on a non-MRU way: the probe brought the wrong data; fetch the
    // right block with one more burst.
    non_mru_hits_++;
    txn.state = kWayFetch;
    txn.aux = way;
    SendHbm(TxnIndex(txn), tags_.HbmAddr(set, way), /*is_write=*/false, now);
    return;
  }

  misses_++;
  if (txn.is_writeback) {
    const std::uint32_t victim = tags_.VictimWay(set);
    if (tags_.line(set, victim).valid && tags_.line(set, victim).dirty) {
      SendMm(kPostedOp, txn.addr, /*is_write=*/true, now);
    } else {
      Fill(txn.addr, /*dirty=*/true, now);
    }
    FreeTxn(txn);
    return;
  }
  txn.state = kMissFetch;
  SendMm(TxnIndex(txn), txn.addr, /*is_write=*/false, now);
}

void AssocRedCacheController::OnDeviceComplete(Txn& txn, bool /*from_hbm*/,
                                               const DramCompletion& c,
                                               Cycle now) {
  switch (txn.state) {
    case kProbe:
      HandleProbeResult(txn, c, now);
      return;
    case kWayFetch: {
      NotifyServeRead(txn, ServeSource::kCache);
      CompleteRead(txn, c.done);
      if (opt_.update_mode == RedCacheOptions::UpdateMode::kRcu) {
        const std::uint64_t set = tags_.SetOf(txn.addr);
        FlushRcuEntries(
            rcu_.Insert(txn.addr,
                        hbm_->mapper().Map(tags_.HbmAddr(set, txn.aux))),
            now);
      } else if (opt_.update_mode ==
                 RedCacheOptions::UpdateMode::kImmediate) {
        immediate_updates_++;
        const std::uint64_t set = tags_.SetOf(txn.addr);
        SendHbm(kPostedOp, tags_.HbmAddr(set, txn.aux), /*is_write=*/true,
                now);
      } else {
        insitu_updates_++;
      }
      FreeTxn(txn);
      return;
    }
    case kMissFetch:
      NotifyServeRead(txn, ServeSource::kMainMemory);
      CompleteRead(txn, c.done);
      Fill(txn.addr, /*dirty=*/false, now);
      FreeTxn(txn);
      return;
    case kDirectFetch:
      NotifyServeRead(txn, ServeSource::kMainMemory);
      CompleteRead(txn, c.done);
      FreeTxn(txn);
      return;
  }
}

void AssocRedCacheController::FlushRcuEntries(
    const std::vector<RcuManager::Entry>& entries, Cycle now) {
  for (const RcuManager::Entry& e : entries) {
    const std::uint64_t set = tags_.SetOf(e.block);
    const std::uint32_t way = tags_.FindWay(e.block);
    if (way == tags_.ways()) continue;  // evicted meanwhile: update moot
    SendHbm(kPostedOp, tags_.HbmAddr(set, way), /*is_write=*/true, now);
  }
}

void AssocRedCacheController::OnColumnCommand(const IssuedColumnCommand& cmd) {
  if (opt_.update_mode != RedCacheOptions::UpdateMode::kRcu || !cmd.is_write) {
    return;
  }
  auto matches = rcu_.MatchIndex(cmd.loc);
  pending_rcu_flushes_.insert(pending_rcu_flushes_.end(), matches.begin(),
                              matches.end());
}

void AssocRedCacheController::PolicyTick(Cycle now) {
  if (opt_.update_mode != RedCacheOptions::UpdateMode::kRcu) return;
  if (!pending_rcu_flushes_.empty()) {
    FlushRcuEntries(pending_rcu_flushes_, now);
    pending_rcu_flushes_.clear();
  }
  rcu_.DrainIdle(HbmChannelIdle(),
                 [&](const std::vector<RcuManager::Entry>& entries) {
                   FlushRcuEntries(entries, now);
                 });
}

Cycle AssocRedCacheController::PolicyWake(Cycle now) const {
  if (opt_.update_mode != RedCacheOptions::UpdateMode::kRcu) {
    return kNeverWake;
  }
  // Same contract as RedCacheController::PolicyWake: only a parked update
  // whose own channel is idle keeps the run loop visiting.
  if (!pending_rcu_flushes_.empty()) return now + 1;
  return rcu_.IdleDrainDue(HbmChannelIdle()) ? now + 1 : kNeverWake;
}

void AssocRedCacheController::ExportOwnStats(StatSet& stats) const {
  stats.Counter("ctrl.cache_hits") = hits_;
  stats.Counter("ctrl.cache_misses") = misses_;
  stats.Counter("ctrl.mru_hits") = mru_hits_;
  stats.Counter("ctrl.non_mru_hits") = non_mru_hits_;
  stats.Counter("ctrl.fills") = fills_;
  stats.Counter("ctrl.victim_writebacks") = victim_writebacks_;
  stats.Counter("ctrl.alpha_bypasses") = alpha_bypasses_;
  stats.Counter("ctrl.gamma_invalidations") = gamma_invalidations_;
  stats.Counter("ctrl.alpha_lookups") = alpha_.lookups();
  stats.Counter("ctrl.alpha_value") = alpha_.alpha();
  stats.Counter("ctrl.gamma_value") = gamma_.gamma();
  stats.Counter("ctrl.insitu_updates") = insitu_updates_;
  stats.Counter("ctrl.immediate_updates") = immediate_updates_;
  stats.Counter("ctrl.rcu_searches") = rcu_.searches();
  stats.Counter("ctrl.rcu_inserts") = rcu_.inserts();
  stats.Counter("ctrl.rcu_data_accesses") =
      rcu_.inserts() + rcu_.merged_flushes() + rcu_.idle_flushes() +
      rcu_.capacity_flushes();
}

void AssocRedCacheController::SnapshotPolicy(ser::Writer& w) const {
  w.Section("aredc");
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
  w.U64(hits_);
  w.U64(misses_);
  w.U64(mru_hits_);
  w.U64(non_mru_hits_);
  w.U64(fills_);
  w.U64(victim_writebacks_);
  w.U64(alpha_bypasses_);
  w.U64(gamma_invalidations_);
  w.U64(insitu_updates_);
  w.U64(immediate_updates_);
}

void AssocRedCacheController::RestorePolicy(ser::Reader& r) {
  r.Section("aredc");
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
  hits_ = r.U64();
  misses_ = r.U64();
  mru_hits_ = r.U64();
  non_mru_hits_ = r.U64();
  fills_ = r.U64();
  victim_writebacks_ = r.U64();
  alpha_bypasses_ = r.U64();
  gamma_invalidations_ = r.U64();
  insitu_updates_ = r.U64();
  immediate_updates_ = r.U64();
}

}  // namespace redcache
