#include "shard/sharded_cluster.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <cstdio>

#include "obs/metrics.h"

namespace helios::shard {
namespace {

/// Seeded bug for the src/check mutation-detection test: the recovery
/// resolver skips the durable status lookup and blindly re-finalizes
/// every staged intent as committed — so a transaction whose coordinator
/// never decided (or decided abort) can commit on one shard while a
/// sibling slice aborts, which the shard-atomicity and staged-resolution
/// oracles must catch. Cached after the first call; never set this in a
/// measurement process.
bool MutationSkipStagedResolution() {
  static const bool on = [] {
    const char* m = std::getenv("HELIOS_CHECK_MUTATION");
    return m != nullptr && std::strcmp(m, "skip_staged_resolution") == 0;
  }();
  return on;
}

}  // namespace

ShardedCluster::ShardedCluster(sim::Scheduler* scheduler,
                               sim::Network* network,
                               core::HeliosConfig config, ShardMap map,
                               core::LogProtocolKind kind, std::string name)
    : scheduler_(scheduler),
      config_(std::move(config)),
      map_(std::move(map)),
      name_(std::move(name)) {
  // Unconditional (not assert): an invalid map silently misroutes keys —
  // overlapping or empty partitions — and an NDEBUG build would proceed
  // with corrupted placement instead of failing loudly.
  if (const Status map_ok = map_.Validate(); !map_ok.ok()) {
    std::fprintf(stderr, "ShardedCluster(%s): invalid shard map: %s\n",
                 name_.c_str(), map_ok.ToString().c_str());
    std::abort();
  }
  const int num_shards = map_.num_shards();
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    // Interleave the per-shard TxnId sequences: shard s mints residue
    // s+1 (mod S+1), leaving residue 0 to the cross-shard coordinator.
    core::HeliosConfig shard_config = config_;
    shard_config.txn_seq_start = static_cast<uint64_t>(s) + 1;
    shard_config.txn_seq_stride = static_cast<uint64_t>(num_shards) + 1;
    auto cluster = std::make_unique<core::HeliosCluster>(
        scheduler, network, std::move(shard_config), kind,
        name_ + "/s" + std::to_string(s));
    cluster->SetHistoryRecorder(&history_);
    cluster->SetStagedResolver([this](DcId dc, const TxnId& id) {
      return ResolveStaged(dc, id);
    });
    shards_.push_back(std::move(cluster));
  }
  status_.resize(static_cast<size_t>(config_.num_datacenters));
  next_xseq_.assign(static_cast<size_t>(config_.num_datacenters), 0);
}

void ShardedCluster::Start() {
  assert(!started_);
  started_ = true;
  for (const auto& sc : shards_) sc->Start();
}

void ShardedCluster::LoadInitialAll(const Key& key, const Value& value) {
  shards_[static_cast<size_t>(map_.ShardOf(key))]->LoadInitialAll(key, value);
}

void ShardedCluster::ClientRead(DcId client_dc, const Key& key,
                                ReadCallback done) {
  shards_[static_cast<size_t>(map_.ShardOf(key))]->ClientRead(
      client_dc, key, std::move(done));
}

void ShardedCluster::ClientCommit(DcId client_dc,
                                  std::vector<ReadEntry> reads,
                                  std::vector<WriteEntry> writes,
                                  CommitCallback done) {
  SliceMap slices;
  for (const ReadEntry& r : reads) {
    slices[map_.ShardOf(r.key)].first.push_back(r);
  }
  for (const WriteEntry& w : writes) {
    slices[map_.ShardOf(w.key)].second.push_back(w);
  }
  if (slices.size() <= 1) {
    // Unchanged Helios fast path: the owning shard handles everything.
    ++xstats_.single_shard;
    const int s = slices.empty() ? 0 : slices.begin()->first;
    shards_[static_cast<size_t>(s)]->ClientCommit(
        client_dc, std::move(reads), std::move(writes), std::move(done));
    return;
  }
  // Cross-shard: one client link to the coordinator (co-located with the
  // datacenter's shard nodes), which is pure bookkeeping — all service
  // cost is paid by the per-shard admissions it fans out to.
  scheduler_->After(
      config_.client_link_one_way,
      [this, client_dc, slices = std::move(slices),
       reads = std::move(reads), writes = std::move(writes),
       done = std::move(done)]() mutable {
        if (datacenter_down(client_dc)) return;  // Client times out.
        const uint64_t stride = static_cast<uint64_t>(map_.num_shards()) + 1;
        const TxnId id{client_dc,
                       ++next_xseq_[static_cast<size_t>(client_dc)] * stride};
        StartCrossShard(client_dc, std::move(slices),
                        MakeTxnBody(id, std::move(reads), std::move(writes)),
                        std::move(done));
      });
}

void ShardedCluster::StartCrossShard(DcId dc, SliceMap slices, TxnBodyPtr body,
                                     CommitCallback done) {
  const TxnId id = body->id;
  CrossShardTxn x;
  x.dc = dc;
  for (const auto& [s, rw] : slices) x.participants.push_back(s);
  x.body = std::move(body);
  x.done = std::move(done);
  ++xstats_.staged;
  // The durable STAGED record must exist before any slice can write an
  // intent, or a crash could find an intent with no status to resolve.
  status_[static_cast<size_t>(dc)].Stage(id, x.participants);
  inflight_.emplace(id, std::move(x));
  for (auto& [s, rw] : slices) {
    node(s, dc).HandleStagedCommit(
        id, std::move(rw.first), std::move(rw.second),
        [this, s](const core::StagedAdmitOutcome& out) {
          OnSliceAdmitted(s, out);
        },
        [this, s](const core::StagedCommitOutcome& out) {
          OnSlicePrepared(s, out);
        });
  }
}

void ShardedCluster::OnSliceAdmitted(int s,
                                     const core::StagedAdmitOutcome& out) {
  auto it = inflight_.find(out.id);
  if (it == inflight_.end()) return;  // Already decided; see Advance.
  CrossShardTxn& x = it->second;
  if (out.admitted) {
    x.admitted[s] = out.request_ts;
  } else {
    x.failed.insert(s);
    if (x.abort_reason.empty()) x.abort_reason = out.abort_reason;
  }
  Advance(out.id);
}

void ShardedCluster::OnSlicePrepared(int s,
                                     const core::StagedCommitOutcome& out) {
  auto it = inflight_.find(out.id);
  if (it == inflight_.end()) return;  // Already decided; see Advance.
  CrossShardTxn& x = it->second;
  if (out.prepared) {
    x.prepared.insert(s);
    x.max_proposed = std::max(x.max_proposed, out.proposed_ts);
  } else {
    x.failed.insert(s);
    x.prepared.erase(s);
    if (x.abort_reason.empty()) x.abort_reason = out.abort_reason;
  }
  Advance(out.id);
}

void ShardedCluster::Advance(const TxnId& id) {
  auto it = inflight_.find(id);
  assert(it != inflight_.end());
  CrossShardTxn& x = it->second;
  const size_t n = x.participants.size();
  const Duration link = config_.client_link_one_way;

  if (!x.failed.empty()) {
    // Abort immediately. The finalize resolves every slice that has not
    // failed, whatever its state: each slice's admission was queued before
    // this finalize on its node's FIFO service queue, so the finalize finds
    // the slice parked (cancelled), pending (aborted) or held (abort
    // record). A positive ack arriving after this decision finds the
    // transaction gone from inflight_ and is ignored: the finalize, which
    // runs on that slice's queue after the ack, releases what it reported.
    // A commit decision, in turn, consumes every participant's acks first.
    status_[static_cast<size_t>(x.dc)].Abort(id);
    ++xstats_.aborted;
    for (const int s : x.participants) {
      if (x.failed.count(s) > 0) continue;  // Already aborted itself.
      node(s, x.dc).HandleFinalizeStaged(id, false, kMinTimestamp);
    }
    const std::string reason =
        x.abort_reason.empty() ? "xshard:abort" : x.abort_reason;
    CommitCallback done = std::move(x.done);
    inflight_.erase(it);
    scheduler_->After(link, [done = std::move(done), id, reason]() {
      done(CommitOutcome{id, false, reason});
    });
    return;
  }

  if (!x.floor_sent && x.admitted.size() == n) {
    // Every slice admitted: raise all commit waits to the shared base so
    // the per-slice waits compose (see HandleRaiseStagedWait), then let
    // them run concurrently — the parallel-commit latency win.
    x.floor_sent = true;
    Timestamp base = kMinTimestamp;
    for (const auto& [s, q] : x.admitted) base = std::max(base, q);
    for (const int s : x.participants) {
      node(s, x.dc).HandleRaiseStagedWait(id, base);
    }
    return;
  }

  if (x.prepared.size() == n) {
    // Implicit commit: every intent is durable and its wait passed. Flip
    // the durable status BEFORE the client reply — that write is what
    // recovery trusts — then finalize the slices asynchronously.
    const Timestamp commit_ts = x.max_proposed;
    status_[static_cast<size_t>(x.dc)].Commit(id, commit_ts);
    ++xstats_.committed;
    history_.RecordCommit(core::CommittedTxn{id, x.dc, commit_ts, x.body});
    for (const int s : x.participants) {
      node(s, x.dc).HandleFinalizeStaged(id, true, commit_ts);
    }
    CommitCallback done = std::move(x.done);
    inflight_.erase(it);
    scheduler_->After(link, [done = std::move(done), id]() {
      done(CommitOutcome{id, true, ""});
    });
  }
}

core::StagedResolution ShardedCluster::ResolveStaged(DcId dc,
                                                     const TxnId& id) {
  core::StagedResolution res;
  const TxnStatusRecord* rec = status_[static_cast<size_t>(dc)].Lookup(id);
  if (rec == nullptr) return res;  // Not a cross-shard transaction.
  if (MutationSkipStagedResolution()) {
    // Seeded bug: trust the intent, never the verdict (see above).
    res.status = core::StagedStatus::kCommitted;
    res.commit_ts =
        rec->commit_ts != kMinTimestamp ? rec->commit_ts : Timestamp{0};
    return res;
  }
  switch (rec->status) {
    case TxnStatus::kCommitted:
      res.status = core::StagedStatus::kCommitted;
      res.commit_ts = rec->commit_ts;
      break;
    case TxnStatus::kAborted:
      res.status = core::StagedStatus::kAborted;
      break;
    case TxnStatus::kStaged:
      // The coordinator died mid-commit and never decided: decide abort
      // durably NOW, so every sibling slice — asking at any later
      // recovery — resolves identically. Safe because the client cannot
      // have seen a commit (the reply follows the COMMITTED write).
      status_[static_cast<size_t>(dc)].Abort(id);
      ++xstats_.resolved_aborts;
      res.status = core::StagedStatus::kAborted;
      break;
  }
  return res;
}

void ShardedCluster::ClientReadOnly(DcId client_dc, std::vector<Key> keys,
                                    ReadOnlyCallback done) {
  std::map<int, std::vector<size_t>> by_shard;
  for (size_t i = 0; i < keys.size(); ++i) {
    by_shard[map_.ShardOf(keys[i])].push_back(i);
  }
  if (by_shard.size() <= 1) {
    const int s = by_shard.empty() ? 0 : by_shard.begin()->first;
    shards_[static_cast<size_t>(s)]->ClientReadOnly(client_dc, std::move(keys),
                                                    std::move(done));
    return;
  }
  // Cross-shard read-only: one consistent snapshot per shard, merged in
  // input order. The snapshots are taken at slightly different instants,
  // so the combined result is NOT one atomic snapshot across shards
  // (docs/SHARDING.md documents the tearing).
  struct Merge {
    std::vector<Result<VersionedValue>> results;
    size_t remaining = 0;
  };
  auto merge = std::make_shared<Merge>();
  merge->results.resize(keys.size(),
                        Status::Unavailable("read-only shard never replied"));
  merge->remaining = by_shard.size();
  const Duration link = config_.client_link_one_way;
  scheduler_->After(link, [this, client_dc, keys = std::move(keys),
                           by_shard = std::move(by_shard), merge,
                           done = std::move(done), link]() mutable {
    for (auto& [s, idxs] : by_shard) {
      std::vector<Key> shard_keys;
      shard_keys.reserve(idxs.size());
      for (const size_t i : idxs) shard_keys.push_back(keys[i]);
      node(s, client_dc)
          .HandleReadOnly(
              std::move(shard_keys),
              [this, merge, idxs, done, link](
                  std::vector<Result<VersionedValue>> results) {
                for (size_t j = 0; j < idxs.size(); ++j) {
                  merge->results[idxs[j]] = std::move(results[j]);
                }
                if (--merge->remaining > 0) return;
                scheduler_->After(link, [merge, done]() {
                  done(std::move(merge->results));
                });
              });
    }
  });
}

void ShardedCluster::SetObservability(obs::TraceRecorder* trace,
                                      obs::MetricsRegistry* metrics) {
  for (const auto& sc : shards_) sc->SetObservability(trace, metrics);
}

void ShardedCluster::SetDatacenterDown(DcId dc, bool down) {
  if (down) {
    // The coordinator is co-located with the datacenter's shard nodes and
    // shares their fate: its volatile state for transactions it was
    // driving dies with it. The durable status table survives.
    for (auto it = inflight_.begin(); it != inflight_.end();) {
      it = it->first.origin == dc ? inflight_.erase(it) : std::next(it);
    }
  }
  for (const auto& sc : shards_) sc->SetDatacenterDown(dc, down);
}

void ShardedCluster::InjectStall(DcId dc, Duration pause) {
  for (const auto& sc : shards_) sc->InjectStall(dc, pause);
}

void ShardedCluster::InjectFsyncStall(DcId dc, Duration per_record,
                                      Duration window) {
  for (const auto& sc : shards_) sc->InjectFsyncStall(dc, per_record, window);
}

void ShardedCluster::set_envelope_sizer(
    core::HeliosCluster::EnvelopeSizer sizer) {
  for (const auto& sc : shards_) sc->set_envelope_sizer(sizer);
}

RecoveryStats ShardedCluster::recovery_snapshot() const {
  RecoveryStats total;
  for (const auto& sc : shards_) {
    const RecoveryStats& s = sc->recovery_stats();
    total.recoveries = std::max(total.recoveries, s.recoveries);
    total.records_replayed += s.records_replayed;
    total.catchup_records += s.catchup_records;
    total.duration_us += s.duration_us;
  }
  return total;
}

core::NodeCounters ShardedCluster::AggregateCounters() const {
  core::NodeCounters total;
  for (const auto& sc : shards_) {
    const core::NodeCounters c = sc->AggregateCounters();
    total.read_requests += c.read_requests;
    total.commit_requests += c.commit_requests;
    total.commits += c.commits;
    total.aborts_on_request += c.aborts_on_request;
    total.aborts_by_remote += c.aborts_by_remote;
    total.aborts_liveness += c.aborts_liveness;
    total.records_ingested += c.records_ingested;
    total.envelopes_sent += c.envelopes_sent;
    total.refusals_issued += c.refusals_issued;
    total.read_only_txns += c.read_only_txns;
    total.suspicions += c.suspicions;
    total.readmissions += c.readmissions;
    total.suspicion_refusals += c.suspicion_refusals;
    total.degraded_commits += c.degraded_commits;
    total.hedged_pulls += c.hedged_pulls;
    total.staged_requests += c.staged_requests;
    total.staged_waits += c.staged_waits;
    total.staged_prepared += c.staged_prepared;
    total.staged_commits += c.staged_commits;
    total.staged_aborts += c.staged_aborts;
    total.staged_resolved += c.staged_resolved;
  }
  return total;
}

void ShardedCluster::ExportMetrics(obs::MetricsRegistry* registry) const {
  const core::NodeCounters total = AggregateCounters();
  registry->counter("node.read_requests").Set(total.read_requests);
  registry->counter("node.commit_requests").Set(total.commit_requests);
  registry->counter("node.commits").Set(total.commits);
  registry->counter("node.aborts_on_request").Set(total.aborts_on_request);
  registry->counter("node.aborts_by_remote").Set(total.aborts_by_remote);
  registry->counter("node.aborts_liveness").Set(total.aborts_liveness);
  registry->counter("node.records_ingested").Set(total.records_ingested);
  registry->counter("node.envelopes_sent").Set(total.envelopes_sent);
  registry->counter("node.refusals_issued").Set(total.refusals_issued);
  registry->counter("node.read_only_txns").Set(total.read_only_txns);
  // Client-facing totals: fast-path commits decided by shard nodes plus
  // cross-shard transactions decided by the coordinator.
  registry->counter("protocol.commits").Set(total.commits + xstats_.committed);
  registry->counter("protocol.aborts")
      .Set(total.total_aborts() + xstats_.aborted);
  // Cross-shard parallel-commit lifecycle (coordinator + slice views).
  registry->counter("xshard.single_shard").Set(xstats_.single_shard);
  registry->counter("xshard.staged").Set(xstats_.staged);
  registry->counter("xshard.committed").Set(xstats_.committed);
  registry->counter("xshard.aborted").Set(xstats_.aborted);
  registry->counter("xshard.resolved_aborts").Set(xstats_.resolved_aborts);
  registry->counter("xshard.slices_staged").Set(total.staged_requests);
  registry->counter("xshard.slices_waited").Set(total.staged_waits);
  registry->counter("xshard.slices_prepared").Set(total.staged_prepared);
  registry->counter("xshard.slices_committed").Set(total.staged_commits);
  registry->counter("xshard.slices_aborted").Set(total.staged_aborts);
  registry->counter("xshard.slices_resolved").Set(total.staged_resolved);
  ExportRecoveryMetrics(registry);
  for (DcId dc = 0; dc < config_.num_datacenters; ++dc) {
    const std::string prefix = "node.dc" + std::to_string(dc);
    double pt = 0.0, ept = 0.0, busy = 0.0, held = 0.0;
    for (const auto& sc : shards_) {
      pt += static_cast<double>(sc->node(dc).pt_pool_size());
      ept += static_cast<double>(sc->node(dc).ept_pool_size());
      busy += static_cast<double>(sc->node(dc).service_queue().total_busy());
      held += static_cast<double>(sc->node(dc).staged_hold_count());
    }
    registry->gauge(prefix + ".pt_pool").Set(pt);
    registry->gauge(prefix + ".ept_pool").Set(ept);
    registry->gauge(prefix + ".service_busy_us").Set(busy);
    registry->gauge(prefix + ".staged_holds").Set(held);
  }
  // Per-shard commit volume, so load imbalance across the partition is
  // visible in reports.
  for (int s = 0; s < num_shards(); ++s) {
    const core::NodeCounters c = shards_[static_cast<size_t>(s)]
                                     ->AggregateCounters();
    const std::string prefix = "shard.s" + std::to_string(s);
    registry->counter(prefix + ".commits").Set(c.commits);
    registry->counter(prefix + ".staged_commits").Set(c.staged_commits);
    registry->counter(prefix + ".records_ingested").Set(c.records_ingested);
  }
  if (config_.health.enabled) {
    registry->counter("health.suspicions").Set(total.suspicions);
    registry->counter("health.readmissions").Set(total.readmissions);
    registry->counter("health.suspicion_refusals")
        .Set(total.suspicion_refusals);
    registry->counter("health.degraded_commits").Set(total.degraded_commits);
    registry->counter("health.hedged_pulls").Set(total.hedged_pulls);
    for (DcId dc = 0; dc < config_.num_datacenters; ++dc) {
      const std::string prefix = "health.dc" + std::to_string(dc);
      double suspected = 0.0;
      for (DcId peer = 0; peer < config_.num_datacenters; ++peer) {
        if (peer == dc) continue;
        double phi = 0.0;
        bool suspects = false;
        for (const auto& sc : shards_) {
          phi = std::max(phi, sc->node(dc).HealthPhi(peer));
          suspects = suspects || sc->node(dc).Suspects(peer);
        }
        registry->gauge(prefix + ".phi.dc" + std::to_string(peer)).Set(phi);
        if (suspects) suspected += 1.0;
      }
      registry->gauge(prefix + ".suspected").Set(suspected);
    }
  }
}

}  // namespace helios::shard
