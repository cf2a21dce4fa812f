#include "baselines/baseline_cluster.h"

#include <cassert>

#include "sim/reliable.h"

namespace helios::baselines {

BaselineCluster::BaselineCluster(sim::Scheduler* scheduler,
                                 sim::Network* network, int num_datacenters,
                                 Duration client_link_one_way,
                                 Duration decision_timeout,
                                 const core::ServiceModel& service,
                                 const std::vector<Duration>& clock_offsets,
                                 DcId coordinator)
    : scheduler_(scheduler),
      decision_timeout_(decision_timeout),
      network_(network),
      num_datacenters_(num_datacenters),
      client_link_one_way_(client_link_one_way),
      read_cost_(service.read),
      coordinator_(coordinator),
      stores_(static_cast<size_t>(num_datacenters)),
      services_(static_cast<size_t>(num_datacenters),
                sim::ServiceQueue(scheduler)),
      journaled_(static_cast<size_t>(num_datacenters)),
      dc_state_(static_cast<size_t>(num_datacenters)) {
  assert(network_->size() == num_datacenters_);
  for (DcId dc = 0; dc < num_datacenters_; ++dc) {
    const Duration offset =
        clock_offsets.empty() ? 0 : clock_offsets[static_cast<size_t>(dc)];
    clocks_.push_back(std::make_unique<sim::Clock>(scheduler_, offset));
    wals_.push_back(std::make_unique<wal::MemoryWal>());
  }
}

void BaselineCluster::SetObservability(obs::TraceRecorder* trace,
                                       obs::MetricsRegistry* metrics) {
  trace_ = trace;
  h_commit_total_us_ =
      metrics == nullptr ? nullptr : &metrics->histogram("txn.commit_total_us");
  h_abort_total_us_ =
      metrics == nullptr ? nullptr : &metrics->histogram("txn.abort_total_us");
}

void BaselineCluster::ExportMetrics(obs::MetricsRegistry* registry) const {
  registry->counter("protocol.commits").Set(commits_);
  registry->counter("protocol.aborts").Set(aborts_);
  ExportRecoveryMetrics(registry);
}

void BaselineCluster::RecordDecision(DcId dc, const TxnId& txn, bool commit,
                                     sim::SimTime t0,
                                     const std::string& reason) {
  const sim::SimTime now = scheduler_->Now();
  if (trace_ != nullptr) {
    trace_->Span(obs::EventKind::kTxnServer, dc, txn, t0, now, kInvalidDc,
                 reason);
    trace_->Instant(commit ? obs::EventKind::kTxnCommit
                           : obs::EventKind::kTxnAbort,
                    dc, txn, now, kInvalidDc, reason);
  }
  obs::Histogram* h = commit ? h_commit_total_us_ : h_abort_total_us_;
  if (h != nullptr) h->Observe(static_cast<double>(now - t0));
}

// --- Routing -----------------------------------------------------------------

void BaselineCluster::WanSend(DcId from, DcId to, std::function<void()> fn) {
  if (mesh_ != nullptr) {
    mesh_->Send(from, to, std::move(fn));
  } else {
    network_->Send(from, to, std::move(fn));
  }
}

void BaselineCluster::Route(DcId home, DcId target, std::function<void()> fn) {
  if (home == target) {
    scheduler_->After(client_link_one_way_, std::move(fn));
  } else {
    scheduler_->After(client_link_one_way_,
                      [this, home, target, fn = std::move(fn)]() {
                        WanSend(home, target, fn);
                      });
  }
}

void BaselineCluster::RouteBack(DcId target, DcId home,
                                std::function<void()> fn) {
  if (home == target) {
    scheduler_->After(client_link_one_way_, std::move(fn));
  } else {
    WanSend(target, home, [this, fn = std::move(fn)]() {
      scheduler_->After(client_link_one_way_, fn);
    });
  }
}

void BaselineCluster::Serve(DcId dc, Duration cost, std::function<void()> fn) {
  Serve(dc, state(dc).gen, cost, std::move(fn));
}

void BaselineCluster::Serve(DcId dc, uint64_t gen, Duration cost,
                            std::function<void()> fn) {
  if (state(dc).down) return;  // A crashed datacenter drops everything.
  service(dc).Submit(cost, [this, dc, gen, fn = std::move(fn)]() {
    if (Alive(dc, gen)) fn();
  });
}

// --- Client surface ----------------------------------------------------------

TxnId BaselineCluster::BeginTxn(DcId client_dc) {
  const TxnId id = ProtocolCluster::BeginTxn(client_dc);
  txn_start_ts_[id] = clock(client_dc).NowUnique();
  return id;
}

Timestamp BaselineCluster::StartTs(DcId home, const TxnId& txn) {
  auto it = txn_start_ts_.find(txn);
  if (it != txn_start_ts_.end()) return it->second;
  return clock(home).Now();
}

void BaselineCluster::LoadInitialAll(const Key& key, const Value& value) {
  // kMinTimestamp, not 0: skewed client clocks can stamp early commits
  // with negative timestamps, and the initial version must never shadow a
  // committed write in the (ts, writer) version order.
  const TxnId loader{-2, next_load_seq_++};
  initial_loads_.emplace_back(key, value);
  for (MvStore& store : stores_) {
    store.ApplyWrite(key, value, kMinTimestamp, loader);
  }
}

void BaselineCluster::ClientCommit(DcId client_dc,
                                   std::vector<ReadEntry> reads,
                                   std::vector<WriteEntry> writes,
                                   CommitCallback done) {
  TxnCommit(client_dc, BeginTxn(client_dc), std::move(reads),
            std::move(writes), std::move(done));
}

void BaselineCluster::ClientRead(DcId client_dc, const Key& key,
                                 ReadCallback done) {
  const DcId server = coordinator_ == kInvalidDc ? client_dc : coordinator_;
  Route(client_dc, server, [this, client_dc, server, key,
                            done = std::move(done)]() {
    Serve(server, read_cost_, [this, client_dc, server, key, done]() {
      auto r = state(server).recovering
                   ? Result<VersionedValue>(Status::Unavailable("recovering"))
                   : store(server).Read(key);
      RouteBack(server, client_dc, [done, r = std::move(r)]() { done(r); });
    });
  });
}

void BaselineCluster::ClientReadOnly(DcId client_dc, std::vector<Key> keys,
                                     ReadOnlyCallback done) {
  const DcId server = coordinator_ == kInvalidDc ? client_dc : coordinator_;
  Route(client_dc, server, [this, client_dc, server, keys = std::move(keys),
                            done = std::move(done)]() {
    Serve(server, read_cost_ * static_cast<Duration>(keys.size()),
          [this, client_dc, server, keys, done]() {
            std::vector<Result<VersionedValue>> out;
            if (state(server).recovering) {
              out.assign(keys.size(), Result<VersionedValue>(
                                          Status::Unavailable("recovering")));
            } else {
              out.reserve(keys.size());
              for (const Key& k : keys) out.push_back(store(server).Read(k));
            }
            RouteBack(server, client_dc,
                      [done, out = std::move(out)]() { done(out); });
          });
  });
}

// --- Journal and crash recovery ---------------------------------------------

bool BaselineCluster::ApplyDecision(DcId dc, const TxnId& txn,
                                    TxnBodyPtr body, Timestamp version_ts) {
  if (!journaled_[static_cast<size_t>(dc)].insert(txn).second) return false;
  rdict::LogRecord rec;
  rec.type = rdict::RecordType::kFinished;
  rec.committed = true;
  rec.ts = version_ts;
  rec.version_ts = version_ts;
  rec.origin = txn.origin;
  rec.body = body;
  (void)wals_[static_cast<size_t>(dc)]->AppendRecord(rec);
  mutable_store(dc).ApplyTxn(*body, version_ts);
  return true;
}

void BaselineCluster::SetDatacenterDown(DcId dc, bool down) {
  DcState& st = dc_state_[static_cast<size_t>(dc)];
  if (down == st.down) return;
  st.down = down;
  if (!down) {
    Recover(dc);
    return;
  }
  // Crash with amnesia. Fresh replacements go in at once so closures
  // queued against the old state hit the generation guard.
  ++st.gen;
  st.recovering = false;
  mutable_store(dc).Clear();
  service(dc) = sim::ServiceQueue(scheduler_);
  OnCrash(dc);
}

DcId BaselineCluster::CatchupPeer(DcId dc) const {
  if (coordinator_ != kInvalidDc && dc != coordinator_ &&
      !state(coordinator_).down) {
    return coordinator_;
  }
  for (DcId p = 0; p < num_datacenters_; ++p) {
    if (p != dc && !state(p).down) return p;
  }
  return kInvalidDc;
}

void BaselineCluster::Recover(DcId dc) {
  DcState& st = dc_state_[static_cast<size_t>(dc)];
  st.recovering = true;
  const sim::SimTime started = scheduler_->Now();
  const uint64_t gen = st.gen;
  // Restore: data loaded outside the protocol first (same TxnIds as the
  // original loads, since they replay in order from 1), then the journal
  // of every decision this datacenter had applied before the crash.
  MvStore& store = mutable_store(dc);
  uint64_t load_seq = 1;
  for (const auto& [key, value] : initial_loads_) {
    store.ApplyWrite(key, value, kMinTimestamp, TxnId{-2, load_seq++});
  }
  const auto& journal = wals_[static_cast<size_t>(dc)]->contents().records;
  for (const auto& rec : journal) {
    if (rec.body != nullptr) store.ApplyTxn(*rec.body, rec.version_ts);
  }
  const uint64_t replayed = journal.size();
  // Catch-up: pull a live peer's journal and apply what the outage missed.
  const DcId peer = CatchupPeer(dc);
  if (peer == kInvalidDc) {
    FinishRecovery(dc, replayed, 0, started);
    return;
  }
  WanSend(dc, peer, [this, dc, peer, gen, replayed, started]() {
    if (state(peer).down) return;  // Request lost; the guard below finishes.
    service(peer).Submit(read_cost_, [this, dc, peer, gen, replayed,
                                      started]() {
      if (state(peer).down) return;
      auto records = std::make_shared<std::vector<rdict::LogRecord>>(
          wals_[static_cast<size_t>(peer)]->contents().records);
      WanSend(peer, dc, [this, dc, gen, replayed, started, records]() {
        if (!Alive(dc, gen) || !state(dc).recovering) return;
        uint64_t fresh = 0;
        for (const auto& rec : *records) {
          // ApplyDecision dedups against everything already applied — the
          // pre-crash journal and decisions delivered since the restart.
          if (rec.body != nullptr &&
              ApplyDecision(dc, rec.body->id, rec.body, rec.version_ts)) {
            ++fresh;
          }
        }
        FinishRecovery(dc, replayed, fresh, started);
      });
    });
  });
  // Guard: if the peer crashes before answering, rejoin with the local
  // journal alone rather than staying wedged in the recovering state.
  scheduler_->After(decision_timeout_, [this, dc, gen, replayed, started]() {
    if (!Alive(dc, gen) || !state(dc).recovering) return;
    FinishRecovery(dc, replayed, 0, started);
  });
}

void BaselineCluster::FinishRecovery(DcId dc, uint64_t records_replayed,
                                     uint64_t catchup_records,
                                     sim::SimTime started) {
  DcState& st = dc_state_[static_cast<size_t>(dc)];
  if (!st.recovering) return;  // Already finished.
  st.recovering = false;
  ++recovery_stats_.recoveries;
  recovery_stats_.records_replayed += records_replayed;
  recovery_stats_.catchup_records += catchup_records;
  const sim::SimTime now = scheduler_->Now();
  recovery_stats_.duration_us += static_cast<uint64_t>(now - started);
  if (trace_ != nullptr) {
    trace_->Span(obs::EventKind::kNodeRecover, dc, TxnId{}, started, now,
                 kInvalidDc, "journal-replay+peer-catchup");
  }
}

}  // namespace helios::baselines
