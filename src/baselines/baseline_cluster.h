// Shared core of the two lock-based baselines of Section 5.2, Replicated
// Commit and 2PC/Paxos: client routing, transaction start timestamps,
// decision accounting, plain reads, and the whole crash-recovery path.
//
// Each datacenter owns a store and a single-server service queue (both
// volatile) plus a durable journal of applied commit decisions: a
// MemoryWal and the TxnId set mirroring it, which makes every apply path
// (decision broadcast, Paxos learner, catch-up) idempotent.
//
// A crash is amnesia: the store is cleared, the service queue replaced and
// the datacenter's generation bumped, so closures queued before the crash
// become no-ops instead of acting on the fresh state. The protocol drops
// its own volatile state in OnCrash. A restart replays the initial loads
// and the local journal, then pulls one live peer's journal and applies the
// decisions the outage missed; until the pull lands (or `decision_timeout`
// passes) the datacenter is recovering and serves nothing.
//
// The protocols differ in one value, `coordinator`: 2PC/Paxos names the
// datacenter that serves every client and is the preferred catch-up peer
// (its journal is complete at decision time); Replicated Commit passes
// kInvalidDc, so clients read at home and catch-up asks the first live
// peer.

#ifndef HELIOS_BASELINES_BASELINE_CLUSTER_H_
#define HELIOS_BASELINES_BASELINE_CLUSTER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "api/protocol.h"
#include "core/helios_config.h"
#include "core/history.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/clock.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "sim/service_queue.h"
#include "store/mv_store.h"
#include "wal/wal_sink.h"

namespace helios::baselines {

class BaselineCluster : public ProtocolCluster {
 public:
  void Start() override {}
  void LoadInitialAll(const Key& key, const Value& value) override;
  /// Plain read outside a transaction: a lock-free read at the serving
  /// datacenter (the coordinator, else the client's home).
  void ClientRead(DcId client_dc, const Key& key, ReadCallback done) override;
  void ClientCommit(DcId client_dc, std::vector<ReadEntry> reads,
                    std::vector<WriteEntry> writes,
                    CommitCallback done) override;
  void ClientReadOnly(DcId client_dc, std::vector<Key> keys,
                      ReadOnlyCallback done) override;
  TxnId BeginTxn(DcId client_dc) override;

  int num_datacenters() const override { return num_datacenters_; }

  /// Observability (src/obs): commit/abort decision events and a total-
  /// latency histogram per outcome.
  void SetObservability(obs::TraceRecorder* trace,
                        obs::MetricsRegistry* metrics) override;
  void ExportMetrics(obs::MetricsRegistry* registry) const override;

  /// Routes inter-datacenter RPCs through `mesh`; the baselines' rounds are
  /// not loss-tolerant, so chaos runs need this.
  void SetReliableMesh(sim::ReliableMesh* mesh) override { mesh_ = mesh; }

  /// Node-process half of an outage: `down` crashes `dc` with amnesia,
  /// `!down` restarts it through journal replay and peer catch-up.
  void SetDatacenterDown(DcId dc, bool down) override;

  const RecoveryStats& recovery_stats() const { return recovery_stats_; }
  bool datacenter_down(DcId dc) const override { return state(dc).down; }

  // Checker observation points (src/check).
  std::vector<const wal::MemoryWal*> wal_journals(DcId dc) const override {
    return {wals_[static_cast<size_t>(dc)].get()};
  }
  void SnapshotStore(
      DcId dc, const std::function<void(const Key&, const VersionedValue&)>&
                   fn) const override {
    store(dc).ForEachLatest(fn);
  }
  RecoveryStats recovery_snapshot() const override { return recovery_stats_; }

  const MvStore& store(DcId dc) const {
    return stores_[static_cast<size_t>(dc)];
  }
  core::HistoryRecorder& history() { return history_; }
  uint64_t commits() const { return commits_; }
  uint64_t aborts() const { return aborts_; }

 protected:
  /// Crash/recovery state per datacenter. `gen` increments on every
  /// amnesia restart.
  struct DcState {
    bool down = false;
    bool recovering = false;
    uint64_t gen = 0;
  };

  BaselineCluster(sim::Scheduler* scheduler, sim::Network* network,
                  int num_datacenters, Duration client_link_one_way,
                  Duration decision_timeout, const core::ServiceModel& service,
                  const std::vector<Duration>& clock_offsets,
                  DcId coordinator);

  /// Drops the protocol's own volatile state at `dc` as it crashes (the
  /// store, service queue and generation are already reset).
  virtual void OnCrash(DcId dc) { (void)dc; }

  const DcState& state(DcId dc) const {
    return dc_state_[static_cast<size_t>(dc)];
  }
  /// True while `dc` is up and has not restarted since generation `gen`.
  bool Alive(DcId dc, uint64_t gen) const {
    return !state(dc).down && state(dc).gen == gen;
  }
  sim::ServiceQueue& service(DcId dc) {
    return services_[static_cast<size_t>(dc)];
  }
  sim::Clock& clock(DcId dc) { return *clocks_[static_cast<size_t>(dc)]; }

  /// Queues `fn` behind `cost` of work at `dc`. Nothing runs if `dc` is
  /// down now, or has crashed by the time the work completes (or since
  /// `gen`, when given — a message sent before a restart is stale).
  void Serve(DcId dc, Duration cost, std::function<void()> fn);
  void Serve(DcId dc, uint64_t gen, Duration cost, std::function<void()> fn);

  /// Runs `fn` at datacenter `target` after the client's network latency
  /// from `home` (client link only when target is the home datacenter).
  void Route(DcId home, DcId target, std::function<void()> fn);
  /// Runs `fn` back at the client after the reverse latency.
  void RouteBack(DcId target, DcId home, std::function<void()> fn);
  /// One WAN hop, through the reliable mesh when installed.
  void WanSend(DcId from, DcId to, std::function<void()> fn);

  /// The transaction's start timestamp (its lock priority), or the home
  /// clock's current time for a transaction BeginTxn did not open.
  Timestamp StartTs(DcId home, const TxnId& txn);

  /// Journal-then-apply of one commit decision at `dc`. Returns false (and
  /// does nothing) when `txn` is already journaled there, so every
  /// delivery of the same decision applies it exactly once.
  bool ApplyDecision(DcId dc, const TxnId& txn, TxnBodyPtr body,
                     Timestamp version_ts);

  /// Records the trace events and histogram sample for a decision reached
  /// now for a commit request issued at `t0`.
  void RecordDecision(DcId dc, const TxnId& txn, bool commit,
                      sim::SimTime t0, const std::string& reason);
  bool observed() const {
    return trace_ != nullptr || h_commit_total_us_ != nullptr;
  }

  sim::Scheduler* scheduler_;
  const Duration decision_timeout_;
  std::unordered_map<TxnId, Timestamp, TxnIdHash> txn_start_ts_;
  core::HistoryRecorder history_;
  uint64_t commits_ = 0;
  uint64_t aborts_ = 0;

 private:
  MvStore& mutable_store(DcId dc) { return stores_[static_cast<size_t>(dc)]; }
  void Recover(DcId dc);
  /// Ends `dc`'s catch-up phase and accounts the recovery.
  void FinishRecovery(DcId dc, uint64_t records_replayed,
                      uint64_t catchup_records, sim::SimTime started);
  /// Where catch-up pulls from: the coordinator when live, else the first
  /// live peer; kInvalidDc when every peer is down.
  DcId CatchupPeer(DcId dc) const;

  sim::Network* network_;
  sim::ReliableMesh* mesh_ = nullptr;
  const int num_datacenters_;
  const Duration client_link_one_way_;
  const Duration read_cost_;
  const DcId coordinator_;
  std::vector<std::unique_ptr<sim::Clock>> clocks_;
  std::vector<MvStore> stores_;
  std::vector<sim::ServiceQueue> services_;
  /// Durable: survive every crash.
  std::vector<std::unique_ptr<wal::MemoryWal>> wals_;
  std::vector<std::unordered_set<TxnId, TxnIdHash>> journaled_;
  std::vector<DcState> dc_state_;
  std::vector<std::pair<Key, Value>> initial_loads_;
  RecoveryStats recovery_stats_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::Histogram* h_commit_total_us_ = nullptr;
  obs::Histogram* h_abort_total_us_ = nullptr;
  uint64_t next_load_seq_ = 1;
};

}  // namespace helios::baselines

#endif  // HELIOS_BASELINES_BASELINE_CLUSTER_H_
