// Horizontally sharded Helios deployment with cross-shard parallel commit.
//
// A ShardedCluster runs one fully independent Helios deployment — its own
// replicated log, timetable, pools and WAL — per shard, all sharing the
// simulated scheduler and WAN. A ShardMap routes every key to exactly one
// shard, so:
//
//   * A transaction touching one shard takes the completely unchanged
//     Helios fast path: the call is delegated to that shard's
//     HeliosCluster and never sees the coordinator.
//
//   * A cross-shard transaction runs a parallel commit in the shape of
//     CockroachDB's: the per-datacenter coordinator durably writes a
//     STAGED record in the TxnStatusStore, stages one slice per
//     participant shard *in parallel* (each runs the normal Algorithm 1
//     admission + commit wait, then holds its prepared intent), raises
//     every slice's commit-wait base to the transaction-wide maximum
//     request timestamp, and on the last prepared ack durably flips the
//     status to COMMITTED before replying to the client and finalizing
//     the slices. One WAN commit wait total — the slices wait
//     concurrently — instead of the sequential prepare-then-commit of
//     2PC.
//
// Safety of the two pieces stitched together:
//
//   * Serializability composes because every read-write or write-write
//     conflict involves a written key, the shard owning that key sees
//     both transactions' slices in one Helios log, and the shared wait
//     base makes the per-slice commit waits as strong as a single
//     transaction staged at the latest slice's timestamp (see
//     HandleRaiseStagedWait). Per-shard serializability plus atomic
//     cross-shard decisions then yields one global serialization order.
//
//   * Crash atomicity: a recovering shard node finds its own still-
//     preparing intents in the WAL and asks the coordinator's durable
//     status table (set_staged_resolver). COMMITTED means the client may
//     have seen the commit — the intent is re-finalized as committed;
//     STAGED is durably flipped to ABORTED first (so every sibling slice
//     resolves the same way, whenever it asks) and aborted; ABORTED
//     aborts. The status write always precedes the client reply, which
//     is what makes presumed-abort safe here.
//
// Read-only limitation: ClientReadOnly serves each shard's keys at that
// shard's local snapshot; the per-shard snapshots are taken at slightly
// different instants, so a cross-shard read-only transaction can observe
// a torn state across shards (docs/SHARDING.md). Single-shard read-only
// transactions keep Appendix B's guarantee.

#ifndef HELIOS_SHARD_SHARDED_CLUSTER_H_
#define HELIOS_SHARD_SHARDED_CLUSTER_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/protocol.h"
#include "core/helios_cluster.h"
#include "core/helios_config.h"
#include "core/helios_node.h"
#include "core/history.h"
#include "shard/shard_map.h"
#include "shard/txn_status_store.h"
#include "sim/network.h"
#include "sim/scheduler.h"

namespace helios::shard {

/// Client-facing counters of the cross-shard coordinator layer.
struct CrossShardCounters {
  uint64_t single_shard = 0;     ///< Commits delegated on the fast path.
  uint64_t staged = 0;           ///< Cross-shard transactions started.
  uint64_t committed = 0;        ///< ... decided committed.
  uint64_t aborted = 0;          ///< ... decided aborted.
  uint64_t resolved_aborts = 0;  ///< STAGED entries flipped to ABORTED by
                                 ///< the crash-recovery resolver.
};

class ShardedCluster : public ProtocolCluster {
 public:
  /// `scheduler` and `network` must outlive the cluster; `network` must
  /// have `config.num_datacenters` nodes (all shards share the WAN).
  /// `map` must be Validate()-clean with >= 1 shard.
  ShardedCluster(sim::Scheduler* scheduler, sim::Network* network,
                 core::HeliosConfig config, ShardMap map,
                 core::LogProtocolKind kind = core::LogProtocolKind::kHelios,
                 std::string name = "Helios");

  void Start() override;
  void LoadInitialAll(const Key& key, const Value& value) override;
  void ClientRead(DcId client_dc, const Key& key, ReadCallback done) override;
  void ClientCommit(DcId client_dc, std::vector<ReadEntry> reads,
                    std::vector<WriteEntry> writes,
                    CommitCallback done) override;
  void ClientReadOnly(DcId client_dc, std::vector<Key> keys,
                      ReadOnlyCallback done) override;
  std::string name() const override { return name_; }
  int num_datacenters() const override { return config_.num_datacenters; }

  void SetObservability(obs::TraceRecorder* trace,
                        obs::MetricsRegistry* metrics) override;
  void ExportMetrics(obs::MetricsRegistry* registry) const override;
  void SetDatacenterDown(DcId dc, bool down) override;
  void InjectStall(DcId dc, Duration pause) override;
  void InjectFsyncStall(DcId dc, Duration per_record,
                        Duration window) override;

  // Checker observation points.
  std::vector<const wal::MemoryWal*> wal_journals(DcId dc) const override;
  void SnapshotStore(
      DcId dc, const std::function<void(const Key&, const VersionedValue&)>&
                   fn) const override {
    for (const auto& sc : shards_) sc->SnapshotStore(dc, fn);
  }
  bool datacenter_down(DcId dc) const override {
    return shards_[0]->datacenter_down(dc);
  }
  /// Combined totals: `recoveries` counts datacenter recovery events (the
  /// max across shards — every shard's node restarts on the same event),
  /// volume and duration fields sum across shards.
  RecoveryStats recovery_snapshot() const override;

  /// See HeliosCluster::set_envelope_sizer; applied to every shard.
  void set_envelope_sizer(core::HeliosCluster::EnvelopeSizer sizer);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  core::HeliosCluster& shard(int s) { return *shards_[static_cast<size_t>(s)]; }
  const core::HeliosCluster& shard(int s) const {
    return *shards_[static_cast<size_t>(s)];
  }
  const TxnStatusStore& txn_status(DcId dc) const {
    return status_[static_cast<size_t>(dc)];
  }
  core::HistoryRecorder& history() { return history_; }
  const core::HeliosConfig& config() const { return config_; }

  /// Sum of the node counters across all shards and datacenters.
  core::NodeCounters AggregateCounters() const;

 private:
  /// Coordinator state for one in-flight cross-shard transaction. Lives
  /// in volatile memory: a crash of the coordinating datacenter drops it,
  /// leaving the durable STAGED status for recovery-time resolution.
  struct CrossShardTxn {
    DcId dc = kInvalidDc;
    std::vector<int> participants;
    std::map<int, Timestamp> admitted;  ///< shard -> slice request ts.
    std::set<int> prepared;
    std::set<int> failed;
    bool floor_sent = false;
    Timestamp max_proposed = kMinTimestamp;
    std::string abort_reason;
    TxnBodyPtr body;  ///< Full (unsplit) body, recorded once on commit.
    CommitCallback done;
  };
  using SliceMap =
      std::map<int, std::pair<std::vector<ReadEntry>, std::vector<WriteEntry>>>;

  void StartCrossShard(DcId dc, SliceMap slices, TxnBodyPtr body,
                       CommitCallback done);
  void OnSliceAdmitted(int s, const core::StagedAdmitOutcome& out);
  void OnSlicePrepared(int s, const core::StagedCommitOutcome& out);
  /// Runs the coordinator state machine for `id` after any ack.
  void Advance(const TxnId& id);
  core::StagedResolution ResolveStaged(DcId dc, const TxnId& id);
  core::HeliosNode& node(int s, DcId dc) {
    return shards_[static_cast<size_t>(s)]->node(dc);
  }

  sim::Scheduler* scheduler_;
  core::HeliosConfig config_;
  ShardMap map_;
  std::string name_;
  /// One independent Helios deployment per shard. Shard s mints local
  /// TxnIds in residue class s+1 (mod S+1); the coordinator uses residue
  /// 0, so no two logs ever carry the same id.
  std::vector<std::unique_ptr<core::HeliosCluster>> shards_;
  /// Shared serialization history (single-shard commits are recorded by
  /// the shard nodes, cross-shard commits once by the coordinator).
  core::HistoryRecorder history_;
  /// Per-datacenter durable transaction-status table.
  std::vector<TxnStatusStore> status_;
  /// Per-datacenter monotone cross-shard sequence counter (never reset —
  /// survives crashes so recovered coordinators cannot reuse an id).
  std::vector<uint64_t> next_xseq_;
  std::map<TxnId, CrossShardTxn> inflight_;
  CrossShardCounters xstats_;
  bool started_ = false;
};

}  // namespace helios::shard

#endif  // HELIOS_SHARD_SHARDED_CLUSTER_H_
