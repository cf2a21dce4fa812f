// Wires N HeliosNodes over the simulated WAN and exposes the
// protocol-agnostic client API. Also used (with the Message Futures commit
// rule) as the Message Futures deployment.

#ifndef HELIOS_CORE_HELIOS_CLUSTER_H_
#define HELIOS_CORE_HELIOS_CLUSTER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/protocol.h"
#include "core/helios_config.h"
#include "core/helios_node.h"
#include "core/history.h"
#include "sim/clock.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "wal/wal_sink.h"

namespace helios::core {

class HeliosCluster : public ProtocolCluster {
 public:
  /// `scheduler` and `network` must outlive the cluster; `network` must
  /// have `config.num_datacenters` nodes.
  HeliosCluster(sim::Scheduler* scheduler, sim::Network* network,
                HeliosConfig config,
                LogProtocolKind kind = LogProtocolKind::kHelios,
                std::string name = "Helios");

  void Start() override;
  void ClientRead(DcId client_dc, const Key& key, ReadCallback done) override;
  void ClientCommit(DcId client_dc, std::vector<ReadEntry> reads,
                    std::vector<WriteEntry> writes,
                    CommitCallback done) override;
  void ClientReadOnly(DcId client_dc, std::vector<Key> keys,
                      ReadOnlyCallback done) override;
  std::string name() const override { return name_; }
  int num_datacenters() const override { return config_.num_datacenters; }

  /// Loads the same initial value on every datacenter (call before Start,
  /// and load keys in the same order across runs for deterministic ids).
  void LoadInitialAll(const Key& key, const Value& value) override;

  /// Installs the observability sinks on every node (src/obs).
  void SetObservability(obs::TraceRecorder* trace,
                        obs::MetricsRegistry* metrics) override;

  /// Dumps the aggregated NodeCounters (and pool sizes) into `registry`.
  void ExportMetrics(obs::MetricsRegistry* registry) const override;

  /// Full datacenter outage: the network drops its traffic and the node
  /// process crashes with amnesia (volatile state destroyed; only the WAL
  /// survives). Recovery rebuilds the node from its WAL via Restore(),
  /// then runs the anti-entropy catch-up against the peers.
  void CrashDatacenter(DcId dc);
  void RecoverDatacenter(DcId dc);

  /// Node-process half of an outage (the harness handles the network
  /// half): `down` destroys the node object — true amnesia — leaving a
  /// fresh down shell that drops in-flight deliveries; `!down` replays
  /// the WAL through Restore() and begins catch-up.
  void SetDatacenterDown(DcId dc, bool down) override;

  /// Gray-fault injection points (forwarded to the node's event loop /
  /// persistence path).
  void InjectStall(DcId dc, Duration pause) override {
    node(dc).InjectStall(pause);
  }
  void InjectFsyncStall(DcId dc, Duration per_record,
                        Duration window) override {
    node(dc).InjectFsyncStall(per_record, window);
  }

  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  /// The per-datacenter in-memory WAL (the simulated durable disk).
  const wal::MemoryWal& wal(DcId dc) const {
    return *wals_[static_cast<size_t>(dc)];
  }

  // Checker observation points (src/check).
  const wal::MemoryWal* wal_journal(DcId dc) const override {
    return wals_[static_cast<size_t>(dc)].get();
  }
  void SnapshotStore(
      DcId dc, const std::function<void(const Key&, const VersionedValue&)>&
                   fn) const override {
    node(dc).store().ForEachLatest(fn);
  }
  bool datacenter_down(DcId dc) const override { return node(dc).down(); }
  RecoveryStats recovery_snapshot() const override { return recovery_stats_; }

  HeliosNode& node(DcId dc) { return *nodes_[static_cast<size_t>(dc)]; }
  const HeliosNode& node(DcId dc) const {
    return *nodes_[static_cast<size_t>(dc)];
  }
  sim::Clock& clock(DcId dc) { return *clocks_[static_cast<size_t>(dc)]; }
  HistoryRecorder& history() { return history_; }
  const HeliosConfig& config() const { return config_; }

  /// Sum of a counter across datacenters.
  NodeCounters AggregateCounters() const;

  /// Replans commit offsets from the live RTT estimates (requires
  /// config.estimate_rtts and a complete estimated matrix at datacenter
  /// `reference`): solves MAO over the estimate and installs each row on
  /// its node. In the simulator this is atomic across nodes, so Rule 1
  /// holds throughout; a live deployment would stage the change
  /// (raise-offsets first, then lower). Returns the estimated matrix's
  /// MAO average latency (ms).
  Result<double> ReplanOffsetsFromEstimates(DcId reference = 0);

  /// Variant for a suspected gray-failed datacenter: replans with the
  /// suspect's RTT constraints dropped (lp::SolveMaoExcluding), so the
  /// healthy quorum's offsets stop pricing in the straggler while every
  /// pair — suspect included — still satisfies Rule 1. Returns the MAO
  /// average latency (ms) over the healthy datacenters.
  Result<double> ReplanOffsetsExcluding(DcId suspect, DcId reference = 0);

  /// Installs a function that computes an envelope's on-wire size (see
  /// wire::EncodedEnvelopeSize). When set, peer messages go through
  /// Network::SendSized so link bandwidth and byte counters apply.
  using EnvelopeSizer = std::function<size_t(const Envelope&)>;
  void set_envelope_sizer(EnvelopeSizer sizer) {
    envelope_sizer_ = std::move(sizer);
  }

  // --- Sharded-deployment hooks (src/shard) -------------------------------

  /// Redirects commit recording to a shared recorder so a ShardedCluster's
  /// S inner clusters contribute to one serialization history. Applies to
  /// current nodes and every node built later (amnesia restarts). Null
  /// restores the cluster-owned recorder.
  void SetHistoryRecorder(HistoryRecorder* recorder);

  /// Installs the durable staged-transaction status lookup consulted by a
  /// recovering node (see HeliosNode::set_staged_resolver); the DcId names
  /// the datacenter whose node is asking. Survives amnesia restarts.
  using StagedResolverFn =
      std::function<StagedResolution(DcId, const TxnId&)>;
  void SetStagedResolver(StagedResolverFn resolver);

 private:
  /// Builds a fresh node for `dc` with all cluster wiring (WAN send, WAL
  /// sinks, history, observability). Used at construction and for the
  /// amnesia restart on crash.
  std::unique_ptr<HeliosNode> MakeNode(DcId dc);

  sim::Scheduler* scheduler_;
  sim::Network* network_;
  HeliosConfig config_;
  const LogProtocolKind kind_;
  std::string name_;
  HistoryRecorder history_;
  std::vector<std::unique_ptr<sim::Clock>> clocks_;
  std::vector<std::unique_ptr<HeliosNode>> nodes_;
  /// Per-datacenter durable state: survives node destruction, so a crash
  /// wipes everything except what went through the sinks.
  std::vector<std::unique_ptr<wal::MemoryWal>> wals_;
  /// Data loaded outside the protocol (LoadInitialAll bypasses the log,
  /// so recovery must replay it separately before the WAL).
  std::vector<std::pair<Key, Value>> initial_loads_;
  bool started_ = false;
  RecoveryStats recovery_stats_;
  /// Shared-history override for sharded deployments (null = history_).
  HistoryRecorder* history_override_ = nullptr;
  StagedResolverFn staged_resolver_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  EnvelopeSizer envelope_sizer_;
};

/// Convenience: a Message Futures deployment is a Helios cluster running
/// the Message Futures commit rule with no commit offsets and f = 0.
std::unique_ptr<HeliosCluster> MakeMessageFuturesCluster(
    sim::Scheduler* scheduler, sim::Network* network, HeliosConfig config);

}  // namespace helios::core

#endif  // HELIOS_CORE_HELIOS_CLUSTER_H_
