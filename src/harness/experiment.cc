#include "harness/experiment.h"

#include <cassert>
#include <cmath>
#include <memory>

#include "baselines/replicated_commit.h"
#include "baselines/two_pc_paxos.h"
#include "core/helios_cluster.h"
#include "core/history.h"
#include "harness/experiment_spec.h"
#include "shard/shard_map.h"
#include "shard/sharded_cluster.h"
#include "sim/network.h"
#include "sim/reliable.h"
#include "sim/scheduler.h"
#include "workload/client.h"

namespace helios::harness {

const char* ProtocolName(Protocol p) {
  switch (p) {
    case Protocol::kHelios0:
      return "Helios-0";
    case Protocol::kHelios1:
      return "Helios-1";
    case Protocol::kHelios2:
      return "Helios-2";
    case Protocol::kHeliosB:
      return "Helios-B";
    case Protocol::kMessageFutures:
      return "MessageFutures";
    case Protocol::kReplicatedCommit:
      return "ReplicatedCommit";
    case Protocol::kTwoPcPaxos:
      return "2PC/Paxos";
  }
  return "?";
}

std::vector<std::vector<Duration>> PlanCommitOffsets(
    const Topology& topology, const std::optional<lp::RttMatrix>& estimate) {
  const lp::RttMatrix& rtt = estimate.has_value() ? *estimate : topology.rtt_ms;
  auto mao = lp::SolveMao(rtt);
  assert(mao.ok());
  const auto offsets_ms = lp::CommitOffsetsFromLatencies(rtt, mao.value());
  const int n = topology.size();
  std::vector<std::vector<Duration>> out(
      static_cast<size_t>(n), std::vector<Duration>(static_cast<size_t>(n), 0));
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      out[a][b] = static_cast<Duration>(offsets_ms[a][b] * 1000.0);
    }
  }
  return out;
}

namespace {

int FaultTolerance(Protocol p) {
  switch (p) {
    case Protocol::kHelios1:
      return 1;
    case Protocol::kHelios2:
      return 2;
    default:
      return 0;
  }
}

bool IsHeliosFamily(Protocol p) {
  return p == Protocol::kHelios0 || p == Protocol::kHelios1 ||
         p == Protocol::kHelios2 || p == Protocol::kHeliosB ||
         p == Protocol::kMessageFutures;
}

/// Seed-stream tag for the fault RNG: keeps fault decisions decorrelated
/// from every client and latency stream derived from the same base seed.
constexpr uint64_t kFaultSeedTag = 0xFA171;

}  // namespace

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  const int n = config.topology.size();
  sim::Scheduler scheduler;
  sim::Network network(&scheduler, n, config.seed);
  ConfigureNetwork(config.topology, &network);

  // Chaos layer: install the fault plan's message faults and decide
  // whether the protocol needs the reliable session layer underneath.
  // Only the lock-based baselines do: their RPCs are not idempotent,
  // while Helios-family gossip is anti-entropy that rides the bare lossy
  // network (DESIGN.md §2).
  const bool has_message_faults = config.fault_plan.HasMessageFaults();
  if (!config.fault_plan.empty()) {
    const Status st = config.fault_plan.Validate(n);
    assert(st.ok() && "invalid fault plan; run FaultPlan::Validate first");
    (void)st;
  }
  if (has_message_faults) {
    const Status st = network.InstallMessageFaults(
        config.fault_plan, DeriveSeed(config.seed, kFaultSeedTag));
    assert(st.ok());
    (void)st;
  }
  // Gray link faults (slow-link, asymmetric partition) live in the
  // network; they are deterministic, so they neither consume randomness
  // nor engage the reliable session layer.
  const bool has_gray_link_faults = config.fault_plan.HasGrayLinkFaults();
  if (has_gray_link_faults) {
    const Status st = network.InstallGrayFaults(config.fault_plan);
    assert(st.ok());
    (void)st;
  }
  const bool reliable_on =
      has_message_faults && !IsHeliosFamily(config.protocol);
  sim::ReliableConfig mesh_config;
  mesh_config.enabled = reliable_on;
  sim::ReliableMesh mesh(&scheduler, &network, mesh_config);

  ExperimentResult result;
  if (config.trace.enabled) {
    result.trace =
        std::make_shared<obs::TraceRecorder>(config.trace.ring_capacity);
    result.metrics_registry = std::make_shared<obs::MetricsRegistry>();
    network.set_trace_recorder(result.trace.get());
    if (reliable_on) mesh.set_trace_recorder(result.trace.get());
  }

  std::unique_ptr<ProtocolCluster> cluster;
  core::HistoryRecorder* history = nullptr;
  shard::ShardedCluster* sharded = nullptr;
  const bool want_shards =
      config.shards > 1 && IsHeliosFamily(config.protocol) &&
      config.protocol != Protocol::kMessageFutures;
  assert(config.shards == 1 || want_shards);

  if (IsHeliosFamily(config.protocol)) {
    core::HeliosConfig hc;
    hc.num_datacenters = n;
    hc.fault_tolerance = FaultTolerance(config.protocol);
    hc.grace_time = config.grace_time;
    hc.log_interval = config.log_interval;
    hc.client_link_one_way = config.client_link_one_way;
    hc.service = config.service;
    hc.clock_offsets = config.clock_offsets;
    hc.health = config.health;
    if (config.protocol != Protocol::kHeliosB &&
        config.protocol != Protocol::kMessageFutures) {
      hc.commit_offsets = PlanCommitOffsets(config.topology,
                                            config.rtt_estimate_ms);
    }
    if (config.protocol == Protocol::kMessageFutures) {
      cluster = core::MakeMessageFuturesCluster(&scheduler, &network,
                                                std::move(hc));
      history = &static_cast<core::HeliosCluster*>(cluster.get())->history();
    } else if (want_shards) {
      const shard::ShardMap map =
          config.shard_by == "range"
              ? shard::ShardMap::RangeOverWorkloadKeys(
                    config.shards, config.workload.num_keys)
              : shard::ShardMap::Hash(config.shards);
      auto sc = std::make_unique<shard::ShardedCluster>(
          &scheduler, &network, std::move(hc), map,
          core::LogProtocolKind::kHelios, ProtocolName(config.protocol));
      sharded = sc.get();
      history = &sc->history();
      cluster = std::move(sc);
    } else {
      cluster = std::make_unique<core::HeliosCluster>(
          &scheduler, &network, std::move(hc), core::LogProtocolKind::kHelios,
          ProtocolName(config.protocol));
      history = &static_cast<core::HeliosCluster*>(cluster.get())->history();
    }
  } else if (config.protocol == Protocol::kReplicatedCommit) {
    baselines::ReplicatedCommitConfig rc;
    rc.num_datacenters = n;
    rc.client_link_one_way = config.client_link_one_way;
    rc.service = config.service;
    rc.clock_offsets = config.clock_offsets;
    cluster = std::make_unique<baselines::ReplicatedCommitCluster>(
        &scheduler, &network, std::move(rc));
    history =
        &static_cast<baselines::ReplicatedCommitCluster*>(cluster.get())
             ->history();
  } else {
    baselines::TwoPcPaxosConfig tp;
    tp.num_datacenters = n;
    tp.coordinator = config.two_pc_coordinator;
    tp.client_link_one_way = config.client_link_one_way;
    tp.service = config.service;
    tp.clock_offsets = config.clock_offsets;
    cluster = std::make_unique<baselines::TwoPcPaxosCluster>(
        &scheduler, &network, std::move(tp));
    history =
        &static_cast<baselines::TwoPcPaxosCluster*>(cluster.get())->history();
  }

  if (config.preload) {
    for (uint64_t i = 0; i < config.workload.num_keys; ++i) {
      cluster->LoadInitialAll(workload::TYcsbGenerator::KeyName(i), "init");
    }
  }
  cluster->SetObservability(result.trace.get(), result.metrics_registry.get());
  if (reliable_on) cluster->SetReliableMesh(&mesh);
  cluster->Start();

  // Timed chaos events: each crash/recover flips both the network (drop
  // traffic) and the protocol process (stop serving); partitions are
  // network-only, exactly like the paper's Section 4.4 scenarios.
  for (const sim::NodeEvent& e : config.fault_plan.node_events) {
    scheduler.At(e.at, [&network, cluster = cluster.get(), e]() {
      if (e.up) {
        (void)network.RecoverNode(e.node);
      } else {
        (void)network.CrashNode(e.node);
      }
      cluster->SetDatacenterDown(e.node, !e.up);
    });
  }
  for (const sim::PartitionEvent& e : config.fault_plan.partition_events) {
    scheduler.At(e.at, [&network, e]() {
      (void)network.SetPartitioned(e.a, e.b, e.partitioned);
    });
  }
  // Gray node faults: a stall is delivered to the process when it begins;
  // the node models the rest of the window itself (link kinds were
  // installed into the network above).
  for (const sim::GrayFault& g : config.fault_plan.gray_faults) {
    if (g.kind == sim::GrayFaultKind::kProcessStall) {
      scheduler.At(g.active_from, [cluster = cluster.get(), g]() {
        cluster->InjectStall(g.a, g.active_until - g.active_from);
      });
    } else if (g.kind == sim::GrayFaultKind::kFsyncStall) {
      scheduler.At(g.active_from, [cluster = cluster.get(), g]() {
        cluster->InjectFsyncStall(g.a, g.extra_delay,
                                  g.active_until - g.active_from);
      });
    }
  }

  const sim::SimTime measure_from = config.warmup;
  const sim::SimTime measure_until = config.warmup + config.measure;
  std::vector<std::unique_ptr<workload::ClosedLoopClient>> clients;
  clients.reserve(static_cast<size_t>(config.total_clients));
  for (int c = 0; c < config.total_clients; ++c) {
    const DcId home = c % n;
    clients.push_back(std::make_unique<workload::ClosedLoopClient>(
        static_cast<uint64_t>(c), home, cluster.get(), &scheduler,
        config.workload, config.seed + 1000003, measure_from, measure_until,
        /*stop_at=*/measure_until));
    clients.back()->SetObservability(result.trace.get(),
                                     result.metrics_registry.get());
    if (config.client_commit_timeout > 0) {
      clients.back()->SetCommitTimeout(config.client_commit_timeout,
                                       config.client_max_retries,
                                       config.client_retry_backoff);
    }
    if (config.shards > 1) {
      // Cross-shard parallel commit livelocks under synchronized
      // contention without client pacing (see SetAbortBackoff); the seed
      // derivation keeps sharded runs deterministic.
      workload::BackoffPolicy abort_backoff;
      abort_backoff.base = Millis(2);
      abort_backoff.cap = Millis(100);
      abort_backoff.max_retries = 6;
      clients.back()->SetAbortBackoff(abort_backoff, config.seed + 2000003);
    }
    if (config.capture_artifacts) clients.back()->EnableSessionLog();
    // Stagger client start a little to avoid a synchronized burst.
    scheduler.At(Micros(37) * c,
                 [client = clients.back().get()]() { client->Start(); });
  }

  scheduler.RunUntil(measure_until + config.drain);

  // Aggregate per datacenter.
  result.protocol = ProtocolName(config.protocol);
  result.per_dc.resize(static_cast<size_t>(n));
  std::vector<workload::ClientMetrics> per_dc(static_cast<size_t>(n));
  for (const auto& client : clients) {
    per_dc[static_cast<size_t>(client->home())].Merge(client->metrics());
    result.client_timeouts += client->metrics().timeouts;
    result.client_retries += client->metrics().retries;
  }
  const double measure_s =
      static_cast<double>(config.measure) / 1'000'000.0;
  double latency_sum = 0.0;
  double abort_sum = 0.0;
  for (int dc = 0; dc < n; ++dc) {
    const workload::ClientMetrics& m = per_dc[static_cast<size_t>(dc)];
    DcResult& r = result.per_dc[static_cast<size_t>(dc)];
    r.name = config.topology.names[static_cast<size_t>(dc)];
    r.latency_mean_ms = m.commit_latency_ms.mean();
    r.latency_stddev_ms = m.commit_latency_ms.stddev();
    if (m.commit_latency_ms.count() > 1) {
      r.latency_ci95_ms = 1.96 * r.latency_stddev_ms /
                          std::sqrt(static_cast<double>(
                              m.commit_latency_ms.count()));
    }
    r.latency_p50_ms = m.commit_latency_ms.Median();
    r.latency_p99_ms = m.commit_latency_ms.Percentile(99);
    r.throughput_ops_s = static_cast<double>(m.ops_committed) / measure_s;
    r.abort_rate = m.abort_rate();
    r.committed = m.committed;
    r.aborted = m.aborted;
    latency_sum += r.latency_mean_ms;
    abort_sum += r.abort_rate;
    result.total_throughput_ops_s += r.throughput_ops_s;
  }
  result.avg_latency_ms = latency_sum / n;
  result.avg_abort_rate = abort_sum / n;

  auto mao = lp::SolveMao(config.topology.rtt_ms);
  if (mao.ok()) {
    result.optimal_latency_ms = mao.value();
    result.optimal_avg_latency_ms = lp::AverageLatency(mao.value());
  }

  if (config.check_serializability && history != nullptr) {
    result.serializability = core::CheckSerializable(history->commits());
  }
  result.events_processed = scheduler.events_processed();

  // Oracle inputs (src/check): snapshot everything the invariant checks
  // need while the cluster is still alive.
  if (config.capture_artifacts) {
    auto cap = std::make_shared<RunCapture>();
    if (history != nullptr) cap->history = history->commits();
    cap->sessions.reserve(clients.size());
    for (const auto& client : clients) {
      if (client->session_log() != nullptr) {
        cap->sessions.push_back(*client->session_log());
      }
    }
    cap->wals.resize(static_cast<size_t>(n));
    cap->wal_present.assign(static_cast<size_t>(n), false);
    cap->stores.resize(static_cast<size_t>(n));
    cap->dc_down.assign(static_cast<size_t>(n), false);
    for (DcId dc = 0; dc < n; ++dc) {
      const size_t i = static_cast<size_t>(dc);
      if (const wal::MemoryWal* w = cluster->wal_journal(dc)) {
        cap->wals[i] = w->contents();
        cap->wal_present[i] = true;
      }
      cluster->SnapshotStore(dc, [&](const Key& key, const VersionedValue& v) {
        cap->stores[i][key] = v;
      });
      cap->dc_down[i] = cluster->datacenter_down(dc);
    }
    cap->recovery = cluster->recovery_snapshot();
    if (sharded != nullptr) {
      const int shards = config.shards;
      cap->shards = shards;
      cap->shard_wals.resize(static_cast<size_t>(n * shards));
      cap->shard_wal_present.assign(static_cast<size_t>(n * shards), false);
      cap->txn_status.resize(static_cast<size_t>(n));
      for (DcId dc = 0; dc < n; ++dc) {
        for (int s = 0; s < shards; ++s) {
          const size_t i = static_cast<size_t>(dc * shards + s);
          if (const wal::MemoryWal* w = sharded->shard_wal_journal(dc, s)) {
            cap->shard_wals[i] = w->contents();
            cap->shard_wal_present[i] = true;
          }
        }
        cap->txn_status[static_cast<size_t>(dc)] =
            sharded->txn_status(dc).entries();
      }
    }
    result.capture = std::move(cap);
  }

  if (result.metrics_registry != nullptr) {
    obs::MetricsRegistry* reg = result.metrics_registry.get();
    cluster->ExportMetrics(reg);
    reg->counter("net.messages_sent").Set(network.messages_sent());
    reg->counter("net.messages_dropped").Set(network.messages_dropped());
    reg->counter("net.bytes_sent").Set(network.bytes_sent());
    reg->counter("sim.events_processed").Set(scheduler.events_processed());
    if (has_message_faults) {
      reg->counter("net.fault_drops").Set(network.fault_drops());
      reg->counter("net.fault_duplicates").Set(network.fault_duplicates());
      reg->counter("net.fault_reorders").Set(network.fault_reorders());
    }
    if (has_gray_link_faults) {
      reg->counter("net.gray_slowed").Set(network.gray_slowed());
      reg->counter("net.gray_asym_drops").Set(network.gray_asym_drops());
    }
    if (reliable_on) {
      reg->counter("reliable.retransmits").Set(mesh.retransmits());
      reg->counter("reliable.duplicates_suppressed")
          .Set(mesh.duplicates_suppressed());
      reg->counter("reliable.acks_sent").Set(mesh.acks_sent());
      reg->counter("reliable.gave_up").Set(mesh.gave_up());
    }
    uint64_t committed = 0;
    uint64_t aborted = 0;
    for (const DcResult& r : result.per_dc) {
      committed += r.committed;
      aborted += r.aborted;
    }
    reg->counter("client.committed").Set(committed);
    reg->counter("client.aborted").Set(aborted);
    // Gated on the feature being enabled so crash-free snapshots keep
    // their pre-existing key set byte for byte.
    if (config.client_commit_timeout > 0) {
      reg->counter("client.timeouts").Set(result.client_timeouts);
      reg->counter("client.retries").Set(result.client_retries);
    }
    result.metrics = reg->Snapshot();
  }
  return result;
}

}  // namespace helios::harness
