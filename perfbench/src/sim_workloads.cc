// The two simulator workloads: sim-table2 (the paper's headline Helios-0
// run) and sim-xshard-faults (Helios-1, two hash shards, loss, a crash and
// read-only snapshots).
//
// Each measured repetition builds the deployment the way
// harness::RunExperiment does, from the same public constructors, so the
// benchmark can time the set-up, warm-up, window and teardown phases
// separately and read exact per-commit samples and commit times without
// any tracing. The correctness gate proves the copy faithful: it runs the
// same spec through RunExperiment with artifact capture, requires the
// oracle suite to pass on it, and requires events, commits and per-DC
// counts to match the benchmark's repetition exactly.

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_math.h"
#include "check/oracles.h"
#include "check/runner.h"
#include "core/helios_cluster.h"
#include "harness/experiment.h"
#include "harness/experiment_spec.h"
#include "lp/mao.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perfbench.h"
#include "shard/shard_map.h"
#include "shard/sharded_cluster.h"
#include "sim/network.h"
#include "sim/reliable.h"
#include "sim/scheduler.h"
#include "workload/client.h"

namespace perfbench {
namespace {

namespace hh = helios::harness;
using helios::CommitCallback;
using helios::CommitOutcome;
using helios::DcId;
using helios::Duration;
using helios::Key;
using helios::ProtocolCluster;
using helios::TxnId;
using Clock = std::chrono::steady_clock;

/// Forwards every call to the real deployment and notes when each commit
/// decision reaches its client. Pure pass-through: it schedules nothing,
/// so the simulation's event sequence is unchanged.
class TimelineCluster : public ProtocolCluster {
 public:
  TimelineCluster(ProtocolCluster* inner, helios::sim::Scheduler* scheduler)
      : inner_(inner), scheduler_(scheduler) {}

  const std::vector<CommitMark>& commits() const { return commits_; }

  void Start() override { inner_->Start(); }
  void LoadInitialAll(const Key& key, const helios::Value& value) override {
    inner_->LoadInitialAll(key, value);
  }
  void ClientRead(DcId dc, const Key& key, helios::ReadCallback done) override {
    inner_->ClientRead(dc, key, std::move(done));
  }
  void ClientCommit(DcId dc, std::vector<helios::ReadEntry> reads,
                    std::vector<helios::WriteEntry> writes,
                    CommitCallback done) override {
    inner_->ClientCommit(dc, std::move(reads), std::move(writes),
                         Note(dc, std::move(done)));
  }
  void ClientReadOnly(DcId dc, std::vector<Key> keys,
                      helios::ReadOnlyCallback done) override {
    inner_->ClientReadOnly(dc, std::move(keys), std::move(done));
  }
  TxnId BeginTxn(DcId dc) override { return inner_->BeginTxn(dc); }
  void TxnRead(DcId dc, const TxnId& txn, const Key& key,
               helios::ReadCallback done) override {
    inner_->TxnRead(dc, txn, key, std::move(done));
  }
  void TxnCommit(DcId dc, const TxnId& txn,
                 std::vector<helios::ReadEntry> reads,
                 std::vector<helios::WriteEntry> writes,
                 CommitCallback done) override {
    inner_->TxnCommit(dc, txn, std::move(reads), std::move(writes),
                      Note(dc, std::move(done)));
  }
  void TxnAbandon(DcId dc, const TxnId& txn) override {
    inner_->TxnAbandon(dc, txn);
  }
  std::string name() const override { return inner_->name(); }
  int num_datacenters() const override { return inner_->num_datacenters(); }
  void SetObservability(helios::obs::TraceRecorder* trace,
                        helios::obs::MetricsRegistry* metrics) override {
    inner_->SetObservability(trace, metrics);
  }
  void ExportMetrics(helios::obs::MetricsRegistry* registry) const override {
    inner_->ExportMetrics(registry);
  }
  void SetReliableMesh(helios::sim::ReliableMesh* mesh) override {
    inner_->SetReliableMesh(mesh);
  }
  void SetDatacenterDown(DcId dc, bool down) override {
    inner_->SetDatacenterDown(dc, down);
  }
  void InjectStall(DcId dc, Duration pause) override {
    inner_->InjectStall(dc, pause);
  }
  void InjectFsyncStall(DcId dc, Duration per_record,
                        Duration window) override {
    inner_->InjectFsyncStall(dc, per_record, window);
  }
  helios::RecoveryStats recovery_snapshot() const override {
    return inner_->recovery_snapshot();
  }

 private:
  CommitCallback Note(DcId dc, CommitCallback done) {
    return [this, dc, done = std::move(done)](const CommitOutcome& o) {
      if (o.committed) {
        commits_.push_back(CommitMark{dc, scheduler_->Now()});
      }
      done(o);
    };
  }

  ProtocolCluster* inner_;
  helios::sim::Scheduler* scheduler_;
  std::vector<CommitMark> commits_;
};

bool IsHelios(hh::Protocol p) {
  return p == hh::Protocol::kHelios0 || p == hh::Protocol::kHelios1 ||
         p == hh::Protocol::kHelios2 || p == hh::Protocol::kHeliosB;
}

/// Everything one simulated run owns. Members are destroyed in reverse
/// order -- clients, cluster, mesh, network, scheduler -- the same order
/// RunExperiment's locals go out of scope.
struct Deployment {
  Deployment(const hh::ExperimentConfig& config)
      : network(&scheduler, config.topology.size(), config.seed),
        mesh(&scheduler, &network, MeshConfig(config)) {}

  static helios::sim::ReliableConfig MeshConfig(
      const hh::ExperimentConfig& config) {
    helios::sim::ReliableConfig mesh;
    mesh.enabled = ReliableOn(config);
    return mesh;
  }
  static bool ReliableOn(const hh::ExperimentConfig& config) {
    return config.reliable == hh::ReliableDelivery::kOn ||
           (config.reliable == hh::ReliableDelivery::kAuto &&
            config.fault_plan.HasMessageFaults());
  }

  helios::sim::Scheduler scheduler;
  helios::sim::Network network;
  helios::sim::ReliableMesh mesh;
  std::unique_ptr<ProtocolCluster> cluster;
  std::unique_ptr<TimelineCluster> timeline;
  std::vector<std::unique_ptr<helios::workload::ClosedLoopClient>> clients;
};

/// The window is run and timed in slices of this much simulated time.
constexpr Duration kSlice = helios::Seconds(1);

/// One measured repetition.
struct SimRun {
  double build_s = 0.0;     ///< Construct, preload, start, create clients.
  double preload_s = 0.0;   ///< The LoadInitialAll loop alone.
  double warmup_s = 0.0;
  double window_s = 0.0;    ///< Wall time of the measurement window.
  /// Wall time of each one-second slice of the window, in order.
  std::vector<double> slice_wall_s;
  double drain_s = 0.0;
  double teardown_s = 0.0;
  /// Highest resident set sampled after the build and at each window slice
  /// and the drain.
  double peak_rss_mb = 0.0;
  uint64_t events = 0;
  uint64_t committed = 0;   ///< Window commits (by commit-request time).
  uint64_t aborted = 0;     ///< Window aborts, timed-out attempts included.
  uint64_t read_only = 0;   ///< Window read-only snapshot transactions.
  std::vector<uint64_t> dc_committed;
  std::vector<uint64_t> dc_aborted;
  std::vector<std::vector<double>> dc_latency_ms;  ///< Exact window samples.
  std::vector<CommitMark> timeline;
  std::map<std::string, uint64_t> counters;
  std::vector<helios::obs::TraceEvent> trace;  ///< Traced runs only.
};

SimRun RunSim(const hh::ExperimentConfig& config, bool traced) {
  if (!IsHelios(config.protocol)) {
    std::fprintf(stderr, "perfbench: only Helios protocols are supported\n");
    std::abort();
  }
  SimRun run;
  const int n = config.topology.size();
  const auto t_build = Clock::now();
  auto d = std::make_unique<Deployment>(config);
  hh::ConfigureNetwork(config.topology, &d->network);
  const bool reliable_on = Deployment::ReliableOn(config);
  if (config.fault_plan.HasMessageFaults()) {
    (void)d->network.InstallMessageFaults(
        config.fault_plan, hh::DeriveSeed(config.seed, 0xFA171));
  }
  if (config.fault_plan.HasGrayLinkFaults()) {
    (void)d->network.InstallGrayFaults(config.fault_plan);
  }
  std::unique_ptr<helios::obs::TraceRecorder> trace;
  std::unique_ptr<helios::obs::MetricsRegistry> registry;
  if (traced) {
    trace = std::make_unique<helios::obs::TraceRecorder>(size_t{1} << 21);
    registry = std::make_unique<helios::obs::MetricsRegistry>();
    d->network.set_trace_recorder(trace.get());
    if (reliable_on) d->mesh.set_trace_recorder(trace.get());
  }

  helios::core::HeliosConfig hc;
  hc.num_datacenters = n;
  hc.fault_tolerance = config.protocol == hh::Protocol::kHelios1   ? 1
                       : config.protocol == hh::Protocol::kHelios2 ? 2
                                                                   : 0;
  hc.grace_time = config.grace_time;
  hc.log_interval = config.log_interval;
  hc.client_link_one_way = config.client_link_one_way;
  hc.service = config.service;
  hc.clock_offsets = config.clock_offsets;
  hc.health = config.health;
  if (config.protocol != hh::Protocol::kHeliosB) {
    hc.commit_offsets =
        hh::PlanCommitOffsets(config.topology, config.rtt_estimate_ms);
  }
  const char* name = hh::ProtocolName(config.protocol);
  if (config.shards > 1) {
    const helios::shard::ShardMap map =
        config.shard_by == "range"
            ? helios::shard::ShardMap::RangeOverWorkloadKeys(
                  config.shards, config.workload.num_keys)
            : helios::shard::ShardMap::Hash(config.shards);
    d->cluster = std::make_unique<helios::shard::ShardedCluster>(
        &d->scheduler, &d->network, std::move(hc), map,
        helios::core::LogProtocolKind::kHelios, name);
  } else {
    d->cluster = std::make_unique<helios::core::HeliosCluster>(
        &d->scheduler, &d->network, std::move(hc),
        helios::core::LogProtocolKind::kHelios, name);
  }
  ProtocolCluster* cluster = d->cluster.get();
  if (config.preload) {
    const auto t_preload = Clock::now();
    for (uint64_t i = 0; i < config.workload.num_keys; ++i) {
      cluster->LoadInitialAll(helios::workload::TYcsbGenerator::KeyName(i),
                              "init");
    }
    run.preload_s = SecondsSince(t_preload);
  }
  cluster->SetObservability(trace.get(), registry.get());
  if (reliable_on) cluster->SetReliableMesh(&d->mesh);
  cluster->Start();

  helios::sim::Network* network = &d->network;
  for (const helios::sim::NodeEvent& e : config.fault_plan.node_events) {
    d->scheduler.At(e.at, [network, cluster, e]() {
      if (e.up) {
        (void)network->RecoverNode(e.node);
      } else {
        (void)network->CrashNode(e.node);
      }
      cluster->SetDatacenterDown(e.node, !e.up);
    });
  }
  for (const helios::sim::PartitionEvent& e :
       config.fault_plan.partition_events) {
    d->scheduler.At(e.at, [network, e]() {
      (void)network->SetPartitioned(e.a, e.b, e.partitioned);
    });
  }

  d->timeline = std::make_unique<TimelineCluster>(cluster, &d->scheduler);
  const helios::sim::SimTime measure_from = config.warmup;
  const helios::sim::SimTime measure_until = config.warmup + config.measure;
  for (int c = 0; c < config.total_clients; ++c) {
    const DcId home = c % n;
    d->clients.push_back(std::make_unique<helios::workload::ClosedLoopClient>(
        static_cast<uint64_t>(c), home, d->timeline.get(), &d->scheduler,
        config.workload, config.seed + 1000003, measure_from, measure_until,
        measure_until));
    auto* client = d->clients.back().get();
    client->SetObservability(trace.get(), registry.get());
    if (config.client_commit_timeout > 0) {
      client->SetCommitTimeout(config.client_commit_timeout,
                               config.client_max_retries,
                               config.client_retry_backoff);
    }
    if (config.shards > 1) {
      helios::workload::BackoffPolicy abort_backoff;
      abort_backoff.base = helios::Millis(2);
      abort_backoff.cap = helios::Millis(100);
      abort_backoff.max_retries = 6;
      client->SetAbortBackoff(abort_backoff, config.seed + 2000003);
    }
    d->scheduler.At(helios::Micros(37) * c, [client]() { client->Start(); });
  }
  run.build_s = SecondsSince(t_build);
  run.peak_rss_mb = CurrentRssMb();

  auto t = Clock::now();
  d->scheduler.RunUntil(measure_from);
  run.warmup_s = SecondsSince(t);
  for (helios::sim::SimTime at = measure_from; at < measure_until;
       at += kSlice) {
    t = Clock::now();
    d->scheduler.RunUntil(std::min(at + kSlice, measure_until));
    run.slice_wall_s.push_back(SecondsSince(t));
    run.window_s += run.slice_wall_s.back();
    run.peak_rss_mb = std::max(run.peak_rss_mb, CurrentRssMb());
  }
  t = Clock::now();
  d->scheduler.RunUntil(measure_until + config.drain);
  run.drain_s = SecondsSince(t);
  run.peak_rss_mb = std::max(run.peak_rss_mb, CurrentRssMb());

  run.events = d->scheduler.events_processed();
  run.dc_committed.assign(static_cast<size_t>(n), 0);
  run.dc_aborted.assign(static_cast<size_t>(n), 0);
  run.dc_latency_ms.resize(static_cast<size_t>(n));
  for (const auto& client : d->clients) {
    const auto& m = client->metrics();
    const size_t dc = static_cast<size_t>(client->home());
    run.dc_committed[dc] += m.committed;
    run.dc_aborted[dc] += m.aborted;
    run.committed += m.committed;
    run.aborted += m.aborted;
    run.read_only += m.read_only_done;
    const auto& s = m.commit_latency_ms.samples();
    run.dc_latency_ms[dc].insert(run.dc_latency_ms[dc].end(), s.begin(),
                                 s.end());
  }
  run.timeline = d->timeline->commits();

  helios::obs::MetricsRegistry counters;
  cluster->ExportMetrics(&counters);
  counters.counter("net.messages_sent").Set(d->network.messages_sent());
  counters.counter("sim.events_processed").Set(run.events);
  if (reliable_on) {
    counters.counter("reliable.retransmits").Set(d->mesh.retransmits());
    counters.counter("reliable.acks_sent").Set(d->mesh.acks_sent());
  }
  for (const auto& c : counters.Snapshot().counters) {
    run.counters[c.name] = c.value;
  }
  if (trace != nullptr) run.trace = trace->Events();

  t = Clock::now();
  d.reset();
  run.teardown_s = SecondsSince(t);
  // Hand freed memory back so the next repetition's samples start from the
  // same baseline.
  malloc_trim(0);
  return run;
}

/// Window commits and aborts, split by whether the clients' home DC
/// survives the run. The abort ratio leaves the crashed DC's clients out:
/// while it catches up after its restart their reads fail, and each failure
/// aborts at once, a storm of thousands of aborts in some seeds and none
/// in others, which no run length averages out.
struct SplitOutcomes {
  uint64_t surviving_committed = 0, surviving_aborted = 0;
  uint64_t crashed_committed = 0, crashed_aborted = 0;

  void Add(const SimRun& run, const std::vector<int>& surviving) {
    for (size_t dc = 0; dc < run.dc_committed.size(); ++dc) {
      const bool survives =
          std::find(surviving.begin(), surviving.end(),
                    static_cast<int>(dc)) != surviving.end();
      (survives ? surviving_committed : crashed_committed) +=
          run.dc_committed[dc];
      (survives ? surviving_aborted : crashed_aborted) += run.dc_aborted[dc];
    }
  }
  double SurvivingAbortRatio() const {
    return Ratio(static_cast<double>(surviving_aborted),
                 static_cast<double>(surviving_committed + surviving_aborted));
  }
  double CrashedAbortRatio() const {
    return Ratio(static_cast<double>(crashed_aborted),
                 static_cast<double>(crashed_committed + crashed_aborted));
  }
};

/// Mean of per-DC means: the "avg latency" helios_sim prints.
double AvgOfDcMeans(const std::vector<std::vector<double>>& dc_samples) {
  double sum = 0.0;
  for (const auto& s : dc_samples) {
    double dc_sum = 0.0;
    for (double x : s) dc_sum += x;
    sum += s.empty() ? 0.0 : dc_sum / static_cast<double>(s.size());
  }
  return sum / static_cast<double>(dc_samples.size());
}

/// A workload: its spec for one seed, the datacenters that survive it, and
/// when its outage window starts.
struct SimWorkload {
  hh::ExperimentSpec (*spec)(uint64_t seed);
  /// Repetitions per run are --seconds divided by this (at least one).
  /// Crash runs vary much more from seed to seed, so they pool more.
  double seconds_per_rep;
  std::vector<int> surviving;
  /// The crash: unavailability is the longest gap from here to the end of
  /// the window. -1 (no crash): the median over window slices of the
  /// longest gap inside each.
  Duration outage_from;
};

hh::ExperimentSpec Table2Spec(uint64_t seed) {
  // helios_sim --protocol=helios0 --clients=50 --measure_s=30 --seed=<seed>
  hh::ExperimentSpec spec;
  spec.WithProtocol(hh::Protocol::kHelios0)
      .WithTopology("table2")
      .WithClients(50)
      .WithWarmup(helios::Seconds(4))
      .WithMeasure(helios::Seconds(30))
      .WithSeed(seed);
  return spec;
}

hh::ExperimentSpec XshardFaultsSpec(uint64_t seed) {
  // helios_sim --protocol=helios1 --clients=50 --warmup_s=2 --measure_s=20
  //   --shards=2 --loss=0.02 --crash=4:6000:12000 --client_timeout_us=2000000
  //   --read_only=0.3 --seed=<seed>, with a 3 s drain (longer than the
  //   client timeout, so every attempt in the window is decided).
  hh::ExperimentSpec spec;
  spec.WithProtocol(hh::Protocol::kHelios1)
      .WithTopology("table2")
      .WithClients(50)
      .WithWarmup(helios::Seconds(2))
      .WithMeasure(helios::Seconds(20))
      .WithDrain(helios::Seconds(3))
      .WithSeed(seed)
      .WithShards(2)
      .WithShardBy("hash")
      .WithLoss(0.02)
      .WithClientTimeout(helios::Seconds(2), 3)
      .WithReadOnlyFraction(0.3);
  spec.fault_plan.AddCrash(helios::Millis(6000), 4);
  spec.fault_plan.AddRecover(helios::Millis(12000), 4);
  return spec;
}

hh::ExperimentConfig ConfigOf(const hh::ExperimentSpec& spec) {
  auto config = spec.ToConfig();
  if (!config.ok()) {
    std::fprintf(stderr, "perfbench: invalid spec %s: %s\n",
                 spec.DisplayName().c_str(),
                 config.status().ToString().c_str());
    std::exit(2);
  }
  return config.value();
}

/// setup_s: wall time of the spec with the shortest valid window (build,
/// preload, start, teardown), through RunExperiment; median of `reps`.
double SetupSeconds(hh::ExperimentSpec spec, int reps) {
  spec.WithWarmup(0).WithMeasure(1).WithDrain(0);
  spec.fault_plan.node_events.clear();
  const hh::ExperimentConfig config = ConfigOf(spec);
  std::vector<double> walls;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    (void)hh::RunExperiment(config);
    walls.push_back(SecondsSince(t0));
  }
  return Median(walls);
}

/// The correctness gate: oracle suite over a captured RunExperiment of the
/// same spec, plus an exact fingerprint match with the benchmark's own
/// repetition of that seed.
void Gate(const hh::ExperimentSpec& spec, const SimRun& rep0,
          Outcome* out) {
  hh::ExperimentConfig config = ConfigOf(spec);
  helios::check::ConfigureForChecking(&config);
  const hh::ExperimentResult result = hh::RunExperiment(config);
  const helios::check::OracleReport report =
      helios::check::RunOracles(spec, result);
  if (!report.ok()) out->Fail("oracle suite: " + report.Summary());

  bool same = result.events_processed == rep0.events &&
              result.per_dc.size() == rep0.dc_committed.size();
  for (size_t dc = 0; same && dc < result.per_dc.size(); ++dc) {
    same = result.per_dc[dc].committed == rep0.dc_committed[dc] &&
           result.per_dc[dc].aborted == rep0.dc_aborted[dc];
  }
  if (!same) {
    out->Fail("determinism: RunExperiment of seed " +
              std::to_string(spec.seed) + " gave " +
              std::to_string(result.events_processed) +
              " events, the benchmark's run " + std::to_string(rep0.events));
  }
  const double bench_avg = AvgOfDcMeans(rep0.dc_latency_ms);
  std::printf("gate: %s; RunExperiment avg %.4f ms (optimum %.4f ms), "
              "benchmark avg %.4f ms, events %llu\n",
              report.ok() ? "oracles ok" : "ORACLES FAILED",
              result.avg_latency_ms, result.optimal_avg_latency_ms, bench_avg,
              static_cast<unsigned long long>(result.events_processed));
  if (std::abs(result.avg_latency_ms - bench_avg) > 1e-6) {
    out->Fail("determinism: average latency differs from RunExperiment");
  }
}

std::vector<double> SpanDurationsMs(
    const std::vector<helios::obs::TraceEvent>& events,
    helios::obs::EventKind kind, int64_t from_us, int64_t until_us) {
  std::vector<double> out;
  for (const auto& e : events) {
    if (e.kind == kind && e.ts_us >= from_us && e.ts_us < until_us) {
      out.push_back(static_cast<double>(e.dur_us) / 1000.0);
    }
  }
  return out;
}

/// Per-layer numbers from one traced repetition: lifecycle spans (queue,
/// commit wait, and the self time left to the client link and the server),
/// whole-run counter ratios, and recovery totals.
void TracedLayerMetrics(const SimRun& run, int64_t from_us, int64_t until_us,
                        Metrics* m) {
  using helios::obs::EventKind;
  const auto set = [m](const std::string& k, double v, const char* unit) {
    (*m)[k] = Metric{v, unit};
  };
  const auto queue =
      SpanDurationsMs(run.trace, EventKind::kTxnQueue, from_us, until_us);
  const auto wait =
      SpanDurationsMs(run.trace, EventKind::kCommitWait, from_us, until_us);
  set("core.queue_wait_ms_p50", Percentile(queue, 50), "ms");
  set("core.queue_wait_ms_p99", Percentile(queue, 99), "ms");
  set("core.commit_wait_ms_p50", Percentile(wait, 50), "ms");
  set("core.commit_wait_ms_p99", Percentile(wait, 99), "ms");
  set("reliable.retransmit_wait_ms",
      Percentile(SpanDurationsMs(run.trace, EventKind::kNetRetransmit, 0,
                                 INT64_MAX),
                 50),
      "ms");

  // Self time: client.commit minus its txn.server child(ren) is the client
  // link; txn.server minus txn.queue and txn.commit_wait is what the
  // server spent outside both (append, decision, replies).
  std::map<std::pair<int, uint64_t>, std::vector<Interval>> server, inner;
  const auto key = [](const helios::obs::TraceEvent& e) {
    return std::make_pair(static_cast<int>(e.txn.origin), e.txn.seq);
  };
  for (const auto& e : run.trace) {
    const Interval iv{e.ts_us, e.ts_us + e.dur_us};
    if (e.kind == EventKind::kTxnServer) server[key(e)].push_back(iv);
    if (e.kind == EventKind::kTxnQueue || e.kind == EventKind::kCommitWait) {
      inner[key(e)].push_back(iv);
    }
  }
  std::vector<double> link, server_self;
  for (const auto& e : run.trace) {
    if (e.ts_us < from_us || e.ts_us >= until_us) continue;
    const Interval iv{e.ts_us, e.ts_us + e.dur_us};
    if (e.kind == EventKind::kClientCommit && e.detail == "committed") {
      auto it = server.find(key(e));
      if (it != server.end()) {
        link.push_back(static_cast<double>(SelfTime(iv, it->second)) / 1000.0);
      }
    } else if (e.kind == EventKind::kTxnServer) {
      auto it = inner.find(key(e));
      server_self.push_back(
          static_cast<double>(SelfTime(
              iv, it == inner.end() ? std::vector<Interval>{} : it->second)) /
          1000.0);
    }
  }
  set("core.client_link_ms_p50", Percentile(link, 50), "ms");
  // Mean, not median: most server spans are fully covered by their queue
  // and commit-wait children, so the median reads 0.
  double self_sum = 0.0;
  for (double x : server_self) self_sum += x;
  set("core.server_self_ms_mean",
      Ratio(self_sum, static_cast<double>(server_self.size())), "ms");

  for (const auto& [name, value] : CounterRatios(run.counters)) {
    (*m)[name] = Metric{value, name.find("ratio") != std::string::npos
                                   ? "ratio"
                                   : "count"};
  }
  const auto counter = [&run](const char* name) -> double {
    auto it = run.counters.find(name);
    return it == run.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  set("core.recover_ms",
      Ratio(counter("recovery.duration_us") / 1000.0,
            counter("recovery.recoveries")),
      "ms");
  set("core.catchup_records", counter("recovery.catchup_records"), "count");
  set("store.preload_ms", run.preload_s * 1000.0, "ms");
  set("store.teardown_ms", run.teardown_s * 1000.0, "ms");
}

Outcome RunSimWorkload(const SimWorkload& w, const Options& opts) {
  Outcome out;
  const hh::ExperimentSpec spec0 = w.spec(opts.seed);
  const hh::ExperimentConfig config0 = ConfigOf(spec0);
  const int64_t from_us = config0.warmup;
  const int64_t until_us = config0.warmup + config0.measure;
  const auto lp_opt = helios::lp::SolveMao(config0.topology.rtt_ms);
  if (!lp_opt.ok()) {
    out.Fail("MAO solve failed for the workload topology");
    return out;
  }
  const double optimum_ms = helios::lp::AverageLatency(lp_opt.value());

  if (opts.trace) {
    // Per-layer run: one untraced and one traced repetition of the same
    // seed (their window times give the tracing overhead), the layer
    // probes on the workload's shape, and the host calibration.
    const SimRun plain = RunSim(config0, /*traced=*/false);
    const SimRun traced = RunSim(config0, /*traced=*/true);
    if (traced.events != plain.events || traced.committed != plain.committed) {
      out.Fail("tracing changed the simulation");
    }
    TracedLayerMetrics(traced, from_us, until_us, &out.metrics);
    SplitOutcomes split;
    split.Add(plain, w.surviving);
    out.Set("workload.crashed_dc_abort_ratio", split.CrashedAbortRatio(),
            "ratio");
    out.Set("obs.trace_overhead_pct",
            (traced.window_s / plain.window_s - 1.0) * 100.0, "%");
    Shape shape;
    shape.dcs = config0.topology.size();
    shape.num_keys = config0.workload.num_keys;
    shape.ops_per_txn = config0.workload.ops_per_txn;
    shape.write_fraction = config0.workload.write_fraction;
    shape.zipf_theta = config0.workload.zipf_theta;
    shape.seed = opts.seed;
    shape.reliable_and_shards = config0.shards > 1;
    MeasureEngineLayers(shape, &out.metrics);
    out.Set("host.calib_ms", CalibrationMs(), "ms");
    out.attempted = plain.committed + plain.aborted + plain.read_only;
    return out;
  }

  out.Set("setup_s", SetupSeconds(spec0, 5), "s");

  const int reps = std::max(
      1, static_cast<int>(opts.seconds / w.seconds_per_rep));
  std::vector<double> wall_per_commit_us;
  std::vector<double> gaps_ms;
  std::vector<double> rss_mb;
  std::vector<double> all_ms;
  std::vector<std::vector<double>> dc_ms(
      static_cast<size_t>(config0.topology.size()));
  uint64_t committed = 0, aborted = 0, read_only = 0;
  SplitOutcomes split;
  double window_sim_s = 0.0;
  SimRun rep0;
  for (int r = 0; r < reps; ++r) {
    const uint64_t seed =
        r == 0 ? opts.seed : hh::DeriveSeed(opts.seed, static_cast<uint64_t>(r));
    SimRun run = RunSim(r == 0 ? config0 : ConfigOf(w.spec(seed)), false);
    // Host cost per commit of each slice: its wall time over the commits
    // decided in it. The median over slices is steady against a neighbour
    // stealing the core for part of a run.
    for (size_t i = 0; i < run.slice_wall_s.size(); ++i) {
      const int64_t lo = from_us + static_cast<int64_t>(i) * kSlice;
      const int64_t hi = std::min<int64_t>(lo + kSlice, until_us);
      const auto decided = std::count_if(
          run.timeline.begin(), run.timeline.end(),
          [&](const CommitMark& m) { return m.at_us >= lo && m.at_us < hi; });
      if (decided > 0) {
        wall_per_commit_us.push_back(run.slice_wall_s[i] * 1e6 /
                                     static_cast<double>(decided));
      }
      // Without a crash, unavailability is the longest gap inside each
      // slice; one run-long extreme would not repeat.
      if (w.outage_from < 0) {
        gaps_ms.push_back(
            LongestCommitGapMs(run.timeline, lo, hi, w.surviving));
      }
    }
    if (w.outage_from >= 0) {
      gaps_ms.push_back(LongestCommitGapMs(run.timeline, w.outage_from,
                                           until_us, w.surviving));
    }
    for (size_t dc = 0; dc < dc_ms.size(); ++dc) {
      dc_ms[dc].insert(dc_ms[dc].end(), run.dc_latency_ms[dc].begin(),
                       run.dc_latency_ms[dc].end());
      all_ms.insert(all_ms.end(), run.dc_latency_ms[dc].begin(),
                    run.dc_latency_ms[dc].end());
    }
    rss_mb.push_back(run.peak_rss_mb);
    committed += run.committed;
    aborted += run.aborted;
    split.Add(run, w.surviving);
    read_only += run.read_only;
    window_sim_s += static_cast<double>(config0.measure) / 1e6;
    std::printf("rep %d seed %llu: %llu events, %llu commits; wall s: build "
                "%.3f, warm-up %.3f, window %.3f, drain %.3f, teardown %.3f\n",
                r, static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(run.events),
                static_cast<unsigned long long>(run.committed), run.build_s,
                run.warmup_s, run.window_s, run.drain_s, run.teardown_s);
    if (r == 0) {
      rep0 = std::move(run);
    }
  }
  Gate(spec0, rep0, &out);

  const double tail = HighestSupportedPercentile(all_ms.size());
  std::printf("commit samples: %zu (highest supported percentile p%g)\n",
              all_ms.size(), tail);
  if (tail < 99.0) {
    out.Fail("too few commit samples for p99: " +
             std::to_string(all_ms.size()));
  }
  const double avg = AvgOfDcMeans(dc_ms);
  out.Set("sim_wall_per_commit_us", Median(wall_per_commit_us), "us");
  // A repetition's peak depends on its seed (retransmission backlogs on
  // the crash workload swing it by half); the median repetition's is what
  // repeats.
  out.Set("peak_rss_mb", Median(rss_mb), "MB");
  out.Set("commit_p50_ms", Percentile(all_ms, 50), "ms");
  out.Set("commit_p99_ms", Percentile(all_ms, 99), "ms");
  // Clients homed at a crashed DC are left out (see SplitOutcomes); their
  // ratio is printed here and reported per layer by --trace 1.
  out.Set("abort_ratio", split.SurvivingAbortRatio(), "ratio");
  std::printf("crashed-DC clients: %llu committed, %llu aborted (ratio %.4f)\n",
              static_cast<unsigned long long>(split.crashed_committed),
              static_cast<unsigned long long>(split.crashed_aborted),
              split.CrashedAbortRatio());
  out.Set("mao_gap_pct", (avg - optimum_ms) / optimum_ms * 100.0, "%");
  out.Set("unavailable_ms", Median(gaps_ms), "ms");
  out.Set("peak_goodput_tps", static_cast<double>(committed) / window_sim_s,
          "1/s");
  std::printf("avg latency %.4f ms against the MAO optimum %.4f ms\n", avg,
              optimum_ms);

  out.attempted = committed + aborted + read_only;
  return out;
}

}  // namespace

Outcome RunSimTable2(const Options& opts) {
  const SimWorkload w{&Table2Spec, 6.5, {0, 1, 2, 3, 4}, -1};
  return RunSimWorkload(w, opts);
}

Outcome RunSimXshardFaults(const Options& opts) {
  // DC 4 (S) crashes at 6 s: unavailability is measured at the other four
  // from the crash onwards.
  const SimWorkload w{&XshardFaultsSpec, 3.3,
                      {0, 1, 2, 3}, helios::Millis(6000)};
  return RunSimWorkload(w, opts);
}

}  // namespace perfbench
