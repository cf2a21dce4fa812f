// bench_perf: the machine-readable performance baseline (docs/PERFORMANCE.md).
//
// Measures the hot paths the wire/codec redesign targets and emits one
// PerfReport JSON document (schema helios-bench-perf-v1, committed as
// BENCH_*.json at the repo root) that tools/bench_compare gates CI on:
//
//   sim.events.<protocol>  full-simulator throughput: simulated events and
//                          committed transactions per wall-clock second
//   sim.shard.scaling      disjoint-key workload, 1 shard vs 2 range-aligned
//                          shards, in simulated txns/s; gates the sharding
//                          capacity win (docs/SHARDING.md)
//   wire.encode.legacy     allocate-per-call envelope framing (the
//                          one-shot FrameEnvelope, kept as the "before"
//                          leg of the redesign)
//   wire.encode.reuse      wire::Framer into caller-owned reused buffers
//                          (the "after" leg; speedup_vs_legacy is the
//                          before/after ratio on identical bytes)
//   wire.decode            UnframeEnvelope on the same corpus
//   wal.append             WalWriter record framing + buffered write
//   live.tcp               TcpTransport loopback round trips: ops/sec and
//                          p50/p99 latency
//
// Flags follow the shared harness::cli spellings; --json_out defaults to
// BENCH_1.json. HELIOS_BENCH_SCALE scales the simulator window like every
// other bench, so CI can run a short-budget pass.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/flags.h"
#include "core/envelope.h"
#include "harness/cli.h"
#include "harness/experiment_spec.h"
#include "harness/perf_report.h"
#include "transport/tcp_transport.h"
#include "wal/wal.h"
#include "wire/serialization.h"

using namespace helios;
namespace hns = helios::harness;
namespace cli = helios::harness::cli;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// A gossip envelope shaped like steady-state traffic: a warm timetable,
/// a batch of preparing/finished records with small read/write sets, a
/// ping and an RTT row. One corpus shared by every wire leg so legacy,
/// reuse, and decode all touch identical bytes.
core::Envelope MakeCorpusEnvelope(int n, int records, uint64_t salt) {
  core::Envelope env(n);
  env.log.from = static_cast<DcId>(salt % static_cast<uint64_t>(n));
  for (DcId row = 0; row < n; ++row) {
    for (DcId col = 0; col < n; ++col) {
      env.log.table.Set(row, col,
                        static_cast<Timestamp>(1000000 + salt * 131 +
                                               static_cast<uint64_t>(row) * 17 +
                                               static_cast<uint64_t>(col)));
    }
  }
  for (int i = 0; i < records; ++i) {
    rdict::LogRecord rec;
    const uint64_t seq = salt * 1000 + static_cast<uint64_t>(i);
    rec.origin = static_cast<DcId>(i % n);
    rec.ts = static_cast<Timestamp>(2000000 + seq);
    TxnId id;
    id.origin = rec.origin;
    id.seq = seq;
    std::vector<ReadEntry> reads;
    std::vector<WriteEntry> writes;
    for (int k = 0; k < 4; ++k) {
      ReadEntry r;
      r.key = "user" + std::to_string((seq * 7 + static_cast<uint64_t>(k)) % 50000);
      r.version_ts = static_cast<Timestamp>(1500000 + seq - static_cast<uint64_t>(k));
      r.version_writer = TxnId{static_cast<DcId>(k % n), seq / 2};
      reads.push_back(std::move(r));
      writes.push_back(WriteEntry{
          "user" + std::to_string((seq * 11 + static_cast<uint64_t>(k)) % 50000),
          std::string(16, static_cast<char>('a' + k))});
    }
    rec.body = MakeTxnBody(id, std::move(reads), std::move(writes));
    if (i % 2 == 0) {
      rec.type = rdict::RecordType::kPreparing;
    } else {
      rec.type = rdict::RecordType::kFinished;
      rec.committed = true;
      rec.version_ts = rec.ts + 5;
    }
    env.log.records.push_back(std::move(rec));  // ts ascends: RecordOrder.
  }
  env.refusals.push_back(
      core::Refusal{1, TxnId{1, salt}, static_cast<Timestamp>(2000000)});
  env.ping_id = static_cast<uint32_t>(salt + 1);
  env.pong_for = static_cast<uint32_t>(salt);
  env.pong_hold_us = 250;
  env.rtt_row_us.assign(static_cast<size_t>(n), 80000);
  return env;
}

void BenchSim(const std::vector<hns::Protocol>& protocols,
              const std::vector<uint64_t>& seeds, int clients,
              int measure_s, int jobs, hns::PerfReport* report) {
  for (hns::Protocol p : protocols) {
    std::vector<hns::ExperimentSpec> specs;
    for (uint64_t seed : seeds) {
      specs.push_back(hns::ExperimentSpec()
                          .WithProtocol(p)
                          .WithClients(clients)
                          .WithWarmup(bench::Scaled(Seconds(1)))
                          .WithMeasure(bench::Scaled(Seconds(measure_s)))
                          .WithSeed(seed)
                          .WithLabel(std::string(hns::ProtocolToken(p)) +
                                     " seed " + std::to_string(seed)));
    }
    hns::SweepOptions options;
    options.jobs = jobs;
    hns::SweepRunner runner(options);
    const auto t0 = std::chrono::steady_clock::now();
    const hns::SweepResult sweep = runner.Run(specs);
    const double wall = SecondsSince(t0);
    if (!sweep.status().ok()) {
      std::fprintf(stderr, "sim bench failed: %s\n",
                   sweep.status().ToString().c_str());
      std::exit(cli::kExitFailure);
    }
    uint64_t events = 0;
    uint64_t committed = 0;
    for (const hns::SweepJobResult& job : sweep.jobs) {
      events += job.result.events_processed;
      for (const auto& dc : job.result.per_dc) committed += dc.committed;
    }
    hns::PerfEntry& entry =
        report->Add(std::string("sim.events.") + hns::ProtocolToken(p));
    entry.Set("events_per_sec", static_cast<double>(events) / wall);
    entry.Set("txns_per_sec", static_cast<double>(committed) / wall);
    entry.Set("wall_s", wall);
    std::fprintf(stderr,
                 "sim.events.%s: %.0f events/s, %.0f committed txns/s "
                 "(%.2fs wall, %d run%s)\n",
                 hns::ProtocolToken(p), static_cast<double>(events) / wall,
                 static_cast<double>(committed) / wall, wall,
                 static_cast<int>(specs.size()),
                 specs.size() == 1 ? "" : "s");
  }
}

/// Shard-scaling leg: the same disjoint-key workload (key_partitions=2,
/// so every transaction stays inside one contiguous half of the
/// keyspace) run unsharded and with 2 range-aligned shards. Reported in
/// *simulated* txns/s — committed transactions per simulated second —
/// which is deterministic and machine-independent: it measures the
/// modeled capacity win of a second independent log/apply plane
/// (docs/SHARDING.md), not host speed. `speedup_2shard` is the gated
/// headline: sharding must keep scaling disjoint-key write throughput.
void BenchShardScaling(int measure_s, int jobs, hns::PerfReport* report) {
  const Duration measure = bench::Scaled(Seconds(measure_s));
  const hns::ExperimentSpec base =
      hns::ExperimentSpec()
          .WithProtocol(hns::Protocol::kHelios1)
          .WithClients(300)
          .WithNumKeys(20000)
          .WithKeyPartitions(2)
          .WithWarmup(bench::Scaled(Seconds(1)))
          .WithMeasure(measure)
          .WithSeed(42);
  std::vector<hns::ExperimentSpec> specs = {
      hns::ExperimentSpec(base).WithLabel("shard scaling: 1 shard"),
      hns::ExperimentSpec(base)
          .WithShards(2)
          .WithShardBy("range")
          .WithLabel("shard scaling: 2 shards"),
  };
  hns::SweepOptions options;
  options.jobs = jobs;
  hns::SweepRunner runner(options);
  const hns::SweepResult sweep = runner.Run(specs);
  if (!sweep.status().ok()) {
    std::fprintf(stderr, "shard bench failed: %s\n",
                 sweep.status().ToString().c_str());
    std::exit(cli::kExitFailure);
  }
  const double sim_seconds = static_cast<double>(measure) / 1e6;
  std::vector<double> txns_per_sim_s;
  for (const hns::SweepJobResult& job : sweep.jobs) {
    uint64_t committed = 0;
    for (const auto& dc : job.result.per_dc) committed += dc.committed;
    txns_per_sim_s.push_back(static_cast<double>(committed) / sim_seconds);
  }
  hns::PerfEntry& entry = report->Add("sim.shard.scaling");
  entry.Set("txns_per_sec_1shard", txns_per_sim_s[0]);
  entry.Set("txns_per_sec_2shard", txns_per_sim_s[1]);
  entry.Set("speedup_2shard", txns_per_sim_s[1] / txns_per_sim_s[0]);
  std::fprintf(stderr,
               "sim.shard.scaling: 1 shard %.0f txns/sim-s, 2 shards %.0f "
               "txns/sim-s (%.2fx)\n",
               txns_per_sim_s[0], txns_per_sim_s[1],
               txns_per_sim_s[1] / txns_per_sim_s[0]);
}

/// One corpus, three legs: legacy allocate-per-call framing (the one-shot
/// FrameEnvelope, kept exactly as the "before" measurement),
/// wire::Framer reuse (the redesign), and decode.
void BenchWireCorpus(const std::string& name,
                     const std::vector<core::Envelope>& corpus, int iters,
                     hns::PerfReport* report) {
  uint64_t legacy_bytes = 0;
  uint64_t frames = 0;
  const auto t_legacy = std::chrono::steady_clock::now();
  for (int it = 0; it < iters; ++it) {
    for (const core::Envelope& env : corpus) {
      const std::vector<uint8_t> frame = wire::FrameEnvelope(env);
      legacy_bytes += frame.size();
      ++frames;
    }
  }
  const double legacy_wall = SecondsSince(t_legacy);

  // Reuse leg: one Framer, zero steady-state allocations.
  wire::Framer framer;
  uint64_t reuse_bytes = 0;
  const auto t_reuse = std::chrono::steady_clock::now();
  for (int it = 0; it < iters; ++it) {
    for (const core::Envelope& env : corpus) {
      reuse_bytes += framer.Frame(env).size();
    }
  }
  const double reuse_wall = SecondsSince(t_reuse);
  if (reuse_bytes != legacy_bytes) {
    std::fprintf(stderr, "wire bench: legacy and reuse byte counts diverge "
                         "(%llu vs %llu)\n",
                 static_cast<unsigned long long>(legacy_bytes),
                 static_cast<unsigned long long>(reuse_bytes));
    std::exit(cli::kExitFailure);
  }

  // Decode leg over the same frames.
  std::vector<std::vector<uint8_t>> frames_bytes;
  for (const core::Envelope& env : corpus) {
    frames_bytes.push_back(wire::FrameEnvelope(env));
  }
  uint64_t decoded_records = 0;
  const auto t_decode = std::chrono::steady_clock::now();
  for (int it = 0; it < iters; ++it) {
    for (const std::vector<uint8_t>& bytes : frames_bytes) {
      auto env = wire::UnframeEnvelope(bytes);
      if (!env.ok()) {
        std::fprintf(stderr, "wire bench: decode failed: %s\n",
                     env.status().ToString().c_str());
        std::exit(cli::kExitFailure);
      }
      decoded_records += env.value().log.records.size();
    }
  }
  const double decode_wall = SecondsSince(t_decode);

  const double per_frame =
      static_cast<double>(legacy_bytes) / static_cast<double>(frames);
  const double legacy_rate = static_cast<double>(frames) / legacy_wall;
  const double reuse_rate = static_cast<double>(frames) / reuse_wall;
  const double decode_rate = static_cast<double>(frames) / decode_wall;

  hns::PerfEntry& legacy = report->Add("wire.encode." + name + ".legacy");
  legacy.Set("encodes_per_sec", legacy_rate);
  legacy.Set("mb_per_sec",
             static_cast<double>(legacy_bytes) / legacy_wall / 1e6);

  hns::PerfEntry& reuse = report->Add("wire.encode." + name + ".reuse");
  reuse.Set("encodes_per_sec", reuse_rate);
  reuse.Set("mb_per_sec", static_cast<double>(reuse_bytes) / reuse_wall / 1e6);
  reuse.Set("speedup_vs_legacy", reuse_rate / legacy_rate);

  hns::PerfEntry& decode = report->Add("wire.decode." + name);
  decode.Set("decodes_per_sec", decode_rate);

  std::fprintf(stderr,
               "wire.%s: %.0f-byte frames; legacy %.0f/s, reuse %.0f/s "
               "(%.2fx), decode %.0f/s (%llu records)\n",
               name.c_str(), per_frame, legacy_rate, reuse_rate,
               reuse_rate / legacy_rate, decode_rate,
               static_cast<unsigned long long>(decoded_records));
}

void BenchWire(int iters, hns::PerfReport* report) {
  // Heartbeat: the common steady-state gossip shape — every log interval
  // each node sends N-1 envelopes that usually carry no new records, just
  // the timetable and liveness metadata. Allocation overhead dominates
  // here, which is exactly what the reuse API removes.
  std::vector<core::Envelope> heartbeat;
  for (uint64_t i = 0; i < 16; ++i) {
    heartbeat.push_back(MakeCorpusEnvelope(5, 0, i));
  }
  // Batch: a loaded partial-log exchange (32 records with bodies) where
  // byte encoding itself dominates.
  std::vector<core::Envelope> batch;
  for (uint64_t i = 0; i < 16; ++i) {
    batch.push_back(MakeCorpusEnvelope(5, 32, i));
  }
  BenchWireCorpus("heartbeat", heartbeat, iters * 8, report);
  BenchWireCorpus("batch", batch, iters, report);
}

void BenchWal(int entries, hns::PerfReport* report) {
  const std::string path =
      "/tmp/helios_bench_perf_" + std::to_string(::getpid()) + ".wal";
  wal::WalWriter writer;
  if (const Status s = writer.Open(path); !s.ok()) {
    std::fprintf(stderr, "wal bench: %s\n", s.ToString().c_str());
    std::exit(cli::kExitFailure);
  }
  const std::vector<rdict::LogRecord> corpus =
      MakeCorpusEnvelope(5, 32, 7).log.records.ToVector();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < entries; ++i) {
    const rdict::LogRecord& rec =
        corpus[static_cast<size_t>(i) % corpus.size()];
    if (const Status s = writer.AppendRecord(rec); !s.ok()) {
      std::fprintf(stderr, "wal bench: %s\n", s.ToString().c_str());
      std::exit(cli::kExitFailure);
    }
    (void)writer.Sync(false);
  }
  const double wall = SecondsSince(t0);
  const double bytes = static_cast<double>(writer.bytes_written());
  writer.Close();
  std::remove(path.c_str());

  hns::PerfEntry& entry = report->Add("wal.append");
  entry.Set("appends_per_sec", static_cast<double>(entries) / wall);
  entry.Set("mb_per_sec", bytes / wall / 1e6);
  std::fprintf(stderr, "wal.append: %.0f appends/s, %.1f MB/s\n",
               static_cast<double>(entries) / wall, bytes / wall / 1e6);
}

void BenchLiveTcp(int ops, hns::PerfReport* report) {
  // Two transports on loopback; B echoes every payload back to A. Each op
  // is one framed-envelope round trip, timed end to end.
  std::mutex mu;
  std::condition_variable cv;
  uint64_t replies = 0;

  transport::TcpTransport* b_ptr = nullptr;
  transport::TcpTransport a([&](std::vector<uint8_t>) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ++replies;
    }
    cv.notify_one();
  });
  transport::TcpTransport b([&](std::vector<uint8_t> payload) {
    (void)b_ptr->Send(0, payload);
  });
  b_ptr = &b;

  if (!a.Listen(0).ok() || !b.Listen(0).ok() ||
      !a.Connect(1, b.port()).ok() || !b.Connect(0, a.port()).ok()) {
    std::fprintf(stderr, "live bench: loopback setup failed; skipping\n");
    return;
  }

  wire::Framer framer;
  const core::Envelope env = MakeCorpusEnvelope(5, 32, 3);
  const wire::Buffer& frame = framer.Frame(env);

  std::vector<double> lat_us;
  lat_us.reserve(static_cast<size_t>(ops));
  const auto t_all = std::chrono::steady_clock::now();
  for (int i = 0; i < ops; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    if (const Status s = a.Send(1, frame.data(), frame.size()); !s.ok()) {
      std::fprintf(stderr, "live bench: %s\n", s.ToString().c_str());
      std::exit(cli::kExitFailure);
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      const uint64_t want = static_cast<uint64_t>(i) + 1;
      cv.wait(lock, [&] { return replies >= want; });
    }
    lat_us.push_back(SecondsSince(t0) * 1e6);
  }
  const double wall = SecondsSince(t_all);
  a.Shutdown();
  b.Shutdown();

  std::sort(lat_us.begin(), lat_us.end());
  const auto pct = [&lat_us](double p) {
    const size_t idx = static_cast<size_t>(p * static_cast<double>(lat_us.size() - 1));
    return lat_us[idx];
  };
  hns::PerfEntry& entry = report->Add("live.tcp");
  entry.Set("ops_per_sec", static_cast<double>(ops) / wall);
  entry.Set("p50_us", pct(0.50));
  entry.Set("p99_us", pct(0.99));
  std::fprintf(stderr, "live.tcp: %.0f round trips/s, p50 %.1fus, p99 %.1fus\n",
               static_cast<double>(ops) / wall, pct(0.50), pct(0.99));
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  cli::AddCommonFlags(&flags, /*default_jobs=*/1);
  flags.DefineString("protocols", "helios0",
                     "comma-separated protocols for the simulator leg");
  flags.DefineString("seeds", "42",
                     "comma-separated seeds for the simulator leg");
  flags.DefineInt("sim_clients", 50, "clients for the simulator leg");
  flags.DefineInt("sim_seconds", 8,
                  "simulated measurement window, seconds "
                  "(scaled by HELIOS_BENCH_SCALE)");
  flags.DefineInt("wire_iters", 20000,
                  "passes over the 16-envelope wire corpus");
  flags.DefineInt("wal_entries", 200000, "WAL records to append");
  flags.DefineInt("live_ops", 2000, "TCP loopback round trips");
  flags.DefineBool("skip_sim", false, "skip the simulator leg");
  flags.DefineBool("skip_live", false, "skip the TCP loopback leg");
  cli::ParseOrExit(&flags, argc, argv);

  auto protocols = cli::ParseProtocolList(flags.GetString("protocols"));
  if (!protocols.ok()) {
    return cli::FailWith(protocols.status(), cli::kExitUsage);
  }
  auto seeds = cli::ParseSeedList(flags.GetString("seeds"));
  if (!seeds.ok()) {
    return cli::FailWith(seeds.status(), cli::kExitUsage);
  }

  hns::PerfReport report;
  if (!flags.GetBool("skip_sim")) {
    BenchSim(protocols.value(), seeds.value(),
             static_cast<int>(flags.GetInt("sim_clients")),
             static_cast<int>(flags.GetInt("sim_seconds")),
             static_cast<int>(flags.GetInt("jobs")), &report);
    BenchShardScaling(static_cast<int>(flags.GetInt("sim_seconds")),
                      static_cast<int>(flags.GetInt("jobs")), &report);
  }
  BenchWire(static_cast<int>(flags.GetInt("wire_iters")), &report);
  BenchWal(static_cast<int>(flags.GetInt("wal_entries")), &report);
  if (!flags.GetBool("skip_live")) {
    BenchLiveTcp(static_cast<int>(flags.GetInt("live_ops")), &report);
  }

  const std::string json_out = flags.GetString("json_out").empty()
                                   ? "BENCH_1.json"
                                   : flags.GetString("json_out");
  if (const Status s = cli::WriteWholeFile(json_out, report.ToJson() + "\n");
      !s.ok()) {
    return cli::FailWith(s, cli::kExitFailure);
  }
  std::fprintf(stderr, "perf report: %s\n", json_out.c_str());
  return cli::kExitOk;
}
