// Layer probes: time calls into each module's public functions on inputs
// shaped like the workload (its datacenter count, keyspace, skew and
// read/write mix). Every figure is the median over several batches of the
// per-call time, so one descheduled batch does not move it.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.h"
#include "common/random.h"
#include "core/envelope.h"
#include "perfbench.h"
#include "rdict/replicated_log.h"
#include "shard/txn_status_store.h"
#include "sim/network.h"
#include "sim/reliable.h"
#include "sim/scheduler.h"
#include "store/mv_store.h"
#include "transport/tcp_transport.h"
#include "txn/pool.h"
#include "txn/transaction.h"
#include "wal/file_wal.h"
#include "wal/wal_sink.h"
#include "wire/serialization.h"
#include "workload/tycsb.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using helios::DcId;
using helios::Timestamp;
using helios::TxnBodyPtr;
using helios::TxnId;

constexpr int kBatches = 9;

/// Median over kBatches of (batch time / ops), in ns. `batch` runs one
/// batch of `ops` calls; `between` (untimed) resets state between batches.
double NsPerCall(int ops, const std::function<void()>& batch,
                 const std::function<void()>& between = {}) {
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    if (between) between();
    const auto t0 = Clock::now();
    batch();
    per_call.push_back(SecondsSince(t0) * 1e9 / ops);
  }
  return Median(per_call);
}

helios::workload::WorkloadConfig WorkloadOf(const Shape& s) {
  helios::workload::WorkloadConfig w;
  w.ops_per_txn = s.ops_per_txn;
  w.write_fraction = s.write_fraction;
  w.num_keys = s.num_keys;
  w.zipf_theta = s.zipf_theta;
  return w;
}

/// Transaction bodies drawn from the workload's own generator.
std::vector<TxnBodyPtr> Bodies(const Shape& s, int count, DcId origin) {
  helios::workload::TYcsbGenerator gen(WorkloadOf(s), s.seed * 7919 + 17);
  std::vector<TxnBodyPtr> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const helios::workload::TxnPlan plan = gen.NextTxn();
    std::vector<helios::ReadEntry> reads;
    for (const auto& k : plan.reads) reads.push_back({k, 1, TxnId{}});
    std::vector<helios::WriteEntry> writes;
    for (const auto& k : plan.writes) writes.push_back({k, gen.NextValue()});
    out.push_back(helios::MakeTxnBody(
        TxnId{origin, static_cast<uint64_t>(i + 1)}, std::move(reads),
        std::move(writes)));
  }
  return out;
}

helios::rdict::LogRecord PreparingRecord(const TxnBodyPtr& body,
                                         Timestamp ts) {
  helios::rdict::LogRecord rec;
  rec.type = helios::rdict::RecordType::kPreparing;
  rec.ts = ts;
  rec.origin = body->id.origin;
  rec.body = body;
  return rec;
}

void MeasureStore(const Shape& s, Metrics* m) {
  const auto bodies = Bodies(s, 4000, 0);
  std::vector<helios::Key> keys;
  for (const auto& b : bodies) {
    for (const auto& w : b->write_set) keys.push_back(w.key);
    for (const auto& r : b->read_set) keys.push_back(r.key);
  }
  helios::MvStore store;
  for (uint64_t i = 0; i < s.num_keys; ++i) {
    store.ApplyWrite(helios::workload::TYcsbGenerator::KeyName(i), "init", 1,
                     TxnId{0, i + 1});
  }
  Timestamp ts = 2;
  const int ops = static_cast<int>(keys.size());
  std::vector<double> gc_ms;
  (*m)["store.apply_write_ns"] = {
      NsPerCall(ops,
                [&] {
                  for (const auto& k : keys) {
                    store.ApplyWrite(k, "value-of-sixteen", ts,
                                     TxnId{1, static_cast<uint64_t>(ts)});
                    ++ts;
                  }
                },
                [&] {
                  // One GC tick per batch: drop versions the batch before
                  // superseded, as the node's watermark does.
                  const auto t0 = Clock::now();
                  store.TruncateVersionsBefore(ts - 1);
                  gc_ms.push_back(SecondsSince(t0) * 1000.0);
                }),
      "ns"};
  (*m)["store.gc_tick_ms"] = {Median(gc_ms), "ms"};
  size_t hits = 0;
  (*m)["store.read_ns"] = {NsPerCall(ops,
                                     [&] {
                                       for (const auto& k : keys) {
                                         hits += store.Read(k).ok();
                                       }
                                     }),
                           "ns"};
  const Timestamp snapshot = ts - ops / 2;
  (*m)["store.read_at_ns"] = {
      NsPerCall(ops,
                [&] {
                  for (const auto& k : keys) {
                    hits += store.ReadAt(k, snapshot).ok();
                  }
                }),
      "ns"};
  if (hits == 0) std::printf("store probe: no reads hit\n");
}

void MeasurePool(const Shape& s, Metrics* m) {
  // A preparing pool as deep as the in-flight transactions of one DC.
  const auto resident = Bodies(s, 64, 0);
  Shape probe_shape = s;
  probe_shape.seed = s.seed + 1;
  const auto probes = Bodies(probe_shape, 2000, 1);
  helios::TxnPool pool;
  for (const auto& b : resident) pool.Add(b);
  size_t found = 0;
  (*m)["txn.pool_conflict_ns"] = {
      NsPerCall(static_cast<int>(probes.size()),
                [&] {
                  for (const auto& p : probes) {
                    found += pool.ConflictingWriters(*p).size();
                    found += pool.Victims(*p).size();
                  }
                }),
      "ns"};
  (*m)["txn.pool_add_remove_ns"] = {
      NsPerCall(static_cast<int>(probes.size()),
                [&] {
                  for (const auto& p : probes) {
                    pool.Add(p);
                    found += pool.Remove(p->id);
                  }
                }),
      "ns"};
  if (found == 0) std::printf("pool probe: nothing found\n");
}

void MeasureRdict(const Shape& s, Metrics* m) {
  // Every DC appends a log interval's worth of records, then every pair
  // exchanges messages, then every DC garbage-collects.
  const int n = s.dcs;
  constexpr int kPerInterval = 4;
  constexpr int kRounds = 60;
  std::vector<std::vector<TxnBodyPtr>> bodies;
  for (DcId dc = 0; dc < n; ++dc) {
    Shape per_dc = s;
    per_dc.seed = s.seed + static_cast<uint64_t>(dc) * 101;
    bodies.push_back(Bodies(per_dc, kPerInterval * kRounds, dc));
  }
  std::vector<double> build_ns, ingest_ns, gc_us;
  size_t ingested = 0;
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<helios::rdict::ReplicatedLog> logs;
    for (DcId dc = 0; dc < n; ++dc) logs.emplace_back(dc, n);
    Timestamp ts = 1;
    for (int round = 0; round < kRounds; ++round) {
      for (DcId dc = 0; dc < n; ++dc) {
        for (int i = 0; i < kPerInterval; ++i) {
          const auto& body =
              bodies[static_cast<size_t>(dc)]
                    [static_cast<size_t>(round * kPerInterval + i)];
          (void)logs[static_cast<size_t>(dc)].AppendLocal(
              PreparingRecord(body, ts++));
        }
      }
      for (DcId from = 0; from < n; ++from) {
        for (DcId to = 0; to < n; ++to) {
          if (from == to) continue;
          auto t0 = Clock::now();
          const helios::rdict::LogMessage msg =
              logs[static_cast<size_t>(from)].BuildMessageFor(to);
          build_ns.push_back(SecondsSince(t0) * 1e9);
          t0 = Clock::now();
          ingested += logs[static_cast<size_t>(to)].Ingest(msg).size();
          ingest_ns.push_back(SecondsSince(t0) * 1e9);
        }
      }
      for (auto& log : logs) {
        const auto t0 = Clock::now();
        (void)log.GarbageCollect();
        gc_us.push_back(SecondsSince(t0) * 1e6);
      }
    }
  }
  (*m)["rdict.build_message_ns"] = {Median(build_ns), "ns"};
  (*m)["rdict.ingest_ns"] = {Median(ingest_ns), "ns"};
  (*m)["rdict.gc_us"] = {Median(gc_us), "us"};
  if (ingested == 0) std::printf("rdict probe: nothing ingested\n");
}

void MeasureSim(const Shape& s, Metrics* m) {
  constexpr int kEvents = 20000;
  helios::Rng rng(s.seed);
  uint64_t fired = 0;
  (*m)["sim.dispatch_ns"] = {
      NsPerCall(kEvents,
                [&] {
                  helios::sim::Scheduler sched;
                  for (int i = 0; i < kEvents; ++i) {
                    sched.After(static_cast<helios::Duration>(
                                    rng.Uniform(100000)),
                                [&fired] { ++fired; });
                  }
                  sched.Run();
                }),
      "ns"};
  const auto send_all = [&](bool reliable) {
    helios::sim::Scheduler sched;
    helios::sim::Network net(&sched, s.dcs, s.seed);
    for (int a = 0; a < s.dcs; ++a) {
      for (int b = a + 1; b < s.dcs; ++b) {
        net.SetRtt(a, b, helios::Millis(100), helios::Millis(1));
      }
    }
    helios::sim::ReliableConfig rc;
    rc.enabled = reliable;
    helios::sim::ReliableMesh mesh(&sched, &net, rc);
    for (int i = 0; i < kEvents; ++i) {
      const int from = static_cast<int>(rng.Uniform(
          static_cast<uint64_t>(s.dcs)));
      const int to = (from + 1 + static_cast<int>(rng.Uniform(
                                     static_cast<uint64_t>(s.dcs - 1)))) %
                     s.dcs;
      if (reliable) {
        mesh.Send(from, to, [&fired] { ++fired; });
      } else {
        net.Send(from, to, [&fired] { ++fired; });
      }
    }
    sched.Run();
  };
  (*m)["sim.send_ns"] = {NsPerCall(kEvents, [&] { send_all(false); }), "ns"};
  if (s.reliable_and_shards) {
    (*m)["reliable.send_ns"] = {NsPerCall(kEvents, [&] { send_all(true); }),
                                "ns"};
  }
  if (fired == 0) std::printf("sim probe: nothing fired\n");
}

void MeasureShardAndWal(const Shape& s, Metrics* m) {
  constexpr int kTxns = 20000;
  helios::shard::TxnStatusStore status;
  uint64_t seq = 0;
  if (s.reliable_and_shards) {
    (*m)["shard.status_flip_ns"] = {
        NsPerCall(kTxns,
                  [&] {
                    for (int i = 0; i < kTxns; ++i) {
                      const TxnId id{0, ++seq};
                      status.Stage(id, {0, 1});
                      status.Commit(id, static_cast<Timestamp>(seq));
                    }
                  }),
        "ns"};
  }
  const auto bodies = Bodies(s, 2000, 0);
  helios::wal::MemoryWal wal;
  Timestamp ts = 1;
  (*m)["wal.memory_append_ns"] = {
      NsPerCall(static_cast<int>(bodies.size()),
                [&] {
                  for (const auto& b : bodies) {
                    (void)wal.AppendRecord(PreparingRecord(b, ts++));
                  }
                },
                [&] { wal.Reset(); }),
      "ns"};
}

helios::core::Envelope ShapedEnvelope(const Shape& s, int records) {
  helios::core::Envelope env(s.dcs);
  env.log.from = 0;
  for (DcId row = 0; row < s.dcs; ++row) {
    for (DcId col = 0; col < s.dcs; ++col) {
      env.log.table.Set(row, col, 1'000'000 + row * 17 + col);
    }
  }
  const auto bodies = Bodies(s, std::max(records, 1), 0);
  for (int i = 0; i < records; ++i) {
    env.log.records.push_back(
        PreparingRecord(bodies[static_cast<size_t>(i)], 2'000'000 + i));
  }
  env.ping_id = 7;
  env.rtt_row_us.assign(static_cast<size_t>(s.dcs), 40'000);
  return env;
}

}  // namespace

void MeasureEngineLayers(const Shape& shape, Metrics* out) {
  MeasureStore(shape, out);
  MeasurePool(shape, out);
  MeasureRdict(shape, out);
  MeasureSim(shape, out);
  MeasureShardAndWal(shape, out);
}

void MeasureWireLayer(const Shape& shape, Metrics* out) {
  // Heartbeat: a gossip envelope with a timetable, a ping and an RTT row
  // but no records. Batch: the same with 32 preparing records.
  constexpr int kCalls = 2000;
  for (const auto& [name, records] :
       std::vector<std::pair<std::string, int>>{{"heartbeat", 0},
                                                {"batch", 32}}) {
    const helios::core::Envelope env = ShapedEnvelope(shape, records);
    helios::wire::Framer framer;
    size_t bytes = 0;
    (*out)["wire." + name + ".encode_ns"] = {
        NsPerCall(kCalls,
                  [&] {
                    for (int i = 0; i < kCalls; ++i) {
                      bytes += framer.Frame(env).size();
                    }
                  }),
        "ns"};
    const std::vector<uint8_t> frame = helios::wire::FrameEnvelope(env);
    size_t decoded = 0;
    (*out)["wire." + name + ".decode_ns"] = {
        NsPerCall(kCalls,
                  [&] {
                    for (int i = 0; i < kCalls; ++i) {
                      decoded += helios::wire::UnframeEnvelope(frame).ok();
                    }
                  }),
        "ns"};
    if (bytes == 0 || decoded == 0) std::printf("wire probe: no output\n");
  }
}

bool MeasureFileWal(const Shape& shape, const std::string& dir, Metrics* out,
                    std::string* error) {
  // Appends arrive every 2 ms (about one DC's record rate on live-wan3),
  // so the group policy's 5 ms interval batches a few records per fsync.
  constexpr int kAppends = 150;
  const auto bodies = Bodies(shape, kAppends, 0);
  for (const helios::wal::SyncPolicy policy :
       {helios::wal::SyncPolicy::kEveryRecord,
        helios::wal::SyncPolicy::kGroupCommit,
        helios::wal::SyncPolicy::kOsBuffered}) {
    const std::string name = helios::wal::SyncPolicyName(policy);
    const std::string path = dir + "/probe-" + name + ".wal";
    std::filesystem::remove(path);
    helios::wal::FileWal wal;
    helios::wal::FileWalOptions opts;
    opts.policy = policy;
    const helios::Status st = wal.Open(path, opts);
    if (!st.ok()) {
      *error = "FileWal open " + path + ": " + st.ToString();
      return false;
    }
    std::vector<double> append_us, fsync_us;
    Timestamp ts = 1;
    auto next = Clock::now();
    for (const auto& body : bodies) {
      next += std::chrono::milliseconds(2);
      std::this_thread::sleep_until(next);
      const uint64_t fsyncs = wal.fsyncs();
      const auto t0 = Clock::now();
      (void)wal.AppendRecord(PreparingRecord(body, ts++));
      const double us = SecondsSince(t0) * 1e6;
      append_us.push_back(us);
      if (wal.fsyncs() != fsyncs) fsync_us.push_back(us);
    }
    wal.Close();
    std::filesystem::remove(path);
    (*out)["wal." + name + ".append_p50_us"] = {Percentile(append_us, 50),
                                                "us"};
    (*out)["wal." + name + ".append_p99_us"] = {Percentile(append_us, 99),
                                                "us"};
    (*out)["wal." + name + ".fsync_us"] = {Median(fsync_us), "us"};
  }
  return true;
}

double MeasureTcpRttUs() {
  std::mutex mu;
  std::condition_variable cv;
  uint64_t pongs = 0;
  helios::transport::TcpTransport a([&](std::vector<uint8_t>) {
    std::lock_guard<std::mutex> lock(mu);
    ++pongs;
    cv.notify_all();
  });
  helios::transport::TcpTransport* b_ptr = nullptr;
  helios::transport::TcpTransport b([&](std::vector<uint8_t> payload) {
    (void)b_ptr->Send(0, payload);
  });
  b_ptr = &b;
  if (!a.Listen(0).ok() || !b.Listen(0).ok() || !a.Connect(1, b.port()).ok() ||
      !b.Connect(0, a.port()).ok()) {
    return -1.0;
  }
  const std::vector<uint8_t> ping(64, 0x5A);
  std::vector<double> rtt_us;
  for (int i = 0; i < 300; ++i) {
    const auto t0 = Clock::now();
    if (!a.Send(1, ping).ok()) return -1.0;
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::seconds(2),
                     [&] { return pongs == static_cast<uint64_t>(i + 1); })) {
      return -1.0;
    }
    rtt_us.push_back(SecondsSince(t0) * 1e6);
  }
  a.Shutdown();
  b.Shutdown();
  return Median(rtt_us);
}

}  // namespace perfbench
