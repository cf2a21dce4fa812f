// Micro-benchmarks (google-benchmark) for the hot paths of the library:
// replicated-log append/partial-log/ingest (also against a crashed peer's
// backlog), timetable merge, MVCC store reads/writes, conflict checks
// against the preparing pools, lock table operations, and the MAO simplex
// solve.

#include <benchmark/benchmark.h>

#include <optional>
#include <vector>

#include "common/random.h"
#include "lp/mao.h"
#include "rdict/replicated_log.h"
#include "store/lock_table.h"
#include "store/mv_store.h"
#include "txn/pool.h"
#include "txn/transaction.h"

namespace helios {
namespace {

TxnBodyPtr MakeBody(DcId dc, uint64_t seq, int keys, Rng& rng,
                    uint64_t key_space) {
  std::vector<ReadEntry> reads;
  std::vector<WriteEntry> writes;
  for (int i = 0; i < keys; ++i) {
    const Key k = "user" + std::to_string(rng.Uniform(key_space));
    if (i % 2 == 0 && !std::any_of(writes.begin(), writes.end(),
                                   [&](const WriteEntry& w) {
                                     return w.key == k;
                                   })) {
      writes.push_back({k, "value"});
    } else {
      reads.push_back({k, 0, TxnId{}});
    }
  }
  if (writes.empty()) writes.push_back({"user0", "v"});
  return MakeTxnBody(TxnId{dc, seq}, std::move(reads), std::move(writes));
}

void BM_RdictAppend(benchmark::State& state) {
  Rng rng(1);
  rdict::ReplicatedLog log(0, 5);
  Timestamp ts = 1;
  uint64_t seq = 1;
  for (auto _ : state) {
    rdict::LogRecord rec;
    rec.type = rdict::RecordType::kPreparing;
    rec.ts = ts++;
    rec.origin = 0;
    rec.body = MakeBody(0, seq++, 5, rng, 50000);
    benchmark::DoNotOptimize(log.AppendLocal(rec));
    if (log.live_records() > 10000) {
      state.PauseTiming();
      log = rdict::ReplicatedLog(0, 5);
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_RdictAppend);

void BM_RdictExchangeRoundTrip(benchmark::State& state) {
  const int records = static_cast<int>(state.range(0));
  Rng rng(2);
  for (auto _ : state) {
    state.PauseTiming();
    rdict::ReplicatedLog a(0, 3);
    rdict::ReplicatedLog b(1, 3);
    for (int i = 0; i < records; ++i) {
      rdict::LogRecord rec;
      rec.type = rdict::RecordType::kPreparing;
      rec.ts = i + 1;
      rec.origin = 0;
      rec.body = MakeBody(0, static_cast<uint64_t>(i), 5, rng, 50000);
      (void)a.AppendLocal(rec);
    }
    state.ResumeTiming();
    auto msg = a.BuildMessageFor(1);
    benchmark::DoNotOptimize(b.Ingest(msg));
    auto back = b.BuildMessageFor(0);
    benchmark::DoNotOptimize(a.Ingest(back));
  }
  state.SetItemsProcessed(state.iterations() * records);
}
BENCHMARK(BM_RdictExchangeRoundTrip)->Arg(16)->Arg(256)->Arg(2048);

// The sim-xshard-faults crash backlog: 5 DCs gossip every 10 ms for 6 s
// while DC 4 is down, so each live log holds about 4,000 records (170 per
// live DC per second) that it cannot garbage-collect, and its timetable
// row for DC 4 is 6 s stale. `straggler` is DC 4's log had it kept up
// until the last 1% of that time.
struct LaggingPeerLogs {
  std::vector<rdict::ReplicatedLog> logs;
  rdict::ReplicatedLog straggler{4, 5};
};

const LaggingPeerLogs& Lagging() {
  static const LaggingPeerLogs* const built = [] {
    constexpr int kDcs = 5;
    constexpr int kLive = 4;
    constexpr int kRounds = 600;  // 6 s of 10 ms log intervals.
    constexpr int kPerSecond = 170;
    auto* out = new LaggingPeerLogs;
    for (DcId dc = 0; dc < kDcs; ++dc) out->logs.emplace_back(dc, kDcs);
    Rng rng(12);
    uint64_t seq = 1;
    for (int round = 0; round < kRounds; ++round) {
      const Timestamp now = Millis(10) * (round + 1);
      const int due = (round + 1) * kPerSecond / 100 - round * kPerSecond / 100;
      for (DcId dc = 0; dc < kLive; ++dc) {
        for (int i = 0; i < due; ++i) {
          rdict::LogRecord rec;
          rec.type = rdict::RecordType::kPreparing;
          rec.ts = now + i * kLive + dc;
          rec.origin = dc;
          rec.body = MakeBody(dc, seq++, 5, rng, 50000);
          (void)out->logs[dc].AppendLocal(rec);
        }
        out->logs[dc].AdvanceOwnClock(now + Millis(10) - 1);
      }
      for (DcId from = 0; from < kLive; ++from) {
        for (DcId to = 0; to < kLive; ++to) {
          if (from == to) continue;
          out->logs[to].Ingest(out->logs[from].BuildMessageFor(to));
        }
      }
      if (round + 1 == kRounds * 99 / 100) {
        out->straggler.Ingest(out->logs[0].BuildMessageFor(4));
      }
    }
    return out;
  }();
  return *built;
}

void BM_RdictBuildLaggingPeer(benchmark::State& state) {
  const rdict::ReplicatedLog& log = Lagging().logs[0];
  rdict::LogMessage msg(log.size());
  for (auto _ : state) {
    log.BuildMessageInto(4, &msg);
    benchmark::DoNotOptimize(msg);
  }
  state.counters["records"] = static_cast<double>(msg.records.size());
}
BENCHMARK(BM_RdictBuildLaggingPeer)->Unit(benchmark::kMicrosecond);

void BM_RdictIngestMostlyKnown(benchmark::State& state) {
  const rdict::LogMessage msg = Lagging().logs[0].BuildMessageFor(4);
  std::optional<rdict::ReplicatedLog> peer;
  size_t fresh = 0;
  for (auto _ : state) {
    state.PauseTiming();
    peer.emplace(Lagging().straggler);
    state.ResumeTiming();
    fresh = peer->Ingest(msg).size();
    benchmark::DoNotOptimize(fresh);
  }
  state.counters["records"] = static_cast<double>(msg.records.size());
  state.counters["fresh"] = static_cast<double>(fresh);
}
BENCHMARK(BM_RdictIngestMostlyKnown)->Unit(benchmark::kMicrosecond);

void BM_TimetableMerge(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  rdict::Timetable a(n);
  rdict::Timetable b(n);
  Rng rng(3);
  for (DcId i = 0; i < n; ++i) {
    for (DcId j = 0; j < n; ++j) {
      a.Set(i, j, static_cast<Timestamp>(rng.Uniform(1000)));
      b.Set(i, j, static_cast<Timestamp>(rng.Uniform(1000)));
    }
  }
  for (auto _ : state) {
    a.MergeFrom(b, 0, 1);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_TimetableMerge)->Arg(5)->Arg(16)->Arg(64);

void BM_MvStoreWrite(benchmark::State& state) {
  MvStore store;
  Rng rng(4);
  Timestamp ts = 1;
  for (auto _ : state) {
    const Key k = "user" + std::to_string(rng.Uniform(50000));
    store.ApplyWrite(k, "value", ts++, TxnId{0, static_cast<uint64_t>(ts)});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MvStoreWrite);

void BM_MvStoreRead(benchmark::State& state) {
  MvStore store;
  Rng rng(5);
  for (int i = 0; i < 50000; ++i) {
    store.ApplyWrite("user" + std::to_string(i), "value", i + 1,
                     TxnId{0, static_cast<uint64_t>(i)});
  }
  for (auto _ : state) {
    const Key k = "user" + std::to_string(rng.Uniform(50000));
    benchmark::DoNotOptimize(store.Read(k));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MvStoreRead);

// One version-GC tick as HeliosNode::RunGc issues it: a 50k-key preloaded
// store takes writes every 500 ms and is truncated at a horizon 10 s behind
// the clock. The lag keeps each recently written key at two versions until
// its write leaves the window; that backlog is what made GC the top entry
// of simulator profiles.
void BM_MvStoreGcTick(benchmark::State& state) {
  constexpr uint64_t kKeys = 50000;
  constexpr int kWritesPerTick = 1000;
  constexpr Duration kTick = Millis(500);
  std::vector<Key> keys;
  MvStore store;
  for (uint64_t i = 0; i < kKeys; ++i) {
    keys.push_back("user" + std::to_string(i));
    store.ApplyWrite(keys[i], "init", kMinTimestamp, TxnId{0, i});
  }
  Rng rng(9);
  Timestamp now = 0;
  uint64_t seq = kKeys;
  auto write_one_tick = [&] {
    for (int i = 0; i < kWritesPerTick; ++i) {
      store.ApplyWrite(keys[rng.Uniform(kKeys)], "value",
                       now + static_cast<Timestamp>(rng.Uniform(kTick)),
                       TxnId{1, ++seq});
    }
    now += kTick;
  };
  while (now < Seconds(10)) write_one_tick();  // Fill the lag window.
  for (auto _ : state) {
    state.PauseTiming();
    write_one_tick();
    state.ResumeTiming();
    benchmark::DoNotOptimize(store.TruncateVersionsBefore(now - Seconds(10)));
  }
  state.counters["versions"] = static_cast<double>(store.version_count());
}
BENCHMARK(BM_MvStoreGcTick)->Unit(benchmark::kMicrosecond);

void BM_PoolConflictCheck(benchmark::State& state) {
  const int pool_size = static_cast<int>(state.range(0));
  Rng rng(6);
  TxnPool pool;
  for (int i = 0; i < pool_size; ++i) {
    pool.Add(MakeBody(0, static_cast<uint64_t>(i), 5, rng, 50000));
  }
  uint64_t seq = 1000000;
  for (auto _ : state) {
    auto probe = MakeBody(1, seq++, 5, rng, 50000);
    benchmark::DoNotOptimize(pool.ConflictingWriters(*probe));
    benchmark::DoNotOptimize(pool.Victims(*probe));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolConflictCheck)->Arg(16)->Arg(256)->Arg(4096);

void BM_LockTableAcquireRelease(benchmark::State& state) {
  LockTable table(LockPolicy::kNoWait);
  Rng rng(7);
  uint64_t seq = 1;
  for (auto _ : state) {
    const TxnId txn{0, seq++};
    for (int i = 0; i < 5; ++i) {
      const Key k = "user" + std::to_string(rng.Uniform(50000));
      table.Acquire(k, i % 2 ? LockMode::kShared : LockMode::kExclusive, txn,
                    static_cast<Timestamp>(seq), [](Status) {});
    }
    table.ReleaseAll(txn);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockTableAcquireRelease);

void BM_MaoSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(8);
  lp::RttMatrix rtt(n);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      rtt.Set(a, b, 20.0 + static_cast<double>(rng.Uniform(250)));
    }
  }
  for (auto _ : state) {
    auto sol = lp::SolveMao(rtt);
    benchmark::DoNotOptimize(sol);
  }
}
BENCHMARK(BM_MaoSolve)->Arg(5)->Arg(10)->Arg(20);

}  // namespace
}  // namespace helios

BENCHMARK_MAIN();
