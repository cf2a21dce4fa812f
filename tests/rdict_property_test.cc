// Randomized property tests for the Replicated Dictionary: under arbitrary
// gossip schedules (random pairs, random timing, random appends, with and
// without interleaved garbage collection), all replicas converge to
// identical knowledge, no record is ever lost or duplicated into the
// engine, and garbage collection never discards a record before every
// datacenter has it. A second suite checks BuildMessageFor, Ingest,
// GarbageCollect, RestoreRecord and Snapshot against a naive per-node
// std::map model, including the chunk-sharing edge cases, and pins the
// wire bytes of a hand-built message.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "core/envelope.h"
#include "rdict/replicated_log.h"
#include "txn/transaction.h"
#include "wire/serialization.h"

namespace helios::rdict {
namespace {

struct GossipSim {
  int n;
  Rng rng;
  std::vector<ReplicatedLog> logs;
  std::vector<Timestamp> clocks;
  // Every record each node has *ingested as fresh*, by (origin, ts) —
  // used to check exactly-once delivery into the engine.
  std::vector<std::set<std::pair<DcId, Timestamp>>> delivered;
  std::set<std::pair<DcId, Timestamp>> appended;
  uint64_t next_seq = 1;

  GossipSim(int n_, uint64_t seed) : n(n_), rng(seed) {
    for (int i = 0; i < n; ++i) {
      logs.emplace_back(i, n);
      clocks.push_back(1000 * (i + 1));  // Skewed starting clocks.
      delivered.emplace_back();
    }
  }

  void Append(DcId dc) {
    clocks[dc] += 1 + static_cast<Timestamp>(rng.Uniform(50));
    LogRecord rec;
    rec.type = RecordType::kPreparing;
    rec.ts = clocks[dc];
    rec.origin = dc;
    rec.body = MakeTxnBody(TxnId{dc, next_seq++}, {},
                           {{"k" + std::to_string(rng.Uniform(10)), "v"}});
    ASSERT_TRUE(logs[dc].AppendLocal(rec).ok());
    appended.insert({dc, rec.ts});
    delivered[dc].insert({dc, rec.ts});
  }

  void Gossip(DcId from, DcId to) {
    const LogMessage msg = logs[from].BuildMessageFor(to);
    const auto fresh = logs[to].Ingest(msg);
    for (const LogRecord& rec : fresh) {
      const bool inserted =
          delivered[to].insert({rec.origin, rec.ts}).second;
      EXPECT_TRUE(inserted) << "record delivered twice as fresh";
    }
  }

  void RandomStep(bool with_gc) {
    const uint64_t action = rng.Uniform(10);
    if (action < 4) {
      Append(static_cast<DcId>(rng.Uniform(n)));
    } else if (action < 9 || !with_gc) {
      const DcId from = static_cast<DcId>(rng.Uniform(n));
      DcId to = static_cast<DcId>(rng.Uniform(n));
      if (to == from) to = (to + 1) % n;
      Gossip(from, to);
    } else {
      logs[rng.Uniform(n)].GarbageCollect();
    }
  }

  void FullyConverge() {
    // Enough all-pairs rounds to flush every record and every timetable.
    for (int round = 0; round < n + 2; ++round) {
      for (int a = 0; a < n; ++a) {
        for (int b = 0; b < n; ++b) {
          if (a != b) Gossip(a, b);
        }
      }
    }
  }
};

class RdictGossipTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t, bool>> {};

TEST_P(RdictGossipTest, RandomGossipConvergesExactlyOnce) {
  const auto [n, seed, with_gc] = GetParam();
  GossipSim sim(n, seed);
  for (int step = 0; step < 800; ++step) {
    sim.RandomStep(with_gc);
    if (::testing::Test::HasFatalFailure()) return;
  }
  sim.FullyConverge();

  // 1. Every node delivered every appended record exactly once.
  for (int dc = 0; dc < n; ++dc) {
    EXPECT_EQ(sim.delivered[dc], sim.appended) << "node " << dc;
  }
  // 2. Knowledge converged: every node knows every origin to the same
  //    bound, equal to the origin's own clock.
  for (int dc = 0; dc < n; ++dc) {
    for (int origin = 0; origin < n; ++origin) {
      EXPECT_EQ(sim.logs[dc].KnownUpTo(origin),
                sim.logs[origin].KnownUpTo(origin))
          << dc << " about " << origin;
    }
  }
  // 3. After convergence everything is garbage-collectable everywhere.
  for (int dc = 0; dc < n; ++dc) {
    sim.logs[dc].GarbageCollect();
    EXPECT_EQ(sim.logs[dc].live_records(), 0u) << dc;
  }
}

TEST_P(RdictGossipTest, GcNeverDropsAnUnknownRecord) {
  const auto [n, seed, with_gc] = GetParam();
  (void)with_gc;
  GossipSim sim(n, seed ^ 0xBEEF);
  for (int step = 0; step < 400; ++step) {
    sim.RandomStep(/*with_gc=*/true);
    if (::testing::Test::HasFatalFailure()) return;
    // Invariant after every step: for every record any node appended but
    // some node has not yet delivered, SOME live copy must still exist.
    if (step % 37 != 0) continue;
    for (const auto& id : sim.appended) {
      bool everyone_has_it = true;
      for (int dc = 0; dc < n; ++dc) {
        if (sim.delivered[dc].count(id) == 0) {
          everyone_has_it = false;
          break;
        }
      }
      if (everyone_has_it) continue;
      bool live_somewhere = false;
      for (int dc = 0; dc < n && !live_somewhere; ++dc) {
        for (const LogRecord& rec : sim.logs[dc].Snapshot()) {
          if (rec.origin == id.first && rec.ts == id.second) {
            live_somewhere = true;
            break;
          }
        }
      }
      EXPECT_TRUE(live_somewhere)
          << "record (" << id.first << "," << id.second
          << ") was GC'd before reaching every node";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RdictGossipTest,
    ::testing::Combine(::testing::Values(2, 3, 5, 8),
                       ::testing::Values(11u, 22u, 33u),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, uint64_t, bool>>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_gc" : "_nogc");
    });

// --- Reference model ---------------------------------------------------------

/// Every field of a record, in RecordOrder when sorted.
using Row = std::tuple<Timestamp, DcId, RecordType, bool, Timestamp,
                       const TxnBody*>;

Row RowOf(const LogRecord& rec) {
  return {rec.ts, rec.origin, rec.type, rec.committed, rec.version_ts,
          rec.body.get()};
}

std::vector<Row> Rows(const std::vector<LogRecord>& records) {
  std::vector<Row> out;
  for (const LogRecord& rec : records) out.push_back(RowOf(rec));
  return out;
}

std::vector<Row> Rows(const LogMessage& msg) {
  return Rows(msg.records.ToVector());
}

/// A node's records keyed by (ts, origin), i.e. in RecordOrder.
using Model = std::map<std::pair<Timestamp, DcId>, LogRecord>;

std::vector<Row> Rows(const Model& model) {
  std::vector<Row> out;
  for (const auto& [key, rec] : model) out.push_back(RowOf(rec));
  return out;
}

LogRecord MakeRecord(DcId origin, Timestamp ts, uint64_t seq, Rng* rng) {
  LogRecord rec;
  rec.origin = origin;
  rec.ts = ts;
  if (rng->Uniform(2) == 0) {
    rec.type = RecordType::kFinished;
    rec.committed = rng->Uniform(2) == 0;
    rec.version_ts = ts + static_cast<Timestamp>(rng->Uniform(5));
  }
  rec.body = MakeTxnBody(TxnId{origin, seq}, {},
                         {{"k" + std::to_string(rng->Uniform(100)), "v"}});
  return rec;
}

/// Logs under random gossip, each checked against its model after every
/// operation. Some messages are held back and delivered late, after their
/// sender has appended past and garbage-collected the chunks they share.
struct ModelSim {
  struct Held {
    DcId to;
    LogMessage msg;
    std::vector<Row> rows;  ///< Contents when built.
  };

  int n;
  Rng rng;
  std::vector<ReplicatedLog> logs;
  std::vector<Model> models;
  std::vector<Timestamp> clocks;
  std::vector<Held> held;
  uint64_t next_seq = 1;

  ModelSim(int n_, uint64_t seed) : n(n_), rng(seed), models(n_) {
    for (DcId dc = 0; dc < n; ++dc) {
      logs.emplace_back(dc, n);
      clocks.push_back(1000 * (dc + 1));
    }
  }

  void Check(DcId dc) {
    EXPECT_EQ(Rows(logs[dc].Snapshot()), Rows(models[dc])) << "node " << dc;
    EXPECT_EQ(logs[dc].live_records(), models[dc].size()) << "node " << dc;
  }

  void Append(DcId dc, int count) {
    for (int i = 0; i < count; ++i) {
      clocks[dc] += 1 + static_cast<Timestamp>(rng.Uniform(20));
      const LogRecord rec = MakeRecord(dc, clocks[dc], next_seq++, &rng);
      ASSERT_TRUE(logs[dc].AppendLocal(rec).ok());
      models[dc].emplace(std::make_pair(rec.ts, dc), rec);
    }
    Check(dc);
  }

  LogMessage Build(DcId from, DcId to) {
    LogMessage msg = logs[from].BuildMessageFor(to);
    std::vector<Row> want;
    for (const auto& [key, rec] : models[from]) {
      if (key.first > logs[from].table().Get(to, key.second)) {
        want.push_back(RowOf(rec));
      }
    }
    EXPECT_EQ(Rows(msg), want) << from << " -> " << to;
    EXPECT_EQ(msg.records.size(), want.size());
    return msg;
  }

  void Deliver(DcId to, const LogMessage& msg) {
    std::vector<Row> want;
    for (const LogRecord& rec : msg.records.ToVector()) {
      if (rec.ts > logs[to].KnownUpTo(rec.origin)) want.push_back(RowOf(rec));
    }
    const std::vector<LogRecord> fresh = logs[to].Ingest(msg);
    EXPECT_EQ(Rows(fresh), want) << "ingest at " << to;
    for (const LogRecord& rec : fresh) {
      models[to].emplace(std::make_pair(rec.ts, rec.origin), rec);
    }
    Check(to);
  }

  void Gc(DcId dc) {
    size_t want = 0;
    for (auto it = models[dc].begin(); it != models[dc].end();) {
      const auto [ts, origin] = it->first;
      if (ts <= logs[dc].table().MinColumn(origin)) {
        it = models[dc].erase(it);
        ++want;
      } else {
        ++it;
      }
    }
    EXPECT_EQ(logs[dc].GarbageCollect(), want) << "gc at " << dc;
    Check(dc);
  }

  void DeliverHeld(size_t i) {
    const Held h = std::move(held[i]);
    held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
    EXPECT_EQ(Rows(h.msg), h.rows) << "held message changed";
    Deliver(h.to, h.msg);
  }

  void RandomStep() {
    const DcId a = static_cast<DcId>(rng.Uniform(n));
    DcId b = static_cast<DcId>(rng.Uniform(n));
    if (b == a) b = (b + 1) % n;
    const uint64_t action = rng.Uniform(20);
    if (action < 7) {
      // Bursts up to 1.5 chunks, so messages and GC cut across chunks.
      Append(a, 1 + static_cast<int>(rng.Uniform(
                        rng.Uniform(4) == 0 ? 96 : 8)));
    } else if (action < 14) {
      Deliver(b, Build(a, b));
    } else if (action < 16) {
      LogMessage msg = Build(a, b);
      std::vector<Row> rows = Rows(msg);
      held.push_back(Held{b, std::move(msg), std::move(rows)});
    } else if (action < 17 && !held.empty()) {
      DeliverHeld(rng.Uniform(held.size()));
    } else {
      Gc(a);
    }
  }
};

class RdictModelSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RdictModelSeedTest, MatchesNaiveMapModel) {
  for (const int n : {2, 3, 5}) {
    ModelSim sim(n, GetParam() * 31 + static_cast<uint64_t>(n));
    for (int step = 0; step < 700; ++step) {
      sim.RandomStep();
      if (::testing::Test::HasFailure()) return;
    }
    while (!sim.held.empty()) sim.DeliverHeld(0);
    for (int round = 0; round < n + 2; ++round) {
      for (DcId a = 0; a < n; ++a) {
        for (DcId b = 0; b < n; ++b) {
          if (a != b) sim.Deliver(b, sim.Build(a, b));
        }
      }
    }
    for (DcId dc = 0; dc < n; ++dc) {
      sim.Gc(dc);
      EXPECT_TRUE(sim.models[dc].empty()) << "n=" << n << " node " << dc;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RdictModelSeedTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(RdictModelTest, MessageSpansChunkBoundariesAndGcCutsMidChunk) {
  ModelSim sim(2, 9);
  sim.Append(0, 50);
  sim.Deliver(1, sim.Build(0, 1));
  sim.Deliver(0, sim.Build(1, 0));  // Node 0 learns node 1 has all 50.
  sim.Append(0, 2 * static_cast<int>(ChunkedLog::kChunkRecords));
  // Records 51..178 sit in the tail of the first chunk, all of the second
  // and the head of the third.
  const LogMessage msg = sim.Build(0, 1);
  ASSERT_EQ(msg.records.size(), 2 * ChunkedLog::kChunkRecords);
  const std::vector<Row> sent = Rows(msg);
  // GC cuts the first chunk after its 50th record.
  sim.Gc(0);
  EXPECT_EQ(sim.logs[0].live_records(), 2 * ChunkedLog::kChunkRecords);
  EXPECT_EQ(Rows(msg), sent);
  sim.Deliver(1, msg);
  EXPECT_EQ(sim.models[1].size(), 50 + 2 * ChunkedLog::kChunkRecords);
}

TEST(RdictModelTest, MessageOutlivesGcOfEveryChunkItReferences) {
  ModelSim sim(3, 10);
  sim.Append(0, 100);
  const LogMessage msg = sim.Build(0, 1);
  const std::vector<Row> sent = Rows(msg);
  // Node 1 learns the records through node 2, and node 0 learns that every
  // node has them, so its GC drops every chunk `msg` references.
  sim.Deliver(2, sim.Build(0, 2));
  sim.Deliver(1, sim.Build(2, 1));
  sim.Deliver(0, sim.Build(1, 0));
  sim.Deliver(0, sim.Build(2, 0));
  sim.Gc(0);
  EXPECT_EQ(sim.logs[0].live_records(), 0u);
  sim.Append(0, 100);  // Fresh chunks; the old ones are msg's alone.
  EXPECT_EQ(Rows(msg), sent);
  sim.Deliver(1, msg);  // All duplicates now.
  ReplicatedLog restarted(1, 3);
  EXPECT_EQ(Rows(restarted.Ingest(msg)), sent);
}

TEST(RdictModelTest, CopiesShareChunksButAppendIndependently) {
  ModelSim sim(2, 13);
  sim.Append(0, 10);
  ReplicatedLog copy = sim.logs[0];
  Model copy_model = sim.models[0];
  sim.Append(0, 5);  // Fills slots past the copy's records.
  const LogRecord rec = MakeRecord(0, sim.clocks[0] + 1, 999, &sim.rng);
  ASSERT_TRUE(copy.AppendLocal(rec).ok());
  copy_model.emplace(std::make_pair(rec.ts, rec.origin), rec);
  EXPECT_EQ(Rows(copy.Snapshot()), Rows(copy_model));
  sim.Check(0);
}

TEST(RdictModelTest, OutOfOrderRestoreMatchesModel) {
  Rng rng(12);
  std::vector<LogRecord> records;
  Model model;
  uint64_t seq = 1;
  for (DcId origin = 0; origin < 3; ++origin) {
    Timestamp ts = 100 * (origin + 1);
    for (int i = 0; i < 150; ++i) {
      ts += 1 + static_cast<Timestamp>(rng.Uniform(10));
      records.push_back(MakeRecord(origin, ts, seq++, &rng));
      model.emplace(std::make_pair(ts, origin), records.back());
    }
  }
  // Replay shuffled, with a sprinkling of duplicates.
  for (int i = 0; i < 40; ++i) {
    records.push_back(records[rng.Uniform(records.size())]);
  }
  std::shuffle(records.begin(), records.end(), rng);
  ReplicatedLog log(0, 3);
  for (const LogRecord& rec : records) log.RestoreRecord(rec);
  EXPECT_EQ(Rows(log.Snapshot()), Rows(model));
  EXPECT_EQ(log.live_records(), model.size());
  for (DcId origin = 0; origin < 3; ++origin) {
    Timestamp last = kMinTimestamp;
    for (const auto& [key, rec] : model) {
      if (key.second == origin) last = key.first;
    }
    EXPECT_EQ(log.KnownUpTo(origin), last);
  }
  // A peer that knows nothing is sent everything, in RecordOrder.
  EXPECT_EQ(Rows(log.BuildMessageFor(1)), Rows(model));
}

/// EncodeEnvelope(HandBuiltEnvelope()) as encoded from a RecordOrder
/// vector of records, before messages shared log chunks.
constexpr char kHandBuiltEnvelopeHex[] =
    "0203505254646668787a7c06000064ffffffffffffffff3f000001010272310e"
    "0409010277310376616c0100646a040402010272320e0409010277320376616c"
    "000066ffffffffffffffff3f020203010272330e0409010277330376616c0101"
    "787e000004010272340e0409010277340376616c00008c01ffffffffffffffff"
    "3f020205010272350e0409010277350376616c01008e01940104040601027236"
    "0e0409010277360376616c0104000442050000030080f10480e209";

/// A hand-built, push_back-filled envelope with records of three origins
/// (ts ties broken by origin) and every record field in use.
core::Envelope HandBuiltEnvelope() {
  core::Envelope env(3);
  env.log.from = 1;
  for (DcId a = 0; a < 3; ++a) {
    for (DcId b = 0; b < 3; ++b) env.log.table.Set(a, b, 40 + 10 * a + b);
  }
  const std::vector<std::pair<DcId, Timestamp>> order = {
      {0, 50}, {2, 50}, {1, 51}, {0, 60}, {1, 70}, {2, 71}};
  uint64_t seq = 1;
  for (const auto& [origin, ts] : order) {
    LogRecord rec;
    rec.origin = origin;
    rec.ts = ts;
    if (seq % 2 == 0) {
      rec.type = RecordType::kFinished;
      rec.committed = seq % 4 == 0;
      rec.version_ts = ts + 3;
    }
    rec.body = MakeTxnBody(TxnId{origin, seq},
                           {{"r" + std::to_string(seq), 7, TxnId{2, 9}}},
                           {{"w" + std::to_string(seq), "val"}});
    env.log.records.push_back(rec);
    ++seq;
  }
  env.refusals.push_back(core::Refusal{2, TxnId{0, 4}, 33});
  env.ping_id = 5;
  env.rtt_row_us = {0, 40000, 80000};
  return env;
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  std::string out;
  char buf[3];
  for (uint8_t b : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    out += buf;
  }
  return out;
}

TEST(RdictModelTest, PushBackMessageRoundTripsWithUnchangedBytes) {
  const core::Envelope env = HandBuiltEnvelope();
  wire::Buffer bytes;
  wire::Writer w(&bytes);
  wire::EncodeEnvelope(env, &w);
  EXPECT_EQ(Hex(bytes.vec()), kHandBuiltEnvelopeHex);
  auto round = wire::UnframeEnvelope(wire::FrameEnvelope(env));
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round.value().log.records.size(), 6u);
  wire::Buffer again;
  wire::Writer again_w(&again);
  wire::EncodeEnvelope(round.value(), &again_w);
  EXPECT_EQ(again.vec(), bytes.vec());
}

}  // namespace
}  // namespace helios::rdict
