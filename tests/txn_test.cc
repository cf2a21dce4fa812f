// Unit tests for transaction bodies, the conflict predicates of
// Algorithms 1-2, and the indexed preparing-transaction pools.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "txn/pool.h"
#include "txn/transaction.h"

namespace helios {
namespace {

TxnBodyPtr RwTxn(DcId dc, uint64_t seq, std::vector<Key> reads,
                 std::vector<Key> writes) {
  std::vector<ReadEntry> rs;
  for (auto& k : reads) rs.push_back({k, 0, TxnId{}});
  std::vector<WriteEntry> ws;
  for (auto& k : writes) ws.push_back({k, "v"});
  return MakeTxnBody(TxnId{dc, seq}, std::move(rs), std::move(ws));
}

TEST(TxnBodyTest, KeyMembership) {
  auto t = RwTxn(0, 1, {"a", "b"}, {"b", "c"});
  EXPECT_TRUE(t->ReadsKey("a"));
  EXPECT_TRUE(t->ReadsKey("b"));
  EXPECT_FALSE(t->ReadsKey("c"));
  EXPECT_TRUE(t->WritesKey("b"));
  EXPECT_TRUE(t->WritesKey("c"));
  EXPECT_FALSE(t->WritesKey("a"));
}

TEST(ConflictTest, ReadWriteConflict) {
  auto reader = RwTxn(0, 1, {"x"}, {"y"});
  auto writer = RwTxn(1, 1, {}, {"x"});
  EXPECT_TRUE(ConflictsWithWritesOf(*reader, *writer));
  // The reverse direction: writer's read/write sets vs reader's writes.
  EXPECT_FALSE(ConflictsWithWritesOf(*writer, *reader));
}

TEST(ConflictTest, WriteWriteConflict) {
  auto a = RwTxn(0, 1, {}, {"x"});
  auto b = RwTxn(1, 1, {}, {"x"});
  EXPECT_TRUE(ConflictsWithWritesOf(*a, *b));
  EXPECT_TRUE(ConflictsWithWritesOf(*b, *a));
  EXPECT_TRUE(WriteSetsIntersect(*a, *b));
}

TEST(ConflictTest, ReadReadIsNotAConflict) {
  auto a = RwTxn(0, 1, {"x"}, {"p"});
  auto b = RwTxn(1, 1, {"x"}, {"q"});
  EXPECT_FALSE(ConflictsWithWritesOf(*a, *b));
  EXPECT_FALSE(ConflictsWithWritesOf(*b, *a));
  EXPECT_FALSE(WriteSetsIntersect(*a, *b));
}

TEST(ConflictTest, DisjointTxnsDoNotConflict) {
  auto a = RwTxn(0, 1, {"a"}, {"b"});
  auto b = RwTxn(1, 1, {"c"}, {"d"});
  EXPECT_FALSE(ConflictsWithWritesOf(*a, *b));
  EXPECT_FALSE(ConflictsWithWritesOf(*b, *a));
}

TEST(TxnPoolTest, AddRemoveContains) {
  TxnPool pool;
  auto t = RwTxn(0, 1, {"a"}, {"b"});
  pool.Add(t);
  EXPECT_TRUE(pool.Contains(t->id));
  EXPECT_EQ(pool.size(), 1u);
  ASSERT_NE(pool.Find(t->id), nullptr);
  EXPECT_TRUE(pool.Remove(t->id));
  EXPECT_FALSE(pool.Contains(t->id));
  EXPECT_FALSE(pool.Remove(t->id));
  EXPECT_TRUE(pool.empty());
}

TEST(TxnPoolTest, DuplicateAddIgnored) {
  TxnPool pool;
  auto t = RwTxn(0, 1, {"a"}, {"b"});
  pool.Add(t);
  pool.Add(t);
  EXPECT_EQ(pool.size(), 1u);
  pool.Remove(t->id);
  // Indexes must be fully cleaned: a probe touching "b" finds nothing.
  auto probe = RwTxn(1, 1, {"b"}, {"z"});
  EXPECT_TRUE(pool.ConflictingWriters(*probe).empty());
}

TEST(TxnPoolTest, ConflictingWritersMatchesAlgorithm1) {
  TxnPool pool;
  pool.Add(RwTxn(0, 1, {}, {"x"}));       // Writes x.
  pool.Add(RwTxn(0, 2, {"x"}, {"y"}));    // Reads x, writes y.
  pool.Add(RwTxn(0, 3, {"p"}, {"q"}));    // Unrelated.

  // Probe reads x: conflicts with the writer of x only.
  auto probe1 = RwTxn(1, 1, {"x"}, {"z"});
  auto hits1 = pool.ConflictingWriters(*probe1);
  ASSERT_EQ(hits1.size(), 1u);
  EXPECT_EQ(hits1[0]->id, (TxnId{0, 1}));

  // Probe writes y: conflicts with the writer of y.
  auto probe2 = RwTxn(1, 2, {}, {"y"});
  auto hits2 = pool.ConflictingWriters(*probe2);
  ASSERT_EQ(hits2.size(), 1u);
  EXPECT_EQ(hits2[0]->id, (TxnId{0, 2}));

  // Probe touching nothing pooled: no conflicts.
  auto probe3 = RwTxn(1, 3, {"m"}, {"n"});
  EXPECT_TRUE(pool.ConflictingWriters(*probe3).empty());
}

TEST(TxnPoolTest, VictimsMatchesAlgorithm2) {
  TxnPool pool;
  pool.Add(RwTxn(0, 1, {"x"}, {"a"}));   // Reads x.
  pool.Add(RwTxn(0, 2, {}, {"x"}));      // Writes x.
  pool.Add(RwTxn(0, 3, {"p"}, {"q"}));   // Unrelated.

  // Incoming remote transaction writes x: both the reader and the writer
  // of x are invalidated.
  auto incoming = RwTxn(1, 1, {"whatever"}, {"x"});
  auto victims = pool.Victims(*incoming);
  EXPECT_EQ(victims.size(), 2u);
}

TEST(TxnPoolTest, VictimsDeduplicated) {
  TxnPool pool;
  pool.Add(RwTxn(0, 1, {"x"}, {"y"}));  // Reads x AND writes y.
  auto incoming = RwTxn(1, 1, {}, {"x", "y"});  // Hits it twice.
  EXPECT_EQ(pool.Victims(*incoming).size(), 1u);
}

TEST(TxnPoolTest, SelfIsNeverAConflict) {
  TxnPool pool;
  auto t = RwTxn(0, 1, {"x"}, {"x"});
  pool.Add(t);
  EXPECT_TRUE(pool.ConflictingWriters(*t).empty());
  EXPECT_TRUE(pool.Victims(*t).empty());
}

TEST(TxnPoolTest, AllReturnsEverything) {
  TxnPool pool;
  pool.Add(RwTxn(0, 1, {}, {"a"}));
  pool.Add(RwTxn(0, 2, {}, {"b"}));
  EXPECT_EQ(pool.All().size(), 2u);
}

TEST(TxnPoolTest, BlindWriteConflictsDetected) {
  TxnPool pool;
  pool.Add(RwTxn(0, 1, {}, {"x"}));  // Blind write of x.
  auto probe = RwTxn(1, 1, {}, {"x"});  // Another blind write.
  EXPECT_EQ(pool.ConflictingWriters(*probe).size(), 1u);
  EXPECT_EQ(pool.Victims(*probe).size(), 1u);
}

// Brute-force reference for the pool's result order: the probe's keys in
// order, and under each key the pooled transactions in insertion order.
std::vector<TxnId> ReferenceOrder(const std::vector<TxnBodyPtr>& pooled,
                                  const TxnBody& probe, bool victims) {
  std::vector<TxnId> out;
  auto visit = [&](const Key& key, bool writers) {
    for (const TxnBodyPtr& t : pooled) {
      const bool hit = writers ? t->WritesKey(key) : t->ReadsKey(key);
      if (hit && t->id != probe.id &&
          std::find(out.begin(), out.end(), t->id) == out.end()) {
        out.push_back(t->id);
      }
    }
  };
  if (victims) {
    for (const WriteEntry& w : probe.write_set) {
      visit(w.key, true);
      visit(w.key, false);
    }
  } else {
    for (const ReadEntry& r : probe.read_set) visit(r.key, true);
    for (const WriteEntry& w : probe.write_set) visit(w.key, true);
  }
  return out;
}

std::vector<TxnId> Ids(const std::vector<TxnBodyPtr>& bodies) {
  std::vector<TxnId> ids;
  for (const TxnBodyPtr& b : bodies) ids.push_back(b->id);
  return ids;
}

TEST(TxnPoolTest, ResultOrderMatchesBruteForce) {
  // The abort order, and through it the event schedule, follows the order
  // ConflictingWriters and Victims report; pin it over random Add/Remove.
  const std::vector<Key> keys = {"k0", "k1", "k2", "k3", "k4", "k5", "k6"};
  Rng rng(11);
  auto random_body = [&](uint64_t seq) {
    std::vector<Key> reads;
    for (uint64_t i = rng.Uniform(4); i > 0; --i) {
      reads.push_back(keys[rng.Uniform(keys.size())]);  // May repeat.
    }
    std::vector<Key> writes;
    for (uint64_t i = rng.Uniform(4); i > 0; --i) {
      const Key& k = keys[rng.Uniform(keys.size())];
      if (std::find(writes.begin(), writes.end(), k) == writes.end()) {
        writes.push_back(k);
      }
    }
    return RwTxn(static_cast<DcId>(rng.Uniform(3)), seq, reads, writes);
  };
  TxnPool pool;
  std::vector<TxnBodyPtr> pooled;  // Insertion order.
  std::vector<TxnBodyPtr> seen;
  for (uint64_t step = 1; step <= 1500; ++step) {
    const uint64_t op = rng.Uniform(10);
    if ((op < 4 && pooled.size() < 24) || seen.empty()) {
      TxnBodyPtr t = random_body(step);
      seen.push_back(t);
      pool.Add(t);
      pooled.push_back(t);
    } else if (op < 5) {
      const TxnBodyPtr& t = seen[rng.Uniform(seen.size())];  // Re-add.
      const bool present = pool.Contains(t->id);
      pool.Add(t);
      if (!present) pooled.push_back(t);
    } else if (op < 9) {
      // Mostly pooled transactions; sometimes one already removed.
      const TxnBodyPtr t = op < 8 && !pooled.empty()
                               ? pooled[rng.Uniform(pooled.size())]
                               : seen[rng.Uniform(seen.size())];
      auto it = std::find(pooled.begin(), pooled.end(), t);
      EXPECT_EQ(pool.Remove(t->id), it != pooled.end());
      if (it != pooled.end()) pooled.erase(it);
    }
    // Probe with a fresh body or with a pooled one (self is excluded).
    const TxnBodyPtr probe = rng.Bernoulli(0.3) && !pooled.empty()
                                 ? pooled[rng.Uniform(pooled.size())]
                                 : random_body(100000 + step);
    const std::vector<TxnId> writers = Ids(pool.ConflictingWriters(*probe));
    const std::vector<TxnId> victims = Ids(pool.Victims(*probe));
    ASSERT_EQ(writers, ReferenceOrder(pooled, *probe, false)) << step;
    ASSERT_EQ(victims, ReferenceOrder(pooled, *probe, true)) << step;
    // Same sets as the plain conflict predicates.
    for (const TxnBodyPtr& t : pooled) {
      if (t->id == probe->id) continue;
      EXPECT_EQ(ConflictsWithWritesOf(*probe, *t),
                std::count(writers.begin(), writers.end(), t->id) == 1);
      EXPECT_EQ(ConflictsWithWritesOf(*t, *probe),
                std::count(victims.begin(), victims.end(), t->id) == 1);
    }
    ASSERT_EQ(pool.size(), pooled.size());
  }
}

}  // namespace
}  // namespace helios
