// Unit tests for the storage layer: the multi-version store and the
// shared/exclusive lock manager with its two conflict policies.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "store/lock_table.h"
#include "store/mv_store.h"

namespace helios {
namespace {

TxnId Id(DcId dc, uint64_t seq) { return TxnId{dc, seq}; }

TEST(MvStoreTest, ReadMissingKeyIsNotFound) {
  MvStore store;
  auto r = store.Read("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.LatestVersionTs("nope"), kMinTimestamp);
}

TEST(MvStoreTest, LatestVersionWins) {
  MvStore store;
  store.ApplyWrite("k", "v1", 10, Id(0, 1));
  store.ApplyWrite("k", "v2", 20, Id(1, 1));
  auto r = store.Read("k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().value, "v2");
  EXPECT_EQ(r.value().ts, 20);
  EXPECT_EQ(r.value().writer, Id(1, 1));
}

TEST(MvStoreTest, OutOfOrderApplyConverges) {
  // Replicas may apply the same committed writes in different orders; the
  // (timestamp, writer) version order must make the final state identical.
  MvStore a;
  MvStore b;
  a.ApplyWrite("k", "v1", 10, Id(0, 1));
  a.ApplyWrite("k", "v2", 20, Id(1, 1));
  b.ApplyWrite("k", "v2", 20, Id(1, 1));
  b.ApplyWrite("k", "v1", 10, Id(0, 1));
  EXPECT_EQ(a.Read("k").value().value, b.Read("k").value().value);
  EXPECT_EQ(a.Read("k").value().writer, b.Read("k").value().writer);
}

TEST(MvStoreTest, TimestampTiesBrokenByWriter) {
  MvStore store;
  store.ApplyWrite("k", "from0", 10, Id(0, 5));
  store.ApplyWrite("k", "from2", 10, Id(2, 3));
  EXPECT_EQ(store.Read("k").value().writer, Id(2, 3));
}

TEST(MvStoreTest, SnapshotReads) {
  MvStore store;
  store.ApplyWrite("k", "v1", 10, Id(0, 1));
  store.ApplyWrite("k", "v2", 20, Id(0, 2));
  store.ApplyWrite("k", "v3", 30, Id(0, 3));
  EXPECT_EQ(store.ReadAt("k", 25).value().value, "v2");
  EXPECT_EQ(store.ReadAt("k", 20).value().value, "v2");
  EXPECT_EQ(store.ReadAt("k", 19).value().value, "v1");
  EXPECT_EQ(store.ReadAt("k", 100).value().value, "v3");
  EXPECT_FALSE(store.ReadAt("k", 5).ok());
}

TEST(MvStoreTest, ApplyTxnInstallsWholeWriteSet) {
  MvStore store;
  auto body = MakeTxnBody(Id(0, 1), {}, {{"a", "1"}, {"b", "2"}});
  store.ApplyTxn(*body, 42);
  EXPECT_EQ(store.Read("a").value().value, "1");
  EXPECT_EQ(store.Read("b").value().value, "2");
  EXPECT_EQ(store.Read("a").value().ts, 42);
  EXPECT_EQ(store.key_count(), 2u);
}

TEST(MvStoreTest, MaxVersionTsOfCoversReadAndWriteSets) {
  MvStore store;
  store.ApplyWrite("r", "x", 50, Id(0, 1));
  store.ApplyWrite("w", "y", 70, Id(0, 2));
  auto body = MakeTxnBody(Id(1, 1), {{"r", 50, Id(0, 1)}}, {{"w", "z"}});
  EXPECT_EQ(store.MaxVersionTsOf(*body), 70);
}

TEST(MvStoreTest, TruncationKeepsNewestVisibleVersion) {
  MvStore store;
  store.ApplyWrite("k", "v1", 10, Id(0, 1));
  store.ApplyWrite("k", "v2", 20, Id(0, 2));
  store.ApplyWrite("k", "v3", 30, Id(0, 3));
  const size_t dropped = store.TruncateVersionsBefore(25);
  EXPECT_EQ(dropped, 1u);  // v1 dropped; v2 is still visible at ts 25.
  EXPECT_EQ(store.ReadAt("k", 25).value().value, "v2");
  EXPECT_EQ(store.Read("k").value().value, "v3");
  EXPECT_EQ(store.version_count(), 2u);
}

TEST(MvStoreTest, TruncationNeverEmptiesAKey) {
  MvStore store;
  store.ApplyWrite("k", "v1", 10, Id(0, 1));
  EXPECT_EQ(store.TruncateVersionsBefore(1000), 0u);
  EXPECT_TRUE(store.Read("k").ok());
}

TEST(MvStoreTest, KeysInternedOnlyByAPoolStayAbsent) {
  // A node's pools intern keys into the store's KeyIds before (or without)
  // any write, which leaves empty chain slots behind.
  auto keys = std::make_shared<KeyIds>();
  keys->Intern("pooled-only");
  MvStore store(keys);
  store.ApplyWrite("k", "v1", 10, Id(0, 1));
  keys->Intern("pooled-later");
  store.ApplyWrite("k", "v2", 20, Id(0, 2));
  EXPECT_FALSE(store.Read("pooled-only").ok());
  EXPECT_FALSE(store.ReadAt("pooled-later", 100).ok());
  EXPECT_EQ(store.LatestVersionTs("pooled-only"), kMinTimestamp);
  EXPECT_EQ(store.key_count(), 1u);
  std::vector<Key> visited;
  store.ForEachLatest([&](const Key& key, const VersionedValue& v) {
    visited.push_back(key);
    EXPECT_EQ(v.value, "v2");
  });
  EXPECT_EQ(visited, std::vector<Key>{"k"});
}

// Naive reference for the GC exactness test: every version of every key in
// a sorted vector, with truncation as a full scan.
class ReferenceStore {
 public:
  void Apply(const Key& key, const Value& value, Timestamp ts, TxnId writer) {
    std::vector<VersionedValue>& chain = chains_[key];
    for (const VersionedValue& v : chain) {
      if (v.ts == ts && v.writer == writer) return;  // Re-apply: no-op.
    }
    chain.push_back({value, ts, writer});
    std::sort(chain.begin(), chain.end(), Older);
  }
  size_t Truncate(Timestamp horizon) {
    const VersionedValue cut{"", horizon, TxnId{kInvalidDc, 0}};
    size_t dropped = 0;
    for (auto& [key, chain] : chains_) {
      const size_t below = static_cast<size_t>(std::count_if(
          chain.begin(), chain.end(),
          [&](const VersionedValue& v) { return Older(v, cut); }));
      if (below < 2) continue;
      chain.erase(chain.begin(), chain.begin() + static_cast<long>(below - 1));
      dropped += below - 1;
    }
    return dropped;
  }
  const VersionedValue* Latest(const Key& key) const {
    auto it = chains_.find(key);
    return it == chains_.end() ? nullptr : &it->second.back();
  }
  const VersionedValue* At(const Key& key, Timestamp snapshot) const {
    auto it = chains_.find(key);
    if (it == chains_.end()) return nullptr;
    const VersionedValue* found = nullptr;
    for (const VersionedValue& v : it->second) {
      if (v.ts <= snapshot) found = &v;
    }
    return found;
  }
  uint64_t versions() const {
    uint64_t n = 0;
    for (const auto& [key, chain] : chains_) n += chain.size();
    return n;
  }
  size_t keys() const { return chains_.size(); }
  void Clear() { chains_.clear(); }

 private:
  static bool Older(const VersionedValue& a, const VersionedValue& b) {
    return a.ts != b.ts ? a.ts < b.ts : a.writer < b.writer;
  }
  std::map<Key, std::vector<VersionedValue>> chains_;
};

void ExpectSame(const VersionedValue* want, const Result<VersionedValue>& got,
                const std::string& where) {
  ASSERT_EQ(want != nullptr, got.ok()) << where;
  if (want == nullptr) return;
  EXPECT_EQ(got.value().value, want->value) << where;
  EXPECT_EQ(got.value().ts, want->ts) << where;
  EXPECT_EQ(got.value().writer, want->writer) << where;
}

TEST(MvStoreTest, GcMatchesFullScanReference) {
  // Out-of-order timestamps, ts ties broken by writer (including the
  // loader's negative origin at the horizon boundary), duplicate
  // re-applies, rising horizons and a Clear() midway; every read path and
  // counter must match the naive model after every step.
  constexpr int kSteps = 2000;
  const std::vector<Key> keys = {"a", "b", "c", "d", "e", "f", "never"};
  for (uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    MvStore store;
    ReferenceStore ref;
    std::vector<std::pair<Key, VersionedValue>> applied;
    Timestamp horizon = -5;
    for (int step = 0; step < kSteps; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const uint64_t op = rng.Uniform(100);
      if (step == kSteps / 2) {
        store.Clear();
        ref.Clear();
        applied.clear();
      } else if (op < 60 || applied.empty()) {
        const Key& key = keys[rng.Uniform(keys.size() - 1)];
        const Timestamp ts = horizon + rng.UniformRange(-3, 12);
        const TxnId writer{static_cast<DcId>(rng.UniformRange(-2, 2)),
                           rng.Uniform(3)};
        const Value value = "v" + std::to_string(step);
        store.ApplyWrite(key, value, ts, writer);
        ref.Apply(key, value, ts, writer);
        applied.push_back({key, {value, ts, writer}});
      } else if (op < 75) {
        const auto& [key, v] = applied[rng.Uniform(applied.size())];
        store.ApplyWrite(key, "dup", v.ts, v.writer);
        ref.Apply(key, "dup", v.ts, v.writer);
      } else {
        horizon += rng.UniformRange(0, 3);
        EXPECT_EQ(store.TruncateVersionsBefore(horizon), ref.Truncate(horizon))
            << where;
      }
      EXPECT_EQ(store.version_count(), ref.versions()) << where;
      EXPECT_EQ(store.key_count(), ref.keys()) << where;
      for (const Key& key : keys) {
        ExpectSame(ref.Latest(key), store.Read(key), where + " key " + key);
        EXPECT_EQ(store.LatestVersionTs(key),
                  ref.Latest(key) ? ref.Latest(key)->ts : kMinTimestamp)
            << where;
        for (Timestamp snap = horizon - 4; snap <= horizon + 13; snap += 3) {
          ExpectSame(ref.At(key, snap), store.ReadAt(key, snap),
                     where + " key " + key + " at " + std::to_string(snap));
        }
      }
      if (HasFailure()) return;
    }
  }
}

// --- LockTable: no-wait policy ------------------------------------------------

TEST(LockTableNoWaitTest, SharedLocksCoexist) {
  LockTable t(LockPolicy::kNoWait);
  Status s1 = Status::Internal("unset");
  Status s2 = Status::Internal("unset");
  t.Acquire("k", LockMode::kShared, Id(0, 1), 10, [&](Status s) { s1 = s; });
  t.Acquire("k", LockMode::kShared, Id(0, 2), 20, [&](Status s) { s2 = s; });
  EXPECT_TRUE(s1.ok());
  EXPECT_TRUE(s2.ok());
  EXPECT_TRUE(t.Holds("k", Id(0, 1), LockMode::kShared));
  EXPECT_TRUE(t.Holds("k", Id(0, 2), LockMode::kShared));
}

TEST(LockTableNoWaitTest, ExclusiveConflictRefusedImmediately) {
  LockTable t(LockPolicy::kNoWait);
  Status s1 = Status::Internal("unset");
  Status s2 = Status::Internal("unset");
  t.Acquire("k", LockMode::kExclusive, Id(0, 1), 10, [&](Status s) { s1 = s; });
  t.Acquire("k", LockMode::kShared, Id(0, 2), 20, [&](Status s) { s2 = s; });
  EXPECT_TRUE(s1.ok());
  EXPECT_EQ(s2.code(), StatusCode::kAborted);
  EXPECT_EQ(t.immediate_refusals(), 1u);
}

TEST(LockTableNoWaitTest, UpgradeSoleHolder) {
  LockTable t(LockPolicy::kNoWait);
  Status s = Status::Internal("unset");
  t.Acquire("k", LockMode::kShared, Id(0, 1), 10, [&](Status) {});
  t.Acquire("k", LockMode::kExclusive, Id(0, 1), 10, [&](Status st) { s = st; });
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(t.Holds("k", Id(0, 1), LockMode::kExclusive));
}

TEST(LockTableNoWaitTest, UpgradeBlockedByOtherReader) {
  LockTable t(LockPolicy::kNoWait);
  Status s = Status::Internal("unset");
  t.Acquire("k", LockMode::kShared, Id(0, 1), 10, [&](Status) {});
  t.Acquire("k", LockMode::kShared, Id(0, 2), 20, [&](Status) {});
  t.Acquire("k", LockMode::kExclusive, Id(0, 1), 10, [&](Status st) { s = st; });
  EXPECT_EQ(s.code(), StatusCode::kAborted);
}

TEST(LockTableNoWaitTest, ReacquisitionIsIdempotent) {
  LockTable t(LockPolicy::kNoWait);
  int grants = 0;
  t.Acquire("k", LockMode::kExclusive, Id(0, 1), 10,
            [&](Status s) { grants += s.ok(); });
  t.Acquire("k", LockMode::kExclusive, Id(0, 1), 10,
            [&](Status s) { grants += s.ok(); });
  t.Acquire("k", LockMode::kShared, Id(0, 1), 10,
            [&](Status s) { grants += s.ok(); });  // Weaker: still held.
  EXPECT_EQ(grants, 3);
}

TEST(LockTableNoWaitTest, ReleaseAllFreesEverything) {
  LockTable t(LockPolicy::kNoWait);
  t.Acquire("a", LockMode::kExclusive, Id(0, 1), 10, [](Status) {});
  t.Acquire("b", LockMode::kExclusive, Id(0, 1), 10, [](Status) {});
  EXPECT_EQ(t.locked_keys(), 2u);
  t.ReleaseAll(Id(0, 1));
  EXPECT_EQ(t.locked_keys(), 0u);
  Status s = Status::Internal("unset");
  t.Acquire("a", LockMode::kExclusive, Id(0, 2), 20, [&](Status st) { s = st; });
  EXPECT_TRUE(s.ok());
}

// --- LockTable: wound-wait policy ----------------------------------------------

TEST(LockTableWoundWaitTest, YoungerWaitsForOlder) {
  LockTable t(LockPolicy::kWoundWait);
  Status young = Status::Internal("unset");
  bool young_granted = false;
  t.Acquire("k", LockMode::kExclusive, Id(0, 1), 10, [](Status) {});
  t.Acquire("k", LockMode::kExclusive, Id(0, 2), 20, [&](Status s) {
    young = s;
    young_granted = s.ok();
  });
  EXPECT_EQ(young.message(), "unset");  // Queued, not yet decided.
  t.ReleaseAll(Id(0, 1));
  EXPECT_TRUE(young_granted);
  EXPECT_TRUE(t.Holds("k", Id(0, 2), LockMode::kExclusive));
}

TEST(LockTableWoundWaitTest, OlderWoundsYoungerHolder) {
  LockTable t(LockPolicy::kWoundWait);
  std::vector<TxnId> wounded;
  t.set_wound_handler([&](TxnId v) { wounded.push_back(v); });
  t.Acquire("k", LockMode::kExclusive, Id(0, 2), 20, [](Status) {});
  Status old_status = Status::Internal("unset");
  t.Acquire("k", LockMode::kExclusive, Id(0, 1), 10,
            [&](Status s) { old_status = s; });
  EXPECT_TRUE(old_status.ok());  // Older transaction took the lock.
  ASSERT_EQ(wounded.size(), 1u);
  EXPECT_EQ(wounded[0], Id(0, 2));
  EXPECT_EQ(t.wounds(), 1u);
  EXPECT_FALSE(t.Holds("k", Id(0, 2), LockMode::kExclusive));
}

TEST(LockTableWoundWaitTest, WoundCancelsVictimsQueuedRequests) {
  LockTable t(LockPolicy::kWoundWait);
  t.set_wound_handler([](TxnId) {});
  // Txn 30 holds "a"; txn 20 queues on "a"; txn 10 wounds... setup:
  t.Acquire("a", LockMode::kExclusive, Id(0, 3), 30, [](Status) {});
  Status waiter = Status::Internal("unset");
  t.Acquire("a", LockMode::kExclusive, Id(0, 2), 31,
            [&](Status s) { waiter = s; });  // Younger: waits.
  EXPECT_EQ(waiter.message(), "unset");
  // Now wound txn (0,2) indirectly: it holds "b", an older txn wants it.
  t.Acquire("b", LockMode::kExclusive, Id(0, 2), 31, [](Status) {});
  t.Acquire("b", LockMode::kExclusive, Id(0, 1), 5, [](Status) {});
  // The wound released everything txn (0,2) had, including its queued
  // request on "a".
  EXPECT_EQ(waiter.code(), StatusCode::kAborted);
}

TEST(LockTableWoundWaitTest, SharedQueueGrantsInOrder) {
  LockTable t(LockPolicy::kWoundWait);
  t.Acquire("k", LockMode::kExclusive, Id(0, 1), 10, [](Status) {});
  int granted = 0;
  t.Acquire("k", LockMode::kShared, Id(0, 2), 20,
            [&](Status s) { granted += s.ok(); });
  t.Acquire("k", LockMode::kShared, Id(0, 3), 30,
            [&](Status s) { granted += s.ok(); });
  EXPECT_EQ(granted, 0);
  t.ReleaseAll(Id(0, 1));
  EXPECT_EQ(granted, 2);  // Both shared waiters grant together.
}

TEST(LockTableWoundWaitTest, NoDeadlockUnderCrossingRequests) {
  // Classic deadlock shape: T1 holds a wants b, T2 holds b wants a.
  // Wound-wait resolves it: the older transaction wounds the younger.
  LockTable t(LockPolicy::kWoundWait);
  std::vector<TxnId> wounded;
  t.set_wound_handler([&](TxnId v) { wounded.push_back(v); });
  Status t1_b = Status::Internal("unset");
  t.Acquire("a", LockMode::kExclusive, Id(0, 1), 10, [](Status) {});
  t.Acquire("b", LockMode::kExclusive, Id(0, 2), 20, [](Status) {});
  t.Acquire("b", LockMode::kExclusive, Id(0, 1), 10,
            [&](Status s) { t1_b = s; });  // Older: wounds T2.
  EXPECT_TRUE(t1_b.ok());
  ASSERT_EQ(wounded.size(), 1u);
  EXPECT_EQ(wounded[0], Id(0, 2));
  // T2's request for "a" never happens (it was wounded), so T1 proceeds.
  EXPECT_TRUE(t.Holds("a", Id(0, 1), LockMode::kExclusive));
  EXPECT_TRUE(t.Holds("b", Id(0, 1), LockMode::kExclusive));
}

TEST(LockTableWoundWaitTest, GrantCallbackWoundingTheReleaserTerminates) {
  // T holds shared locks on a and b; younger writers X (on a) and Y (on b)
  // wait behind it. Whichever is granted first when T releases has an
  // older R take the other key exclusively — which wounds T again if T
  // still holds that key. Releasing must drop all of T's holds before any
  // grant callback runs, or R's Acquire retries against T forever.
  LockTable t(LockPolicy::kWoundWait);
  std::vector<TxnId> wounded;
  t.set_wound_handler([&](TxnId v) { wounded.push_back(v); });
  const TxnId holder = Id(0, 1), x = Id(0, 2), y = Id(0, 3), r = Id(0, 4);
  t.Acquire("a", LockMode::kShared, holder, 10, [](Status) {});
  t.Acquire("b", LockMode::kShared, holder, 10, [](Status) {});
  int r_granted = 0;
  auto take_other = [&](const Key& other) {
    return [&, other](Status s) {
      if (!s.ok()) return;
      t.Acquire(other, LockMode::kExclusive, r, 5,
                [&](Status rs) { r_granted += rs.ok(); });
    };
  };
  t.Acquire("a", LockMode::kExclusive, x, 20, take_other("b"));
  t.Acquire("b", LockMode::kExclusive, y, 30, take_other("a"));
  t.ReleaseAll(holder);
  EXPECT_EQ(r_granted, 1);
  EXPECT_TRUE(wounded.empty());  // T was already gone when R asked.
  EXPECT_NE(t.Holds("a", r, LockMode::kExclusive),
            t.Holds("b", r, LockMode::kExclusive));
  EXPECT_FALSE(t.Holds("a", holder, LockMode::kShared));
  EXPECT_FALSE(t.Holds("b", holder, LockMode::kShared));
}

}  // namespace
}  // namespace helios
