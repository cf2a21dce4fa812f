// Multi-version key-value store: the repository's stand-in for the HBase
// layer under each Helios instance.
//
// Every committed write installs a version stamped with the transaction's
// commit timestamp. Versions of a key are ordered by (timestamp, writer) —
// a total order that every replica agrees on regardless of the order in
// which finished records arrive, so replicas converge deterministically.
//
// Correctness note (see core/helios_node.cc for the companion logic):
// commit timestamps are "dependency-bumped" above the version timestamps of
// everything the transaction read or overwrote, which guarantees that the
// (timestamp, writer) order of versions of a key matches the serialization
// order even when datacenter clocks are badly skewed. Clock synchronization
// therefore affects performance only, as the paper requires.

#ifndef HELIOS_STORE_MV_STORE_H_
#define HELIOS_STORE_MV_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/key_ids.h"
#include "common/status.h"
#include "common/types.h"
#include "txn/transaction.h"

namespace helios {

/// One installed version of a key.
struct VersionedValue {
  Value value;
  Timestamp ts = kMinTimestamp;  ///< Commit timestamp of the writer.
  TxnId writer;                  ///< Transaction that installed the version.
};

/// In-memory multi-version store.
class MvStore {
 public:
  /// A node shares `keys` with its preparing pools.
  explicit MvStore(std::shared_ptr<KeyIds> keys = std::make_shared<KeyIds>())
      : keys_(std::move(keys)) {}
  MvStore(const MvStore&) = delete;
  MvStore& operator=(const MvStore&) = delete;

  /// Latest version of `key`; NotFound if the key was never written.
  Result<VersionedValue> Read(const Key& key) const;

  /// Latest version with ts <= `snapshot_ts` (Appendix B read-only
  /// transactions); NotFound if no such version exists.
  Result<VersionedValue> ReadAt(const Key& key, Timestamp snapshot_ts) const;

  /// Version timestamp of the latest version, or kMinTimestamp if absent.
  /// This is the value Algorithm 1 compares against the read set to detect
  /// overwritten reads.
  Timestamp LatestVersionTs(const Key& key) const;

  /// Largest latest-version timestamp across the keys `txn` reads or
  /// writes; used to dependency-bump commit timestamps.
  Timestamp MaxVersionTsOf(const TxnBody& txn) const;

  /// Installs one write.
  void ApplyWrite(const Key& key, const Value& value, Timestamp commit_ts,
                  TxnId writer);

  /// Installs the whole write set of a committed transaction.
  void ApplyTxn(const TxnBody& txn, Timestamp commit_ts);

  /// Drops all but the newest version with ts < `horizon` for each key
  /// (older versions can no longer be read by any live snapshot).
  /// Returns the number of versions discarded.
  size_t TruncateVersionsBefore(Timestamp horizon);

  /// Visits the latest version of every key, in unspecified key order.
  /// Checkers (src/check) snapshot replica state through this to compare
  /// live stores against a WAL replay.
  void ForEachLatest(
      const std::function<void(const Key&, const VersionedValue&)>& fn) const;

  size_t key_count() const { return key_count_; }
  uint64_t version_count() const { return version_count_; }
  uint64_t writes_applied() const { return writes_applied_; }

  /// Drops every version and resets the counters — the amnesia half of a
  /// crash restart (recovery then replays the WAL journal back in).
  void Clear() {
    chains_.clear();
    due_ = {};
    key_count_ = 0;
    version_count_ = 0;
    writes_applied_ = 0;
  }

 private:
  using Order = std::pair<Timestamp, TxnId>;  ///< (ts, writer) of a version.
  /// Versions of one key, ascending by Order. The newest sits inline, as
  /// most keys hold just one.
  struct Chain {
    std::vector<VersionedValue> older;
    VersionedValue latest;
    bool empty = true;
    const VersionedValue& at(size_t i) const {
      return i < older.size() ? older[i] : latest;
    }
    size_t Below(const Order& o) const;  ///< Versions ordered before `o`.
  };
  const Chain* Find(const Key& key) const;
  void PushDue(KeyId id) {
    due_.push({{chains_[id].at(1).ts, chains_[id].at(1).writer}, id});
  }

  std::shared_ptr<KeyIds> keys_;
  std::vector<Chain> chains_;  ///< By KeyId.
  /// Min-queue of (second-oldest version, chain): a cut drops versions of a
  /// chain only once that version is below the horizon. Every multi-version
  /// chain has an entry at its current second-oldest; stale ones are
  /// skipped when popped.
  using Due = std::pair<Order, KeyId>;
  std::priority_queue<Due, std::vector<Due>, std::greater<>> due_;
  size_t key_count_ = 0;
  uint64_t version_count_ = 0;
  uint64_t writes_applied_ = 0;
};

}  // namespace helios

#endif  // HELIOS_STORE_MV_STORE_H_
