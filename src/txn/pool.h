// Preparing-transaction pools.
//
// Helios keeps local preparing transactions in PTPool and remote preparing
// transactions in EPTPool (Section 4.3). Both are instances of `TxnPool`,
// which indexes transactions by the keys they read and write so the
// conflict checks of Algorithms 1 and 2 cost O(keys in the probe) instead
// of O(pool size).

#ifndef HELIOS_TXN_POOL_H_
#define HELIOS_TXN_POOL_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/key_ids.h"
#include "common/types.h"
#include "txn/transaction.h"

namespace helios {

/// A set of preparing transactions with read/write key indexes.
class TxnPool {
 public:
  /// `keys` is shared with the node's store so each key is interned once.
  explicit TxnPool(std::shared_ptr<KeyIds> keys = std::make_shared<KeyIds>())
      : keys_(std::move(keys)) {}

  /// Adds `body`; no-op if a transaction with the same id is present.
  void Add(TxnBodyPtr body);

  /// Removes by id; returns false if absent.
  bool Remove(const TxnId& id);

  bool Contains(const TxnId& id) const { return txns_.count(id) > 0; }
  const TxnBodyPtr* Find(const TxnId& id) const {
    auto it = txns_.find(id);
    return it == txns_.end() ? nullptr : &it->second.body;
  }
  size_t size() const { return txns_.size(); }
  bool empty() const { return txns_.empty(); }

  /// Transactions in the pool whose *write set* intersects the read or
  /// write set of `probe` — Algorithm 1's check: a new commit request
  /// aborts if any pooled transaction is writing something it touched.
  std::vector<TxnBodyPtr> ConflictingWriters(const TxnBody& probe) const;

  /// Transactions in the pool whose read *or* write set intersects the
  /// *write set* of `incoming` — Algorithm 2's check: an incoming remote
  /// transaction aborts every local preparing transaction it invalidates.
  std::vector<TxnBodyPtr> Victims(const TxnBody& incoming) const;

  /// Snapshot of all pooled transactions (unordered).
  std::vector<TxnBodyPtr> All() const;

 private:
  /// An entry of a per-key list. Lists keep insertion order, which fixes
  /// the order conflicts are reported in, and so the abort order.
  struct Link {
    TxnId txn;
    bool write = false;  ///< Indexes a write, else a read.
    uint32_t next = 0;   ///< Next link of the list (or free list); 0 ends.
  };
  /// A pooled transaction and the ids of its write keys, then read keys.
  struct Entry {
    TxnBodyPtr body;
    std::vector<KeyId> keys;
  };
  void Index(KeyId key, const TxnId& id, bool write);
  void Unindex(KeyId key, const TxnId& id, bool write);
  /// Appends the `write` (else read) entries under `key` to `out`, skipping
  /// `self` and transactions already there.
  void Collect(KeyId key, bool write, const TxnId& self,
               std::vector<TxnBodyPtr>& out) const;

  std::shared_ptr<KeyIds> keys_;
  std::unordered_map<TxnId, Entry, TxnIdHash> txns_;
  std::vector<uint32_t> heads_;      ///< First link per KeyId.
  std::vector<Link> links_{Link{}};  ///< links_[0] is a placeholder.
  uint32_t free_ = 0;                ///< Freed links, reused before growing.
};

}  // namespace helios

#endif  // HELIOS_TXN_POOL_H_
