#include "store/mv_store.h"

#include <algorithm>

namespace helios {

size_t MvStore::Chain::Below(const Order& o) const {
  auto before = [&](const VersionedValue& v) {
    return Order{v.ts, v.writer} < o;
  };
  if (before(latest)) return older.size() + 1;
  return static_cast<size_t>(
      std::partition_point(older.begin(), older.end(), before) -
      older.begin());
}

const MvStore::Chain* MvStore::Find(const Key& key) const {
  const KeyId id = keys_->Find(key);
  return id < chains_.size() && !chains_[id].empty ? &chains_[id] : nullptr;
}

Result<VersionedValue> MvStore::Read(const Key& key) const {
  const Chain* chain = Find(key);
  if (chain == nullptr) return Status::NotFound("key has no versions: " + key);
  return chain->latest;
}

Result<VersionedValue> MvStore::ReadAt(const Key& key,
                                       Timestamp snapshot_ts) const {
  const Chain* chain = Find(key);
  if (chain == nullptr) return Status::NotFound("key has no versions: " + key);
  if (chain->latest.ts <= snapshot_ts) return chain->latest;
  // First version with ts > snapshot_ts; the predecessor is the answer.
  auto upper = std::partition_point(
      chain->older.begin(), chain->older.end(),
      [&](const VersionedValue& v) { return v.ts <= snapshot_ts; });
  if (upper == chain->older.begin()) {
    return Status::NotFound("no version at or before snapshot for: " + key);
  }
  return *--upper;
}

Timestamp MvStore::LatestVersionTs(const Key& key) const {
  const Chain* chain = Find(key);
  return chain == nullptr ? kMinTimestamp : chain->latest.ts;
}

Timestamp MvStore::MaxVersionTsOf(const TxnBody& txn) const {
  Timestamp max_ts = kMinTimestamp;
  for (const ReadEntry& r : txn.read_set) {
    max_ts = std::max(max_ts, LatestVersionTs(r.key));
  }
  for (const WriteEntry& w : txn.write_set) {
    max_ts = std::max(max_ts, LatestVersionTs(w.key));
  }
  return max_ts;
}

void MvStore::ApplyWrite(const Key& key, const Value& value,
                         Timestamp commit_ts, TxnId writer) {
  ++writes_applied_;
  const KeyId id = keys_->Intern(key);
  if (id >= chains_.size()) chains_.resize(id + 1);
  Chain& chain = chains_[id];
  VersionedValue v{value, commit_ts, writer};
  if (chain.empty) {
    chain = Chain{{}, std::move(v), false};
    ++key_count_;
  } else {
    const size_t pos = chain.Below({commit_ts, writer});
    if (pos <= chain.older.size() && chain.at(pos).ts == commit_ts &&
        chain.at(pos).writer == writer) {
      return;  // Re-applied (ts, writer): keep the installed version.
    }
    if (pos > chain.older.size()) {
      chain.older.push_back(std::exchange(chain.latest, std::move(v)));
    } else {
      chain.older.insert(chain.older.begin() + static_cast<long>(pos),
                         std::move(v));
    }
    if (pos <= 1) PushDue(id);  // The second-oldest version changed.
  }
  ++version_count_;
}

void MvStore::ApplyTxn(const TxnBody& txn, Timestamp commit_ts) {
  for (const WriteEntry& w : txn.write_set) {
    ApplyWrite(w.key, w.value, commit_ts, txn.id);
  }
}

void MvStore::ForEachLatest(
    const std::function<void(const Key&, const VersionedValue&)>& fn) const {
  for (KeyId id = 0; id < chains_.size(); ++id) {
    if (!chains_[id].empty) fn(keys_->Name(id), chains_[id].latest);
  }
}

size_t MvStore::TruncateVersionsBefore(Timestamp horizon) {
  // Only a chain whose second-oldest version is below the horizon can
  // lose versions, so pop just those. RunGc's 10 s lag leaves most recently
  // written keys at two versions; visiting all of them on every tick would
  // dominate simulator time.
  const Order cut{horizon, TxnId{kInvalidDc, 0}};
  size_t dropped = 0;
  while (!due_.empty() && due_.top().first < cut) {
    const KeyId id = due_.top().second;
    due_.pop();
    Chain& chain = chains_[id];
    // Keep the newest version below the horizon (it is still the visible
    // version for snapshots at the horizon) and everything above.
    const size_t below = chain.Below(cut);
    if (below < 2) continue;  // Stale entry: nothing to drop.
    chain.older.erase(chain.older.begin(),
                      chain.older.begin() + static_cast<long>(below - 1));
    dropped += below - 1;
    if (chain.older.empty()) {
      chain.older.shrink_to_fit();  // Back to one version: free the spill.
    } else {
      PushDue(id);
    }
  }
  version_count_ -= dropped;
  return dropped;
}

}  // namespace helios
