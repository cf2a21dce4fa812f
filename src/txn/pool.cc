#include "txn/pool.h"

#include <algorithm>
#include <cassert>

namespace helios {

void TxnPool::Index(KeyId key, const TxnId& id, bool write) {
  if (key >= heads_.size()) heads_.resize(key + 1, 0);
  uint32_t n = free_;
  if (n != 0) {
    free_ = links_[n].next;
  } else {
    n = static_cast<uint32_t>(links_.size());
    links_.emplace_back();
  }
  links_[n] = Link{id, write, 0};
  uint32_t* at = &heads_[key];
  while (*at != 0) at = &links_[*at].next;
  *at = n;
}

void TxnPool::Unindex(KeyId key, const TxnId& id, bool write) {
  uint32_t* at = &heads_[key];
  while (*at != 0 && (links_[*at].txn != id || links_[*at].write != write)) {
    at = &links_[*at].next;
  }
  assert(*at != 0 && "Add indexed every key Remove unindexes");
  if (*at == 0) return;
  const uint32_t n = *at;
  *at = links_[n].next;
  links_[n].next = free_;
  free_ = n;
}

void TxnPool::Add(TxnBodyPtr body) {
  assert(body != nullptr);
  const TxnId id = body->id;
  auto [it, inserted] = txns_.try_emplace(id);
  if (!inserted) return;
  Entry& e = it->second;
  e.body = std::move(body);
  for (const WriteEntry& w : e.body->write_set) {
    e.keys.push_back(keys_->Intern(w.key));
    Index(e.keys.back(), id, true);
  }
  for (const ReadEntry& r : e.body->read_set) {
    e.keys.push_back(keys_->Intern(r.key));
    Index(e.keys.back(), id, false);
  }
}

bool TxnPool::Remove(const TxnId& id) {
  auto it = txns_.find(id);
  if (it == txns_.end()) return false;
  const Entry& e = it->second;
  for (size_t i = 0; i < e.keys.size(); ++i) {
    Unindex(e.keys[i], id, i < e.body->write_set.size());
  }
  txns_.erase(it);
  return true;
}

void TxnPool::Collect(KeyId key, bool write, const TxnId& self,
                      std::vector<TxnBodyPtr>& out) const {
  const uint32_t head = key < heads_.size() ? heads_[key] : 0;
  for (uint32_t n = head; n != 0; n = links_[n].next) {
    const Link& l = links_[n];
    if (l.write != write || l.txn == self ||  // Never self-conflict.
        std::any_of(out.begin(), out.end(),
                    [&](const TxnBodyPtr& p) { return p->id == l.txn; })) {
      continue;
    }
    out.push_back(txns_.at(l.txn).body);
  }
}

std::vector<TxnBodyPtr> TxnPool::ConflictingWriters(
    const TxnBody& probe) const {
  std::vector<TxnBodyPtr> out;
  for (const ReadEntry& r : probe.read_set) {
    Collect(keys_->Find(r.key), true, probe.id, out);
  }
  for (const WriteEntry& w : probe.write_set) {
    Collect(keys_->Find(w.key), true, probe.id, out);
  }
  return out;
}

std::vector<TxnBodyPtr> TxnPool::Victims(const TxnBody& incoming) const {
  std::vector<TxnBodyPtr> out;
  for (const WriteEntry& w : incoming.write_set) {
    const KeyId k = keys_->Find(w.key);
    Collect(k, true, incoming.id, out);
    Collect(k, false, incoming.id, out);
  }
  return out;
}

std::vector<TxnBodyPtr> TxnPool::All() const {
  std::vector<TxnBodyPtr> out;
  out.reserve(txns_.size());
  for (const auto& [id, e] : txns_) out.push_back(e.body);
  return out;
}

}  // namespace helios
