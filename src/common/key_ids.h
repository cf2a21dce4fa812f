// Dense key interning: each distinct key maps once to a small integer, so
// per-key state can live in vectors indexed by KeyId rather than in
// string-keyed maps. A node's store and preparing pools share one KeyIds;
// the wire and the WAL keep string keys.

#ifndef HELIOS_COMMON_KEY_IDS_H_
#define HELIOS_COMMON_KEY_IDS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace helios {

using KeyId = uint32_t;

/// Append-only interner: ids are 0, 1, 2, ... in first-seen order.
class KeyIds {
 public:
  static constexpr KeyId kNone = UINT32_MAX;  ///< Find() of an unseen key.

  KeyId Intern(const Key& key) {
    auto [it, added] = ids_.try_emplace(key, KeyId(names_.size()));
    if (added) names_.push_back(&it->first);
    return it->second;
  }
  KeyId Find(const Key& key) const {
    auto it = ids_.find(key);
    return it == ids_.end() ? kNone : it->second;
  }
  const Key& Name(KeyId id) const { return *names_[id]; }

 private:
  std::unordered_map<Key, KeyId> ids_;
  std::vector<const Key*> names_;  ///< Map nodes are stable across rehash.
};

}  // namespace helios

#endif  // HELIOS_COMMON_KEY_IDS_H_
