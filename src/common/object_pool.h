// Free-list object pool for hot-path allocations (envelopes, in-flight
// messages). Objects are handed out as shared_ptrs whose deleter returns
// the object to the pool instead of freeing it, so steady-state traffic
// recycles a small working set and the heap sees no per-message churn.
//
// The pool may die while objects are still in flight (a simulated
// datacenter crash destroys its node — and the node's pool — while the
// network still holds envelopes scheduled for delivery). The deleter only
// holds a weak reference to the pool's free list: if the pool is gone by
// the time the last handle drops, the object is simply deleted.
//
// A type with a `ResetForReuse()` member is reset when released, so an
// idle object holds no references it no longer needs.
//
// Not thread-safe: the simulator is single-threaded and the live path
// acquires/releases on its event-loop thread.

#ifndef HELIOS_COMMON_OBJECT_POOL_H_
#define HELIOS_COMMON_OBJECT_POOL_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace helios::common {

template <typename T>
class ObjectPool {
 public:
  ObjectPool() : state_(std::make_shared<State>()) {}
  ~ObjectPool() {
    if (state_) state_->alive = false;
  }

  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;

  /// Returns a recycled object if one is idle, else constructs a new one
  /// from `args`. Recycled objects keep the state they were released with,
  /// after ResetForReuse() if T has one (that is the point — retained
  /// vector capacity), so callers must reset the fields they care about.
  template <typename... Args>
  std::shared_ptr<T> Acquire(Args&&... args) {
    T* raw = nullptr;
    if (!state_->free.empty()) {
      raw = state_->free.back().release();
      state_->free.pop_back();
      ++state_->reused;
    } else {
      raw = new T(std::forward<Args>(args)...);
      ++state_->created;
    }
    std::weak_ptr<State> weak = state_;
    return std::shared_ptr<T>(raw, [weak](T* p) {
      if (auto s = weak.lock(); s && s->alive) {
        if constexpr (requires { p->ResetForReuse(); }) p->ResetForReuse();
        s->free.emplace_back(p);
      } else {
        delete p;
      }
    });
  }

  size_t idle() const { return state_->free.size(); }
  uint64_t created() const { return state_->created; }
  uint64_t reused() const { return state_->reused; }

 private:
  struct State {
    std::vector<std::unique_ptr<T>> free;
    bool alive = true;
    uint64_t created = 0;
    uint64_t reused = 0;
  };

  std::shared_ptr<State> state_;
};

}  // namespace helios::common

#endif  // HELIOS_COMMON_OBJECT_POOL_H_
