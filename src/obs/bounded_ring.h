// BoundedRing: the drop-oldest event ring shared by the trace recorder, the
// per-query timeline and the flight recorder's stripes.
//
// Push appends until `capacity` items are held, then overwrites the oldest
// and counts it as dropped, so a long run always keeps its tail.  Storage
// grows on demand up to the capacity.  Not synchronized: owners lock.
//
// Standard library only, like obs/query_context.h, which includes it.

#ifndef COBRA_OBS_BOUNDED_RING_H_
#define COBRA_OBS_BOUNDED_RING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cobra::obs {

template <typename T>
class BoundedRing {
 public:
  // A zero capacity holds one item.  `reserve` preallocates up to that many
  // slots (never more than the capacity).
  explicit BoundedRing(size_t capacity, size_t reserve = 0)
      : capacity_(capacity == 0 ? 1 : capacity) {
    items_.reserve(std::min(capacity_, reserve));
  }

  void Push(const T& item) {
    if (items_.size() < capacity_) {
      items_.push_back(item);
      return;
    }
    items_[head_] = item;
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
  }

  // Visits the retained items, oldest first.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < items_.size(); ++i) {
      fn(items_[(head_ + i) % items_.size()]);
    }
  }

  // The retained items, oldest first.
  std::vector<T> Items() const {
    std::vector<T> out;
    out.reserve(items_.size());
    ForEach([&out](const T& item) { out.push_back(item); });
    return out;
  }

  void Clear() {
    items_.clear();
    head_ = 0;
    dropped_ = 0;
  }

  size_t size() const { return items_.size(); }
  size_t capacity() const { return capacity_; }
  // Items overwritten since construction or the last Clear.
  uint64_t dropped() const { return dropped_; }

 private:
  size_t capacity_;
  std::vector<T> items_;
  size_t head_ = 0;  // oldest item once the ring is full
  uint64_t dropped_ = 0;
};

}  // namespace cobra::obs

#endif  // COBRA_OBS_BOUNDED_RING_H_
