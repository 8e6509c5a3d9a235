// FlatMap: an open-addressing hash map for integral keys.
//
// The per-reference and per-fault lookups of the assembly path (the OID
// directory, each buffer shard's page table, the assembly operator's window)
// probe a hash map once per component.  Node-based std::unordered_map pays a
// heap node per entry and a pointer chase per probe; this map keeps every
// entry in one flat slot array:
//
//   * a key equal to the `kEmpty` sentinel marks a free slot, so that key
//     can never be stored (find() reports it absent);
//   * linear probing from a Fibonacci-hashed home slot, which spreads the
//     dense, sequential ids the engine hands out;
//   * backward-shift erase (no tombstones): later entries of the probe run
//     move back into the hole, so probe runs never lengthen with churn;
//   * growth by doubling at 3/4 load.
//
// Unlike std::unordered_map, nothing in it has a stable address: any insert
// (it may rehash) and any erase (it may shift neighbours back) invalidates
// every iterator, pointer and reference into the map.  Callers look entries
// up again after either.

#ifndef COBRA_COMMON_FLAT_MAP_H_
#define COBRA_COMMON_FLAT_MAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace cobra {

template <typename K, typename V, K kEmpty = K{}>
class FlatMap {
  static_assert(std::is_integral_v<K>, "FlatMap keys are integral");

 public:
  struct Slot {
    K first = kEmpty;
    V second{};
  };

  template <bool kConst>
  class Iter {
   public:
    using SlotT = std::conditional_t<kConst, const Slot, Slot>;

    Iter() = default;
    Iter(SlotT* slot, SlotT* end) : slot_(slot), end_(end) { SkipEmpty(); }

    SlotT& operator*() const { return *slot_; }
    SlotT* operator->() const { return slot_; }
    Iter& operator++() {
      ++slot_;
      SkipEmpty();
      return *this;
    }
    bool operator==(const Iter& other) const { return slot_ == other.slot_; }
    bool operator!=(const Iter& other) const { return slot_ != other.slot_; }

   private:
    friend class FlatMap;

    void SkipEmpty() {
      while (slot_ != end_ && slot_->first == kEmpty) ++slot_;
    }

    SlotT* slot_ = nullptr;
    SlotT* end_ = nullptr;
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  FlatMap() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // Slots allocated (a power of two, or 0 before the first insert).
  size_t capacity() const { return slots_.size(); }

  iterator begin() { return At(Data()); }
  iterator end() { return At(End()); }
  const_iterator begin() const { return At(Data()); }
  const_iterator end() const { return At(End()); }

  iterator find(K key) { return At(FindSlot(key)); }
  const_iterator find(K key) const { return At(FindSlot(key)); }
  bool contains(K key) const { return FindSlot(key) != End(); }

  // Inserts (key, value) unless the key is present; the bool reports
  // whether it inserted.  `key` must not be the empty sentinel.
  std::pair<iterator, bool> emplace(K key, V value) {
    assert(key != kEmpty);
    Slot* found = FindSlot(key);
    if (found != End()) return {At(found), false};
    Slot* slot = InsertNew(key);
    slot->second = std::move(value);
    return {At(slot), true};
  }

  // The value under `key`, default-constructed and inserted when absent.
  V& operator[](K key) {
    assert(key != kEmpty);
    Slot* found = FindSlot(key);
    if (found != End()) return found->second;
    return InsertNew(key)->second;
  }

  // Removes `key`; returns the number of entries removed (0 or 1).
  size_t erase(K key) {
    Slot* found = FindSlot(key);
    if (found == End()) return 0;
    EraseSlot(static_cast<size_t>(found - Data()));
    return 1;
  }
  void erase(iterator it) { EraseSlot(static_cast<size_t>(it.slot_ - Data())); }

  // Removes every entry and keeps the slot array.
  void clear() {
    if (size_ == 0) return;
    for (Slot& slot : slots_) slot = Slot{};
    size_ = 0;
  }

  // The slot `key`'s probe starts at, for tests that need colliding keys.
  // Requires capacity() > 0.
  size_t HomeSlot(K key) const {
    // Fibonacci hashing: the top bits of the product are well mixed even
    // for consecutive keys.
    return static_cast<size_t>(
        (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  Slot* Data() { return slots_.data(); }
  const Slot* Data() const { return slots_.data(); }
  Slot* End() { return Data() + slots_.size(); }
  const Slot* End() const { return Data() + slots_.size(); }
  iterator At(Slot* slot) { return iterator(slot, End()); }
  const_iterator At(const Slot* slot) const {
    return const_iterator(slot, End());
  }
  size_t Mask() const { return slots_.size() - 1; }

  Slot* FindSlot(K key) {
    return const_cast<Slot*>(std::as_const(*this).FindSlot(key));
  }
  const Slot* FindSlot(K key) const {
    if (size_ == 0 || key == kEmpty) return End();
    for (size_t i = HomeSlot(key);; i = (i + 1) & Mask()) {
      const Slot& slot = slots_[i];
      if (slot.first == key) return &slot;
      if (slot.first == kEmpty) return End();
    }
  }

  // Claims a free slot for a key known to be absent, growing first if the
  // insert would pass 3/4 load.
  Slot* InsertNew(K key) {
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      Rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    size_t i = HomeSlot(key);
    while (slots_[i].first != kEmpty) i = (i + 1) & Mask();
    slots_[i].first = key;
    size_++;
    return &slots_[i];
  }

  void Rehash(size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_ = std::vector<Slot>(capacity);
    shift_ = 64;
    for (size_t c = capacity; c > 1; c >>= 1) shift_--;
    for (Slot& slot : old) {
      if (slot.first == kEmpty) continue;
      size_t i = HomeSlot(slot.first);
      while (slots_[i].first != kEmpty) i = (i + 1) & Mask();
      slots_[i] = std::move(slot);
    }
  }

  // Backward-shift deletion: walk the probe run after the hole and move
  // back every entry whose home slot does not lie cyclically in
  // (hole, its slot], so each stays reachable from its home.
  void EraseSlot(size_t hole) {
    for (size_t j = (hole + 1) & Mask(); slots_[j].first != kEmpty;
         j = (j + 1) & Mask()) {
      const size_t home = HomeSlot(slots_[j].first);
      if (((j - home) & Mask()) >= ((j - hole) & Mask())) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};  // also releases whatever the value owned
    size_--;
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  int shift_ = 64;
};

}  // namespace cobra

#endif  // COBRA_COMMON_FLAT_MAP_H_
