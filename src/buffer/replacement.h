// Buffer replacement policies.
//
// The buffer manager delegates victim selection to a ReplacementPolicy so
// that experiments can swap LRU for Clock (an ablation called out in
// DESIGN.md).  Policies reason about frame indices only; pin state is the
// buffer manager's business and is communicated through the `evictable`
// predicate passed to Victim().

#ifndef COBRA_BUFFER_REPLACEMENT_H_
#define COBRA_BUFFER_REPLACEMENT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

namespace cobra {

class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  // Called on every access (hit or fill) to frame `frame`.
  virtual void RecordAccess(size_t frame) = 0;

  // Picks a victim among tracked frames for which `evictable` returns true.
  // Returns nullopt when every tracked frame is pinned.
  virtual std::optional<size_t> Victim(
      const std::function<bool(size_t)>& evictable) = 0;

  // Called when a frame stops holding a page (eviction or explicit drop).
  virtual void Remove(size_t frame) = 0;
};

// Strict least-recently-used over frames [0, num_frames).  The recency
// order is an intrusive doubly linked list threaded through per-frame
// prev/next indices, so an access relinks one frame without allocating or
// hashing.
class LruPolicy : public ReplacementPolicy {
 public:
  explicit LruPolicy(size_t num_frames);

  void RecordAccess(size_t frame) override;
  std::optional<size_t> Victim(
      const std::function<bool(size_t)>& evictable) override;
  void Remove(size_t frame) override;

 private:
  void Unlink(size_t frame);

  // Links of frame f at index f; index num_frames is the sentinel, whose
  // next is the least and prev the most recently used frame.  An untracked
  // frame links to itself.
  std::vector<uint32_t> prev_;
  std::vector<uint32_t> next_;
  uint32_t sentinel_;
};

// Clock (second chance): one reference bit per frame, a sweeping hand.
class ClockPolicy : public ReplacementPolicy {
 public:
  explicit ClockPolicy(size_t num_frames);

  void RecordAccess(size_t frame) override;
  std::optional<size_t> Victim(
      const std::function<bool(size_t)>& evictable) override;
  void Remove(size_t frame) override;

 private:
  std::vector<bool> referenced_;
  std::vector<bool> tracked_;
  size_t hand_ = 0;
};

enum class ReplacementKind { kLru, kClock };

std::unique_ptr<ReplacementPolicy> MakeReplacementPolicy(ReplacementKind kind,
                                                         size_t num_frames);

}  // namespace cobra

#endif  // COBRA_BUFFER_REPLACEMENT_H_
