#include "buffer/replacement.h"

namespace cobra {

LruPolicy::LruPolicy(size_t num_frames)
    : prev_(num_frames + 1),
      next_(num_frames + 1),
      sentinel_(static_cast<uint32_t>(num_frames)) {
  for (uint32_t f = 0; f <= sentinel_; ++f) {
    prev_[f] = f;
    next_[f] = f;
  }
}

void LruPolicy::Unlink(size_t frame) {
  next_[prev_[frame]] = next_[frame];
  prev_[next_[frame]] = prev_[frame];
  prev_[frame] = static_cast<uint32_t>(frame);
  next_[frame] = static_cast<uint32_t>(frame);
}

void LruPolicy::RecordAccess(size_t frame) {
  Unlink(frame);
  const uint32_t last = prev_[sentinel_];
  prev_[frame] = last;
  next_[frame] = sentinel_;
  next_[last] = static_cast<uint32_t>(frame);
  prev_[sentinel_] = static_cast<uint32_t>(frame);
}

std::optional<size_t> LruPolicy::Victim(
    const std::function<bool(size_t)>& evictable) {
  for (uint32_t frame = next_[sentinel_]; frame != sentinel_;
       frame = next_[frame]) {
    if (evictable(frame)) {
      return frame;
    }
  }
  return std::nullopt;
}

void LruPolicy::Remove(size_t frame) { Unlink(frame); }

ClockPolicy::ClockPolicy(size_t num_frames)
    : referenced_(num_frames, false), tracked_(num_frames, false) {}

void ClockPolicy::RecordAccess(size_t frame) {
  referenced_[frame] = true;
  tracked_[frame] = true;
}

std::optional<size_t> ClockPolicy::Victim(
    const std::function<bool(size_t)>& evictable) {
  const size_t n = referenced_.size();
  if (n == 0) return std::nullopt;
  // Two full sweeps suffice: the first clears reference bits, the second
  // must find any evictable frame.
  for (size_t step = 0; step < 2 * n; ++step) {
    size_t frame = hand_;
    hand_ = (hand_ + 1) % n;
    if (!tracked_[frame] || !evictable(frame)) continue;
    if (referenced_[frame]) {
      referenced_[frame] = false;  // second chance
    } else {
      return frame;
    }
  }
  return std::nullopt;
}

void ClockPolicy::Remove(size_t frame) {
  referenced_[frame] = false;
  tracked_[frame] = false;
}

std::unique_ptr<ReplacementPolicy> MakeReplacementPolicy(ReplacementKind kind,
                                                         size_t num_frames) {
  switch (kind) {
    case ReplacementKind::kLru:
      return std::make_unique<LruPolicy>(num_frames);
    case ReplacementKind::kClock:
      return std::make_unique<ClockPolicy>(num_frames);
  }
  return std::make_unique<LruPolicy>(num_frames);
}

}  // namespace cobra
