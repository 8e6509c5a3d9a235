// Injectable clocks for the telemetry subsystem.
//
// Every timing consumer (ProfiledIterator, TraceRecorder) takes a
// `const Clock*` so tests can drive deterministic timestamps with
// ManualClock while production code uses the monotonic SteadyClock.
// Passing nullptr means SteadyClock::Default().

#ifndef COBRA_OBS_CLOCK_H_
#define COBRA_OBS_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace cobra::obs {

class Clock {
 public:
  virtual ~Clock() = default;

  // Nanoseconds since an arbitrary fixed epoch; monotonically nondecreasing.
  virtual uint64_t NowNanos() const = 0;
};

// Wall-clock time from std::chrono::steady_clock.
class SteadyClock final : public Clock {
 public:
  uint64_t NowNanos() const override {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  // Shared process-wide instance (the Clock interface is stateless here).
  static const SteadyClock* Default() {
    static const SteadyClock clock;
    return &clock;
  }
};

// Test clock: time moves only when told to.
class ManualClock final : public Clock {
 public:
  explicit ManualClock(uint64_t start_nanos = 0) : now_(start_nanos) {}

  uint64_t NowNanos() const override { return now_; }

  void Advance(uint64_t nanos) { now_ += nanos; }
  void Set(uint64_t nanos) { now_ = nanos; }

 private:
  uint64_t now_;
};

// Resolves the ubiquitous "nullptr means the real clock" convention.
inline const Clock* OrDefault(const Clock* clock) {
  return clock != nullptr ? clock : SteadyClock::Default();
}

}  // namespace cobra::obs

#endif  // COBRA_OBS_CLOCK_H_
