// Span recorder for the benchmark's traced run.
//
// The benchmark times every layer from outside: it opens a span around each
// call it makes into a layer's public functions (directly, or through the
// forwarding decorators in timed_disk.h).  A span has a name, a start, an
// end, a parent and a request id (the query id from obs::CurrentQueryId(),
// which AsyncDisk re-establishes on its I/O thread).
//
// Parents: a span opened while another span is open on the same thread is
// its child.  A device-side disk span opened on an AsyncDisk I/O thread
// adopts, through a handoff table keyed by (request, page, direction), the
// pool-side span that is blocked waiting for it.  Spans of one query on
// different threads otherwise share only the request id.
//
// Self time: a span's duration minus the time its child spans cover.  Child
// spans never overlap each other (same-thread children nest; a blocked
// pool-side read has exactly one device-side child), so the covered time
// is the sum of the children's durations, clipped to the parent.  Self and
// total time are accumulated per span name as each span closes, so every
// span counts; the full records of the first kKeptSpans spans are kept in
// memory and written out when the run ends.
//
// Threading: every thread appends to its own state, so recording takes no
// lock apart from the handoff table.  Start/Stop, Totals and the writers
// expect the traced stack to be quiescent.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/placement.h"

namespace perfbench {

enum class SpanName : uint8_t {
  kPass,          // one cold assembly pass (one query of a single-thread run)
  kSubmit,        // QueryService::Submit until its result arrives
  kExecuteWrite,  // QueryService::ExecuteWrite
  kPoolRead,      // pool-side disk decorator (above AsyncDisk), reads
  kPoolWrite,     // pool-side disk decorator, writes
  kDiskRead,      // device-side disk decorator (above SimulatedDisk), reads
  kDiskWrite,     // device-side decorator, writes to data pages
  kLogWrite,      // device-side decorator, writes to the WAL log extent
  kLearner,       // AffinityDiskListener callback
  kPlanLayout,    // recluster::PlanLayout
  kMoverBatch,    // recluster::PageMover::ExecuteBatch
  kOpProject,     // exec::Project NextBatch/Open
  kOpFilter,      // exec::Filter NextBatch/Open
  kOpAssembly,    // AssemblyOperator NextBatch/Open
  kCount,
};

inline constexpr size_t kNumSpanNames = static_cast<size_t>(SpanName::kCount);

const char* SpanNameString(SpanName name);

struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

using SpanTable = std::array<SpanTotals, kNumSpanNames>;

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: no parent
  uint64_t request = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t thread = 0;
  SpanName name = SpanName::kPass;
};

// Identifies a pool-side disk call to the device-side call serving it.
struct HandoffKey {
  uint64_t request = 0;
  cobra::PageId page = cobra::kInvalidPageId;
  bool write = false;
  bool operator==(const HandoffKey&) const = default;
};

uint64_t NowNs();

class SpanRecorder {
 private:
  struct Frame;
  struct ThreadState;

 public:
  // Full records kept per recorder; later spans count in the totals only.
  static constexpr size_t kKeptSpans = 50000;

  SpanRecorder();
  ~SpanRecorder();

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Spans open only between Start() and Stop().
  void Start();
  void Stop();
  bool active() const { return active_.load(std::memory_order_relaxed); }

  // Per-name totals over every span closed so far.
  SpanTable Totals() const;
  // Spans closed but not kept (past kKeptSpans).
  uint64_t dropped() const { return dropped_.load(); }
  // Writes the kept spans, one JSON object per line, timestamps relative
  // to Start().
  cobra::Status WriteJsonLines(const std::string& path) const;

  class Scope {
   public:
    // Opens a span on `recorder` (no-op when null or inactive).  `claim`:
    // a device-side span with no same-thread parent adopts the pool-side
    // span offered under this key.
    Scope(SpanRecorder* recorder, SpanName name,
          const HandoffKey* claim = nullptr);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void set_request(uint64_t request);
    // Makes this span adoptable by a span claiming `key` on another thread
    // until the scope closes.
    void Offer(const HandoffKey& key);

   private:
    SpanRecorder* recorder_ = nullptr;
    ThreadState* state_ = nullptr;
    bool offered_ = false;
    HandoffKey offer_key_;
  };

 private:
  static constexpr size_t kMaxDepth = 32;

  struct Frame {
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t request = 0;
    uint64_t start_ns = 0;
    uint64_t child_ns = 0;
    std::atomic<uint64_t> remote_child_ns{0};
    Frame* remote_parent = nullptr;
    SpanName name = SpanName::kPass;
  };

  struct ThreadState {
    uint32_t index = 0;
    uint64_t next_seq = 0;
    size_t depth = 0;
    std::array<Frame, kMaxDepth> frames;
    SpanTable totals{};
    std::vector<SpanRecord> kept;
  };

  struct HandoffHash {
    size_t operator()(const HandoffKey& k) const {
      return std::hash<uint64_t>()(k.request * 0x9e3779b97f4a7c15ull ^
                                   (k.page << 1) ^ (k.write ? 1 : 0));
    }
  };

  ThreadState* ThisThread();
  void Close(ThreadState* state);

  const uint64_t generation_;
  std::atomic<bool> active_{false};
  uint64_t start_ns_ = 0;
  std::atomic<uint64_t> kept_total_{0};
  std::atomic<uint64_t> dropped_{0};

  mutable std::mutex threads_mu_;
  std::vector<std::unique_ptr<ThreadState>> threads_;

  std::mutex handoff_mu_;
  std::unordered_map<HandoffKey, Frame*, HandoffHash> handoff_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
