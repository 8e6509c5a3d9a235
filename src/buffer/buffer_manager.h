// BufferManager: fixed pool of page frames between the engine and the disk.
//
// Mirrors the Volcano/WiSS design the paper builds on: a page table, pin
// counts, write-back of dirty victims, and pluggable replacement.  The paper
// notes (§4, footnote 4) that even buffer *hits* are not free; we therefore
// count hits and faults separately so experiments can report both.
//
// Pins are expressed as RAII PageGuards: holding a guard keeps the frame
// resident; dropping it makes the frame evictable again.
//
// Concurrency: the pool is split into `num_shards` lock-striped partitions
// (hash on page id, each with its own page table, free list and replacement
// state) so independent queries contend only when they touch the same
// stripe.  Pin counts are atomic: fixing a page takes the shard lock, but
// unfixing (PageGuard release) is lock-free, and a pinned frame is never
// evicted or relocated, so guard data access needs no lock.  The shard lock
// is held across the disk read that fills a frame — concurrent fetches of
// one page therefore coalesce into a single read — and the disk serializes
// internally (or queues, see storage/async_disk.h), so no lock ordering
// issue exists between shards and the device.  Control-plane calls
// (FlushAll, DropAll, ResetStats, stats readers) expect a quiesced pool.
// With num_shards == 1 (the default) behavior, statistics and eviction
// order are identical to the historical single-threaded pool.

#ifndef COBRA_BUFFER_BUFFER_MANAGER_H_
#define COBRA_BUFFER_BUFFER_MANAGER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "buffer/replacement.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/disk.h"
#include "storage/recluster/forwarding.h"

namespace cobra {

// How FetchPage handles transient (Status::Unavailable) read failures:
// retry up to max_read_attempts total attempts, charging a deterministic
// linear backoff (attempt * backoff_seek_pages) to the disk's read seek cost
// before each retry.  Permanent failures (Corruption, NotFound) and checksum
// mismatches are never retried.
struct RetryPolicy {
  int max_read_attempts = 3;
  uint64_t backoff_seek_pages = 16;
};

struct BufferOptions {
  size_t num_frames = 1024;
  ReplacementKind replacement = ReplacementKind::kLru;
  RetryPolicy retry = {};
  // Lock stripes.  1 preserves the exact single-threaded behavior; raise it
  // (typically 2-4x the worker count) for concurrent workloads.  Clamped to
  // [1, num_frames].
  size_t num_shards = 1;
};

struct BufferStats {
  uint64_t hits = 0;
  uint64_t faults = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;
  // Transient-read retries issued / fetches that failed all attempts.
  uint64_t retries = 0;
  uint64_t retries_exhausted = 0;
  // Reads rejected because the page checksum did not verify.
  uint64_t checksum_failures = 0;
  // Transient write failures retried during dirty write-back.  Like
  // `prefetches`, absent from the JSON exporters: write faults are off by
  // default and the bench goldens predate the field.
  uint64_t write_retries = 0;
  // Async prefetches submitted (PrefetchPage).  Intentionally absent from
  // the JSON exporters: prefetching is off by default and the bench goldens
  // predate the field.
  uint64_t prefetches = 0;
  // High-water mark of simultaneously pinned frames.
  size_t max_pinned = 0;

  uint64_t requests() const { return hits + faults; }
  double HitRate() const {
    uint64_t r = requests();
    return r == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(r);
  }
};

class BufferManager;

// Per-request event hook (telemetry).  Hit/fault fire on FetchPage,
// eviction fires whenever a victim frame is recycled.  Implementations must
// not touch the buffer manager re-entrantly.  With a sharded pool the hooks
// fire concurrently from any fetching thread (under that page's shard
// lock); attach a thread-safe listener when num_shards > 1.
class BufferEventListener {
 public:
  virtual ~BufferEventListener() = default;
  virtual void OnBufferHit(PageId page) = 0;
  virtual void OnBufferFault(PageId page) = 0;
  virtual void OnBufferEviction(PageId page, bool dirty) = 0;
  // Fired before each transient-read retry (`attempt` is the attempt that
  // just failed, 1-based) and on checksum rejection.  Default no-ops so
  // existing listeners need no change.
  virtual void OnBufferRetry(PageId page, int attempt) {
    (void)page;
    (void)attempt;
  }
  virtual void OnBufferChecksumFailure(PageId page) { (void)page; }
};

// Write-ahead gate: consulted on every dirty-page write-back.  Installed by
// the WAL (src/wal/wal.h) to enforce the two recovery invariants the buffer
// manager cannot know about on its own:
//
//   * WAL-before-data — BeforePageWrite runs immediately before the bytes
//     hit the disk and must make the log durable up to a point covering
//     this page state (the WAL logs a full-page image and flushes through
//     it) before returning OK.  A non-OK status aborts the write-back and
//     leaves the frame dirty and resident.
//   * no-steal — IsUncommitted(page) is true while the page carries data
//     from a transaction that has neither committed nor aborted; such
//     pages are never chosen as eviction victims and FlushPage/FlushAll
//     skip them, so an uncommitted change can never reach the disk and
//     recovery needs no undo pass.
//
// Hooks fire under the page's shard lock, possibly from several threads at
// once; implementations must be thread-safe and must not re-enter the
// buffer manager.
class PageWriteGate {
 public:
  virtual ~PageWriteGate() = default;
  virtual Status BeforePageWrite(PageId page, const std::byte* data,
                                 size_t size) = 0;
  virtual bool IsUncommitted(PageId page) const = 0;
};

// RAII pin on a buffer frame.  Movable, not copyable.  Releasing is
// lock-free and safe from any thread.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;
  ~PageGuard() { Release(); }

  bool valid() const { return manager_ != nullptr; }
  PageId page_id() const { return page_id_; }

  std::span<std::byte> data();
  std::span<const std::byte> data() const;

  // Marks the page dirty so eviction writes it back.
  void MarkDirty();

  // Drops the pin early (also done by the destructor).
  void Release();

 private:
  friend class BufferManager;
  PageGuard(BufferManager* manager, void* frame, PageId page_id)
      : manager_(manager), frame_(frame), page_id_(page_id) {}

  BufferManager* manager_ = nullptr;
  void* frame_ = nullptr;  // BufferManager::Frame*, stable while pinned
  PageId page_id_ = kInvalidPageId;
};

class BufferManager {
 public:
  BufferManager(SimulatedDisk* disk, BufferOptions options = {});

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;
  ~BufferManager();

  // Returns a pinned guard on `id`, reading it from disk on a fault.
  // Transient read failures are retried per the RetryPolicy; pages whose
  // checksum does not verify fail with Corruption.  Fails with
  // ResourceExhausted when every frame of the page's shard is pinned.  No
  // failure mode leaks a frame or a pin: the obtained frame returns to the
  // shard's free list on every error path.
  Result<PageGuard> FetchPage(PageId id);

  // Vectored fetch of the consecutive run [first, first + n): resident
  // pages are pinned as hits, missing pages are faulted in with as few
  // Disk::ReadRun transfers as possible (consecutive misses share one
  // transfer, issued in `ascending` direction).  (*out)[i] corresponds to
  // page first + i and receives either a pinned guard or that page's own
  // error; one bad page never poisons its neighbors.  Per-page semantics
  // match FetchPage exactly: transient failures retry with backoff against
  // the run's remaining tail (already-transferred pages are never re-read),
  // checksums verify per page, and no error path leaks a frame or a pin.
  // A page that cannot get a frame (shard exhausted mid-run) reports
  // ResourceExhausted without any read — callers fall back to FetchPage
  // after releasing other pins.
  void FixRun(PageId first, size_t n, bool ascending,
              std::vector<Result<PageGuard>>* out);

  // Read-ahead for a whole run: best-effort PrefetchPage on every page of
  // [first, first + n).  Over an AsyncDisk with coalescing enabled the
  // submitted reads merge back into vectored transfers at the device.
  void PrefetchRun(PageId first, size_t n);

  // Allocates `id` as a fresh zero-filled dirty page without a disk read.
  // Fails with AlreadyExists if the page is resident or on disk.
  Result<PageGuard> CreatePage(PageId id);

  // Starts an asynchronous read of `id` into a frame and returns without
  // waiting.  A later FetchPage finds the frame and only waits for the
  // in-flight read (counting it as a fault, not a hit).  Best effort: if
  // the page is already resident or in flight this is a no-op; if no frame
  // is free the prefetch is dropped with ResourceExhausted.  Read errors
  // surface at consumption time, never here.  With a plain SimulatedDisk
  // the read happens synchronously (a pure cache warm-up).
  Status PrefetchPage(PageId id);

  // Writes back one dirty page / all dirty pages.
  Status FlushPage(PageId id);
  Status FlushAll();

  // Flushes and evicts every unpinned page, leaving the pool cold.  Fails
  // with ResourceExhausted if any page is still pinned.
  Status DropAll();

  // True if the page currently occupies a frame (no I/O performed).
  bool IsResident(PageId id) const;

  size_t num_frames() const { return options_.num_frames; }
  size_t num_shards() const { return shards_.size(); }
  size_t pinned_frames() const {
    return pinned_frames_.load(std::memory_order_relaxed);
  }

  // Aggregated across shards; call on a quiesced pool for an exact
  // snapshot.
  BufferStats stats() const;
  void ResetStats();

  // Live occupancy snapshot for obs::Snapshot: walks the shards one lock at
  // a time, so the totals are per-shard-consistent (safe to call while
  // queries run, unlike stats()).
  struct Residency {
    size_t total_frames = 0;
    size_t resident = 0;  // frames holding a valid page
    size_t pinned = 0;    // frames with pin_count > 0
    size_t dirty = 0;
    size_t free_frames = 0;
    size_t pending = 0;  // frames with an in-flight prefetch
    std::vector<size_t> per_shard_resident;
  };
  Residency GetResidency() const;

  // Optional telemetry listener (borrowed; must outlive the manager or be
  // cleared).  Null disables the hook.
  void set_listener(BufferEventListener* listener) { listener_ = listener; }

  // Optional write-ahead gate (borrowed; must outlive the manager or be
  // cleared — note ~BufferManager flushes, so destroy the gate *after* the
  // manager or clear it first).  Null (the default) preserves the historical
  // write-back behavior exactly.
  void set_write_gate(PageWriteGate* gate) { write_gate_ = gate; }
  PageWriteGate* write_gate() const { return write_gate_; }

  // Distinct pages ever faulted in since the last ResetFetchTrace(); the
  // difference (faults - unique) counts *re-reads*, the §7 buffer-pressure
  // metric.
  size_t unique_pages_faulted() const;
  void ResetFetchTrace();

  SimulatedDisk* disk() { return disk_; }

  // Optional page-forwarding table (borrowed; must outlive the manager or
  // be cleared).  When set, the manager translates page ids to physical
  // addresses at its disk boundary — ReadPage/WritePage/ReadRun/
  // SubmitRead/Exists and seek-penalty charges — while the page table,
  // checksums, listeners, and the write gate keep operating on logical
  // ids.  Null (the default) is the identity map and preserves historical
  // behavior bit-for-bit.  See storage/recluster/forwarding.h.
  void set_forwarding(const recluster::PageForwarding* forwarding) {
    forwarding_ = forwarding;
  }
  const recluster::PageForwarding* forwarding() const { return forwarding_; }

  // The arm position in *logical* space: the logical id of the page under
  // the head.  Schedulers plan their sweeps over logical ids, so handing
  // them the raw physical head would make fetch order depend on the
  // current layout (and re-clustering would chase a moving target).
  // Identity without a forwarding table.
  PageId HeadLogical() const {
    PageId head = disk_->head();
    return forwarding_ == nullptr ? head : forwarding_->ToLogical(head);
  }

 private:
  friend class PageGuard;

  struct Frame {
    PageId page_id = kInvalidPageId;
    std::vector<std::byte> data;
    std::atomic<int> pin_count{0};
    std::atomic<bool> dirty{false};
    bool valid = false;
    // In-flight prefetch read filling this frame; consumed (and checksum
    // verified) by the first FetchPage that wants the page.  A pending
    // frame is neither evictable nor pinnable until consumed.
    bool has_pending = false;
    std::shared_future<Status> pending;
  };

  // One lock stripe: frames, page table, free list and replacement state
  // for the pages hashing to it.  Counter fields are guarded by mu.  Frames
  // are created on first use, up to `capacity`; `free_list` holds only
  // frames that were used and released.
  struct Shard {
    mutable std::mutex mu;
    size_t capacity = 0;
    std::vector<std::unique_ptr<Frame>> frames;
    std::vector<size_t> free_list;
    std::unordered_map<PageId, size_t> page_table;
    std::unordered_set<PageId> faulted_pages;
    std::unique_ptr<ReplacementPolicy> policy;

    uint64_t hits = 0;
    uint64_t faults = 0;
    uint64_t evictions = 0;
    uint64_t dirty_writebacks = 0;
    uint64_t retries = 0;
    uint64_t retries_exhausted = 0;
    uint64_t checksum_failures = 0;
    uint64_t write_retries = 0;
    uint64_t prefetches = 0;
  };

  Shard& ShardFor(PageId id) {
    return *shards_[ShardIndex(id)];
  }
  const Shard& ShardFor(PageId id) const {
    return *shards_[ShardIndex(id)];
  }
  size_t ShardIndex(PageId id) const;

  void Unpin(Frame* frame);
  void NotePin(Frame* frame);
  // Finds a frame to fill: free-list first, then a new frame while the
  // shard is below capacity, then a replacement victim (writing it back if
  // dirty).  Caller holds shard.mu.
  Result<size_t> ObtainFrame(Shard* shard);
  Status WriteBack(Shard* shard, Frame* frame);
  // Reads `id` into `data` with the transient-retry policy, starting the
  // attempt numbering at `attempt` (a consumed prefetch already spent
  // attempt 1).  Caller holds shard.mu.
  Status ReadWithRetry(Shard* shard, PageId id, std::byte* data, int attempt);
  // Resolves an in-flight prefetch on frame `index`; on failure the frame
  // is freed and the page-table entry removed.  Caller holds shard.mu.
  Status ConsumePending(Shard* shard, size_t index, PageId id);
  // Blocks until no frame of `shard` has an in-flight prefetch.  Caller
  // holds shard.mu.
  void SettlePending(Shard* shard);

  // Logical -> physical disk address; identity when no table is attached.
  PageId Phys(PageId id) const {
    return forwarding_ == nullptr ? id : forwarding_->ToPhysical(id);
  }

  SimulatedDisk* disk_;
  BufferOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<size_t> pinned_frames_{0};
  std::atomic<size_t> max_pinned_{0};
  BufferEventListener* listener_ = nullptr;
  PageWriteGate* write_gate_ = nullptr;
  const recluster::PageForwarding* forwarding_ = nullptr;
};

}  // namespace cobra

#endif  // COBRA_BUFFER_BUFFER_MANAGER_H_
