// QueryContext: per-query causal attribution for the shared storage stack.
//
// The paper's cost model is per-assembly — one query owns the disk arm and
// every seek it charges.  Since the service layer merges I/O across clients
// (AsyncDisk elevator, sharded buffer pool), the global counters answer
// "what did the disk do" but not "which query paid for it".  A QueryContext
// restores the paper's accounting: the QueryService opens one per job, the
// context travels with the work (thread-local on worker threads, captured
// per request through AsyncDisk's queue and re-established on the I/O
// thread), and each layer charges its existing counter increments to the
// current context as well.
//
// Conservation invariant: every global increment site charges *exactly one*
// context (when one is current), so the per-query sums equal the global
// DiskStats/BufferStats counters exactly — per layer, per field.  A page
// delivered to query B by a transfer query A entered (piggybacking on A's
// coalesced run) is charged to A; B records it under `piggyback_pages`,
// which is informational and outside the invariant.
//
// This header is deliberately dependency-free (only the standard library and
// the standard-library-only obs/bounded_ring.h): it sits *below* storage/,
// buffer/ and obs/json so every layer can include it without cycles.  Page
// ids appear as plain uint64_t for the same reason.
//
// Overhead when no query is current: one thread-local load and a null test
// per increment site.

#ifndef COBRA_OBS_QUERY_CONTEXT_H_
#define COBRA_OBS_QUERY_CONTEXT_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/bounded_ring.h"

namespace cobra::obs {

// How many spindles the per-query attribution arrays track individually; a
// wider array folds the overflow into the last slot (the disk layer clamps).
// Kept small and fixed so QueryIoStats stays a flat block of atomics.
inline constexpr size_t kMaxTrackedSpindles = 8;

// Plain-value snapshot of a context's attributed counters (QueryIoStats
// holds atomics and cannot be copied).
struct QueryIoSnapshot {
  uint64_t disk_reads = 0;
  uint64_t disk_writes = 0;
  uint64_t read_seek_pages = 0;
  uint64_t write_seek_pages = 0;
  uint64_t pages_read = 0;
  uint64_t coalesced_runs = 0;
  uint64_t piggyback_pages = 0;
  uint64_t buffer_hits = 0;
  uint64_t buffer_faults = 0;
  uint64_t retries = 0;
  uint64_t checksum_failures = 0;
  uint64_t faults_injected = 0;
  // Object-cache outcomes (cache/object_cache.h).  Informational, outside
  // the disk/buffer conservation invariant: a hit touches neither layer.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t io_wait_ns = 0;
  // Per-spindle split of disk_reads / read_seek_pages (disk-array runs).
  // All-zero beyond index 0 on a single-spindle device.
  std::array<uint64_t, kMaxTrackedSpindles> spindle_reads{};
  std::array<uint64_t, kMaxTrackedSpindles> spindle_seek_pages{};

  // Field-by-field sum, every field included: the one way snapshots add up.
  QueryIoSnapshot& operator+=(const QueryIoSnapshot& other) {
    disk_reads += other.disk_reads;
    disk_writes += other.disk_writes;
    read_seek_pages += other.read_seek_pages;
    write_seek_pages += other.write_seek_pages;
    pages_read += other.pages_read;
    coalesced_runs += other.coalesced_runs;
    piggyback_pages += other.piggyback_pages;
    buffer_hits += other.buffer_hits;
    buffer_faults += other.buffer_faults;
    retries += other.retries;
    checksum_failures += other.checksum_failures;
    faults_injected += other.faults_injected;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    io_wait_ns += other.io_wait_ns;
    for (size_t i = 0; i < kMaxTrackedSpindles; ++i) {
      spindle_reads[i] += other.spindle_reads[i];
      spindle_seek_pages[i] += other.spindle_seek_pages[i];
    }
    return *this;
  }

  bool operator==(const QueryIoSnapshot&) const = default;
};

// Attributed I/O counters.  Atomic because a query's charges arrive from
// two threads at once: its own worker (buffer layer, direct disk calls) and
// the AsyncDisk I/O thread (queued transfers).  Relaxed ordering suffices —
// the counters are independent monotone sums, read after a happens-before
// edge (future.get / Drain) orders them with their increments.
struct QueryIoStats {
  std::atomic<uint64_t> disk_reads{0};
  std::atomic<uint64_t> disk_writes{0};
  std::atomic<uint64_t> read_seek_pages{0};
  std::atomic<uint64_t> write_seek_pages{0};
  std::atomic<uint64_t> pages_read{0};
  std::atomic<uint64_t> coalesced_runs{0};
  std::atomic<uint64_t> piggyback_pages{0};
  std::atomic<uint64_t> buffer_hits{0};
  std::atomic<uint64_t> buffer_faults{0};
  std::atomic<uint64_t> retries{0};
  std::atomic<uint64_t> checksum_failures{0};
  std::atomic<uint64_t> faults_injected{0};
  // Assembled-object cache outcomes; charged by the cache layer at lookup.
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};
  // Wall time the query's worker spent blocked on the storage stack
  // (buffer-layer reads, prefetch consumption).  Part of the latency
  // decomposition, not of the conservation invariant.
  std::atomic<uint64_t> io_wait_ns{0};
  // Per-spindle split of the read charges above, filled by the disk layer
  // at the same increment sites: sum(spindle_reads) == disk_reads and
  // sum(spindle_seek_pages) == read_seek_pages, always.
  std::array<std::atomic<uint64_t>, kMaxTrackedSpindles> spindle_reads{};
  std::array<std::atomic<uint64_t>, kMaxTrackedSpindles> spindle_seek_pages{};

  QueryIoSnapshot Snapshot() const {
    QueryIoSnapshot s;
    s.disk_reads = disk_reads.load(std::memory_order_relaxed);
    s.disk_writes = disk_writes.load(std::memory_order_relaxed);
    s.read_seek_pages = read_seek_pages.load(std::memory_order_relaxed);
    s.write_seek_pages = write_seek_pages.load(std::memory_order_relaxed);
    s.pages_read = pages_read.load(std::memory_order_relaxed);
    s.coalesced_runs = coalesced_runs.load(std::memory_order_relaxed);
    s.piggyback_pages = piggyback_pages.load(std::memory_order_relaxed);
    s.buffer_hits = buffer_hits.load(std::memory_order_relaxed);
    s.buffer_faults = buffer_faults.load(std::memory_order_relaxed);
    s.retries = retries.load(std::memory_order_relaxed);
    s.checksum_failures = checksum_failures.load(std::memory_order_relaxed);
    s.faults_injected = faults_injected.load(std::memory_order_relaxed);
    s.cache_hits = cache_hits.load(std::memory_order_relaxed);
    s.cache_misses = cache_misses.load(std::memory_order_relaxed);
    s.io_wait_ns = io_wait_ns.load(std::memory_order_relaxed);
    for (size_t i = 0; i < kMaxTrackedSpindles; ++i) {
      s.spindle_reads[i] = spindle_reads[i].load(std::memory_order_relaxed);
      s.spindle_seek_pages[i] =
          spindle_seek_pages[i].load(std::memory_order_relaxed);
    }
    return s;
  }
};

// Span events: the per-query I/O timeline and the flight recorder share
// this record.  `a`/`b` are kind-specific operands (documented per kind).
enum class SpanEventKind : uint8_t {
  kQueryBegin,  // page = 0
  kQueryEnd,    // a = rows delivered, b = 1 on error
  kDiskRead,    // page, a = seek pages
  kDiskReadRun,  // page = entry page, a = seek pages (travel), b = run pages
  kDiskWrite,   // page, a = seek pages
  kSeekPenalty,  // a = penalty pages (retry backoff, injected latency)
  kBufferRetry,  // page, a = failed attempt number (1-based)
  kChecksumFailure,  // page
  kFault,       // page, a = FaultKind as integer
  kCacheHit,    // a = root OID served from the assembled-object cache
  kCacheMiss,   // a = root OID that will be assembled from pages
};

const char* SpanEventKindName(SpanEventKind kind);

struct SpanEvent {
  SpanEventKind kind = SpanEventKind::kQueryBegin;
  uint64_t ts_ns = 0;
  uint64_t query_id = 0;
  uint64_t page = 0;
  uint64_t a = 0;
  uint64_t b = 0;
};

// Steady-clock nanoseconds for span timestamps.  The injectable obs::Clock
// is not threaded down to the storage layer (it would widen every disk call
// signature for a timestamp tests don't assert on); the flight recorder is
// wall-clock by design.
inline uint64_t SpanNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Fan-out target for span events (the service's flight recorder).  Must be
// thread-safe: events arrive from workers and the I/O thread concurrently.
class SpanSink {
 public:
  virtual ~SpanSink() = default;
  virtual void Record(const SpanEvent& event) = 0;
};

// One query's identity, attributed counters, latency marks and bounded
// event timeline.  Created by the QueryService per job; shared (via
// shared_ptr) with every AsyncDisk request the query submits, so a
// fire-and-forget prefetch can still charge its owner after the query
// finished.
class QueryContext {
 public:
  // `timeline_capacity` bounds the per-query ring; overflow drops the
  // oldest events and counts them, so a long query keeps its tail.
  QueryContext(uint64_t query_id, std::string client,
               size_t timeline_capacity = 256);

  uint64_t query_id() const { return id_; }
  const std::string& client() const { return client_; }

  QueryIoStats io;

  // Latency marks (ns, SpanNowNanos epoch), stamped by the owning service:
  // submit -> start (queue wait) -> end (execution).
  std::atomic<uint64_t> submit_ns{0};
  std::atomic<uint64_t> start_ns{0};
  std::atomic<uint64_t> end_ns{0};

  // Appends to the bounded timeline and forwards to the sink (if any).
  // `event.query_id` and, when zero, `event.ts_ns` are filled in.
  void Record(SpanEvent event);

  // Retained timeline, oldest first.
  std::vector<SpanEvent> Timeline() const;
  uint64_t timeline_dropped() const;

  // Borrowed; set before the context is shared with other threads.
  void set_sink(SpanSink* sink) {
    sink_.store(sink, std::memory_order_release);
  }

 private:
  const uint64_t id_;
  const std::string client_;

  mutable std::mutex mu_;
  BoundedRing<SpanEvent> timeline_;  // guarded by mu_
  std::atomic<SpanSink*> sink_{nullptr};
};

// The current thread's query context (null outside query execution).  The
// raw-pointer reader is the hot-path form: one TLS load, no refcount.
QueryContext* CurrentQuery();
// Shared handle, for callers that store the context beyond the current
// scope (AsyncDisk request capture).
std::shared_ptr<QueryContext> CurrentQueryShared();
// 0 when no query is current.
uint64_t CurrentQueryId();

// RAII establishment of the thread-local context; nests (restores the
// previous context on destruction).  A null ctx clears the context, which
// is what the I/O thread wants when serving unattributed work.
class ScopedQueryContext {
 public:
  explicit ScopedQueryContext(std::shared_ptr<QueryContext> ctx);
  ~ScopedQueryContext();

  ScopedQueryContext(const ScopedQueryContext&) = delete;
  ScopedQueryContext& operator=(const ScopedQueryContext&) = delete;

 private:
  std::shared_ptr<QueryContext> prev_;
};

// Accumulates wall time into the current context's io_wait_ns (no-op when
// no query is current).  Scope it around calls that block on storage.
class IoWaitTimer {
 public:
  IoWaitTimer() : query_(CurrentQuery()) {
    if (query_ != nullptr) start_ns_ = SpanNowNanos();
  }
  ~IoWaitTimer() {
    if (query_ != nullptr) {
      query_->io.io_wait_ns.fetch_add(SpanNowNanos() - start_ns_,
                                      std::memory_order_relaxed);
    }
  }

  IoWaitTimer(const IoWaitTimer&) = delete;
  IoWaitTimer& operator=(const IoWaitTimer&) = delete;

 private:
  QueryContext* query_;
  uint64_t start_ns_ = 0;
};

}  // namespace cobra::obs

#endif  // COBRA_OBS_QUERY_CONTEXT_H_
