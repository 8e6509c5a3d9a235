// QueryService: a multi-client front door over one shared storage stack.
//
// The paper measures one assembly query at a time; this layer asks the
// natural systems question behind §6.3 — what happens when several clients
// run assembly queries *concurrently* against one buffer pool and one disk
// arm.  A fixed pool of worker threads executes submitted jobs (a root set
// plus an AssemblyTemplate and AssemblyOptions) against a shared sharded
// BufferManager; when the disk is an AsyncDisk, each client's fetches feed
// the cross-client elevator queue, so concurrent windows merge into one arm
// sweep (see storage/async_disk.h).
//
// Isolation model: each job gets its own ObjectStore view (ObjectStore::Get
// mutates its stats; sharing one instance across threads would race) over
// the shared BufferManager + Directory.  Assembly runs with no observer; the
// job's QueryResult carries the operator's counts.
//
// Attribution: Submit opens an obs::QueryContext per job; the worker
// establishes it around execution, so every disk read, seek, retry and
// fault the job causes — including through AsyncDisk's queue — is charged
// to that query (see obs/query_context.h for the conservation invariant).
// The context feeds the service's always-on FlightRecorder.  Completion
// stamps the latency decomposition (queue / io / cpu) and adds the query
// once to its client's totals in the obs::QueryTracker, the only rollup of
// finished queries (TakeSnapshot reads it).  A query that trips the
// slow-query trigger (latency threshold, injected fault, or error) leaves a
// SlowQueryReport with its EXPLAIN ANALYZE summary and attributed I/O
// timeline.
//
// The shared disk and pool fire their event hooks from every worker and
// from AsyncDisk's I/O threads; the one sink, obs::TraceRecorder, locks
// internally and attaches to them directly.
//
// Read the shared pool/disk stats only when the service is quiesced
// (Drain() returned and no new jobs submitted).  TakeSnapshot() is safe
// while queries run.

#ifndef COBRA_SERVICE_QUERY_SERVICE_H_
#define COBRA_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "assembly/assembly_operator.h"
#include "buffer/buffer_manager.h"
#include "common/status.h"
#include "exec/iterator.h"
#include "file/heap_file.h"
#include "object/directory.h"
#include "object/object.h"
#include "obs/flight_recorder.h"
#include "obs/query_context.h"
#include "obs/snapshot.h"
#include "storage/async_disk.h"
#include "wal/wal.h"

namespace cobra::cache {
class ObjectCache;
}  // namespace cobra::cache

namespace cobra::service {

// One assembly query: assemble `roots` with `tmpl` under `assembly` options.
// `client` names the submitter for per-client metrics.
struct QueryJob {
  std::string client = "client";
  const AssemblyTemplate* tmpl = nullptr;
  std::vector<Oid> roots;
  AssemblyOptions assembly;
  // Output drain granularity (rows per NextBatch call).
  size_t batch_size = exec::RowBatch::kDefaultCapacity;
  // Optional per-object observer, invoked once per delivered complex object
  // (cached or freshly assembled) on the worker thread, *inside* the shared
  // store lock — the delivered value and the pages are guaranteed mutually
  // consistent for the duration of the callback.  The pointer target is only
  // valid during the call.  Used by the stale-read property harness.
  std::function<void(const AssembledObject&)> on_object;
};

struct QueryResult {
  std::string client;
  Status status;
  uint64_t rows = 0;  // complex objects delivered
  AssemblyStats assembly;
  // Attribution: service-assigned query id, the I/O this query was charged,
  // and the latency decomposition.  total_ns == queue_ns + io_ns + cpu_ns
  // exactly (io is the worker's storage-blocked time clamped to execution;
  // cpu is the remainder).
  uint64_t query_id = 0;
  obs::QueryIoSnapshot io;
  uint64_t queue_ns = 0;
  uint64_t io_ns = 0;
  uint64_t cpu_ns = 0;
  uint64_t total_ns = 0;
};

// One logged mutation inside a write transaction.
struct WriteOp {
  enum class Kind { kInsert, kUpdate, kRemove };
  Kind kind = Kind::kInsert;
  ObjectData obj;         // kInsert / kUpdate payload (obj.oid = target)
  Oid oid = kInvalidOid;  // kRemove target
};

// A write transaction: `ops` applied in order under the writer lock, then
// durably committed — or physically undone when `abort` is set (exercising
// the in-memory undo path under concurrency).
struct WriteJob {
  std::string client = "writer";
  std::vector<WriteOp> ops;
  bool abort = false;
};

struct WriteResult {
  std::string client;
  Status status;
  wal::TxnId txn = 0;
  uint64_t ops_applied = 0;
  bool aborted = false;
};

struct ServiceOptions {
  size_t num_workers = 2;
  // When the storage stack is fronted by an AsyncDisk, the service keeps its
  // target queue depth equal to the number of jobs currently executing, so
  // the I/O thread batches exactly as much as the offered concurrency.
  AsyncDisk* async_disk = nullptr;
  // Execution time (io + cpu, excluding queue wait) at or above which a
  // query leaves a SlowQueryReport.  0 disables the latency trigger;
  // injected faults and errors always leave one.
  uint64_t slow_query_ns = 0;
  // Total events the always-on flight recorder retains.
  size_t flight_capacity = 4096;
  // Write path: both must be set before ExecuteWrite is used.  The caller
  // wires the stack (WAL recovered, attached to the buffer manager as the
  // write gate and to `write_file`) before starting traffic.
  wal::WalManager* wal = nullptr;
  HeapFile* write_file = nullptr;
  // OID the first inserted object gets (seed past the preloaded data set).
  Oid next_oid = 1;
  // Assembled-object cache (cache/object_cache.h), or null for the exact
  // historical uncached read path.  Borrowed; must outlive the service.
  // Queries look up / insert under the shared side of the store lock; write
  // transactions invalidate (or patch) at commit time under the exclusive
  // side, which is what makes stale reads impossible (see DESIGN.md §12).
  cache::ObjectCache* cache = nullptr;
};

class QueryService {
 public:
  // Does not take ownership of `buffer` or `directory`; both must outlive
  // the service.  Workers start immediately.
  QueryService(BufferManager* buffer, Directory* directory,
               ServiceOptions options = {});
  // Drains outstanding jobs, then joins the workers.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Enqueues a job; the future delivers the result (including per-job
  // errors — Submit itself does not fail).
  std::future<QueryResult> Submit(QueryJob job);

  // Runs a write transaction on the caller's thread.  Mutations happen
  // under the writer-exclusive lock (queries hold it shared), but the
  // durability wait runs after the lock is released, so concurrent
  // committers share one group-commit flush.  Thread-safe; requires
  // ServiceOptions::wal and write_file.
  WriteResult ExecuteWrite(const WriteJob& job);

  // Blocks until every submitted job has finished.
  void Drain();

  size_t num_workers() const { return workers_.size(); }
  size_t active_jobs() const;

  // The always-on event ring; read it quiesced for a stable view, or live
  // for a best-effort one (Record is thread-safe).
  const obs::FlightRecorder& flight_recorder() const { return flight_; }

  // Reports left by queries that tripped the slow-query trigger, oldest
  // first (bounded; the oldest reports are dropped past the cap).
  std::vector<obs::SlowQueryReport> slow_reports() const;

  // Live view: in-flight queries with their attributed I/O so far,
  // per-client cumulative totals (jobs, rows, dropped objects, attributed
  // I/O and latency histograms), and buffer-pool residency.  Every query
  // whose future is ready, and after Drain() every submitted query, is in
  // the totals.
  obs::Snapshot TakeSnapshot() const;

  // Runs `fn` holding the shared (reader) side of the store lock: `fn` can
  // never overlap a write transaction's exclusive section.  This is the
  // exclusion the re-clustering mover batches under (see
  // storage/recluster/mover.h) — it guarantees no page the mover copies
  // carries uncommitted bytes, without blocking concurrent queries.
  void WithReadLock(const std::function<void()>& fn) const {
    std::shared_lock<std::shared_mutex> lock(store_mu_);
    fn();
  }

 private:
  struct Task {
    QueryJob job;
    std::promise<QueryResult> promise;
    std::shared_ptr<obs::QueryContext> ctx;
  };

  void WorkerLoop();
  // `batches` receives the NextBatch calls that produced rows.
  QueryResult Execute(QueryJob& job, uint64_t* batches);
  void MaybeReportSlow(const obs::QueryContext& ctx, const QueryJob& job,
                       const QueryResult& result, uint64_t batches);

  BufferManager* buffer_;
  Directory* directory_;
  ServiceOptions options_;

  // Queries execute under the shared side, write transactions under the
  // exclusive side: the directory and heap file are not internally
  // thread-safe, and exclusivity also gives writers a consistent read of
  // their own updates.
  mutable std::shared_mutex store_mu_;
  Oid next_write_oid_ = 1;  // guarded by store_mu_ (exclusive)

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<Task> queue_;
  size_t running_ = 0;
  bool stop_ = false;

  std::atomic<uint64_t> next_query_id_{1};
  obs::FlightRecorder flight_;
  obs::QueryTracker tracker_;

  mutable std::mutex reports_mu_;
  std::deque<obs::SlowQueryReport> slow_reports_;

  std::vector<std::thread> workers_;
};

}  // namespace cobra::service

#endif  // COBRA_SERVICE_QUERY_SERVICE_H_
