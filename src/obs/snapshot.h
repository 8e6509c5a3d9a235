// obs::Snapshot: a live, lock-consistent-enough view of the service.
//
// TakeSnapshot answers "what is the system doing right now": which queries
// are in flight (and what I/O each has been charged so far), what every
// client has consumed cumulatively, and how full the buffer pool is.  The
// QueryTracker half lives here (registered/completed contexts, per-client
// totals); the buffer-residency half is a plain struct the caller fills
// from BufferManager::Residency() — obs stays below buffer/ in the include
// order.
//
// Rendering is deterministic: in-flight queries sort by id, clients by
// name, and both exporters emit fixed key orders.

#ifndef COBRA_OBS_SNAPSHOT_H_
#define COBRA_OBS_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/query_context.h"
#include "stats/histogram.h"

namespace cobra::obs {

// Buffer-pool occupancy, filled by BufferManager::Residency().
struct PoolResidency {
  size_t total_frames = 0;
  size_t resident = 0;  // frames holding a valid page
  size_t pinned = 0;    // frames with pin_count > 0
  size_t dirty = 0;
  size_t free_frames = 0;
  size_t pending = 0;  // frames with an in-flight prefetch
  std::vector<size_t> per_shard_resident;
};

struct QuerySnapshot {
  uint64_t query_id = 0;
  std::string client;
  // "queued" (submitted, not yet started) or "running".
  std::string state;
  uint64_t age_ns = 0;  // since submit
  QueryIoSnapshot io;
};

// One client's finished queries, each added once by QueryTracker::Complete.
// Every latency histogram holds one sample per query; total_ns.total() is
// the summed latency, and total == queue + io + cpu per sample.
struct ClientTotals {
  uint64_t jobs = 0;
  uint64_t failures = 0;
  uint64_t rows = 0;
  uint64_t objects_dropped = 0;
  LogHistogram queue_ns;
  LogHistogram io_ns;
  LogHistogram cpu_ns;
  LogHistogram total_ns;
  QueryIoSnapshot io;  // summed attributed I/O
};

// What a finished query contributes to its client's totals.
struct FinishedQuery {
  bool ok = true;
  uint64_t rows = 0;
  uint64_t objects_dropped = 0;
  uint64_t queue_ns = 0;
  uint64_t io_ns = 0;
  uint64_t cpu_ns = 0;
  QueryIoSnapshot io;
};

// Histogram summary used by the snapshot, the bench exporter and
// multi_client: count/total/mean/max, p50/p95/p99/p999 and the non-empty
// buckets.
JsonValue HistogramToJson(const LogHistogram& histogram);

struct Snapshot {
  uint64_t ts_ns = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  std::vector<QuerySnapshot> in_flight;               // sorted by id
  std::vector<std::pair<std::string, ClientTotals>> clients;  // sorted
  PoolResidency pool;

  JsonValue ToJson() const;
  std::string ToText() const;
};

// Tracks contexts from Submit to completion and accumulates per-client
// totals: the one rollup of finished queries.  Thread-safe; the service
// registers on Submit and completes from worker threads.
class QueryTracker {
 public:
  void Register(const std::shared_ptr<QueryContext>& ctx);
  void Complete(const QueryContext& ctx, const FinishedQuery& query);

  // Fills everything except `pool` (the caller owns the buffer layer).
  Snapshot TakeSnapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<QueryContext>> live_;
  std::map<std::string, ClientTotals> clients_;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace cobra::obs

#endif  // COBRA_OBS_SNAPSHOT_H_
