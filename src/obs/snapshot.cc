#include "obs/snapshot.h"

#include <cstdarg>
#include <cstdio>

#include "obs/flight_recorder.h"

namespace cobra::obs {
namespace {

void AppendLine(std::string* out, const char* format, ...) {
  char line[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(line, sizeof(line), format, args);
  va_end(args);
  *out += line;
}

}  // namespace

JsonValue HistogramToJson(const LogHistogram& histogram) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("count", histogram.count());
  out.Set("total", histogram.total());
  out.Set("mean", histogram.Mean());
  out.Set("max", histogram.max());
  out.Set("p50", histogram.P50());
  out.Set("p95", histogram.P95());
  out.Set("p99", histogram.P99());
  out.Set("p999", histogram.P999());
  JsonValue buckets = JsonValue::MakeArray();
  for (size_t i = 0; i < histogram.num_buckets(); ++i) {
    if (histogram.bucket_count(i) == 0) continue;
    JsonValue bucket = JsonValue::MakeObject();
    bucket.Set("lo", LogHistogram::BucketLo(i));
    bucket.Set("hi", LogHistogram::BucketHi(i));
    bucket.Set("count", histogram.bucket_count(i));
    buckets.Append(std::move(bucket));
  }
  out.Set("buckets", std::move(buckets));
  return out;
}

void QueryTracker::Register(const std::shared_ptr<QueryContext>& ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  live_.emplace(ctx->query_id(), ctx);
}

void QueryTracker::Complete(const QueryContext& ctx,
                            const FinishedQuery& query) {
  std::lock_guard<std::mutex> lock(mu_);
  live_.erase(ctx.query_id());
  completed_++;
  if (!query.ok) failed_++;
  ClientTotals& totals = clients_[ctx.client()];
  totals.jobs++;
  if (!query.ok) totals.failures++;
  totals.rows += query.rows;
  totals.objects_dropped += query.objects_dropped;
  totals.queue_ns.Add(query.queue_ns);
  totals.io_ns.Add(query.io_ns);
  totals.cpu_ns.Add(query.cpu_ns);
  totals.total_ns.Add(query.queue_ns + query.io_ns + query.cpu_ns);
  totals.io += query.io;
}

Snapshot QueryTracker::TakeSnapshot() const {
  Snapshot snap;
  snap.ts_ns = SpanNowNanos();
  std::lock_guard<std::mutex> lock(mu_);
  snap.completed = completed_;
  snap.failed = failed_;
  snap.in_flight.reserve(live_.size());
  for (const auto& [id, ctx] : live_) {
    QuerySnapshot q;
    q.query_id = id;
    q.client = ctx->client();
    uint64_t submit = ctx->submit_ns.load(std::memory_order_relaxed);
    uint64_t start = ctx->start_ns.load(std::memory_order_relaxed);
    q.state = start == 0 ? "queued" : "running";
    q.age_ns = submit != 0 && snap.ts_ns > submit ? snap.ts_ns - submit : 0;
    q.io = ctx->io.Snapshot();
    snap.in_flight.push_back(std::move(q));
  }
  snap.clients.assign(clients_.begin(), clients_.end());
  return snap;
}

JsonValue Snapshot::ToJson() const {
  JsonValue out = JsonValue::MakeObject();
  out.Set("ts_ns", ts_ns);
  out.Set("completed", completed);
  out.Set("failed", failed);

  JsonValue queries = JsonValue::MakeArray();
  for (const QuerySnapshot& q : in_flight) {
    JsonValue j = JsonValue::MakeObject();
    j.Set("query_id", q.query_id);
    j.Set("client", q.client);
    j.Set("state", q.state);
    j.Set("age_ns", q.age_ns);
    j.Set("io", QueryIoSnapshotToJson(q.io));
    queries.Append(std::move(j));
  }
  out.Set("in_flight", std::move(queries));

  JsonValue by_client = JsonValue::MakeObject();  // map order: sorted
  for (const auto& [name, totals] : clients) {
    JsonValue j = JsonValue::MakeObject();
    j.Set("jobs", totals.jobs);
    j.Set("failures", totals.failures);
    j.Set("rows", totals.rows);
    j.Set("objects_dropped", totals.objects_dropped);
    JsonValue latency = JsonValue::MakeObject();
    latency.Set("total_ns", HistogramToJson(totals.total_ns));
    latency.Set("queue_ns", HistogramToJson(totals.queue_ns));
    latency.Set("io_ns", HistogramToJson(totals.io_ns));
    latency.Set("cpu_ns", HistogramToJson(totals.cpu_ns));
    j.Set("latency", std::move(latency));
    j.Set("io", QueryIoSnapshotToJson(totals.io));
    by_client.Set(name, std::move(j));
  }
  out.Set("clients", std::move(by_client));

  JsonValue p = JsonValue::MakeObject();
  p.Set("total_frames", pool.total_frames);
  p.Set("resident", pool.resident);
  p.Set("pinned", pool.pinned);
  p.Set("dirty", pool.dirty);
  p.Set("free_frames", pool.free_frames);
  p.Set("pending", pool.pending);
  JsonValue shards = JsonValue::MakeArray();
  for (size_t count : pool.per_shard_resident) {
    shards.Append(count);
  }
  p.Set("per_shard_resident", std::move(shards));
  out.Set("pool", std::move(p));
  return out;
}

std::string Snapshot::ToText() const {
  std::string out;
  AppendLine(&out, "== snapshot @ %llu ns — %llu done (%llu failed), "
                   "%zu in flight ==\n",
             static_cast<unsigned long long>(ts_ns),
             static_cast<unsigned long long>(completed),
             static_cast<unsigned long long>(failed), in_flight.size());
  if (!in_flight.empty()) {
    out += "in-flight queries:\n";
    for (const QuerySnapshot& q : in_flight) {
      AppendLine(&out,
                 "  #%-4llu %-10s %-8s age %8.3f ms  reads=%llu "
                 "seek_pages=%llu hits=%llu faults=%llu\n",
                 static_cast<unsigned long long>(q.query_id),
                 q.client.c_str(), q.state.c_str(),
                 static_cast<double>(q.age_ns) / 1e6,
                 static_cast<unsigned long long>(q.io.disk_reads),
                 static_cast<unsigned long long>(q.io.read_seek_pages),
                 static_cast<unsigned long long>(q.io.buffer_hits),
                 static_cast<unsigned long long>(q.io.buffer_faults));
    }
  }
  if (!clients.empty()) {
    out += "clients:\n";
    for (const auto& [name, t] : clients) {
      AppendLine(&out,
                 "  %-10s jobs=%llu rows=%llu reads=%llu seek_pages=%llu "
                 "faults=%llu time=%8.3f ms\n",
                 name.c_str(), static_cast<unsigned long long>(t.jobs),
                 static_cast<unsigned long long>(t.rows),
                 static_cast<unsigned long long>(t.io.disk_reads),
                 static_cast<unsigned long long>(t.io.read_seek_pages),
                 static_cast<unsigned long long>(t.io.buffer_faults),
                 static_cast<double>(t.total_ns.total()) / 1e6);
    }
  }
  AppendLine(&out,
             "pool: %zu/%zu resident (%zu pinned, %zu dirty, %zu free, "
             "%zu pending)\n",
             pool.resident, pool.total_frames, pool.pinned, pool.dirty,
             pool.free_frames, pool.pending);
  if (!pool.per_shard_resident.empty()) {
    out += "  per-shard resident:";
    for (size_t count : pool.per_shard_resident) {
      AppendLine(&out, " %zu", count);
    }
    out += '\n';
  }
  return out;
}

}  // namespace cobra::obs
