#include "obs/query_context.h"

#include <utility>

namespace cobra::obs {
namespace {

thread_local std::shared_ptr<QueryContext> tls_query;

}  // namespace

const char* SpanEventKindName(SpanEventKind kind) {
  switch (kind) {
    case SpanEventKind::kQueryBegin: return "query-begin";
    case SpanEventKind::kQueryEnd: return "query-end";
    case SpanEventKind::kDiskRead: return "disk-read";
    case SpanEventKind::kDiskReadRun: return "disk-read-run";
    case SpanEventKind::kDiskWrite: return "disk-write";
    case SpanEventKind::kSeekPenalty: return "seek-penalty";
    case SpanEventKind::kBufferRetry: return "buffer-retry";
    case SpanEventKind::kChecksumFailure: return "checksum-failure";
    case SpanEventKind::kFault: return "fault";
    case SpanEventKind::kCacheHit: return "cache-hit";
    case SpanEventKind::kCacheMiss: return "cache-miss";
  }
  return "?";
}

QueryContext::QueryContext(uint64_t query_id, std::string client,
                           size_t timeline_capacity)
    : id_(query_id),
      client_(std::move(client)),
      timeline_(timeline_capacity) {}

void QueryContext::Record(SpanEvent event) {
  event.query_id = id_;
  if (event.ts_ns == 0) event.ts_ns = SpanNowNanos();
  {
    std::lock_guard<std::mutex> lock(mu_);
    timeline_.Push(event);
  }
  // Outside mu_: the sink takes its own lock and mu_ stays a leaf.
  if (SpanSink* sink = sink_.load(std::memory_order_acquire)) {
    sink->Record(event);
  }
}

std::vector<SpanEvent> QueryContext::Timeline() const {
  std::lock_guard<std::mutex> lock(mu_);
  return timeline_.Items();
}

uint64_t QueryContext::timeline_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return timeline_.dropped();
}

QueryContext* CurrentQuery() { return tls_query.get(); }

std::shared_ptr<QueryContext> CurrentQueryShared() { return tls_query; }

uint64_t CurrentQueryId() {
  const QueryContext* query = tls_query.get();
  return query != nullptr ? query->query_id() : 0;
}

ScopedQueryContext::ScopedQueryContext(std::shared_ptr<QueryContext> ctx)
    : prev_(std::move(tls_query)) {
  tls_query = std::move(ctx);
}

ScopedQueryContext::~ScopedQueryContext() { tls_query = std::move(prev_); }

}  // namespace cobra::obs
