#include "obs/flight_recorder.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <thread>

namespace cobra::obs {
namespace {

// Stripe count: enough that a worker pool plus the I/O thread rarely
// collide, small enough that Events() merges stay cheap.
constexpr size_t kStripes = 8;

}  // namespace

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(capacity == 0 ? kStripes : capacity) {
  for (size_t i = 0; i < kStripes; ++i) {
    stripes_.emplace_back(capacity_ / kStripes);
  }
}

FlightRecorder::Stripe& FlightRecorder::StripeForThisThread() {
  size_t h = std::hash<std::thread::id>{}(std::this_thread::get_id());
  return stripes_[h % stripes_.size()];
}

void FlightRecorder::Record(const SpanEvent& event) {
  Stripe& stripe = StripeForThisThread();
  std::lock_guard<std::mutex> lock(stripe.mu);
  stripe.ring.Push(event);
}

std::vector<SpanEvent> FlightRecorder::Events() const {
  std::vector<SpanEvent> out;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.ring.ForEach([&out](const SpanEvent& e) { out.push_back(e); });
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

uint64_t FlightRecorder::dropped() const {
  uint64_t total = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    total += stripe.ring.dropped();
  }
  return total;
}

JsonValue FlightRecorder::ToJson() const {
  JsonValue out = JsonValue::MakeObject();
  out.Set("capacity", capacity_);
  out.Set("dropped", dropped());
  JsonValue events = JsonValue::MakeArray();
  for (const SpanEvent& event : Events()) {
    events.Append(SpanEventToJson(event));
  }
  out.Set("events", std::move(events));
  return out;
}

JsonValue SpanEventToJson(const SpanEvent& event) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("kind", SpanEventKindName(event.kind));
  out.Set("ts_ns", event.ts_ns);
  out.Set("query", event.query_id);
  out.Set("page", event.page);
  out.Set("a", event.a);
  out.Set("b", event.b);
  return out;
}

JsonValue QueryIoSnapshotToJson(const QueryIoSnapshot& io) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("disk_reads", io.disk_reads);
  out.Set("disk_writes", io.disk_writes);
  out.Set("read_seek_pages", io.read_seek_pages);
  out.Set("write_seek_pages", io.write_seek_pages);
  out.Set("pages_read", io.pages_read);
  out.Set("coalesced_runs", io.coalesced_runs);
  out.Set("piggyback_pages", io.piggyback_pages);
  out.Set("buffer_hits", io.buffer_hits);
  out.Set("buffer_faults", io.buffer_faults);
  out.Set("retries", io.retries);
  out.Set("checksum_failures", io.checksum_failures);
  out.Set("faults_injected", io.faults_injected);
  out.Set("cache_hits", io.cache_hits);
  out.Set("cache_misses", io.cache_misses);
  return out;
}

namespace {

void AppendLine(std::string* out, const char* format, ...) {
  char line[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(line, sizeof(line), format, args);
  va_end(args);
  *out += line;
}

double Millis(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

std::string SlowQueryReport::ToText() const {
  std::string out;
  AppendLine(&out, "== slow query #%llu (client %s) — %s ==\n",
             static_cast<unsigned long long>(query_id), client.c_str(),
             reason.c_str());
  AppendLine(&out, "status: %s, rows: %llu\n", status.c_str(),
             static_cast<unsigned long long>(rows));
  AppendLine(&out,
             "latency: total %.3f ms = queue %.3f + io %.3f + cpu %.3f\n",
             Millis(total_ns), Millis(queue_ns), Millis(io_ns),
             Millis(cpu_ns));
  AppendLine(&out,
             "attributed io: %llu reads (%llu pages, %llu coalesced runs), "
             "%llu seek pages, %llu hits / %llu faults, %llu retries, "
             "%llu injected faults\n",
             static_cast<unsigned long long>(io.disk_reads),
             static_cast<unsigned long long>(io.pages_read),
             static_cast<unsigned long long>(io.coalesced_runs),
             static_cast<unsigned long long>(io.read_seek_pages),
             static_cast<unsigned long long>(io.buffer_hits),
             static_cast<unsigned long long>(io.buffer_faults),
             static_cast<unsigned long long>(io.retries),
             static_cast<unsigned long long>(io.faults_injected));
  out += "plan:\n";
  out += explain;
  if (!explain.empty() && explain.back() != '\n') out += '\n';
  AppendLine(&out, "io timeline (%zu events%s):\n", timeline.size(),
             timeline_dropped > 0 ? ", older dropped" : "");
  uint64_t base = timeline.empty() ? 0 : timeline.front().ts_ns;
  for (const SpanEvent& event : timeline) {
    AppendLine(&out, "  +%9.3f ms  %-16s page=%llu a=%llu b=%llu\n",
               Millis(event.ts_ns - base), SpanEventKindName(event.kind),
               static_cast<unsigned long long>(event.page),
               static_cast<unsigned long long>(event.a),
               static_cast<unsigned long long>(event.b));
  }
  return out;
}

JsonValue SlowQueryReport::ToJson() const {
  JsonValue out = JsonValue::MakeObject();
  out.Set("query_id", query_id);
  out.Set("client", client);
  out.Set("reason", reason);
  out.Set("status", status);
  out.Set("rows", rows);
  JsonValue latency = JsonValue::MakeObject();
  latency.Set("total_ns", total_ns);
  latency.Set("queue_ns", queue_ns);
  latency.Set("io_ns", io_ns);
  latency.Set("cpu_ns", cpu_ns);
  out.Set("latency", std::move(latency));
  out.Set("attributed", QueryIoSnapshotToJson(io));
  out.Set("explain", explain);
  JsonValue events = JsonValue::MakeArray();
  for (const SpanEvent& event : timeline) {
    events.Append(SpanEventToJson(event));
  }
  out.Set("timeline", std::move(events));
  out.Set("timeline_dropped", timeline_dropped);
  return out;
}

}  // namespace cobra::obs
