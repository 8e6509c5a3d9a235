// FlightRecorder: always-on bounded recorder of span events, plus the
// slow-query report it feeds.
//
// Every QueryContext the service opens fans its span events into the
// service's FlightRecorder, so the last N events across *all* queries are
// always available — no flag to remember before the incident.  The ring is
// striped by recording thread (hash of thread id) so workers and the I/O
// thread do not serialize on one mutex; Events() merges the stripes back
// into timestamp order.
//
// When a query trips the service's slow-query trigger (latency threshold,
// injected fault, or error), the service assembles a SlowQueryReport from
// the query's own bounded timeline: identity, latency decomposition,
// attributed I/O counters, the EXPLAIN ANALYZE operator summary, and the
// I/O timeline — renderable as text (the slow-query log) or JSON.

#ifndef COBRA_OBS_FLIGHT_RECORDER_H_
#define COBRA_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/bounded_ring.h"
#include "obs/json.h"
#include "obs/query_context.h"

namespace cobra::obs {

class FlightRecorder : public SpanSink {
 public:
  // `capacity` bounds the total retained events across all stripes.
  explicit FlightRecorder(size_t capacity = 4096);

  // Thread-safe; called from QueryContext::Record on whichever thread
  // charged the event.
  void Record(const SpanEvent& event) override;

  // Retained events merged across stripes, ascending timestamp.
  std::vector<SpanEvent> Events() const;
  // Events that fell off the front of any stripe.
  uint64_t dropped() const;
  size_t capacity() const { return capacity_; }

  // {"capacity":..., "dropped":..., "events":[...]} with events rendered by
  // SpanEventToJson.
  JsonValue ToJson() const;

 private:
  struct Stripe {
    explicit Stripe(size_t capacity) : ring(capacity) {}
    mutable std::mutex mu;
    BoundedRing<SpanEvent> ring;  // guarded by mu
  };

  Stripe& StripeForThisThread();

  size_t capacity_;
  std::deque<Stripe> stripes_;  // deque: a Stripe holds a mutex, cannot move
};

// One span event as a flat JSON object (fixed key order: kind, ts_ns,
// query, page, a, b — kind-specific operand names documented in
// query_context.h).
JsonValue SpanEventToJson(const SpanEvent& event);

// Attributed counters as a flat JSON object, fixed key order (shared by the
// slow-query report, obs::Snapshot and the benches).
JsonValue QueryIoSnapshotToJson(const QueryIoSnapshot& io);

// Everything the slow-query log prints about one query.
struct SlowQueryReport {
  uint64_t query_id = 0;
  std::string client;
  std::string reason;  // "latency-threshold" | "fault" | "error"
  std::string status;  // status string; "OK" when the query succeeded
  uint64_t rows = 0;

  // Latency decomposition: total == queue + io + cpu exactly.
  uint64_t total_ns = 0;
  uint64_t queue_ns = 0;
  uint64_t io_ns = 0;
  uint64_t cpu_ns = 0;

  QueryIoSnapshot io;

  // EXPLAIN ANALYZE text of the executed plan (operator tree with row
  // counts, call counts and timings).
  std::string explain;

  // The query's attributed I/O timeline (bounded; oldest events may have
  // been dropped — `timeline_dropped` counts them).
  std::vector<SpanEvent> timeline;
  uint64_t timeline_dropped = 0;

  // Multi-line human-readable report (the slow-query log entry).
  std::string ToText() const;
  JsonValue ToJson() const;
};

}  // namespace cobra::obs

#endif  // COBRA_OBS_FLIGHT_RECORDER_H_
