// obs::Registry: named metric instruments for one measured run.
//
// Components do not render their own reports; they publish raw counters,
// gauges and log-bucketed histograms into a registry that benches, tests
// and the JSON exporter read out.  Three instrument kinds:
//
//   * Counter   — monotonically increasing uint64 (reads, faults, fetches);
//   * Gauge     — instantaneous int64 with a tracked high-water mark
//                 (window occupancy, pool size, pinned frames);
//   * Histogram — a LogHistogram (seek distances, fetch latencies).
//
// Instrument pointers are stable for the registry's lifetime (stored in
// deques), so hot paths bind once and bump a machine word per event — no
// name lookup per update, no locks: a registry belongs to one
// single-threaded run.  Concurrent service queries roll up through
// obs::QueryTracker (obs/snapshot.h), not through a registry.

#ifndef COBRA_OBS_REGISTRY_H_
#define COBRA_OBS_REGISTRY_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/json.h"
#include "stats/histogram.h"

namespace cobra::obs {

class Counter {
 public:
  void Inc(uint64_t delta = 1) { value_ += delta; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(int64_t value) {
    value_ = value;
    if (value > max_) max_ = value;
  }
  void Add(int64_t delta) { Set(value_ + delta); }
  int64_t value() const { return value_; }
  int64_t max() const { return max_; }

 private:
  int64_t value_ = 0;
  int64_t max_ = 0;
};

using Histogram = LogHistogram;

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Finds or creates the named instrument.  Returned pointers stay valid
  // for the registry's lifetime.  A name holds exactly one instrument kind;
  // re-requesting it as another kind aborts (programming error).
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  // Read-only lookups: nullptr when the name is absent or holds another
  // instrument kind.  For tests and exporters that must not create.
  const Counter* FindCounter(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  size_t size() const { return index_.size(); }

  // Snapshot of every instrument, names sorted, e.g.
  //   {"counters": {"disk.reads": 123},
  //    "gauges": {"assembly.window": {"value": 0, "max": 50}},
  //    "histograms": {"disk.seek_distance": {"count":..., "p50":...}}}
  JsonValue ToJson() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    size_t slot;  // index into the matching deque
  };

  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::unordered_map<std::string, Entry> index_;
};

// Histogram summary used by the registry snapshot and the bench exporter:
// count/mean/max plus p50/p95/p99/p999 and the non-empty buckets.
JsonValue HistogramToJson(const LogHistogram& histogram);

}  // namespace cobra::obs

#endif  // COBRA_OBS_REGISTRY_H_
