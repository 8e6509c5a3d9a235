#include "obs/registry.h"

#include <algorithm>
#include <cstdlib>

namespace cobra::obs {

Counter* Registry::GetCounter(const std::string& name) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    if (it->second.kind != Kind::kCounter) std::abort();
    return &counters_[it->second.slot];
  }
  counters_.emplace_back();
  index_.emplace(name, Entry{Kind::kCounter, counters_.size() - 1});
  return &counters_.back();
}

Gauge* Registry::GetGauge(const std::string& name) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    if (it->second.kind != Kind::kGauge) std::abort();
    return &gauges_[it->second.slot];
  }
  gauges_.emplace_back();
  index_.emplace(name, Entry{Kind::kGauge, gauges_.size() - 1});
  return &gauges_.back();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    if (it->second.kind != Kind::kHistogram) std::abort();
    return &histograms_[it->second.slot];
  }
  histograms_.emplace_back();
  index_.emplace(name, Entry{Kind::kHistogram, histograms_.size() - 1});
  return &histograms_.back();
}

const Counter* Registry::FindCounter(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end() || it->second.kind != Kind::kCounter) return nullptr;
  return &counters_[it->second.slot];
}

const Histogram* Registry::FindHistogram(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end() || it->second.kind != Kind::kHistogram) {
    return nullptr;
  }
  return &histograms_[it->second.slot];
}

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

JsonValue Registry::ToJson() const {
  std::vector<std::pair<std::string, Entry>> sorted(index_.begin(),
                                                    index_.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  JsonValue counters = JsonValue::MakeObject();
  JsonValue gauges = JsonValue::MakeObject();
  JsonValue histograms = JsonValue::MakeObject();
  for (const auto& [name, entry] : sorted) {
    switch (entry.kind) {
      case Kind::kCounter:
        counters.Set(name, counters_[entry.slot].value());
        break;
      case Kind::kGauge: {
        const Gauge& gauge = gauges_[entry.slot];
        JsonValue v = JsonValue::MakeObject();
        v.Set("value", gauge.value());
        v.Set("max", gauge.max());
        gauges.Set(name, std::move(v));
        break;
      }
      case Kind::kHistogram:
        histograms.Set(name, HistogramToJson(histograms_[entry.slot]));
        break;
    }
  }
  JsonValue out = JsonValue::MakeObject();
  out.Set("counters", std::move(counters));
  out.Set("gauges", std::move(gauges));
  out.Set("histograms", std::move(histograms));
  return out;
}

}  // namespace cobra::obs
