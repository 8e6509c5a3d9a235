// Helpers shared by the workload files: seeds, Zipf draws, percentiles,
// counter deltas, plan construction and metric filling.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "assembly/assembly_operator.h"
#include "exec/iterator.h"
#include "spans.h"
#include "storage/disk.h"
#include "workloads.h"

namespace perfbench {

// Goldens from bench/golden/fig13_window50.json: the inter-object,
// elevator, N=4000 run (reads, read seek pages), and the intra-object,
// elevator, N=4000 run's seek pages, the layout re-clustering converges to.
inline constexpr uint64_t kFig13Reads = 3115;
inline constexpr uint64_t kFig13ReadSeekPages = 301822;
inline constexpr uint64_t kIntraObjectSeekPages = 3111;

inline constexpr size_t kWindow = 50;
// Database builds timed per single-thread run.  A build takes 30-60 ms, and
// the host's speed swings between those levels within a second, so one run
// takes enough builds to span about a second.
inline constexpr int kBuildRepeats = 15;
inline constexpr size_t kColdFrames = 32768;  // the whole database fits

inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Independent RNG stream `stream` of the workload seed.
inline std::mt19937_64 Stream(uint64_t seed, uint64_t stream) {
  return std::mt19937_64(Mix(Mix(seed) ^ (stream * 0x632be59bd9b4e019ull)));
}

// Zipf(theta) over ranks [0, n): rank r has weight 1 / (r + 1)^theta.
class Zipf {
 public:
  Zipf(size_t n, double theta) : cdf_(n) {
    double sum = 0.0;
    for (size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Draw(std::mt19937_64* rng) const {
    double u = std::uniform_real_distribution<double>(0.0, 1.0)(*rng);
    size_t r = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(r, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// Nearest-rank quantile; 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

inline double Ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

inline double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

inline cobra::DiskStats Delta(const cobra::DiskStats& a,
                              const cobra::DiskStats& b) {
  cobra::DiskStats d;
  d.reads = a.reads - b.reads;
  d.writes = a.writes - b.writes;
  d.read_seek_pages = a.read_seek_pages - b.read_seek_pages;
  d.write_seek_pages = a.write_seek_pages - b.write_seek_pages;
  d.pages_read = a.pages_read - b.pages_read;
  d.coalesced_runs = a.coalesced_runs - b.coalesced_runs;
  return d;
}

inline void Add(cobra::DiskStats* total, const cobra::DiskStats& d) {
  total->reads += d.reads;
  total->writes += d.writes;
  total->read_seek_pages += d.read_seek_pages;
  total->write_seek_pages += d.write_seek_pages;
  total->pages_read += d.pages_read;
  total->coalesced_runs += d.coalesced_runs;
}

inline void Add(cobra::BufferStats* total, const cobra::BufferStats& b) {
  total->hits += b.hits;
  total->faults += b.faults;
  total->evictions += b.evictions;
  total->dirty_writebacks += b.dirty_writebacks;
  total->max_pinned = std::max(total->max_pinned, b.max_pinned);
}

inline void Add(cobra::AssemblyStats* total, const cobra::AssemblyStats& a) {
  total->complex_emitted += a.complex_emitted;
  total->objects_fetched += a.objects_fetched;
  total->max_pool_size = std::max(total->max_pool_size, a.max_pool_size);
}

inline cobra::AssemblyOptions ElevatorW50() {
  cobra::AssemblyOptions options;
  options.window_size = kWindow;
  options.scheduler = cobra::SchedulerKind::kElevator;
  return options;
}

double PeakRssMb();

// A copy of every page of `disk`, with fresh stats and the head at page 0.
std::unique_ptr<cobra::SimulatedDisk> CopyDisk(cobra::SimulatedDisk* disk);

// Order-independent digest of a delivered complex object: every reachable
// node's OID and fields.
uint64_t ObjectDigest(const cobra::AssembledObject* root);

// Records a span around each Open/NextBatch of the wrapped operator.
class SpanIterator final : public cobra::exec::Iterator {
 public:
  SpanIterator(std::unique_ptr<cobra::exec::Iterator> input,
               SpanRecorder* recorder, SpanName name)
      : input_(std::move(input)), recorder_(recorder), name_(name) {}
  cobra::Status Open() override {
    SpanRecorder::Scope span(recorder_, name_);
    return input_->Open();
  }
  cobra::Result<size_t> NextBatch(cobra::exec::RowBatch* out) override {
    SpanRecorder::Scope span(recorder_, name_);
    return input_->NextBatch(out);
  }
  cobra::Status Close() override { return input_->Close(); }

 private:
  std::unique_ptr<cobra::exec::Iterator> input_;
  SpanRecorder* recorder_;
  SpanName name_;
};

// `op` wrapped in a SpanIterator when `recorder` is set, else `op` itself:
// an untraced plan holds exactly the operators PlanBuilder would build.
std::unique_ptr<cobra::exec::Iterator> Traced(
    std::unique_ptr<cobra::exec::Iterator> op, SpanRecorder* recorder,
    SpanName name);

struct AssemblyPlan {
  std::unique_ptr<cobra::exec::Iterator> root;
  cobra::AssemblyOperator* assembly = nullptr;  // owned by `root`
};

// FromOids(roots) -> Assemble(elevator, W = 50), as PlanBuilder builds it.
AssemblyPlan AssembleRoots(const std::vector<cobra::Oid>& roots,
                           const cobra::AssemblyTemplate* tmpl,
                           cobra::ObjectStore* store, SpanRecorder* recorder);

// Opens `plan`, calls `row` for every row it delivers, closes it.
cobra::Status Drain(cobra::exec::Iterator* plan,
                    const std::function<void(const cobra::exec::Row&)>& row);

inline const SpanTotals& Get(const SpanTable& table, SpanName name) {
  return table[static_cast<size_t>(name)];
}

// Every per-layer metric, zero until a workload measures it, so each
// traced run reports the same names.
void InitLayerMetrics(Report* report);
void SetMetric(std::map<std::string, Metric>* metrics, const std::string& name,
               double value, const std::string& unit, uint64_t samples);

// The buffer and storage.disk per-layer metrics every workload reports.
// `rows`: complex objects delivered in the traced window.
void SetPoolAndDiskLayers(Report* report, const cobra::BufferStats& buffer,
                          uint64_t unique_faulted, const cobra::DiskStats& disk,
                          const SpanTable& spans, uint64_t rows);
// The assembly per-layer metrics of the single-thread workloads.
void SetAssemblyLayers(Report* report, const cobra::AssemblyStats& assembly,
                       const SpanTable& spans, uint64_t passes);

// Result line of a run: the end-to-end metrics every workload reports.
//
// query_ms is the median query latency on the service workloads.  On the
// single-thread workloads, where a pass is a query, it is the fastest pass
// of the window, and rows_per_s comes from the fastest pass (episode): on a
// shared host, memory contention from other tenants swings a cold pass by
// +-30% over seconds, so a median pass time drifts between runs while the
// fastest pass repeats.  The true median is recorded as query_p50_ms.
struct EndToEnd {
  double rows_per_s = 0.0;
  double query_ms = 0.0;
  double query_p50_ms = 0.0;
  uint64_t queries = 0;
  uint64_t rows = 0;
  double seek_pages_per_row = 0.0;
  double disk_reads_per_row = 0.0;
};
// setup_s is the fastest of `setup_seconds`, for the reason query_ms is the
// fastest pass: the median of 15 database builds moved by 46% between sets
// of runs ten minutes apart.  Also records op_fail_ratio from the report's
// attempted/failed counts.
void SetEndToEnd(Report* report, const EndToEnd& e2e,
                 const std::vector<double>& setup_seconds);
// trace.overhead_ratio from the untraced and traced halves of a traced run.
void SetOverhead(Report* report, const EndToEnd& plain, const EndToEnd& traced,
                 bool by_latency);
void Fail(Report* report, const std::string& why);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
