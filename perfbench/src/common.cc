#include "common.h"

#include <sys/resource.h>

#include <limits>

#include "exec/scan.h"
#include "object/assembled_object.h"

namespace perfbench {
namespace {

struct LayerMetricName {
  const char* name;
  const char* unit;
};

// Keep in the order of BENCHMARK.json's per_layer list.
constexpr LayerMetricName kLayerMetrics[] = {
    {"service.queue_us_p50", "us"},
    {"service.io_share", "ratio"},
    {"service.cpu_us_per_row", "us"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions_per_lookup", "ratio"},
    {"cache.all_hit_query_us_p50", "us"},
    {"cache.invalidations_per_commit", "count"},
    {"cache.patches_per_commit", "count"},
    {"exec.self_us_per_row", "us"},
    {"assembly.self_us_per_row", "us"},
    {"assembly.fetches_per_row", "count"},
    {"assembly.max_pool_size", "count"},
    {"buffer.hit_ratio", "ratio"},
    {"buffer.faults_per_row", "count"},
    {"buffer.evictions_per_row", "count"},
    {"buffer.refetch_ratio", "ratio"},
    {"buffer.wait_us_per_fault", "us"},
    {"buffer.writebacks_per_commit", "count"},
    {"storage.async.wait_us_per_read", "us"},
    {"storage.async.merged_pick_ratio", "ratio"},
    {"storage.async.max_queue_depth", "count"},
    {"storage.disk.busy_us_per_op", "us"},
    {"storage.disk.seek_pages_per_read", "pages"},
    {"storage.disk.pages_per_read", "pages"},
    {"wal.commits_per_flush", "count"},
    {"wal.flush_us_p50", "us"},
    {"wal.log_bytes_per_commit", "B"},
    {"wal.images_per_commit", "count"},
    {"recluster.learner_ns_per_read", "ns"},
    {"recluster.plan_ms_per_epoch", "ms"},
    {"recluster.mover_us_per_swap", "us"},
    {"recluster.swaps_applied", "count"},
    {"recluster.epochs_to_converge", "count"},
    {"loadgen.late_ms_p99", "ms"},
    {"trace.overhead_ratio", "ratio"},
};

}  // namespace

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

std::unique_ptr<cobra::SimulatedDisk> CopyDisk(cobra::SimulatedDisk* disk) {
  auto copy = std::make_unique<cobra::SimulatedDisk>(
      cobra::DiskOptions{disk->page_size(), disk->geometry()});
  std::vector<std::byte> buf(disk->page_size());
  for (cobra::PageId id = 0; id < disk->page_span(); ++id) {
    if (disk->Exists(id) && disk->ReadPage(id, buf.data()).ok()) {
      (void)copy->WritePage(id, buf.data());
    }
  }
  copy->ResetStats();
  copy->ParkHead(0);
  return copy;
}

uint64_t ObjectDigest(const cobra::AssembledObject* root) {
  uint64_t digest = 0;
  cobra::VisitAssembled(root, [&digest](const cobra::AssembledObject& node) {
    uint64_t h = Mix(node.oid);
    for (int32_t f : node.fields) h = Mix(h ^ static_cast<uint32_t>(f));
    digest += h;
  });
  return digest;
}

std::unique_ptr<cobra::exec::Iterator> Traced(
    std::unique_ptr<cobra::exec::Iterator> op, SpanRecorder* recorder,
    SpanName name) {
  if (recorder == nullptr) return op;
  return std::make_unique<SpanIterator>(std::move(op), recorder, name);
}

AssemblyPlan AssembleRoots(const std::vector<cobra::Oid>& roots,
                           const cobra::AssemblyTemplate* tmpl,
                           cobra::ObjectStore* store, SpanRecorder* recorder) {
  std::vector<cobra::exec::Row> rows;
  rows.reserve(roots.size());
  for (cobra::Oid oid : roots) {
    rows.push_back(cobra::exec::Row{cobra::exec::Value::Ref(oid)});
  }
  auto op = std::make_unique<cobra::AssemblyOperator>(
      std::make_unique<cobra::exec::VectorScan>(std::move(rows)), tmpl, store,
      ElevatorW50());
  AssemblyPlan plan;
  plan.assembly = op.get();
  plan.root = Traced(std::move(op), recorder, SpanName::kOpAssembly);
  return plan;
}

cobra::Status Drain(cobra::exec::Iterator* plan,
                    const std::function<void(const cobra::exec::Row&)>& row) {
  cobra::Status status = plan->Open();
  cobra::exec::RowBatch batch(cobra::exec::RowBatch::kDefaultCapacity);
  while (status.ok()) {
    cobra::Result<size_t> n = plan->NextBatch(&batch);
    if (!n.ok()) {
      status = n.status();
      break;
    }
    if (*n == 0) break;
    for (size_t i = 0; i < *n; ++i) row(batch[i]);
  }
  cobra::Status closed = plan->Close();
  return status.ok() ? closed : status;
}

void SetMetric(std::map<std::string, Metric>* metrics, const std::string& name,
               double value, const std::string& unit, uint64_t samples) {
  // An infinite percentile (it landed on a failed operation) prints as the
  // largest finite double, so the result stays valid JSON.
  if (std::isinf(value)) value = std::numeric_limits<double>::max();
  (*metrics)[name] = Metric{std::isnan(value) ? 0.0 : value, unit, samples};
}

void InitLayerMetrics(Report* report) {
  for (const LayerMetricName& m : kLayerMetrics) {
    SetMetric(&report->metrics, m.name, 0.0, m.unit, 0);
  }
}

void SetPoolAndDiskLayers(Report* report, const cobra::BufferStats& buffer,
                          uint64_t unique_faulted, const cobra::DiskStats& disk,
                          const SpanTable& spans, uint64_t rows) {
  auto& m = report->metrics;
  const double per_row = static_cast<double>(rows);
  const double faults = static_cast<double>(buffer.faults);
  SetMetric(&m, "buffer.hit_ratio", buffer.HitRate(), "ratio",
            buffer.requests());
  SetMetric(&m, "buffer.faults_per_row", Ratio(faults, per_row), "count", rows);
  SetMetric(&m, "buffer.evictions_per_row",
            Ratio(static_cast<double>(buffer.evictions), per_row), "count",
            rows);
  SetMetric(&m, "buffer.refetch_ratio",
            Ratio(faults - static_cast<double>(unique_faulted), faults),
            "ratio", buffer.faults);
  // A fault waits in the decorator right under the pool: the pool-side one
  // above AsyncDisk, or the device-side one when there is no AsyncDisk.
  const SpanTotals& pool_read = Get(spans, SpanName::kPoolRead);
  const SpanTotals& wait =
      pool_read.count > 0 ? pool_read : Get(spans, SpanName::kDiskRead);
  SetMetric(&m, "buffer.wait_us_per_fault",
            Ratio(static_cast<double>(wait.total_ns), faults) / 1e3, "us",
            buffer.faults);
  uint64_t busy_ns = 0;
  uint64_t ops = 0;
  for (SpanName name :
       {SpanName::kDiskRead, SpanName::kDiskWrite, SpanName::kLogWrite}) {
    busy_ns += Get(spans, name).self_ns;
    ops += Get(spans, name).count;
  }
  SetMetric(&m, "storage.disk.busy_us_per_op",
            Ratio(static_cast<double>(busy_ns), static_cast<double>(ops)) /
                1e3,
            "us", ops);
  SetMetric(&m, "storage.disk.seek_pages_per_read", disk.AvgSeekPerRead(),
            "pages", disk.reads);
  SetMetric(&m, "storage.disk.pages_per_read",
            Ratio(static_cast<double>(disk.pages_read),
                  static_cast<double>(disk.reads)),
            "pages", disk.reads);
}

void SetAssemblyLayers(Report* report, const cobra::AssemblyStats& assembly,
                       const SpanTable& spans, uint64_t passes) {
  auto& m = report->metrics;
  const uint64_t rows = assembly.complex_emitted;
  const double per_row = static_cast<double>(rows);
  const double self_ns =
      static_cast<double>(Get(spans, SpanName::kOpAssembly).self_ns);
  SetMetric(&m, "assembly.self_us_per_row", Ratio(self_ns, per_row) / 1e3,
            "us", rows);
  SetMetric(&m, "assembly.fetches_per_row",
            Ratio(static_cast<double>(assembly.objects_fetched), per_row),
            "count", rows);
  SetMetric(&m, "assembly.max_pool_size",
            static_cast<double>(assembly.max_pool_size), "count", passes);
}

void SetEndToEnd(Report* report, const EndToEnd& e2e,
                 const std::vector<double>& setup_seconds) {
  auto& m = report->metrics;
  SetMetric(&m, "rows_per_s", e2e.rows_per_s, "rows/s", e2e.rows);
  SetMetric(&m, "query_ms", e2e.query_ms, "ms", e2e.queries);
  SetMetric(&m, "seek_pages_per_row", e2e.seek_pages_per_row, "pages",
            e2e.rows);
  SetMetric(&m, "disk_reads_per_row", e2e.disk_reads_per_row, "count",
            e2e.rows);
  SetMetric(&m, "setup_s", Quantile(setup_seconds, 0.0), "s",
            setup_seconds.size());
  SetMetric(&m, "peak_rss_mb", PeakRssMb(), "MB", 1);
  SetMetric(&report->extra, "query_p50_ms", e2e.query_p50_ms, "ms",
            e2e.queries);
  SetMetric(&report->extra, "op_fail_ratio",
            Ratio(static_cast<double>(report->failed),
                  static_cast<double>(report->attempted)),
            "ratio", report->attempted);
}

void SetOverhead(Report* report, const EndToEnd& plain, const EndToEnd& traced,
                 bool by_latency) {
  // > 1 means the traced run was slower.
  double ratio = by_latency ? Ratio(traced.query_ms, plain.query_ms)
                            : Ratio(plain.rows_per_s, traced.rows_per_s);
  SetMetric(&report->metrics, "trace.overhead_ratio", ratio, "ratio",
            traced.queries);
}

void Fail(Report* report, const std::string& why) {
  report->correct = false;
  if (report->failures.size() < 20) report->failures.push_back(why);
}

}  // namespace perfbench
