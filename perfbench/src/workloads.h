// The repository benchmark's workloads.  See perfbench/README.md for what
// each one stresses, its sizes, and every metric's definition.
//
// A workload run builds the ACOB database (§6, N = 4,000, database seed
// 42 — the database of the fig13 golden), generates its inputs from the
// workload seed before timing starts, measures for kRunSeconds through the
// public API, checks the outputs outside the timed region, and reports:
//
//   * untraced (trace = false): the end-to-end metrics, from a stack with
//     no decorators at all;
//   * traced (trace = true): the same measurement untraced, then again
//     through the span-recording stack; the per-layer metrics come from the
//     traced half, and trace.overhead_ratio compares the two.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "buffer/buffer_manager.h"
#include "obs/json.h"
#include "spans.h"
#include "storage/disk.h"
#include "workload/acob.h"

namespace perfbench {

// Length of one measured window.  Part of the benchmark's definition: the
// open-loop schedules of rw_open are generated for exactly this long.
inline constexpr int kRunSeconds = 10;

// The hold-out seed: a claim tuned on any other seed is checked on this one.
inline constexpr uint64_t kCheckSeed = 977;

struct Metric {
  double value = 0.0;
  std::string unit;
  // Observations behind the value: latency samples for a percentile, the
  // denominator's count for a ratio.
  uint64_t samples = 0;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  // Where the traced run writes its kept spans; empty: not written.
  std::string spans_path;
};

struct Report {
  bool correct = true;
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // The metrics of the result line: the end-to-end set untraced, the
  // per-layer set traced.
  std::map<std::string, Metric> metrics;
  // End-to-end metrics only some workloads have (tail latencies, commit
  // latencies, write amplification, the failure ratio): measured untraced,
  // printed in the run's record but not in the result line.
  std::map<std::string, Metric> extra;
  cobra::obs::JsonValue params = cobra::obs::JsonValue::MakeObject();
  cobra::obs::JsonValue detail = cobra::obs::JsonValue::MakeObject();
};

// Names accepted by RunWorkload, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

// Runs one workload.  Failures land in Report::failures.
Report RunWorkload(const RunOptions& options);

Report ColdFig13(const RunOptions& options);
Report HotZipf(const RunOptions& options);
Report RwOpen(const RunOptions& options);
Report ReclusterEpochs(const RunOptions& options);

// --- Building blocks shared with the decorator fidelity test ------------

inline constexpr size_t kNumComplexObjects = 4000;
inline constexpr uint64_t kDatabaseSeed = 42;

// Counts one cold pass leaves behind.
struct PassCounts {
  cobra::DiskStats disk;
  cobra::BufferStats buffer;
  std::vector<cobra::PageId> read_trace;
  uint64_t rows = 0;      // complex objects delivered by assembly
  uint64_t checksum = 0;  // order-independent digest of the output
};

std::unique_ptr<cobra::AcobDatabase> BuildDatabase(
    cobra::Clustering clustering);

// One cold_fig13 pass (inter-object database) through an undecorated
// stack, or through a device-side TimedDisk when `recorder` is set.
PassCounts Fig13Pass(cobra::AcobDatabase* db, SpanRecorder* recorder,
                     bool read_trace);

// One recluster_epochs convergence episode on a fresh copy of the
// unclustered database, with at most `max_epochs` passes.  Traced when
// `recorder` is set.  Returns the counts of every pass.
std::vector<PassCounts> ReclusterEpisode(cobra::AcobDatabase* db,
                                         SpanRecorder* recorder,
                                         bool read_trace, size_t max_epochs);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
