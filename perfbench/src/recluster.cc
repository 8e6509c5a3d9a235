// recluster_epochs: online re-clustering from the unclustered layout.
//
// One thread, unclustered data, elevator, W = 50, a WAL attached to the
// pool and the mover.  An episode starts from a fresh copy of the
// unclustered disk.  Each epoch runs one cold assembly pass of every root
// with the affinity learner on the disk listener; between passes
// PlanLayout plans against the learned sketch and PageMover::ExecuteBatch
// applies up to kSwapBudget swaps.  The episode ends at the first pass
// within 1.1x of the intra-object reference (3,111 seek pages).  Its I/O is
// exact: the per-pass read seek pages repeat across episodes and runs.

#include "common.h"
#include "object/object_store.h"
#include "storage/recluster/affinity.h"
#include "storage/recluster/forwarding.h"
#include "storage/recluster/mover.h"
#include "storage/recluster/planner.h"
#include "timed_disk.h"
#include "wal/wal.h"

namespace perfbench {

using namespace cobra;  // NOLINT: benchmark brevity

namespace {

constexpr size_t kSwapBudget = 640;
constexpr size_t kMaxEpochs = 12;
constexpr size_t kLogPages = 65536;
constexpr double kConvergedWithin = 1.1;

struct Episode {
  Status status;
  std::vector<PassCounts> passes;
  std::vector<uint64_t> pass_ns;
  uint64_t plan_ns = 0;
  uint64_t mover_ns = 0;
  uint64_t plans = 0;
  uint64_t swaps = 0;
  int converged_epoch = -1;
  DiskStats disk;  // the whole episode: passes, mover and log writes
  BufferStats buffer;
  uint64_t unique_faulted = 0;
  AssemblyStats assembly;
  wal::WalStats wal;
  bool bijection = true;
  uint64_t busy_ns() const {
    uint64_t ns = plan_ns + mover_ns;
    for (uint64_t p : pass_ns) ns += p;
    return ns;
  }
};

// Logical <-> physical stays a permutation of the data extent.
bool IsBijection(const recluster::PageForwarding& forwarding, size_t pages) {
  std::vector<bool> seen(pages, false);
  for (PageId logical = 0; logical < pages; ++logical) {
    PageId physical = forwarding.ToPhysical(logical);
    if (physical >= pages || seen[physical] ||
        forwarding.ToLogical(physical) != logical) {
      return false;
    }
    seen[physical] = true;
  }
  return true;
}

// `pristine`: the unclustered disk as built, copied for every episode.
Episode RunEpisode(AcobDatabase* db, SimulatedDisk* pristine,
                   SpanRecorder* recorder, bool read_trace,
                   size_t max_epochs) {
  Episode e;
  std::unique_ptr<SimulatedDisk> disk = CopyDisk(pristine);
  recluster::PageForwarding forwarding;
  recluster::AffinitySketch sketch;
  recluster::AffinityDiskListener learner(&sketch, &forwarding);
  std::unique_ptr<TimedListener> timed_learner;
  std::unique_ptr<TimedDisk> timed;
  SimulatedDisk* top = disk.get();
  wal::WalOptions wal_options;
  wal_options.log_first_page = disk->page_span() + 128;
  wal_options.log_max_pages = kLogPages;
  if (recorder != nullptr) {
    timed_learner = std::make_unique<TimedListener>(&learner, recorder);
    timed = std::make_unique<TimedDisk>(disk.get(), recorder,
                                        TimedDisk::Side::kDeviceSide);
    timed->set_log_extent(wal_options.log_first_page, kLogPages);
    top = timed.get();
  }
  wal::WalManager wal(top, wal_options);
  wal.set_forwarding(&forwarding);
  e.status = wal.Recover();
  if (!e.status.ok()) return e;
  disk->ResetStats();
  disk->set_listener(timed_learner != nullptr
                         ? static_cast<DiskEventListener*>(timed_learner.get())
                         : &learner);
  for (size_t epoch = 0; epoch < max_epochs && e.status.ok(); ++epoch) {
    disk->ParkHead(0);
    disk->EnableReadTrace(read_trace);
    const DiskStats before = disk->stats();
    BufferManager pool(top, BufferOptions{kColdFrames, db->options.replacement,
                                          db->options.retry, 1});
    pool.set_forwarding(&forwarding);
    pool.set_write_gate(&wal);
    ObjectStore store(&pool, db->directory.get());
    PassCounts pass;
    const uint64_t start = NowNs();
    {
      SpanRecorder::Scope span(recorder, SpanName::kPass);
      AssemblyPlan plan = AssembleRoots(db->roots, &db->tmpl, &store, recorder);
      e.status = Drain(plan.root.get(), [&pass](const exec::Row& row) {
        if (row[0].kind() == exec::ValueKind::kObject) {
          pass.checksum += ObjectDigest(row[0].AsObject());
        }
      });
      const AssemblyStats stats = plan.assembly->stats();
      pass.rows = stats.complex_emitted;
      Add(&e.assembly, stats);
    }
    e.pass_ns.push_back(NowNs() - start);
    pass.disk = Delta(disk->stats(), before);
    pass.buffer = pool.stats();
    Add(&e.buffer, pass.buffer);
    e.unique_faulted += pool.unique_pages_faulted();
    if (read_trace) pass.read_trace = disk->read_trace();
    disk->EnableReadTrace(false);
    const uint64_t seeks = pass.disk.read_seek_pages;
    e.passes.push_back(std::move(pass));
    sketch.EndEpoch();
    if (!e.status.ok()) break;
    if (static_cast<double>(seeks) <=
        kConvergedWithin * static_cast<double>(kIntraObjectSeekPages)) {
      e.converged_epoch = static_cast<int>(epoch);
      break;
    }
    if (epoch + 1 == max_epochs) break;

    // Move between epochs, through the pool that just ran the pass (the
    // mover pins resident frames).
    const uint64_t plan_start = NowNs();
    recluster::LayoutPlan plan;
    {
      SpanRecorder::Scope span(recorder, SpanName::kPlanLayout);
      plan = recluster::PlanLayout(sketch, forwarding, 0, db->data_pages);
    }
    const uint64_t move_start = NowNs();
    recluster::PageMover mover(&pool, &forwarding);
    mover.set_wal(&wal);
    size_t cursor = 0;
    while (mover.stats().swaps_applied < kSwapBudget &&
           cursor < plan.swaps.size()) {
      Result<size_t> applied = size_t{0};
      {
        SpanRecorder::Scope span(recorder, SpanName::kMoverBatch);
        applied = mover.ExecuteBatch(plan, &cursor);
      }
      if (!applied.ok()) {
        e.status = applied.status();
        break;
      }
    }
    const uint64_t move_end = NowNs();
    e.plan_ns += move_start - plan_start;
    e.mover_ns += move_end - move_start;
    e.plans++;
    e.swaps += mover.stats().swaps_applied;
  }
  e.disk = disk->stats();
  e.wal = wal.stats();
  e.bijection = IsBijection(forwarding, db->data_pages);
  disk->set_listener(nullptr);
  return e;
}

struct Window {
  EndToEnd e2e;
  std::vector<double> pass_ms;
  std::vector<double> episode_rows_per_s;
  std::vector<uint64_t> first_seeks;  // per-pass read seek pages, episode 1
  uint64_t episodes = 0;
  uint64_t swaps = 0;
  uint64_t plans = 0;
  int converged_epoch = -1;
  DiskStats disk;
  BufferStats buffer;
  uint64_t unique_faulted = 0;
  AssemblyStats assembly;
  uint64_t wal_commits = 0;
  uint64_t log_pages = 0;
  uint64_t wal_images = 0;
  SpanTable spans{};
};

Window Measure(AcobDatabase* db, SimulatedDisk* pristine,
               SpanRecorder* recorder, Report* report) {
  Window w;
  if (recorder != nullptr) recorder->Start();
  const uint64_t deadline = NowNs() + kRunSeconds * 1'000'000'000ull;
  do {
    Episode e = RunEpisode(db, pristine, recorder, false, kMaxEpochs);
    report->attempted += e.passes.size();
    if (!e.status.ok()) {
      report->failed++;
      Fail(report, "episode failed: " + e.status.ToString());
      break;
    }
    std::vector<uint64_t> seeks;
    uint64_t rows = 0;
    for (const PassCounts& p : e.passes) {
      seeks.push_back(p.disk.read_seek_pages);
      rows += p.rows;
      if (p.rows != db->roots.size() ||
          p.checksum != e.passes.front().checksum) {
        Fail(report, "a pass delivered other rows than the first pass");
      }
    }
    if (e.converged_epoch < 0) Fail(report, "layout did not converge");
    if (!e.bijection) Fail(report, "forwarding table is not a bijection");
    if (w.episodes == 0) {
      w.first_seeks = seeks;
      w.converged_epoch = e.converged_epoch;
    } else if (seeks != w.first_seeks) {
      Fail(report, "per-pass seek pages differ between episodes");
    }
    w.episodes++;
    w.episode_rows_per_s.push_back(
        Ratio(static_cast<double>(rows), Seconds(e.busy_ns())));
    for (uint64_t ns : e.pass_ns) {
      w.pass_ms.push_back(static_cast<double>(ns) / 1e6);
    }
    w.e2e.rows += rows;
    w.swaps += e.swaps;
    w.plans += e.plans;
    Add(&w.disk, e.disk);
    Add(&w.buffer, e.buffer);
    w.unique_faulted += e.unique_faulted;
    Add(&w.assembly, e.assembly);
    w.wal_commits += e.wal.commits;
    w.log_pages += e.wal.log_pages_written;
    w.wal_images += e.wal.images_logged + e.wal.moves_logged;
  } while (NowNs() < deadline);
  if (recorder != nullptr) {
    recorder->Stop();
    w.spans = recorder->Totals();
  }
  const double rows = static_cast<double>(w.e2e.rows);
  w.e2e.queries = w.pass_ms.size();
  // Per episode: rows over pass, planner and mover time; the fastest one.
  w.e2e.rows_per_s = Quantile(w.episode_rows_per_s, 1.0);
  w.e2e.query_p50_ms = Quantile(w.pass_ms, 0.5);
  w.e2e.query_ms = Quantile(w.pass_ms, 0.0);
  w.e2e.seek_pages_per_row = Ratio(
      static_cast<double>(w.disk.read_seek_pages + w.disk.write_seek_pages),
      rows);
  w.e2e.disk_reads_per_row = Ratio(static_cast<double>(w.disk.reads), rows);
  return w;
}

}  // namespace

std::vector<PassCounts> ReclusterEpisode(AcobDatabase* db,
                                         SpanRecorder* recorder,
                                         bool read_trace, size_t max_epochs) {
  std::unique_ptr<SimulatedDisk> pristine = CopyDisk(db->disk.get());
  if (recorder != nullptr) recorder->Start();
  Episode e =
      RunEpisode(db, pristine.get(), recorder, read_trace, max_epochs);
  if (recorder != nullptr) recorder->Stop();
  return e.passes;
}

Report ReclusterEpochs(const RunOptions& options) {
  Report report;
  report.params.Set("num_complex_objects", kNumComplexObjects);
  report.params.Set("clustering", "unclustered");
  report.params.Set("scheduler", "elevator");
  report.params.Set("window", kWindow);
  report.params.Set("buffer_frames", kColdFrames);
  report.params.Set("threads", 1);
  report.params.Set("swap_budget_per_epoch", kSwapBudget);
  report.params.Set("max_epochs", kMaxEpochs);
  report.params.Set("converged_within", kConvergedWithin);
  report.params.Set("reference_seek_pages", kIntraObjectSeekPages);
  report.params.Set("wal_log_pages", kLogPages);

  std::vector<double> setup_s;
  std::unique_ptr<AcobDatabase> db;
  std::unique_ptr<SimulatedDisk> pristine;
  for (int i = 0; i < kBuildRepeats; ++i) {
    const uint64_t start = NowNs();
    db = BuildDatabase(Clustering::kUnclustered);
    if (db == nullptr) {
      Fail(&report, "database build failed");
      return report;
    }
    pristine = CopyDisk(db->disk.get());
    setup_s.push_back(Seconds(NowNs() - start));
  }

  Window plain = Measure(db.get(), pristine.get(), nullptr, &report);
  obs::JsonValue seeks = obs::JsonValue::MakeArray();
  for (uint64_t s : plain.first_seeks) seeks.Append(s);
  report.detail.Set("pass_read_seek_pages", std::move(seeks));
  report.detail.Set("episodes", plain.episodes);
  report.detail.Set("epochs_to_converge", plain.converged_epoch);
  if (!options.trace) {
    SetEndToEnd(&report, plain.e2e, setup_s);
    return report;
  }

  SpanRecorder recorder;
  Window traced = Measure(db.get(), pristine.get(), &recorder, &report);
  InitLayerMetrics(&report);
  auto& m = report.metrics;
  const SpanTable& s = traced.spans;
  const SpanTotals& learner = Get(s, SpanName::kLearner);
  SetMetric(&m, "recluster.learner_ns_per_read",
            Ratio(static_cast<double>(learner.total_ns),
                  static_cast<double>(learner.count)),
            "ns", learner.count);
  SetMetric(&m, "recluster.plan_ms_per_epoch",
            Ratio(static_cast<double>(Get(s, SpanName::kPlanLayout).total_ns),
                  static_cast<double>(traced.plans)) / 1e6,
            "ms", traced.plans);
  SetMetric(&m, "recluster.mover_us_per_swap",
            Ratio(static_cast<double>(Get(s, SpanName::kMoverBatch).total_ns),
                  static_cast<double>(traced.swaps)) / 1e3,
            "us", traced.swaps);
  SetMetric(&m, "recluster.swaps_applied",
            Ratio(static_cast<double>(traced.swaps),
                  static_cast<double>(traced.episodes)),
            "count", traced.episodes);
  SetMetric(&m, "recluster.epochs_to_converge",
            static_cast<double>(traced.converged_epoch), "count",
            traced.episodes);
  SetAssemblyLayers(&report, traced.assembly, s, traced.e2e.queries);
  SetPoolAndDiskLayers(&report, traced.buffer, traced.unique_faulted,
                       traced.disk, s, traced.e2e.rows);
  // Each applied swap commits one mover transaction.
  SetMetric(&m, "wal.log_bytes_per_commit",
            Ratio(static_cast<double>(traced.log_pages) * 1024.0,
                  static_cast<double>(traced.wal_commits)),
            "B", traced.wal_commits);
  SetMetric(&m, "wal.images_per_commit",
            Ratio(static_cast<double>(traced.wal_images),
                  static_cast<double>(traced.wal_commits)),
            "count", traced.wal_commits);
  SetOverhead(&report, plain.e2e, traced.e2e, /*by_latency=*/false);
  if (!options.spans_path.empty()) {
    (void)recorder.WriteJsonLines(options.spans_path);
  }
  report.detail.Set("spans_dropped", recorder.dropped());
  return report;
}

}  // namespace perfbench
