// cold_fig13: the paper's Fig. 13 configuration as a query plan.
//
// One thread, inter-object clustering, elevator scheduling, W = 50, a pool
// that holds the whole database (§6.3).  Every pass is cold: the disk head
// parks at page 0 and a fresh pool is opened, then the plan
//
//   FromOids(all roots) -> Assemble -> Filter(child0.field0 < 5000)
//                       -> Project(child0.child1.field3, child1.field2)
//
// runs to completion.  Each pass is one query.  Its I/O is exact: it must
// equal the fig13 golden (3,115 reads, 301,822 read seek pages).

#include "assembly/naive.h"
#include "common.h"
#include "exec/expr.h"
#include "exec/filter_project.h"
#include "object/object_store.h"
#include "timed_disk.h"

namespace perfbench {

using namespace cobra;  // NOLINT: benchmark brevity

namespace {

exec::ExprPtr Predicate() {
  return exec::Cmp(exec::CmpOp::kLt,
                   exec::ObjField(exec::ObjChild(exec::Col(0), 0), 0),
                   exec::LitInt(5000));
}

std::vector<exec::ExprPtr> Projection() {
  std::vector<exec::ExprPtr> exprs;
  exprs.push_back(exec::ObjField(
      exec::ObjChild(exec::ObjChild(exec::Col(0), 0), 1), 3));
  exprs.push_back(exec::ObjField(exec::ObjChild(exec::Col(0), 1), 2));
  return exprs;
}

int64_t IntOr(const exec::Value& v, int64_t fallback) {
  return v.kind() == exec::ValueKind::kInt ? v.AsInt() : fallback;
}

uint64_t RowDigest(const exec::Value& a, const exec::Value& b) {
  return Mix(static_cast<uint64_t>(IntOr(a, -1)) * 0x100000001b3ull ^
             static_cast<uint64_t>(IntOr(b, -1)));
}

struct PassResult {
  PassCounts counts;
  Status status;
  uint64_t ns = 0;
  uint64_t out_rows = 0;
  AssemblyStats assembly;
  uint64_t unique_faulted = 0;
};

PassResult RunPass(AcobDatabase* db, SpanRecorder* recorder,
                   bool read_trace) {
  PassResult r;
  SimulatedDisk* disk = db->disk.get();
  std::unique_ptr<TimedDisk> timed;
  if (recorder != nullptr) {
    timed = std::make_unique<TimedDisk>(disk, recorder,
                                        TimedDisk::Side::kDeviceSide);
  }
  disk->ResetStats();
  disk->ParkHead(0);
  disk->EnableReadTrace(read_trace);
  {
    BufferManager pool(timed != nullptr ? timed.get() : disk,
                       BufferOptions{kColdFrames, db->options.replacement,
                                     db->options.retry, 1});
    ObjectStore store(&pool, db->directory.get());
    const uint64_t start = NowNs();
    {
      SpanRecorder::Scope pass(recorder, SpanName::kPass);
      AssemblyPlan plan = AssembleRoots(db->roots, &db->tmpl, &store, recorder);
      std::unique_ptr<exec::Iterator> root = Traced(
          std::make_unique<exec::Filter>(std::move(plan.root), Predicate()),
          recorder, SpanName::kOpFilter);
      root = Traced(std::make_unique<exec::Project>(std::move(root),
                                                    Projection()),
                    recorder, SpanName::kOpProject);
      r.status = Drain(root.get(), [&r](const exec::Row& row) {
        r.counts.checksum += RowDigest(row[0], row[1]);
        r.out_rows++;
      });
      r.assembly = plan.assembly->stats();
    }
    r.ns = NowNs() - start;
    r.counts.rows = r.assembly.complex_emitted;
    r.counts.buffer = pool.stats();
    r.unique_faulted = pool.unique_pages_faulted();
  }
  r.counts.disk = disk->stats();
  if (read_trace) {
    r.counts.read_trace = disk->read_trace();
    disk->EnableReadTrace(false);
  }
  return r;
}

struct Reference {
  uint64_t out_rows = 0;
  uint64_t checksum = 0;
};

// The oracle: NaiveAssembler plus the same predicate and projection.
Result<Reference> NaiveReference(AcobDatabase* db) {
  Reference ref;
  NaiveAssembler naive(db->store.get(), &db->tmpl);
  ObjectArena arena;
  exec::ExprPtr predicate = Predicate();
  std::vector<exec::ExprPtr> projection = Projection();
  for (Oid root : db->roots) {
    COBRA_ASSIGN_OR_RETURN(AssembledObject * obj,
                           naive.AssembleOne(root, &arena));
    if (obj == nullptr) return Status::Internal("naive pass rejected a root");
    exec::Row row{exec::Value::Obj(obj)};
    COBRA_ASSIGN_OR_RETURN(bool keep, exec::EvalPredicate(*predicate, row));
    if (!keep) continue;
    COBRA_ASSIGN_OR_RETURN(exec::Value a, projection[0]->Eval(row));
    COBRA_ASSIGN_OR_RETURN(exec::Value b, projection[1]->Eval(row));
    ref.checksum += RowDigest(a, b);
    ref.out_rows++;
  }
  return ref;
}

struct Window {
  EndToEnd e2e;
  std::vector<double> pass_ms;
  DiskStats disk;
  BufferStats buffer;
  uint64_t unique_faulted = 0;
  AssemblyStats assembly;
  SpanTable spans{};
};

Window Measure(AcobDatabase* db, const Reference& ref, SpanRecorder* recorder,
               Report* report) {
  Window w;
  if (recorder != nullptr) recorder->Start();
  const uint64_t deadline = NowNs() + kRunSeconds * 1'000'000'000ull;
  do {
    PassResult pass = RunPass(db, recorder, /*read_trace=*/false);
    report->attempted++;
    if (!pass.status.ok()) {
      report->failed++;
      Fail(report, "pass failed: " + pass.status.ToString());
      continue;
    }
    if (pass.counts.disk.reads != kFig13Reads ||
        pass.counts.disk.read_seek_pages != kFig13ReadSeekPages ||
        pass.counts.disk.writes != 0) {
      Fail(report, "pass I/O differs from the fig13 golden: reads=" +
                       std::to_string(pass.counts.disk.reads) +
                       " read_seek_pages=" +
                       std::to_string(pass.counts.disk.read_seek_pages));
    }
    if (pass.counts.rows != db->roots.size() || pass.out_rows != ref.out_rows ||
        pass.counts.checksum != ref.checksum) {
      Fail(report, "pass output differs from the NaiveAssembler oracle");
    }
    w.pass_ms.push_back(static_cast<double>(pass.ns) / 1e6);
    w.e2e.rows += pass.counts.rows;
    Add(&w.disk, pass.counts.disk);
    Add(&w.buffer, pass.counts.buffer);
    w.unique_faulted += pass.unique_faulted;
    Add(&w.assembly, pass.assembly);
  } while (NowNs() < deadline);
  if (recorder != nullptr) {
    recorder->Stop();
    w.spans = recorder->Totals();
  }
  const double rows = static_cast<double>(w.e2e.rows);
  w.e2e.queries = w.pass_ms.size();
  w.e2e.query_p50_ms = Quantile(w.pass_ms, 0.5);
  w.e2e.query_ms = Quantile(w.pass_ms, 0.0);
  // Rows of one pass over the fastest pass.
  w.e2e.rows_per_s = Ratio(static_cast<double>(db->roots.size()) * 1e3,
                           w.e2e.query_ms);
  w.e2e.seek_pages_per_row = Ratio(
      static_cast<double>(w.disk.read_seek_pages + w.disk.write_seek_pages),
      rows);
  w.e2e.disk_reads_per_row = Ratio(static_cast<double>(w.disk.reads), rows);
  return w;
}

}  // namespace

std::unique_ptr<AcobDatabase> BuildDatabase(Clustering clustering) {
  AcobOptions options;
  options.num_complex_objects = kNumComplexObjects;
  options.clustering = clustering;
  options.seed = kDatabaseSeed;
  options.buffer_frames = kColdFrames;
  auto db = BuildAcobDatabase(options);
  if (!db.ok()) return nullptr;
  return std::move(db).value();
}

PassCounts Fig13Pass(AcobDatabase* db, SpanRecorder* recorder,
                     bool read_trace) {
  return RunPass(db, recorder, read_trace).counts;
}

Report ColdFig13(const RunOptions& options) {
  Report report;
  report.params.Set("num_complex_objects", kNumComplexObjects);
  report.params.Set("clustering", "inter-object");
  report.params.Set("scheduler", "elevator");
  report.params.Set("window", kWindow);
  report.params.Set("buffer_frames", kColdFrames);
  report.params.Set("threads", 1);
  report.params.Set("plan",
                    "FromOids(all roots) -> Assemble -> "
                    "Filter(child0.field0 < 5000) -> "
                    "Project(child0.child1.field3, child1.field2)");

  // Setup: build the database, several times for a steady median.
  std::vector<double> setup_s;
  std::unique_ptr<AcobDatabase> db;
  for (int i = 0; i < kBuildRepeats; ++i) {
    const uint64_t start = NowNs();
    db = BuildDatabase(Clustering::kInterObject);
    setup_s.push_back(Seconds(NowNs() - start));
    if (db == nullptr) {
      Fail(&report, "database build failed");
      return report;
    }
  }
  Result<Reference> ref = NaiveReference(db.get());
  if (!ref.ok()) {
    Fail(&report, "oracle failed: " + ref.status().ToString());
    return report;
  }
  report.detail.Set("oracle_rows_after_filter", ref->out_rows);

  Window plain = Measure(db.get(), *ref, nullptr, &report);
  report.detail.Set("passes", plain.pass_ms.size());
  if (!options.trace) {
    SetEndToEnd(&report, plain.e2e, setup_s);
    return report;
  }

  SpanRecorder recorder;
  Window traced = Measure(db.get(), *ref, &recorder, &report);
  InitLayerMetrics(&report);
  const SpanTable& s = traced.spans;
  SetMetric(&report.metrics, "exec.self_us_per_row",
            Ratio(static_cast<double>(Get(s, SpanName::kOpProject).self_ns +
                                      Get(s, SpanName::kOpFilter).self_ns),
                  static_cast<double>(traced.e2e.rows)) / 1e3,
            "us", traced.e2e.rows);
  SetAssemblyLayers(&report, traced.assembly, s, traced.e2e.queries);
  SetPoolAndDiskLayers(&report, traced.buffer, traced.unique_faulted,
                       traced.disk, s, traced.e2e.rows);
  SetOverhead(&report, plain.e2e, traced.e2e, /*by_latency=*/false);
  if (!options.spans_path.empty()) {
    (void)recorder.WriteJsonLines(options.spans_path);
  }
  report.detail.Set("spans_dropped", recorder.dropped());
  return report;
}

}  // namespace perfbench
