// Engine microbenchmarks (google-benchmark): the substrate costs underneath
// the paper's experiments — buffer hits (the §4 footnote's "even buffer hits
// can be expensive" point), object codec, directory lookups, B-tree probes,
// iterator overhead, and assembly throughput per object.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "assembly/assembly_operator.h"
#include "bench_util.h"
#include "buffer/buffer_manager.h"
#include "exec/filter_project.h"
#include "exec/scan.h"
#include "exec/sort_limit.h"
#include "file/heap_file.h"
#include "index/btree.h"
#include "object/directory.h"
#include "object/object_store.h"
#include "exec/plan.h"
#include "obs/clock.h"
#include "obs/json.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "storage/disk.h"
#include "workload/acob.h"

namespace cobra {
namespace {

void BM_BufferHit(benchmark::State& state) {
  SimulatedDisk disk;
  BufferManager buffer(&disk, BufferOptions{.num_frames = 16});
  {
    auto guard = buffer.CreatePage(0);
    if (!guard.ok()) state.SkipWithError("create failed");
  }
  for (auto _ : state) {
    auto guard = buffer.FetchPage(0);
    benchmark::DoNotOptimize(guard->data().data());
  }
}
BENCHMARK(BM_BufferHit);

void BM_ObjectCodecRoundTrip(benchmark::State& state) {
  ObjectData obj;
  obj.oid = 7;
  obj.type_id = 3;
  obj.fields = {1, 2, 3, 4};
  obj.refs.assign(8, 99);
  std::vector<std::byte> buf(obj.SerializedSize());
  for (auto _ : state) {
    obj.SerializeTo(buf.data());
    auto back = ObjectData::Deserialize(buf);
    benchmark::DoNotOptimize(back.ok());
  }
}
BENCHMARK(BM_ObjectCodecRoundTrip);

void BM_DirectoryLookup(benchmark::State& state) {
  HashDirectory dir;
  for (Oid oid = 1; oid <= 100000; ++oid) {
    (void)dir.Put(oid, RecordId{oid / 9, static_cast<uint16_t>(oid % 9)});
  }
  Oid probe = 1;
  for (auto _ : state) {
    auto loc = dir.Lookup(probe);
    benchmark::DoNotOptimize(loc.ok());
    probe = probe % 100000 + 1;
  }
}
BENCHMARK(BM_DirectoryLookup);

void BM_BTreeProbe(benchmark::State& state) {
  SimulatedDisk disk;
  BufferManager buffer(&disk, BufferOptions{.num_frames = 4096});
  PageAllocator allocator;
  auto tree = BTree::Create(&buffer, &allocator);
  if (!tree.ok()) {
    state.SkipWithError("create failed");
    return;
  }
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  for (uint64_t k = 0; k < n; ++k) {
    (void)tree->Put(k, k);
  }
  uint64_t probe = 0;
  for (auto _ : state) {
    auto v = tree->Get(probe);
    benchmark::DoNotOptimize(v.ok());
    probe = (probe + 7919) % n;
  }
}
BENCHMARK(BM_BTreeProbe)->Arg(1000)->Arg(100000);

void BM_ObjectStoreGet(benchmark::State& state) {
  SimulatedDisk disk;
  BufferManager buffer(&disk, BufferOptions{.num_frames = 4096});
  HashDirectory dir;
  ObjectStore store(&buffer, &dir);
  HeapFile file(&buffer, 0, 2048);
  std::vector<Oid> oids;
  for (int i = 0; i < 10000; ++i) {
    ObjectData obj;
    obj.type_id = 1;
    obj.fields = {i, 0, 0, 0};
    obj.refs.assign(8, kInvalidOid);
    auto oid = store.Insert(obj, &file);
    if (!oid.ok()) {
      state.SkipWithError("insert failed");
      return;
    }
    oids.push_back(*oid);
  }
  size_t i = 0;
  for (auto _ : state) {
    auto obj = store.Get(oids[i]);
    benchmark::DoNotOptimize(obj.ok());
    i = (i + 37) % oids.size();
  }
}
BENCHMARK(BM_ObjectStoreGet);

void BM_IteratorPipeline(benchmark::State& state) {
  // open/next/close overhead of a 3-operator Volcano pipeline over 1k rows.
  std::vector<exec::Row> rows;
  for (int i = 0; i < 1000; ++i) {
    rows.push_back(exec::Row{exec::Value::Int(i)});
  }
  for (auto _ : state) {
    auto scan = std::make_unique<exec::VectorScan>(rows);
    auto filter = std::make_unique<exec::Filter>(
        std::move(scan),
        exec::Cmp(exec::CmpOp::kLt, exec::Col(0), exec::LitInt(500)));
    exec::Limit limit(std::move(filter), 400);
    auto out = exec::DrainAll(&limit);
    benchmark::DoNotOptimize(out.ok());
  }
}
BENCHMARK(BM_IteratorPipeline);

// Telemetry overhead when *disabled*: the same 3-operator pipeline with and
// without ProfiledIterator wrappers.  The unwrapped run is the null-check
// baseline the profiled variant is compared against.
void BM_IteratorPipelineProfiled(benchmark::State& state) {
  std::vector<exec::Row> rows;
  for (int i = 0; i < 1000; ++i) {
    rows.push_back(exec::Row{exec::Value::Int(i)});
  }
  for (auto _ : state) {
    auto scan = std::make_unique<exec::VectorScan>(rows);
    auto filter = std::make_unique<exec::Filter>(
        std::move(scan),
        exec::Cmp(exec::CmpOp::kLt, exec::Col(0), exec::LitInt(500)));
    auto limit =
        std::make_unique<exec::Limit>(std::move(filter), 400);
    obs::ProfiledIterator profiled(std::move(limit),
                                   obs::SteadyClock::Default());
    auto out = exec::DrainAll(&profiled);
    benchmark::DoNotOptimize(out.ok());
  }
}
BENCHMARK(BM_IteratorPipelineProfiled);

// Assembly with no observer attached vs. a trace recorder: the delta is the
// cost of the per-event null check plus recording the event.  With
// observer == nullptr the Notify path is a single pointer test.
void BM_AssemblyObserverOverhead(benchmark::State& state) {
  const bool observed = state.range(0) != 0;
  AcobOptions options;
  options.num_complex_objects = 500;
  options.clustering = Clustering::kIntraObject;  // minimal I/O noise
  auto db = BuildAcobDatabase(options);
  if (!db.ok()) {
    state.SkipWithError("build failed");
    return;
  }
  obs::TraceRecorder recorder;
  for (auto _ : state) {
    state.PauseTiming();
    recorder.Clear();
    if (auto s = (*db)->ColdRestart(); !s.ok()) {
      state.SkipWithError("restart failed");
      return;
    }
    std::vector<exec::Row> roots;
    for (Oid oid : (*db)->roots) {
      roots.push_back(exec::Row{exec::Value::Ref(oid)});
    }
    state.ResumeTiming();
    AssemblyOperator op(
        std::make_unique<exec::VectorScan>(std::move(roots)), &(*db)->tmpl,
        (*db)->store.get(),
        AssemblyOptions{.window_size = 50,
                        .scheduler = SchedulerKind::kElevator});
    if (observed) op.set_observer(&recorder);
    if (!op.Open().ok()) {
      state.SkipWithError("open failed");
      return;
    }
    exec::RowBatch batch;
    for (;;) {
      auto n = op.NextBatch(&batch);
      if (!n.ok()) {
        state.SkipWithError("next failed");
        return;
      }
      if (*n == 0) break;
    }
    (void)op.Close();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(options.num_complex_objects));
}
BENCHMARK(BM_AssemblyObserverOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_AssemblyPerComplexObject(benchmark::State& state) {
  AcobOptions options;
  options.num_complex_objects = 500;
  options.clustering = static_cast<Clustering>(state.range(0));
  auto db = BuildAcobDatabase(options);
  if (!db.ok()) {
    state.SkipWithError("build failed");
    return;
  }
  for (auto _ : state) {
    state.PauseTiming();
    if (auto s = (*db)->ColdRestart(); !s.ok()) {
      state.SkipWithError("restart failed");
      return;
    }
    std::vector<exec::Row> roots;
    for (Oid oid : (*db)->roots) {
      roots.push_back(exec::Row{exec::Value::Ref(oid)});
    }
    state.ResumeTiming();
    AssemblyOperator op(
        std::make_unique<exec::VectorScan>(std::move(roots)), &(*db)->tmpl,
        (*db)->store.get(),
        AssemblyOptions{.window_size = 50,
                        .scheduler = SchedulerKind::kElevator});
    if (!op.Open().ok()) {
      state.SkipWithError("open failed");
      return;
    }
    exec::RowBatch batch;
    for (;;) {
      auto n = op.NextBatch(&batch);
      if (!n.ok()) {
        state.SkipWithError("next failed");
        return;
      }
      if (*n == 0) break;
    }
    (void)op.Close();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(options.num_complex_objects));
}
BENCHMARK(BM_AssemblyPerComplexObject)
    ->Arg(static_cast<int>(Clustering::kUnclustered))
    ->Arg(static_cast<int>(Clustering::kInterObject))
    ->Arg(static_cast<int>(Clustering::kIntraObject))
    ->Unit(benchmark::kMillisecond);

}  // namespace

// --- batch-size sweep ---------------------------------------------------
//
// The headline number for the batched execution protocol: rows/sec of a
// Scan -> Filter -> Aggregate pipeline as the RowBatch capacity sweeps from
// 1 (row-at-a-time framing overhead on every row) to 4096.  Each point is
// measured twice: the bare pipeline, and the same plan with per-operator
// profiling enabled (the EXPLAIN ANALYZE / production-telemetry
// configuration).  Profiling pays two clock reads per operator per
// NextBatch call, so batch=1 reproduces the old engine's per-row
// instrumentation cost and the sweep shows both overheads amortizing by
// ~batch-size.  Run with `--sweep [--sweep-rows=N] [--json path]`; without
// --sweep the binary runs the google-benchmark suite as before.

struct SweepRun {
  size_t batch_size = 0;
  uint64_t elapsed_ns = 0;
  double rows_per_sec = 0;
  int64_t result_count = 0;
};

SweepRun RunSweepPoint(const std::vector<exec::Row>& base_rows,
                       size_t batch_size, bool profiled) {
  const size_t num_rows = base_rows.size();
  obs::SteadyClock clock;
  exec::PlanBuilder builder =
      exec::PlanBuilder::FromRows(base_rows).BatchSize(batch_size);
  if (profiled) builder = std::move(builder).Profile(&clock);
  auto plan = std::move(builder)
                  .Filter(exec::Cmp(exec::CmpOp::kLt, exec::Col(0),
                                    exec::LitInt(static_cast<int64_t>(
                                        num_rows / 2))))
                  .Aggregate({}, [] {
                    std::vector<exec::AggSpec> aggs;
                    aggs.push_back({exec::AggFn::kCount, nullptr});
                    return aggs;
                  }())
                  .Build();
  auto start = std::chrono::steady_clock::now();
  auto out = exec::DrainAll(plan.get(), batch_size);
  auto elapsed = std::chrono::steady_clock::now() - start;
  if (!out.ok() || out->size() != 1 || (*out)[0].size() != 1) {
    std::fprintf(stderr, "sweep pipeline failed at batch_size=%zu\n",
                 batch_size);
    std::exit(1);
  }
  SweepRun run;
  run.batch_size = batch_size;
  run.elapsed_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  run.rows_per_sec = run.elapsed_ns == 0
                         ? 0
                         : static_cast<double>(num_rows) * 1e9 /
                               static_cast<double>(run.elapsed_ns);
  run.result_count = (*out)[0][0].AsInt();
  return run;
}

int RunSweep(int argc, char** argv) {
  size_t num_rows = 1000000;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--sweep-rows" && i + 1 < argc) {
      num_rows = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg.rfind("--sweep-rows=", 0) == 0) {
      num_rows = std::strtoull(arg.c_str() + 13, nullptr, 10);
    }
  }
  if (num_rows < 2) num_rows = 2;
  bench::JsonReporter reporter("micro_engine_batch_sweep", argc, argv);
  reporter.Set("num_rows", obs::JsonValue(static_cast<int64_t>(num_rows)));

  std::vector<exec::Row> base_rows;
  base_rows.reserve(num_rows);
  for (size_t i = 0; i < num_rows; ++i) {
    base_rows.push_back(exec::Row{exec::Value::Int(static_cast<int64_t>(i))});
  }

  std::printf(
      "Batch-size sweep: VectorScan -> Filter(col0 < N/2) -> COUNT(*) over "
      "%zu rows\n"
      "  engine   = bare pipeline\n"
      "  analyzed = per-operator profiling on (EXPLAIN ANALYZE config)\n\n",
      num_rows);
  std::printf("%12s %14s %9s %16s %9s\n", "batch_size", "engine_rows/s",
              "speedup", "analyzed_rows/s", "speedup");
  double base_engine = 0;
  double base_analyzed = 0;
  double speedup_1024 = 0;
  for (size_t batch_size : {1, 4, 16, 64, 256, 1024, 4096}) {
    // Warm-up pass, then the measured pass.
    (void)RunSweepPoint(base_rows, batch_size, /*profiled=*/false);
    SweepRun engine = RunSweepPoint(base_rows, batch_size, false);
    (void)RunSweepPoint(base_rows, batch_size, /*profiled=*/true);
    SweepRun analyzed = RunSweepPoint(base_rows, batch_size, true);
    if (batch_size == 1) {
      base_engine = engine.rows_per_sec;
      base_analyzed = analyzed.rows_per_sec;
    }
    double engine_speedup =
        base_engine == 0 ? 0 : engine.rows_per_sec / base_engine;
    double analyzed_speedup =
        base_analyzed == 0 ? 0 : analyzed.rows_per_sec / base_analyzed;
    if (batch_size == 1024) speedup_1024 = analyzed_speedup;
    std::printf("%12zu %14.0f %8.2fx %16.0f %8.2fx\n", batch_size,
                engine.rows_per_sec, engine_speedup, analyzed.rows_per_sec,
                analyzed_speedup);
    obs::JsonValue json = obs::JsonValue::MakeObject();
    json.Set("label", "batch=" + std::to_string(batch_size));
    json.Set("batch_size", static_cast<int64_t>(batch_size));
    json.Set("rows", static_cast<int64_t>(num_rows));
    json.Set("result_count", engine.result_count);
    json.Set("elapsed_ns", static_cast<int64_t>(engine.elapsed_ns));
    json.Set("rows_per_sec", engine.rows_per_sec);
    json.Set("speedup_vs_batch1", engine_speedup);
    json.Set("analyzed_elapsed_ns",
             static_cast<int64_t>(analyzed.elapsed_ns));
    json.Set("analyzed_rows_per_sec", analyzed.rows_per_sec);
    json.Set("analyzed_speedup_vs_batch1", analyzed_speedup);
    reporter.AddRaw(std::move(json));
  }
  std::printf(
      "\nheadline: batch_size=1024 runs %.1fx the rows/sec of batch_size=1 "
      "(profiled Scan -> Filter -> Aggregate plan)\n",
      speedup_1024);
  return reporter.Finish();
}

// --- vectored-I/O run-length sweep ---------------------------------------
//
// Measures the payoff of coalesced page transfers: the fig13 inter-object
// elevator workload (window 50) re-run at max_run_pages ("io_batch")
// 1, 2, 4, 8, 16 and 32, reporting total read calls, total seek pages and
// pages per read call.  io_batch=1 is the historical single-page regime and
// reproduces the seed golden numbers exactly.  Run with
// `--sweep-io [--sweep-size=N] [--json path]`.

int RunIoSweep(int argc, char** argv) {
  size_t size = 1000;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--sweep-size" && i + 1 < argc) {
      size = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg.rfind("--sweep-size=", 0) == 0) {
      size = std::strtoull(arg.c_str() + 13, nullptr, 10);
    }
  }
  if (size == 0) size = 1;
  bench::JsonReporter reporter("micro_engine_io_sweep", argc, argv);
  reporter.Set("num_complex_objects", size);
  reporter.Set("clustering", "inter-object");
  reporter.Set("scheduler", "elevator");
  reporter.Set("window_size", 50);

  AcobOptions options;
  options.num_complex_objects = size;
  options.clustering = Clustering::kInterObject;
  options.seed = 42;
  auto db = bench::MustBuild(options);

  std::printf(
      "Vectored-I/O sweep: inter-object clustering, elevator, window 50, "
      "N=%zu\n\n",
      size);
  std::printf("%9s %9s %12s %11s %12s\n", "io_batch", "reads", "seek pages",
              "pages/read", "runs>=2");
  for (size_t io_batch : {1, 2, 4, 8, 16, 32}) {
    AssemblyOptions aopts;
    aopts.window_size = 50;
    aopts.scheduler = SchedulerKind::kElevator;
    aopts.io_batch_pages = io_batch;
    bench::RunResult result = bench::RunAssembly(db.get(), aopts);
    double pages_per_read =
        result.disk.reads == 0
            ? 0
            : static_cast<double>(result.disk.pages_read) /
                  static_cast<double>(result.disk.reads);
    std::printf("%9zu %9llu %12llu %11.2f %12llu\n", io_batch,
                static_cast<unsigned long long>(result.disk.reads),
                static_cast<unsigned long long>(result.disk.read_seek_pages),
                pages_per_read,
                static_cast<unsigned long long>(result.disk.coalesced_runs));
    obs::JsonValue extra = obs::JsonValue::MakeObject();
    extra.Set("io_batch", static_cast<int64_t>(io_batch));
    extra.Set("pages_per_read", pages_per_read);
    reporter.AddRun("io_batch=" + std::to_string(io_batch), result,
                    std::move(extra));
  }
  std::printf(
      "\nshape check: read calls fall and pages/read rises with io_batch "
      "while total seek pages never increases (gap pages ride along on arm "
      "travel the sweep pays anyway).\n");
  return reporter.Finish();
}

}  // namespace cobra

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--sweep") {
      return cobra::RunSweep(argc, argv);
    }
    if (std::string(argv[i]) == "--sweep-io") {
      return cobra::RunIoSweep(argc, argv);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
