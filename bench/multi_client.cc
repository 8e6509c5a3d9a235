// Multi-client assembly service: aggregate seek cost vs. client count.
//
// The paper's elevator scheduler orders one query's fetches by disk
// position (§6.3).  This bench measures what happens when K clients run
// that query *concurrently* against one shared storage stack: a sharded
// BufferManager over an AsyncDisk whose I/O thread merges all clients'
// reads into one cross-client elevator sweep (storage/async_disk.h), driven
// by a QueryService worker pool (service/query_service.h).
//
// For each clustering policy the database's roots are split into K
// contiguous slices, one per client, and two configurations run:
//
//   merged       — all K clients concurrently through the shared service;
//   independent  — the same K slices sequentially, each against a fresh
//                  cold buffer pool over the raw disk (K separate
//                  single-client databases sharing nothing but the data).
//
// The headline comparison is aggregate seeks per read: the merged sweep
// should beat K independent sweeps because the arm services neighboring
// requests from different clients in one pass.  With --clients 1 the merged
// path degenerates to exactly the historical single-client run (AsyncDisk
// at queue depth 1 is behavior-preserving, a 1-shard pool is the historical
// pool), so its I/O metrics are bit-identical to the fig13 window-50
// elevator numbers — tools/bench_golden.py crosschecks that in CI.
//
// Flags: --clients K   concurrent clients            (default 1)
//        --workers W   service worker threads        (default = clients)
//        --shards S    buffer pool lock stripes      (default 1 if K==1,
//                                                     else 4*W)
//        --prefetch D  scheduler read-ahead depth    (default 0)
//        --size N      complex objects per database  (default 1000)
//        --io-batch B  vectored-I/O run length       (default 1; also sets
//                                                     the AsyncDisk coalescer)
//        --json PATH   machine-readable output
//        --slow-ns T   slow-query threshold in ns    (default 0 = off)
//        --trace PATH  Chrome trace of the first clustering's merged run
//        --flight PATH flight-recorder + slow-report dump (first clustering)
//        --latency-golden   assert the latency histograms: one sample per
//                           client, monotone quantiles, and the exact
//                           total == queue + io + cpu decomposition
//
// Every merged run with --prefetch 0 self-checks the conservation
// invariant: the service's attributed per-query sums must equal the shared
// disk/buffer counter deltas exactly (obs/query_context.h).

#include <chrono>
#include <cstdio>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "service/query_service.h"
#include "storage/async_disk.h"

namespace {

using namespace cobra;         // NOLINT: benchmark brevity
using namespace cobra::bench;  // NOLINT

struct Flags {
  size_t clients = 1;
  size_t workers = 0;  // 0 = clients
  size_t shards = 0;   // 0 = auto
  size_t prefetch = 0;
  size_t size = 1000;
  size_t io_batch = 1;
  uint64_t slow_ns = 0;
  std::string trace_path;
  std::string flight_path;
  bool latency_golden = false;
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  auto value_of = [&](const std::string& arg, const char* name,
                      int* i) -> const char* {
    std::string prefix = std::string(name) + "=";
    if (arg == name && *i + 1 < argc) return argv[++*i];
    if (arg.rfind(prefix, 0) == 0) return arg.c_str() + prefix.size();
    return nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (const char* v = value_of(arg, "--clients", &i)) {
      flags.clients = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--workers", &i)) {
      flags.workers = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--shards", &i)) {
      flags.shards = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--prefetch", &i)) {
      flags.prefetch = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--size", &i)) {
      flags.size = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--io-batch", &i)) {
      flags.io_batch = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--slow-ns", &i)) {
      flags.slow_ns = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--trace", &i)) {
      flags.trace_path = v;
    } else if (const char* v = value_of(arg, "--flight", &i)) {
      flags.flight_path = v;
    } else if (arg == "--latency-golden") {
      flags.latency_golden = true;
    }
  }
  if (flags.clients == 0) flags.clients = 1;
  if (flags.io_batch == 0) flags.io_batch = 1;
  if (flags.size == 0) flags.size = 1;
  if (flags.workers == 0) flags.workers = flags.clients;
  if (flags.shards == 0) {
    flags.shards = flags.clients == 1 ? 1 : 4 * flags.workers;
  }
  return flags;
}

// Contiguous root slice of client `i` of `k`.
std::vector<Oid> RootSlice(const std::vector<Oid>& roots, size_t i, size_t k) {
  size_t n = roots.size();
  size_t begin = n * i / k;
  size_t end = n * (i + 1) / k;
  return std::vector<Oid>(roots.begin() + begin, roots.begin() + end);
}

void Accumulate(AssemblyStats* total, const AssemblyStats& part) {
  total->objects_fetched += part.objects_fetched;
  total->shared_hits += part.shared_hits;
  total->prebuilt_hits += part.prebuilt_hits;
  total->refs_resolved += part.refs_resolved;
  total->complex_admitted += part.complex_admitted;
  total->complex_emitted += part.complex_emitted;
  total->complex_aborted += part.complex_aborted;
  total->objects_dropped += part.objects_dropped;
  total->max_window_pages =
      std::max(total->max_window_pages, part.max_window_pages);
  total->max_pool_size = std::max(total->max_pool_size, part.max_pool_size);
}

struct MergedRun {
  RunMetrics metrics;
  size_t refetched_pages = 0;
  uint64_t elapsed_ns = 0;
  uint64_t rows = 0;
  AsyncDiskStats async;
  // Attribution rollup: the service snapshot's per-client totals, summed.
  obs::QueryIoSnapshot attributed;
  LogHistogram latency_total;
  LogHistogram latency_queue;
  LogHistogram latency_io;
  LogHistogram latency_cpu;
  // Per-spindle breakdown, one entry per spindle.
  std::vector<DiskStats> spindle_disk;
  // Assembled-object cache outcomes (all zero with the cache off).
  std::string cache_policy = "off";
  cache::CacheStats cache;
};

// All K clients concurrently through one QueryService over AsyncDisk +
// sharded pool.  When `capture` is true the run also leaves the Chrome
// trace / flight-recorder files requested by --trace / --flight.
MergedRun RunMerged(AcobDatabase* db, const Flags& flags,
                    const CacheFlags& cache_flags, bool capture) {
  if (auto s = db->ColdRestart(); !s.ok()) {
    std::fprintf(stderr, "cold restart failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  AssemblyOptions aopts;
  aopts.window_size = 50;
  aopts.scheduler = SchedulerKind::kElevator;
  aopts.prefetch_depth = flags.prefetch;
  aopts.io_batch_pages = flags.io_batch;

  MergedRun run;
  // Declaration order fixes teardown order: the pool flushes through the
  // async front-end, so it must die before the I/O thread does.
  AsyncDisk async(db->disk.get());
  async.set_max_run_pages(flags.io_batch);
  BufferManager pool(&async,
                     BufferOptions{db->options.buffer_frames,
                                   db->options.replacement, db->options.retry,
                                   flags.shards});
  db->disk->EnableReadTrace(true);
  // Null unless --object-cache was given: the off path must not construct
  // the cache at all.  Declared before the service scope — queries pin
  // entries only while executing, but stats are read after Drain().
  std::unique_ptr<cache::ObjectCache> object_cache = cache_flags.MakeCache();
  // Optional Chrome trace of this run: disk events fire on the I/O thread
  // with the originating query's context current, so every slice carries a
  // query-id tag.  The recorder locks internally, so the workers and the
  // I/O threads record into it directly.
  std::unique_ptr<obs::TraceRecorder> recorder;
  if (capture && !flags.trace_path.empty()) {
    recorder = std::make_unique<obs::TraceRecorder>();
    db->disk->set_listener(recorder.get());
    pool.set_listener(recorder.get());
  }
  auto start = std::chrono::steady_clock::now();
  {
    service::ServiceOptions sopts;
    sopts.num_workers = flags.workers;
    sopts.async_disk = &async;
    sopts.slow_query_ns = flags.slow_ns;
    sopts.cache = object_cache.get();
    service::QueryService service(&pool, db->directory.get(), sopts);
    std::vector<std::future<service::QueryResult>> futures;
    futures.reserve(flags.clients);
    for (size_t c = 0; c < flags.clients; ++c) {
      service::QueryJob job;
      job.client = "c" + std::to_string(c);
      job.tmpl = &db->tmpl;
      job.roots = RootSlice(db->roots, c, flags.clients);
      job.assembly = aopts;
      futures.push_back(service.Submit(std::move(job)));
    }
    for (auto& future : futures) {
      service::QueryResult result = future.get();
      if (!result.status.ok()) {
        std::fprintf(stderr, "client %s failed: %s\n", result.client.c_str(),
                     result.status.ToString().c_str());
        std::exit(1);
      }
      if (result.total_ns !=
          result.queue_ns + result.io_ns + result.cpu_ns) {
        std::fprintf(stderr,
                     "latency decomposition broken for query %llu\n",
                     static_cast<unsigned long long>(result.query_id));
        std::exit(1);
      }
      run.rows += result.rows;
      Accumulate(&run.metrics.assembly, result.assembly);
    }
    service.Drain();
    for (const auto& [client, totals] : service.TakeSnapshot().clients) {
      run.attributed += totals.io;
      run.latency_total.Merge(totals.total_ns);
      run.latency_queue.Merge(totals.queue_ns);
      run.latency_io.Merge(totals.io_ns);
      run.latency_cpu.Merge(totals.cpu_ns);
    }
    if (capture && !flags.flight_path.empty()) {
      obs::JsonValue dump = obs::JsonValue::MakeObject();
      dump.Set("flight", service.flight_recorder().ToJson());
      obs::JsonValue reports = obs::JsonValue::MakeArray();
      for (const obs::SlowQueryReport& report : service.slow_reports()) {
        reports.Append(report.ToJson());
      }
      dump.Set("slow_reports", std::move(reports));
      if (auto s = obs::WriteJsonFile(flags.flight_path, dump); !s.ok()) {
        std::fprintf(stderr, "flight dump failed: %s\n",
                     s.ToString().c_str());
        std::exit(1);
      }
    }
  }
  async.Drain();
  if (recorder != nullptr) {
    db->disk->set_listener(nullptr);
    pool.set_listener(nullptr);
    if (auto s = recorder->WriteTo(flags.trace_path); !s.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
  run.elapsed_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  run.async = async.async_stats();
  if (object_cache != nullptr) {
    run.cache_policy = object_cache->policy_name();
    run.cache = object_cache->stats();
  }
  run.metrics.disk = db->disk->stats();
  run.metrics.buffer = pool.stats();
  run.refetched_pages = static_cast<size_t>(run.metrics.buffer.faults -
                                            pool.unique_pages_faulted());
  run.spindle_disk = SpindleStats(*db->disk);
  if (db->disk->num_spindles() > 1) {
    // Independent arms: histogram the charged per-read distances, not
    // consecutive trace deltas (those mix spindles).
    run.metrics.read_seeks =
        SeekHistogram::FromDistances(db->disk->seek_trace());
  } else {
    run.metrics.read_seeks =
        SeekHistogram::FromReadTrace(db->disk->read_trace());
  }
  db->disk->EnableReadTrace(false);
  return run;
}

// The same K slices sequentially, each from a cold pool over the raw disk:
// the no-sharing baseline the merged sweep is judged against.
RunMetrics RunIndependent(AcobDatabase* db, const Flags& flags,
                          size_t* refetched_pages) {
  RunMetrics total;
  *refetched_pages = 0;
  for (size_t c = 0; c < flags.clients; ++c) {
    if (auto s = db->ColdRestart(); !s.ok()) {
      std::fprintf(stderr, "cold restart failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
    AssemblyOptions aopts;
    aopts.window_size = 50;
    aopts.scheduler = SchedulerKind::kElevator;
    aopts.io_batch_pages = flags.io_batch;
    AssemblyOperator op(RootScan(RootSlice(db->roots, c, flags.clients)),
                        &db->tmpl, db->store.get(), aopts);
    if (auto s = op.Open(); !s.ok()) {
      std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
    exec::RowBatch batch(exec::RowBatch::kDefaultCapacity);
    for (;;) {
      auto n = op.NextBatch(&batch);
      if (!n.ok()) {
        std::fprintf(stderr, "assembly failed: %s\n",
                     n.status().ToString().c_str());
        std::exit(1);
      }
      if (*n == 0) break;
    }
    DiskStats disk = db->disk->stats();
    total.disk.reads += disk.reads;
    total.disk.writes += disk.writes;
    total.disk.read_seek_pages += disk.read_seek_pages;
    total.disk.write_seek_pages += disk.write_seek_pages;
    total.disk.pages_read += disk.pages_read;
    total.disk.coalesced_runs += disk.coalesced_runs;
    BufferStats buffer = db->buffer->stats();
    total.buffer.hits += buffer.hits;
    total.buffer.faults += buffer.faults;
    total.buffer.evictions += buffer.evictions;
    total.buffer.dirty_writebacks += buffer.dirty_writebacks;
    total.buffer.max_pinned =
        std::max(total.buffer.max_pinned, buffer.max_pinned);
    *refetched_pages += static_cast<size_t>(buffer.faults -
                                            db->buffer->unique_pages_faulted());
    Accumulate(&total.assembly, op.stats());
    (void)op.Close();
  }
  return total;
}

// Exact conservation check: every global disk/buffer counter the merged run
// bumped must be accounted to some query.  Valid only without prefetch (a
// fire-and-forget prefetch can charge its query after the service already
// rolled it up).
bool CheckConservation(const MergedRun& run, const char* clustering) {
  struct Pair {
    const char* name;
    uint64_t global;
    uint64_t attributed;
  };
  const Pair pairs[] = {
      {"disk_reads", run.metrics.disk.reads, run.attributed.disk_reads},
      {"disk_writes", run.metrics.disk.writes, run.attributed.disk_writes},
      {"read_seek_pages", run.metrics.disk.read_seek_pages,
       run.attributed.read_seek_pages},
      {"write_seek_pages", run.metrics.disk.write_seek_pages,
       run.attributed.write_seek_pages},
      {"pages_read", run.metrics.disk.pages_read, run.attributed.pages_read},
      {"coalesced_runs", run.metrics.disk.coalesced_runs,
       run.attributed.coalesced_runs},
      {"buffer_hits", run.metrics.buffer.hits, run.attributed.buffer_hits},
      {"buffer_faults", run.metrics.buffer.faults,
       run.attributed.buffer_faults},
      {"retries", run.metrics.buffer.retries, run.attributed.retries},
      {"checksum_failures", run.metrics.buffer.checksum_failures,
       run.attributed.checksum_failures},
  };
  bool ok = true;
  for (const Pair& pair : pairs) {
    if (pair.global != pair.attributed) {
      std::fprintf(stderr,
                   "conservation violated (%s): %s global=%llu "
                   "attributed=%llu\n",
                   clustering, pair.name,
                   static_cast<unsigned long long>(pair.global),
                   static_cast<unsigned long long>(pair.attributed));
      ok = false;
    }
  }
  // Spindle-dimension conservation: the per-spindle breakdown must sum
  // exactly to the globals — a read charged to no spindle (or to two)
  // would silently corrupt the array accounting.
  DiskStats sum;
  for (const DiskStats& s : run.spindle_disk) {
    sum.reads += s.reads;
    sum.writes += s.writes;
    sum.read_seek_pages += s.read_seek_pages;
    sum.write_seek_pages += s.write_seek_pages;
    sum.pages_read += s.pages_read;
    sum.coalesced_runs += s.coalesced_runs;
  }
  const Pair spindle_pairs[] = {
      {"spindle reads", run.metrics.disk.reads, sum.reads},
      {"spindle writes", run.metrics.disk.writes, sum.writes},
      {"spindle read_seek_pages", run.metrics.disk.read_seek_pages,
       sum.read_seek_pages},
      {"spindle write_seek_pages", run.metrics.disk.write_seek_pages,
       sum.write_seek_pages},
      {"spindle pages_read", run.metrics.disk.pages_read, sum.pages_read},
      {"spindle coalesced_runs", run.metrics.disk.coalesced_runs,
       sum.coalesced_runs},
  };
  for (const Pair& pair : spindle_pairs) {
    if (pair.global != pair.attributed) {
      std::fprintf(stderr,
                   "conservation violated (%s): %s global=%llu "
                   "spindle-sum=%llu\n",
                   clustering, pair.name,
                   static_cast<unsigned long long>(pair.global),
                   static_cast<unsigned long long>(pair.attributed));
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);
  SpindleFlags spindle = SpindleFlags::Parse(argc, argv);
  CacheFlags object_cache = CacheFlags::Parse(argc, argv);

  JsonReporter reporter("multi_client", argc, argv);
  reporter.Set("window_size", 50);
  reporter.Set("clients", flags.clients);
  reporter.Set("workers", flags.workers);
  reporter.Set("shards", flags.shards);
  reporter.Set("prefetch", flags.prefetch);
  reporter.Set("io_batch", flags.io_batch);
  reporter.Set("spindles", spindle.spindles);
  reporter.Set("stripe_width", spindle.stripe_width);
  reporter.Set("object_cache",
               std::string(cache::CachePolicyKindName(object_cache.policy)));
  reporter.Set("cache_capacity", object_cache.capacity);

  std::printf("Multi-client assembly — %zu client(s), %zu worker(s), "
              "%zu shard(s), window 50, elevator, N=%zu\n\n",
              flags.clients, flags.workers, flags.shards, flags.size);
  // `seek pages` (total arm travel, the paper's cost unit) is the aggregate
  // comparison: the merged sweep serves all clients' queries with fewer
  // reads (the shared pool reads each page once) and less total travel than
  // K independent sweeps; the per-read average alone is misleading when the
  // read counts differ.
  TablePrinter table({"clustering", "mode", "reads", "seek pages",
                      "seeks/read", "merged picks", "max depth"});

  bool first_clustering = true;
  for (Clustering clustering :
       {Clustering::kInterObject, Clustering::kIntraObject,
        Clustering::kUnclustered}) {
    AcobOptions options;
    options.num_complex_objects = flags.size;
    options.clustering = clustering;
    options.seed = 42;
    spindle.Apply(&options);
    auto db = MustBuild(options);

    MergedRun merged =
        RunMerged(db.get(), flags, object_cache, first_clustering);
    first_clustering = false;
    if (merged.rows != db->roots.size()) {
      std::fprintf(stderr, "merged run lost rows: %llu of %zu\n",
                   static_cast<unsigned long long>(merged.rows),
                   db->roots.size());
      return 1;
    }
    if (flags.prefetch == 0 &&
        !CheckConservation(merged, ClusteringName(clustering))) {
      return 1;
    }
    if (flags.latency_golden) {
      const LogHistogram& total = merged.latency_total;
      if (total.count() != flags.clients ||
          merged.latency_queue.count() != flags.clients ||
          merged.latency_io.count() != flags.clients ||
          merged.latency_cpu.count() != flags.clients) {
        std::fprintf(stderr,
                     "latency golden (%s): expected %zu samples, got %llu\n",
                     ClusteringName(clustering), flags.clients,
                     static_cast<unsigned long long>(total.count()));
        return 1;
      }
      // Quantiles are bucket upper bounds, so p999 can exceed the true max;
      // monotonicity in q is the invariant.
      if (total.P50() > total.P99() || total.P99() > total.P999() ||
          total.max() == 0) {
        std::fprintf(stderr, "latency golden (%s): quantiles not monotone\n",
                     ClusteringName(clustering));
        return 1;
      }
    }
    table.AddRow({ClusteringName(clustering), "merged",
                  FmtInt(merged.metrics.disk.reads),
                  FmtInt(merged.metrics.disk.read_seek_pages),
                  Fmt(merged.metrics.disk.AvgSeekPerRead()),
                  FmtInt(merged.async.merged_picks),
                  FmtInt(merged.async.max_queue_depth)});
    {
      obs::JsonValue run = obs::ToJson(merged.metrics);
      std::string label = std::string(ClusteringName(clustering)) +
                          ", elevator, N=" + std::to_string(flags.size) +
                          ", clients=" + std::to_string(flags.clients);
      run.Set("label", label);
      run.Set("mode", "merged");
      run.Set("clustering", ClusteringName(clustering));
      run.Set("scheduler", "elevator");
      run.Set("num_complex_objects", flags.size);
      run.Set("clients", flags.clients);
      run.Set("io_batch", flags.io_batch);
      run.Set("refetched_pages", merged.refetched_pages);
      run.Set("rows", merged.rows);
      run.Set("elapsed_ns", merged.elapsed_ns);
      // Latency decomposition distributions (timings: no golden pins them).
      obs::JsonValue latency = obs::JsonValue::MakeObject();
      latency.Set("total_ns", obs::HistogramToJson(merged.latency_total));
      latency.Set("queue_ns", obs::HistogramToJson(merged.latency_queue));
      latency.Set("io_ns", obs::HistogramToJson(merged.latency_io));
      latency.Set("cpu_ns", obs::HistogramToJson(merged.latency_cpu));
      run.Set("latency", std::move(latency));
      run.Set("attributed", obs::QueryIoSnapshotToJson(merged.attributed));
      obs::JsonValue c = obs::ToJson(merged.cache);
      c.Set("policy", merged.cache_policy);
      run.Set("cache", std::move(c));
      run.Set("spindles", SpindlesToJson(merged.spindle_disk));
      reporter.AddRaw(std::move(run));
    }

    if (flags.clients > 1) {
      size_t refetched = 0;
      RunMetrics independent = RunIndependent(db.get(), flags, &refetched);
      table.AddRow({ClusteringName(clustering), "independent",
                    FmtInt(independent.disk.reads),
                    FmtInt(independent.disk.read_seek_pages),
                    Fmt(independent.disk.AvgSeekPerRead()), "-", "-"});
      obs::JsonValue run = obs::ToJson(independent);
      run.Set("label", std::string(ClusteringName(clustering)) +
                           ", elevator, N=" + std::to_string(flags.size) +
                           ", independent x" +
                           std::to_string(flags.clients));
      run.Set("mode", "independent");
      run.Set("clustering", ClusteringName(clustering));
      run.Set("scheduler", "elevator");
      run.Set("num_complex_objects", flags.size);
      run.Set("clients", flags.clients);
      run.Set("refetched_pages", refetched);
      reporter.AddRaw(std::move(run));
    }
  }
  table.Print(std::cout);
  std::printf("\n");
  return reporter.Finish();
}
