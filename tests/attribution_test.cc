// Per-query causal attribution: the conservation invariant, latency
// decomposition, slow-query reports, live snapshots and the flight
// recorder (ctest label `concurrency`; CI also runs this binary under
// -fsanitize=thread).
//
// The invariant under test (obs/query_context.h): every global disk/buffer
// counter increment is charged to exactly one query, so per-query sums
// equal the global stats *exactly* — single client, eight concurrent
// clients, vectored I/O and fault injection alike.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <future>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "buffer/buffer_manager.h"
#include "cache/object_cache.h"
#include "obs/flight_recorder.h"
#include "obs/query_context.h"
#include "obs/trace.h"
#include "service/query_service.h"
#include "storage/async_disk.h"
#include "storage/disk.h"
#include "storage/faulty_disk.h"
#include "workload/acob.h"

namespace cobra {
namespace {

struct ServiceRun {
  std::vector<service::QueryResult> results;
  obs::QueryIoSnapshot attributed;  // summed over results
  DiskStats disk;
  BufferStats buffer;
};

struct RunConfig {
  size_t clients = 1;
  size_t workers = 2;
  size_t shards = 4;
  size_t io_batch = 1;
  uint64_t slow_query_ns = 0;
  size_t flight_capacity = 4096;
  ErrorPolicy error_policy = ErrorPolicy::kFailQuery;
  // Each client submits its slice once per round; a round starts when the
  // previous one has finished.
  size_t rounds = 1;
  cache::ObjectCache* cache = nullptr;  // borrowed; null runs uncached
  // Attached straight to the disk and the pool for the run; borrowed.
  obs::TraceRecorder* recorder = nullptr;
  // Callback run while the service is alive and quiesced.
  std::function<void(service::QueryService*)> inspect;
};

// Runs `clients` slices of the database's roots concurrently through a
// QueryService over AsyncDisk + sharded pool, and captures both sides of
// the conservation equation.  `results` is in submission order.
ServiceRun RunService(AcobDatabase* db, const RunConfig& config) {
  EXPECT_TRUE(db->ColdRestart().ok());
  ServiceRun run;
  {
    AsyncDisk async(db->disk.get());
    async.set_max_run_pages(config.io_batch);
    BufferManager pool(&async, BufferOptions{.num_frames = 4096,
                                             .retry = db->options.retry,
                                             .num_shards = config.shards});
    if (config.recorder != nullptr) {
      db->disk->set_listener(config.recorder);
      pool.set_listener(config.recorder);
    }
    service::ServiceOptions sopts;
    sopts.num_workers = config.workers;
    sopts.async_disk = &async;
    sopts.slow_query_ns = config.slow_query_ns;
    sopts.flight_capacity = config.flight_capacity;
    sopts.cache = config.cache;
    service::QueryService service(&pool, db->directory.get(), sopts);

    const size_t n = db->roots.size();
    for (size_t round = 0; round < config.rounds; ++round) {
      std::vector<std::future<service::QueryResult>> futures;
      for (size_t c = 0; c < config.clients; ++c) {
        service::QueryJob job;
        job.client = "c" + std::to_string(c);
        job.tmpl = &db->tmpl;
        job.roots.assign(db->roots.begin() + n * c / config.clients,
                         db->roots.begin() + n * (c + 1) / config.clients);
        job.assembly.window_size = 25;
        job.assembly.scheduler = SchedulerKind::kElevator;
        job.assembly.io_batch_pages = config.io_batch;
        job.assembly.error_policy = config.error_policy;
        futures.push_back(service.Submit(std::move(job)));
      }
      for (auto& future : futures) {
        run.results.push_back(future.get());
        run.attributed += run.results.back().io;
      }
    }
    service.Drain();
    async.Drain();
    // Both sides of the equation while the stack is quiescent and alive
    // (teardown write-backs happen later, outside the window).
    run.disk = db->disk->stats();
    run.buffer = pool.stats();
    db->disk->set_listener(nullptr);
    pool.set_listener(nullptr);
    if (config.inspect) config.inspect(&service);
  }
  return run;
}

void ExpectConservation(const ServiceRun& run) {
  EXPECT_EQ(run.attributed.disk_reads, run.disk.reads);
  EXPECT_EQ(run.attributed.disk_writes, run.disk.writes);
  EXPECT_EQ(run.attributed.read_seek_pages, run.disk.read_seek_pages);
  EXPECT_EQ(run.attributed.write_seek_pages, run.disk.write_seek_pages);
  EXPECT_EQ(run.attributed.pages_read, run.disk.pages_read);
  EXPECT_EQ(run.attributed.coalesced_runs, run.disk.coalesced_runs);
  EXPECT_EQ(run.attributed.buffer_hits, run.buffer.hits);
  EXPECT_EQ(run.attributed.buffer_faults, run.buffer.faults);
  EXPECT_EQ(run.attributed.retries, run.buffer.retries);
  EXPECT_EQ(run.attributed.checksum_failures, run.buffer.checksum_failures);
}

std::unique_ptr<AcobDatabase> BuildDb(
    size_t objects, uint64_t seed = 42, bool faults = false,
    Clustering clustering = Clustering::kUnclustered,
    DiskGeometry geometry = {}) {
  AcobOptions options;
  options.num_complex_objects = objects;
  options.clustering = clustering;
  options.seed = seed;
  options.geometry = geometry;
  if (faults) options.faults = FaultProfile::Mixed(/*seed=*/7);
  auto built = BuildAcobDatabase(options);
  EXPECT_TRUE(built.ok());
  return std::move(*built);
}

RunConfig Config(size_t clients, size_t workers, size_t shards) {
  RunConfig config;
  config.clients = clients;
  config.workers = workers;
  config.shards = shards;
  return config;
}

TEST(Attribution, ConservationSingleQuery) {
  auto db = BuildDb(100);
  ServiceRun run = RunService(db.get(), Config(1, 2, 4));
  ASSERT_EQ(run.results.size(), 1u);
  EXPECT_TRUE(run.results[0].status.ok());
  EXPECT_GT(run.attributed.disk_reads, 0u);
  EXPECT_GT(run.attributed.buffer_faults, 0u);
  ExpectConservation(run);
}

TEST(Attribution, ConservationEightConcurrentClients) {
  auto db = BuildDb(200);
  ServiceRun run = RunService(db.get(), Config(8, 8, 8));
  ASSERT_EQ(run.results.size(), 8u);
  for (const auto& result : run.results) {
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_GT(result.io.disk_reads + result.io.buffer_hits, 0u)
        << "client " << result.client << " was charged nothing";
  }
  ExpectConservation(run);
}

TEST(Attribution, ConservationWithVectoredIo) {
  auto db = BuildDb(200);
  RunConfig config = Config(8, 8, 8);
  config.io_batch = 8;
  ServiceRun run = RunService(db.get(), config);
  for (const auto& result : run.results) {
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  }
  ExpectConservation(run);
}

TEST(Attribution, ConservationUnderInjectedFaults) {
  auto db = BuildDb(150, /*seed=*/42, /*faults=*/true);
  RunConfig config = Config(8, 4, 8);
  config.error_policy = ErrorPolicy::kSkipObject;
  ServiceRun run = RunService(db.get(), config);
  // The mixed profile injects retries and checksum failures; the invariant
  // must hold for the failure counters too — whether or not a job degraded
  // all the way to an error.
  EXPECT_GT(run.attributed.faults_injected, 0u);
  ExpectConservation(run);
}

TEST(Attribution, LatencyDecompositionIsExact) {
  auto db = BuildDb(150);
  ServiceRun run = RunService(db.get(), Config(4, 2, 4));
  for (const auto& result : run.results) {
    EXPECT_EQ(result.total_ns,
              result.queue_ns + result.io_ns + result.cpu_ns)
        << "client " << result.client;
    EXPECT_GT(result.total_ns, 0u);
    // A query that actually hit the disk must have attributed I/O wait; a
    // fully cache-served one legitimately has none.
    if (result.io.disk_reads > 0) {
      EXPECT_GT(result.io.io_wait_ns, 0u) << "client " << result.client;
    }
  }
  // 4 jobs on 2 workers: at least two queries waited in the queue.
  uint64_t queued = 0;
  for (const auto& result : run.results) {
    if (result.queue_ns > 0) queued++;
  }
  EXPECT_GE(queued, 2u);
}

TEST(Attribution, QueryIdsAreUniqueAndStable) {
  auto db = BuildDb(100);
  ServiceRun run = RunService(db.get(), Config(6, 3, 4));
  std::vector<uint64_t> ids;
  for (const auto& result : run.results) {
    ids.push_back(result.query_id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
  EXPECT_GE(ids.front(), 1u);
}

TEST(Attribution, SlowQueryReportCarriesExplainAndTimeline) {
  // Inter-object clustering gives each client's roots pages of their own.
  // Unclustered, the two clients' components share pages, and the query
  // that starts second can find every page it needs already resident: its
  // report then rightly holds no disk read.
  auto db = BuildDb(100, /*seed=*/42, /*faults=*/false,
                    Clustering::kInterObject);
  std::vector<obs::SlowQueryReport> reports;
  RunConfig config = Config(2, 2, 4);
  config.slow_query_ns = 1;  // every query trips the threshold
  config.inspect = [&](service::QueryService* service) {
    reports = service->slow_reports();
  };
  ServiceRun run = RunService(db.get(), config);
  (void)run;
  ASSERT_EQ(reports.size(), 2u);
  for (const obs::SlowQueryReport& report : reports) {
    EXPECT_EQ(report.reason, "latency-threshold");
    EXPECT_EQ(report.status, "OK");
    EXPECT_NE(report.explain.find("Assembly(window=25"), std::string::npos)
        << report.explain;
    EXPECT_NE(report.explain.find("VectorScan"), std::string::npos);
    EXPECT_EQ(report.total_ns,
              report.queue_ns + report.io_ns + report.cpu_ns);
    // The timeline ends with the query's end marker (the ring keeps the
    // tail; kQueryBegin survives only when nothing was dropped).
    ASSERT_GE(report.timeline.size(), 2u);
    EXPECT_EQ(report.timeline.back().kind, obs::SpanEventKind::kQueryEnd);
    if (report.timeline_dropped == 0) {
      EXPECT_EQ(report.timeline.front().kind,
                obs::SpanEventKind::kQueryBegin);
    }
    bool saw_io = false;
    for (const obs::SpanEvent& event : report.timeline) {
      EXPECT_EQ(event.query_id, report.query_id);
      if (event.kind == obs::SpanEventKind::kDiskRead ||
          event.kind == obs::SpanEventKind::kDiskReadRun) {
        saw_io = true;
      }
    }
    EXPECT_TRUE(saw_io);
    // The text rendering is the slow-query log entry.
    std::string text = report.ToText();
    EXPECT_NE(text.find("slow query"), std::string::npos);
    EXPECT_NE(text.find("latency-threshold"), std::string::npos);
    EXPECT_NE(text.find("Assembly("), std::string::npos);
  }
}

TEST(Attribution, FaultedQueryLeavesReportWithFaultReason) {
  auto db = BuildDb(150, /*seed=*/42, /*faults=*/true);
  std::vector<obs::SlowQueryReport> reports;
  RunConfig config = Config(4, 2, 4);
  config.error_policy = ErrorPolicy::kSkipObject;
  config.inspect = [&](service::QueryService* service) {
    reports = service->slow_reports();
  };
  ServiceRun run = RunService(db.get(), config);
  (void)run;
  // slow_query_ns is 0: only faulted (or errored) queries report.
  ASSERT_FALSE(reports.empty());
  for (const obs::SlowQueryReport& report : reports) {
    EXPECT_TRUE(report.reason == "fault" || report.reason == "error")
        << report.reason;
    if (report.reason == "fault") {
      EXPECT_GT(report.io.faults_injected, 0u);
    }
  }
}

TEST(Attribution, SnapshotAggregatesClientsAndPool) {
  auto db = BuildDb(100);
  obs::Snapshot snapshot;
  uint64_t expected_rows = 0;
  RunConfig config = Config(4, 2, 4);
  config.inspect = [&](service::QueryService* service) {
    snapshot = service->TakeSnapshot();
  };
  ServiceRun run = RunService(db.get(), config);
  for (const auto& result : run.results) expected_rows += result.rows;

  EXPECT_EQ(snapshot.completed, 4u);
  EXPECT_EQ(snapshot.failed, 0u);
  EXPECT_TRUE(snapshot.in_flight.empty());
  ASSERT_EQ(snapshot.clients.size(), 4u);
  uint64_t rows = 0;
  obs::QueryIoSnapshot totals;
  for (size_t i = 0; i < snapshot.clients.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(snapshot.clients[i - 1].first, snapshot.clients[i].first);
    }
    EXPECT_EQ(snapshot.clients[i].second.jobs, 1u);
    rows += snapshot.clients[i].second.rows;
    totals += snapshot.clients[i].second.io;
  }
  EXPECT_EQ(rows, expected_rows);
  EXPECT_EQ(totals.disk_reads, run.attributed.disk_reads);

  EXPECT_EQ(snapshot.pool.total_frames, 4096u);
  EXPECT_GT(snapshot.pool.resident, 0u);
  EXPECT_EQ(snapshot.pool.pinned, 0u);
  EXPECT_EQ(snapshot.pool.resident + snapshot.pool.free_frames,
            snapshot.pool.total_frames);
  EXPECT_EQ(snapshot.pool.per_shard_resident.size(), 4u);
  size_t per_shard_sum = 0;
  for (size_t r : snapshot.pool.per_shard_resident) per_shard_sum += r;
  EXPECT_EQ(per_shard_sum, snapshot.pool.resident);

  // Renderings exist and mention the clients.
  EXPECT_NE(snapshot.ToText().find("c0"), std::string::npos);
  obs::JsonValue json = snapshot.ToJson();
  EXPECT_NE(json.Find("clients"), nullptr);
  EXPECT_NE(json.Find("pool"), nullptr);
}

TEST(Attribution, FlightRecorderIsBoundedAndOrdered) {
  auto db = BuildDb(200);
  size_t events = 0;
  uint64_t dropped = 0;
  std::vector<obs::SpanEvent> retained;
  RunConfig config = Config(4, 4, 4);
  config.flight_capacity = 64;
  config.inspect = [&](service::QueryService* service) {
    retained = service->flight_recorder().Events();
    events = retained.size();
    dropped = service->flight_recorder().dropped();
  };
  ServiceRun run = RunService(db.get(), config);
  (void)run;
  EXPECT_LE(events, 64u);
  // The run charges far more than 64 events, so the ring must have wrapped.
  EXPECT_GT(dropped, 0u);
  for (size_t i = 1; i < retained.size(); ++i) {
    EXPECT_LE(retained[i - 1].ts_ns, retained[i].ts_ns);
  }
}

// QueryTracker is the one rollup of finished queries: per client, the
// snapshot's totals are exactly the sums over that client's results.  Two
// rounds through a cache on a two-spindle array make the cache outcomes and
// the spindle split non-zero.
TEST(Attribution, SnapshotRollupMatchesPerQuerySums) {
  DiskGeometry geometry;
  geometry.spindles = 2;
  auto db = BuildDb(100, /*seed=*/42, /*faults=*/false,
                    Clustering::kUnclustered, geometry);
  cache::ObjectCache cache;
  obs::Snapshot snapshot;
  RunConfig config = Config(4, 2, 4);
  config.rounds = 2;
  config.cache = &cache;
  config.inspect = [&](service::QueryService* service) {
    snapshot = service->TakeSnapshot();
  };
  ServiceRun run = RunService(db.get(), config);
  EXPECT_GT(run.attributed.cache_hits, 0u);
  EXPECT_GT(run.attributed.spindle_reads[1], 0u);

  struct Sums {
    uint64_t jobs = 0;
    uint64_t rows = 0;
    uint64_t objects_dropped = 0;
    uint64_t queue_ns = 0;
    uint64_t io_ns = 0;
    uint64_t cpu_ns = 0;
    uint64_t total_ns = 0;
    obs::QueryIoSnapshot io;
  };
  std::map<std::string, Sums> expected;
  for (const service::QueryResult& result : run.results) {
    Sums& sums = expected[result.client];
    sums.jobs++;
    sums.rows += result.rows;
    sums.objects_dropped += result.assembly.objects_dropped;
    sums.queue_ns += result.queue_ns;
    sums.io_ns += result.io_ns;
    sums.cpu_ns += result.cpu_ns;
    sums.total_ns += result.total_ns;
    sums.io += result.io;
  }
  EXPECT_EQ(snapshot.completed, run.results.size());
  ASSERT_EQ(snapshot.clients.size(), expected.size());
  for (const auto& [client, totals] : snapshot.clients) {
    ASSERT_EQ(expected.count(client), 1u) << client;
    const Sums& sums = expected[client];
    EXPECT_EQ(totals.jobs, sums.jobs) << client;
    EXPECT_EQ(totals.rows, sums.rows) << client;
    EXPECT_EQ(totals.objects_dropped, sums.objects_dropped) << client;
    EXPECT_TRUE(totals.io == sums.io) << client;
    const std::pair<const LogHistogram*, uint64_t> latencies[] = {
        {&totals.queue_ns, sums.queue_ns},
        {&totals.io_ns, sums.io_ns},
        {&totals.cpu_ns, sums.cpu_ns},
        {&totals.total_ns, sums.total_ns},
    };
    for (const auto& [histogram, sum] : latencies) {
      EXPECT_EQ(histogram->count(), sums.jobs) << client;
      EXPECT_EQ(histogram->total(), sum) << client;
    }
  }
}

// ObjectCache::Lookup charges each outcome, counter and span, to the
// current query; nothing else charges it again.
TEST(Attribution, CacheLookupChargesTheQueryOnce) {
  auto db = BuildDb(40, /*seed=*/42, /*faults=*/false,
                    Clustering::kInterObject);
  cache::ObjectCache cache;
  std::vector<obs::SlowQueryReport> reports;
  RunConfig config = Config(1, 1, 4);
  config.rounds = 2;
  config.cache = &cache;
  config.slow_query_ns = 1;  // every query leaves its timeline
  config.inspect = [&](service::QueryService* service) {
    reports = service->slow_reports();
  };
  ServiceRun run = RunService(db.get(), config);
  const uint64_t roots = db->roots.size();
  ASSERT_EQ(run.results.size(), 2u);
  for (const service::QueryResult& result : run.results) {
    EXPECT_EQ(result.io.cache_hits + result.io.cache_misses, roots);
  }
  EXPECT_EQ(run.results[0].io.cache_misses, roots);
  EXPECT_EQ(run.results[1].io.cache_hits, roots);
  const cache::CacheStats stats = cache.stats();
  EXPECT_EQ(run.attributed.cache_hits, stats.hits);
  EXPECT_EQ(run.attributed.cache_misses, stats.misses);

  ASSERT_EQ(reports.size(), 2u);
  for (const obs::SlowQueryReport& report : reports) {
    ASSERT_EQ(report.timeline_dropped, 0u);
    const auto spans = std::count_if(
        report.timeline.begin(), report.timeline.end(),
        [](const obs::SpanEvent& event) {
          return event.kind == obs::SpanEventKind::kCacheHit ||
                 event.kind == obs::SpanEventKind::kCacheMiss;
        });
    EXPECT_EQ(static_cast<uint64_t>(spans), roots)
        << "query " << report.query_id;
  }
}

// The recorder is the one sink the workers and the per-spindle I/O threads
// share: attached straight to the disk and the pool, it keeps every event
// of four concurrent clients, tagged with its query and spindle.
TEST(TraceRecorder, CountsEveryEventUnderConcurrentClients) {
  DiskGeometry geometry;
  geometry.spindles = 2;
  auto db = BuildDb(200, /*seed=*/42, /*faults=*/false,
                    Clustering::kUnclustered, geometry);
  obs::TraceRecorder recorder(/*clock=*/nullptr, /*capacity=*/1 << 20);
  RunConfig config = Config(4, 4, 8);
  config.recorder = &recorder;
  ServiceRun run = RunService(db.get(), config);
  for (const service::QueryResult& result : run.results) {
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  }

  using Kind = obs::TraceEvent::Kind;
  EXPECT_EQ(recorder.dropped(), 0u);
  std::map<Kind, uint64_t> counts;
  for (const obs::TraceEvent& event : recorder.Events()) {
    counts[event.kind]++;
    if (event.kind == Kind::kDiskRead || event.kind == Kind::kDiskWrite) {
      EXPECT_NE(event.query_id, 0u) << "page " << event.page;
      EXPECT_LT(event.spindle, 2u) << "page " << event.page;
    }
  }
  EXPECT_GT(counts[Kind::kDiskRead], 0u);
  EXPECT_EQ(counts[Kind::kDiskRead], run.disk.reads);
  EXPECT_EQ(counts[Kind::kBufferHit], run.buffer.hits);
  EXPECT_EQ(counts[Kind::kBufferFault], run.buffer.faults);
}

// Attached straight to the disk, the recorder sees the serving spindle and
// a coalesced run's page count.
TEST(TraceRecorder, RecordsSpindleAndRunPages) {
  DiskGeometry geometry;
  geometry.spindles = 2;
  geometry.stripe_width = 4;
  SimulatedDisk disk(DiskOptions{.geometry = geometry});
  std::vector<std::byte> page(disk.page_size(), std::byte{7});
  for (PageId id = 0; id < 12; ++id) {
    ASSERT_TRUE(disk.WritePage(id, page.data()).ok());
  }
  ASSERT_EQ(disk.SpindleOf(5), 1u);
  ASSERT_EQ(disk.SpindleOf(8), 0u);
  obs::TraceRecorder recorder;
  disk.set_listener(&recorder);
  ASSERT_TRUE(disk.ReadPage(5, page.data()).ok());
  std::vector<std::vector<std::byte>> bufs(
      3, std::vector<std::byte>(disk.page_size()));
  std::vector<std::byte*> outs;
  for (auto& buf : bufs) outs.push_back(buf.data());
  ASSERT_TRUE(disk.ReadRun(8, 3, /*ascending=*/true, outs.data()).status.ok());
  disk.set_listener(nullptr);

  const std::vector<obs::TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].spindle, 1u);
  EXPECT_EQ(events[0].run_pages, 1u);
  EXPECT_EQ(events[1].spindle, 0u);
  EXPECT_EQ(events[1].run_pages, 3u);
}

// Substrate unit tests (no service): context ring, nesting, timer.

TEST(QueryContext, TimelineRingKeepsTailAndCountsDrops) {
  obs::QueryContext ctx(7, "t", /*timeline_capacity=*/4);
  for (uint64_t i = 0; i < 10; ++i) {
    ctx.Record({obs::SpanEventKind::kDiskRead, /*ts_ns=*/i + 1, 0, i, 0, 0});
  }
  std::vector<obs::SpanEvent> timeline = ctx.Timeline();
  ASSERT_EQ(timeline.size(), 4u);
  EXPECT_EQ(ctx.timeline_dropped(), 6u);
  // Oldest events dropped: pages 6..9 remain, stamped with the query id.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(timeline[i].page, 6 + i);
    EXPECT_EQ(timeline[i].query_id, 7u);
  }
}

TEST(QueryContext, ScopedContextNests) {
  EXPECT_EQ(obs::CurrentQuery(), nullptr);
  auto outer = std::make_shared<obs::QueryContext>(1, "outer");
  auto inner = std::make_shared<obs::QueryContext>(2, "inner");
  {
    obs::ScopedQueryContext outer_scope(outer);
    EXPECT_EQ(obs::CurrentQueryId(), 1u);
    {
      obs::ScopedQueryContext inner_scope(inner);
      EXPECT_EQ(obs::CurrentQueryId(), 2u);
      {
        // Null clears (the I/O thread's unattributed-service case).
        obs::ScopedQueryContext cleared(nullptr);
        EXPECT_EQ(obs::CurrentQuery(), nullptr);
        EXPECT_EQ(obs::CurrentQueryId(), 0u);
      }
      EXPECT_EQ(obs::CurrentQueryId(), 2u);
    }
    EXPECT_EQ(obs::CurrentQueryId(), 1u);
  }
  EXPECT_EQ(obs::CurrentQuery(), nullptr);
}

TEST(QueryContext, IoWaitTimerChargesCurrentQueryOnly) {
  {
    // No query: must be a no-op, not a crash.
    obs::IoWaitTimer idle;
  }
  auto ctx = std::make_shared<obs::QueryContext>(3, "t");
  {
    obs::ScopedQueryContext scope(ctx);
    obs::IoWaitTimer timer;
  }
  // Zero-length waits may round to 0; charge a measurable one.
  {
    obs::ScopedQueryContext scope(ctx);
    obs::IoWaitTimer timer;
    volatile uint64_t sink = 0;
    for (uint64_t i = 0; i < 100000; ++i) sink = sink + i;
  }
  EXPECT_GT(ctx->io.io_wait_ns.load(), 0u);
}

}  // namespace
}  // namespace cobra
