// hot_zipf and rw_open: the concurrent service stack.
//
//   QueryService (4 workers, 2Q ObjectCache of 1,000 entries)
//     -> BufferManager (1,024 frames, 16 shards)
//     -> AsyncDisk -> SimulatedDisk           (+ WalManager for rw_open)
//
// The traced stack adds a TimedDisk on each side of AsyncDisk.
//
// hot_zipf: 4 closed-loop clients, each query assembles 4 roots drawn from
// Zipf(0.99); read-only.  rw_open: the same reads and stack plus a WAL and
// a write file over the data extent; reads and write transactions follow
// open-loop schedules and are timed from their due times.

#include <condition_variable>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "assembly/naive.h"
#include "cache/object_cache.h"
#include "common.h"
#include "file/heap_file.h"
#include "object/assembled_object.h"
#include "object/object_store.h"
#include "service/query_service.h"
#include "storage/async_disk.h"
#include "timed_disk.h"
#include "wal/wal.h"

namespace perfbench {

using namespace cobra;  // NOLINT: benchmark brevity

namespace {

constexpr size_t kClients = 4;
constexpr size_t kWorkers = 4;
constexpr size_t kServiceFrames = 1024;
constexpr size_t kShards = 16;
constexpr size_t kCacheEntries = 1000;
constexpr size_t kRootsPerQuery = 4;
constexpr double kTheta = 0.99;
constexpr size_t kWarmupQueriesPerClient = 500;
constexpr double kReadRate = 400.0;   // queries/s, rw_open
constexpr double kWriteRate = 100.0;  // transactions/s, rw_open
constexpr size_t kWriters = 2;
constexpr size_t kLogPages = 65536;
constexpr int kSetupRepeats = 3;
// Zipf draws generated per hot_zipf client; a client wraps around them.
constexpr size_t kDrawsPerClient = 1 << 16;
constexpr uint64_t kWindowNs = kRunSeconds * 1'000'000'000ull;

void SleepUntil(uint64_t ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(static_cast<int64_t>(ns))));
}

// Per-flush decorator time on log-extent writes: the WAL daemon writes a
// batch's pages back to back, then fires OnWalFlush.
class FlushTimer final : public wal::WalEventListener {
 public:
  explicit FlushTimer(const TimedDisk* log_disk) : log_disk_(log_disk) {}
  void OnWalFlush(wal::Lsn, size_t, size_t, size_t) override {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t now = log_disk_->log_write_ns();
    if (counting_) flush_ns_.push_back(static_cast<double>(now - last_));
    last_ = now;
  }
  void StartCounting() {
    std::lock_guard<std::mutex> lock(mu_);
    counting_ = true;
    flush_ns_.clear();
    last_ = log_disk_->log_write_ns();
  }
  std::vector<double> flush_ns() const {
    std::lock_guard<std::mutex> lock(mu_);
    return flush_ns_;
  }

 private:
  const TimedDisk* log_disk_;
  mutable std::mutex mu_;
  bool counting_ = false;
  uint64_t last_ = 0;
  std::vector<double> flush_ns_;
};

// Declaration order is teardown order reversed: the service drains first,
// the pool flushes through the WAL gate and AsyncDisk before they go.
struct Stack {
  std::unique_ptr<AcobDatabase> db;
  std::unique_ptr<TimedDisk> device_side;
  std::unique_ptr<AsyncDisk> async;
  std::unique_ptr<TimedDisk> pool_side;
  std::unique_ptr<FlushTimer> flush_timer;
  wal::WalOptions wal_options;
  std::unique_ptr<wal::WalManager> wal;
  std::unique_ptr<BufferManager> pool;
  std::unique_ptr<cache::ObjectCache> cache;
  std::unique_ptr<HeapFile> write_file;
  std::unique_ptr<service::QueryService> service;

  // The write file's extent: the data plus room for inserts, fixed before
  // the log extent (past it) grows the disk.
  size_t file_pages = 0;

  SimulatedDisk* raw() { return db->disk.get(); }
};

Status BuildStack(bool writes, SpanRecorder* recorder, Stack* s) {
  s->db = BuildDatabase(Clustering::kInterObject);
  if (s->db == nullptr) return Status::Internal("database build failed");
  SimulatedDisk* below = s->raw();
  s->file_pages = s->raw()->page_span() + 64;
  if (recorder != nullptr) {
    s->device_side = std::make_unique<TimedDisk>(
        below, recorder, TimedDisk::Side::kDeviceSide);
    below = s->device_side.get();
  }
  s->async = std::make_unique<AsyncDisk>(below);
  SimulatedDisk* above = s->async.get();
  if (recorder != nullptr) {
    s->pool_side = std::make_unique<TimedDisk>(above, recorder,
                                               TimedDisk::Side::kPoolSide);
    above = s->pool_side.get();
  }
  if (writes) {
    // The log extent lies past the data; the WAL writes straight to the
    // device, beside the AsyncDisk queue.
    s->wal_options.log_first_page = s->raw()->page_span() + 128;
    s->wal_options.log_max_pages = kLogPages;
    s->wal = std::make_unique<wal::WalManager>(below, s->wal_options);
    if (s->device_side != nullptr) {
      s->device_side->set_log_extent(s->wal_options.log_first_page, kLogPages);
      s->flush_timer = std::make_unique<FlushTimer>(s->device_side.get());
      s->wal->set_listener(s->flush_timer.get());
    }
    COBRA_RETURN_IF_ERROR(s->wal->Recover());
  }
  s->pool = std::make_unique<BufferManager>(
      above, BufferOptions{kServiceFrames, ReplacementKind::kLru,
                           RetryPolicy{}, kShards});
  service::ServiceOptions options;
  if (writes) {
    s->pool->set_write_gate(s->wal.get());
    COBRA_ASSIGN_OR_RETURN(HeapFile file,
                           HeapFile::Open(s->pool.get(), 0, s->file_pages));
    s->write_file = std::make_unique<HeapFile>(std::move(file));
    s->write_file->set_wal(s->wal.get());
    options.wal = s->wal.get();
    options.write_file = s->write_file.get();
    options.next_oid = s->db->store->next_oid() + 100'000'000;
  }
  cache::CacheOptions cache_options;
  cache_options.capacity = kCacheEntries;
  cache_options.policy = cache::CachePolicyKind::kTwoQ;
  s->cache = std::make_unique<cache::ObjectCache>(cache_options);
  options.num_workers = kWorkers;
  options.async_disk = s->async.get();
  options.cache = s->cache.get();
  s->service = std::make_unique<service::QueryService>(
      s->pool.get(), s->db->directory.get(), options);
  return Status::OK();
}

service::QueryJob MakeJob(const Stack& s, std::vector<Oid> roots) {
  service::QueryJob job;
  job.client = "client";
  job.tmpl = &s.db->tmpl;
  job.roots = std::move(roots);
  job.assembly = ElevatorW50();
  return job;
}

void Quiesce(Stack* s) {
  s->service->Drain();
  if (s->wal != nullptr) (void)s->wal->Flush();
  s->async->Drain();
}

// Closed-loop warm-up; counts toward setup_s.
Status WarmUp(Stack* s, const Zipf& zipf, uint64_t seed) {
  std::mutex mu;
  Status first;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng = Stream(seed, 100 + c);
      for (size_t q = 0; q < kWarmupQueriesPerClient; ++q) {
        std::vector<Oid> roots;
        for (size_t r = 0; r < kRootsPerQuery; ++r) {
          roots.push_back(s->db->roots[zipf.Draw(&rng)]);
        }
        service::QueryResult result =
            s->service->Submit(MakeJob(*s, std::move(roots))).get();
        if (!result.status.ok()) {
          std::lock_guard<std::mutex> lock(mu);
          if (first.ok()) first = result.status;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  Quiesce(s);
  return first;
}

struct QuerySample {
  bool done = false;
  bool ok = false;
  uint64_t expected_rows = 0;
  uint64_t rows = 0;
  double latency_ns = 0;
  double late_ns = 0;
  uint64_t queue_ns = 0;
  uint64_t io_ns = 0;
  uint64_t cpu_ns = 0;
  uint64_t total_ns = 0;
  uint64_t cache_misses = 0;
};

void Fill(QuerySample* q, const service::QueryResult& r) {
  q->done = true;
  q->ok = r.status.ok();
  q->rows = r.rows;
  q->queue_ns = r.queue_ns;
  q->io_ns = r.io_ns;
  q->cpu_ns = r.cpu_ns;
  q->total_ns = r.total_ns;
  q->cache_misses = r.io.cache_misses;
}

struct WriteSample {
  bool done = false;
  bool ok = false;
  bool aborted = false;
  wal::TxnId txn = 0;
  double latency_ns = 0;
  double late_ns = 0;
};

struct WriteTxn {
  uint64_t due_ns = 0;
  service::WriteJob job;
  uint64_t user_bytes = 0;
};

struct ReadReq {
  uint64_t due_ns = 0;
  std::vector<Oid> roots;
};

// Sorted arrival times of a Poisson process at `rate` per second over the
// measured window: rate x kRunSeconds uniform draws, sorted.
std::vector<uint64_t> Arrivals(std::mt19937_64* rng, double rate) {
  const size_t n = static_cast<size_t>(std::llround(rate * kRunSeconds));
  std::uniform_real_distribution<double> u(0.0, static_cast<double>(kWindowNs));
  std::vector<uint64_t> t(n);
  for (uint64_t& x : t) x = static_cast<uint64_t>(u(*rng));
  std::sort(t.begin(), t.end());
  return t;
}

struct Inputs {
  std::vector<std::vector<uint32_t>> client_draws;  // hot_zipf
  std::vector<ReadReq> reads;                       // rw_open
  std::vector<WriteTxn> writes;                     // rw_open
};

struct Counters {
  DiskStats disk;
  BufferStats buffer;
  uint64_t unique_faulted = 0;
  cache::CacheStats cache;
  AsyncDiskStats async;
  wal::WalStats wal;
};

struct Window {
  EndToEnd e2e;
  double seconds = 0;
  std::vector<QuerySample> queries;
  std::vector<WriteSample> writes;
  Counters delta;
  size_t max_queue_depth = 0;
  SpanTable spans{};
  std::vector<double> flush_ns;
  std::unique_ptr<SimulatedDisk> crash_image;  // rw_open
  wal::WalOptions wal_options;
  size_t file_pages = 0;
};

Counters Snap(Stack* s) {
  Counters c;
  c.disk = s->raw()->stats();
  c.buffer = s->pool->stats();
  c.unique_faulted = s->pool->unique_pages_faulted();
  c.cache = s->cache->stats();
  c.async = s->async->async_stats();
  if (s->wal != nullptr) c.wal = s->wal->stats();
  return c;
}

Counters Minus(const Counters& a, const Counters& b) {
  Counters d;
  d.disk = Delta(a.disk, b.disk);
  d.buffer.hits = a.buffer.hits - b.buffer.hits;
  d.buffer.faults = a.buffer.faults - b.buffer.faults;
  d.buffer.evictions = a.buffer.evictions - b.buffer.evictions;
  d.buffer.dirty_writebacks =
      a.buffer.dirty_writebacks - b.buffer.dirty_writebacks;
  d.unique_faulted = a.unique_faulted - b.unique_faulted;
  d.cache.hits = a.cache.hits - b.cache.hits;
  d.cache.misses = a.cache.misses - b.cache.misses;
  d.cache.evictions = a.cache.evictions - b.cache.evictions;
  d.cache.invalidations = a.cache.invalidations - b.cache.invalidations;
  d.cache.patches = a.cache.patches - b.cache.patches;
  d.async.reads_submitted = a.async.reads_submitted - b.async.reads_submitted;
  d.async.writes_submitted =
      a.async.writes_submitted - b.async.writes_submitted;
  d.async.merged_picks = a.async.merged_picks - b.async.merged_picks;
  d.wal.commits = a.wal.commits - b.wal.commits;
  d.wal.batches_flushed = a.wal.batches_flushed - b.wal.batches_flushed;
  d.wal.log_pages_written = a.wal.log_pages_written - b.wal.log_pages_written;
  d.wal.images_logged = a.wal.images_logged - b.wal.images_logged;
  d.wal.moves_logged = a.wal.moves_logged - b.wal.moves_logged;
  return d;
}

void ClosedLoop(Stack* s, const Inputs& in, SpanRecorder* recorder,
                std::vector<QuerySample>* out) {
  std::vector<std::vector<QuerySample>> per_client(kClients);
  const uint64_t deadline = NowNs() + kWindowNs;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const std::vector<uint32_t>& draws = in.client_draws[c];
      std::vector<QuerySample>& samples = per_client[c];
      size_t pos = 0;
      while (NowNs() < deadline) {
        std::vector<Oid> roots;
        for (size_t r = 0; r < kRootsPerQuery; ++r) {
          roots.push_back(s->db->roots[draws[pos++ % draws.size()]]);
        }
        QuerySample q;
        q.expected_rows = roots.size();
        const uint64_t start = NowNs();
        service::QueryResult result;
        {
          SpanRecorder::Scope span(recorder, SpanName::kSubmit);
          result = s->service->Submit(MakeJob(*s, std::move(roots))).get();
          span.set_request(result.query_id);
        }
        q.latency_ns = static_cast<double>(NowNs() - start);
        Fill(&q, result);
        samples.push_back(q);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (const auto& samples : per_client) {
    out->insert(out->end(), samples.begin(), samples.end());
  }
}

void OpenLoop(Stack* s, Inputs* in, SpanRecorder* recorder,
              std::vector<QuerySample>* queries,
              std::vector<WriteSample>* writes) {
  queries->assign(in->reads.size(), QuerySample{});
  writes->assign(in->writes.size(), WriteSample{});
  const uint64_t start = NowNs() + 1'000'000;
  struct Pending {
    size_t index = 0;
    uint64_t submit_ns = 0;
    std::future<service::QueryResult> result;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> pending;
  bool dispatched = false;

  std::thread dispatcher([&] {
    for (size_t i = 0; i < in->reads.size(); ++i) {
      SleepUntil(start + in->reads[i].due_ns);
      Pending p;
      p.index = i;
      p.submit_ns = NowNs();
      (*queries)[i].expected_rows = in->reads[i].roots.size();
      {
        SpanRecorder::Scope span(recorder, SpanName::kSubmit);
        p.result = s->service->Submit(MakeJob(*s, in->reads[i].roots));
      }
      std::lock_guard<std::mutex> lock(mu);
      pending.push_back(std::move(p));
      cv.notify_one();
    }
    std::lock_guard<std::mutex> lock(mu);
    dispatched = true;
    cv.notify_one();
  });
  std::thread collector([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !pending.empty() || dispatched; });
        if (pending.empty()) return;
        p = std::move(pending.front());
        pending.pop_front();
      }
      service::QueryResult result = p.result.get();
      QuerySample& q = (*queries)[p.index];
      const uint64_t due = start + in->reads[p.index].due_ns;
      Fill(&q, result);
      q.late_ns = static_cast<double>(p.submit_ns - due);
      // Due time to submission, then the service's own submit-to-result.
      q.latency_ns = q.late_ns + static_cast<double>(result.total_ns);
    }
  });
  std::atomic<size_t> next{0};
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (;;) {
        const size_t k = next.fetch_add(1);
        if (k >= in->writes.size()) return;
        const uint64_t due = start + in->writes[k].due_ns;
        SleepUntil(due);
        const uint64_t begin = NowNs();
        service::WriteResult result;
        {
          SpanRecorder::Scope span(recorder, SpanName::kExecuteWrite);
          result = s->service->ExecuteWrite(in->writes[k].job);
        }
        WriteSample& ws = (*writes)[k];
        ws.latency_ns = static_cast<double>(NowNs() - due);
        ws.late_ns = static_cast<double>(begin - due);
        ws.done = true;
        ws.ok = result.status.ok();
        ws.aborted = result.aborted;
        ws.txn = result.txn;
      }
    });
  }
  dispatcher.join();
  collector.join();
  for (std::thread& t : writers) t.join();
}

// One measured window: build (and warm) the stack `repeats` times, timing
// each setup, then measure on the last one.
Window Measure(bool writes, Inputs* in, uint64_t seed, SpanRecorder* recorder,
               int repeats, std::vector<double>* setup_s, Report* report) {
  Window w;
  const Zipf zipf(kNumComplexObjects, kTheta);
  auto stack = std::make_unique<Stack>();
  for (int i = 0; i < repeats; ++i) {
    stack = std::make_unique<Stack>();
    const uint64_t begin = NowNs();
    Status status = BuildStack(writes, recorder, stack.get());
    if (status.ok()) status = WarmUp(stack.get(), zipf, seed);
    if (setup_s != nullptr) {
      setup_s->push_back(static_cast<double>(NowNs() - begin) / 1e9);
    }
    if (!status.ok()) {
      Fail(report, "setup failed: " + status.ToString());
      return w;
    }
  }
  Stack* s = stack.get();
  const Counters before = Snap(s);
  if (recorder != nullptr) recorder->Start();
  if (s->flush_timer != nullptr) s->flush_timer->StartCounting();
  const uint64_t start = NowNs();
  if (writes) {
    OpenLoop(s, in, recorder, &w.queries, &w.writes);
  } else {
    ClosedLoop(s, *in, recorder, &w.queries);
  }
  Quiesce(s);
  w.seconds = static_cast<double>(NowNs() - start) / 1e9;
  if (recorder != nullptr) {
    recorder->Stop();
    w.spans = recorder->Totals();
  }
  if (s->flush_timer != nullptr) w.flush_ns = s->flush_timer->flush_ns();
  w.delta = Minus(Snap(s), before);
  w.max_queue_depth = s->async->async_stats().max_queue_depth;
  if (writes) {
    // The crash point: only what reached the device survives; the pool's
    // dirty pages are lost.
    w.crash_image = CopyDisk(s->raw());
    w.wal_options = s->wal_options;
    w.file_pages = s->file_pages;
  }
  stack.reset();

  // A failed query counts as missing every percentile: an infinite sample.
  constexpr double kMissing = std::numeric_limits<double>::infinity();
  std::vector<double> latency_ms;
  for (const QuerySample& q : w.queries) {
    report->attempted++;
    if (!q.done || !q.ok) {
      report->failed++;
      latency_ms.push_back(kMissing);
      continue;
    }
    if (q.rows != q.expected_rows) {
      Fail(report, "a query returned " + std::to_string(q.rows) + " rows for " +
                       std::to_string(q.expected_rows) + " roots");
    }
    if (q.total_ns != q.queue_ns + q.io_ns + q.cpu_ns) {
      Fail(report, "a query broke total_ns == queue_ns + io_ns + cpu_ns");
    }
    latency_ms.push_back(q.latency_ns / 1e6);
    w.e2e.rows += q.rows;
  }
  for (size_t k = 0; k < w.writes.size(); ++k) {
    const WriteSample& ws = w.writes[k];
    const bool intended_abort = in->writes[k].job.abort;
    if (intended_abort && ws.done && ws.ok && ws.aborted) continue;
    report->attempted++;
    if (!ws.done || !ws.ok || ws.aborted != intended_abort) report->failed++;
  }
  const double rows = static_cast<double>(w.e2e.rows);
  w.e2e.queries = latency_ms.size();
  w.e2e.rows_per_s = Ratio(rows, w.seconds);
  w.e2e.query_p50_ms = Quantile(latency_ms, 0.5);
  w.e2e.query_ms = w.e2e.query_p50_ms;
  w.e2e.seek_pages_per_row =
      Ratio(static_cast<double>(w.delta.disk.read_seek_pages +
                                w.delta.disk.write_seek_pages),
            rows);
  w.e2e.disk_reads_per_row =
      Ratio(static_cast<double>(w.delta.disk.reads), rows);
  if (latency_ms.size() >= 1000) {
    SetMetric(&report->extra, "query_p99_ms", Quantile(latency_ms, 0.99),
              "ms", latency_ms.size());
  }
  return w;
}

void SetServiceLayers(Report* report, const Window& w, bool writes) {
  auto& m = report->metrics;
  const SpanTable& s = w.spans;
  const Counters& d = w.delta;
  const double rows = static_cast<double>(w.e2e.rows);
  std::vector<double> queue_us;
  std::vector<double> all_hit_us;
  double io = 0, cpu = 0;
  for (const QuerySample& q : w.queries) {
    if (!q.done || !q.ok) continue;
    queue_us.push_back(static_cast<double>(q.queue_ns) / 1e3);
    io += static_cast<double>(q.io_ns);
    cpu += static_cast<double>(q.cpu_ns);
    if (q.cache_misses == 0) {
      all_hit_us.push_back(static_cast<double>(q.total_ns - q.queue_ns) / 1e3);
    }
  }
  SetMetric(&m, "service.queue_us_p50", Quantile(queue_us, 0.5), "us",
            queue_us.size());
  SetMetric(&m, "service.io_share", Ratio(io, io + cpu), "ratio",
            queue_us.size());
  SetMetric(&m, "service.cpu_us_per_row", Ratio(cpu, rows) / 1e3, "us",
            w.e2e.rows);
  const uint64_t lookups = d.cache.hits + d.cache.misses;
  SetMetric(&m, "cache.hit_ratio",
            Ratio(static_cast<double>(d.cache.hits),
                  static_cast<double>(lookups)),
            "ratio", lookups);
  SetMetric(&m, "cache.evictions_per_lookup",
            Ratio(static_cast<double>(d.cache.evictions),
                  static_cast<double>(lookups)),
            "ratio", lookups);
  SetMetric(&m, "cache.all_hit_query_us_p50", Quantile(all_hit_us, 0.5), "us",
            all_hit_us.size());
  SetPoolAndDiskLayers(report, d.buffer, d.unique_faulted, d.disk, s,
                       w.e2e.rows);
  const SpanTotals& pool_read = Get(s, SpanName::kPoolRead);
  const SpanTotals& dev_read = Get(s, SpanName::kDiskRead);
  SetMetric(&m, "storage.async.wait_us_per_read",
            Ratio(static_cast<double>(pool_read.total_ns) -
                      static_cast<double>(dev_read.total_ns),
                  static_cast<double>(pool_read.count)) / 1e3,
            "us", pool_read.count);
  const uint64_t requests = d.async.reads_submitted + d.async.writes_submitted;
  SetMetric(&m, "storage.async.merged_pick_ratio",
            Ratio(static_cast<double>(d.async.merged_picks),
                  static_cast<double>(requests)),
            "ratio", requests);
  SetMetric(&m, "storage.async.max_queue_depth",
            static_cast<double>(w.max_queue_depth), "count", requests);
  if (!writes) return;
  const double commits = static_cast<double>(d.wal.commits);
  SetMetric(&m, "cache.invalidations_per_commit",
            Ratio(static_cast<double>(d.cache.invalidations), commits),
            "count", d.wal.commits);
  SetMetric(&m, "cache.patches_per_commit",
            Ratio(static_cast<double>(d.cache.patches), commits), "count",
            d.wal.commits);
  SetMetric(&m, "buffer.writebacks_per_commit",
            Ratio(static_cast<double>(d.buffer.dirty_writebacks), commits),
            "count", d.wal.commits);
  SetMetric(&m, "wal.commits_per_flush",
            Ratio(commits, static_cast<double>(d.wal.batches_flushed)),
            "count", d.wal.batches_flushed);
  SetMetric(&m, "wal.flush_us_p50", Quantile(w.flush_ns, 0.5) / 1e3, "us",
            w.flush_ns.size());
  SetMetric(&m, "wal.log_bytes_per_commit",
            Ratio(static_cast<double>(d.wal.log_pages_written) * 1024.0,
                  commits),
            "B", d.wal.commits);
  SetMetric(&m, "wal.images_per_commit",
            Ratio(static_cast<double>(d.wal.images_logged +
                                      d.wal.moves_logged),
                  commits),
            "count", d.wal.commits);
  std::vector<double> late_ms;
  for (const QuerySample& q : w.queries) late_ms.push_back(q.late_ns / 1e6);
  for (const WriteSample& ws : w.writes) late_ms.push_back(ws.late_ns / 1e6);
  SetMetric(&m, "loadgen.late_ms_p99", Quantile(late_ms, 0.99), "ms",
            late_ms.size());
}

// --- rw_open inputs and durability check --------------------------------

// Components (every OID but the root) of each root, from NaiveAssembler.
Result<std::vector<std::vector<Oid>>> Components(AcobDatabase* db) {
  std::vector<std::vector<Oid>> out;
  NaiveAssembler naive(db->store.get(), &db->tmpl);
  for (Oid root : db->roots) {
    ObjectArena arena;
    COBRA_ASSIGN_OR_RETURN(AssembledObject * obj,
                           naive.AssembleOne(root, &arena));
    if (obj == nullptr) return Status::Internal("naive pass rejected a root");
    std::unordered_set<Oid> oids = CollectOids(obj);
    std::vector<Oid> comps;
    for (Oid oid : oids) {
      if (oid != root) comps.push_back(oid);
    }
    std::sort(comps.begin(), comps.end());
    out.push_back(std::move(comps));
  }
  return out;
}

// Write transactions: every one patches a scalar field of a component of
// a Zipf-drawn root; every second also changes the root's unused reference
// slot 7; every fourth also inserts an object; one in 16 aborts.
Status MakeWrites(AcobDatabase* db, uint64_t seed,
                  std::vector<WriteTxn>* out) {
  COBRA_ASSIGN_OR_RETURN(std::vector<std::vector<Oid>> components,
                         Components(db));
  const Zipf zipf(kNumComplexObjects, kTheta);
  std::mt19937_64 rng = Stream(seed, 2);
  const std::vector<uint64_t> due = Arrivals(&rng, kWriteRate);
  const size_t n = due.size();
  std::map<Oid, ObjectData> base;
  auto image = [&](Oid oid) -> Result<ObjectData> {
    auto it = base.find(oid);
    if (it != base.end()) return it->second;
    COBRA_ASSIGN_OR_RETURN(ObjectData obj, db->store->Get(oid));
    base.emplace(oid, obj);
    return obj;
  };
  const Oid insert_base = db->store->next_oid() + 1'000'000;
  for (size_t j = 0; j < n; ++j) {
    WriteTxn txn;
    txn.due_ns = due[j];
    txn.job.client = "writer";
    txn.job.abort = j % 16 == 15;
    const size_t r = zipf.Draw(&rng);
    const std::vector<Oid>& comps = components[r];
    service::WriteOp patch;
    patch.kind = service::WriteOp::Kind::kUpdate;
    COBRA_ASSIGN_OR_RETURN(patch.obj, image(comps[rng() % comps.size()]));
    patch.obj.fields[3] = static_cast<int32_t>(1'000'000 + j);
    txn.job.ops.push_back(patch);
    if (j % 2 == 1) {
      const size_t r2 = zipf.Draw(&rng);
      service::WriteOp relink;
      relink.kind = service::WriteOp::Kind::kUpdate;
      COBRA_ASSIGN_OR_RETURN(relink.obj, image(db->roots[r2]));
      relink.obj.refs[7] = db->roots[(r2 + 1 + j) % db->roots.size()];
      txn.job.ops.push_back(relink);
    }
    if (j % 4 == 0) {
      service::WriteOp insert;
      insert.kind = service::WriteOp::Kind::kInsert;
      insert.obj.oid = insert_base + j;
      insert.obj.type_id = 99;
      insert.obj.fields = {static_cast<int32_t>(j), 1, 2, 3};
      txn.job.ops.push_back(insert);
    }
    for (const service::WriteOp& op : txn.job.ops) {
      txn.user_bytes += op.obj.SerializedSize();
    }
    out->push_back(std::move(txn));
  }
  return Status::OK();
}

std::vector<ReadReq> MakeReads(const AcobDatabase& db, uint64_t seed) {
  const Zipf zipf(kNumComplexObjects, kTheta);
  std::mt19937_64 rng = Stream(seed, 1);
  const std::vector<uint64_t> due = Arrivals(&rng, kReadRate);
  const size_t n = due.size();
  std::vector<ReadReq> reads(n);
  for (size_t i = 0; i < n; ++i) {
    reads[i].due_ns = due[i];
    for (size_t r = 0; r < kRootsPerQuery; ++r) {
      reads[i].roots.push_back(db.roots[zipf.Draw(&rng)]);
    }
  }
  return reads;
}

// Every acknowledged write reads back after a restart through WAL
// recovery; aborted inserts stay invisible.
Status CheckDurable(const Window& w, const std::vector<WriteTxn>& txns) {
  std::map<Oid, std::pair<wal::TxnId, const ObjectData*>> expect;
  std::set<Oid> absent;
  for (size_t k = 0; k < txns.size(); ++k) {
    const WriteSample& ws = w.writes[k];
    const bool acked = ws.done && ws.ok && !ws.aborted;
    for (const service::WriteOp& op : txns[k].job.ops) {
      if (!acked) {
        if (op.kind == service::WriteOp::Kind::kInsert && ws.aborted) {
          absent.insert(op.obj.oid);
        }
        continue;
      }
      auto& slot = expect[op.obj.oid];
      if (slot.second == nullptr || ws.txn > slot.first) {
        slot = {ws.txn, &op.obj};
      }
    }
  }
  wal::WalManager wal(w.crash_image.get(), w.wal_options);
  COBRA_RETURN_IF_ERROR(wal.Recover());
  BufferManager pool(w.crash_image.get(), BufferOptions{4096});
  pool.set_write_gate(&wal);
  COBRA_ASSIGN_OR_RETURN(HeapFile file,
                         HeapFile::Open(&pool, 0, w.file_pages));
  std::map<Oid, ObjectData> found;
  auto cursor = file.Scan();
  RecordId rid;
  std::vector<std::byte> record;
  for (;;) {
    COBRA_ASSIGN_OR_RETURN(bool more, cursor.Next(&rid, &record));
    if (!more) break;
    COBRA_ASSIGN_OR_RETURN(ObjectData obj, ObjectData::Deserialize(record));
    if (expect.contains(obj.oid) || absent.contains(obj.oid)) {
      found[obj.oid] = std::move(obj);
    }
  }
  for (const auto& [oid, want] : expect) {
    auto it = found.find(oid);
    if (it == found.end() || it->second != *want.second) {
      return Status::Corruption("acknowledged write to oid " +
                                std::to_string(oid) + " lost in recovery");
    }
  }
  for (Oid oid : absent) {
    if (found.contains(oid)) {
      return Status::Corruption("aborted insert " + std::to_string(oid) +
                                " visible after recovery");
    }
  }
  return Status::OK();
}

void SetParams(Report* report, bool writes) {
  report->params.Set("num_complex_objects", kNumComplexObjects);
  report->params.Set("clustering", "inter-object");
  report->params.Set("scheduler", "elevator");
  report->params.Set("window", kWindow);
  report->params.Set("buffer_frames", kServiceFrames);
  report->params.Set("buffer_shards", kShards);
  report->params.Set("service_workers", kWorkers);
  report->params.Set("cache_policy", "2q");
  report->params.Set("cache_capacity", kCacheEntries);
  report->params.Set("roots_per_query", kRootsPerQuery);
  report->params.Set("zipf_theta", kTheta);
  report->params.Set("warmup_queries", kWarmupQueriesPerClient * kClients);
  report->params.Set("async_disk", true);
  if (!writes) {
    report->params.Set("clients", kClients);
    report->params.Set("loop", "closed");
    return;
  }
  report->params.Set("loop", "open");
  report->params.Set("read_rate_per_s", kReadRate);
  report->params.Set("write_rate_per_s", kWriteRate);
  report->params.Set("writer_threads", kWriters);
  report->params.Set("wal_log_pages", kLogPages);
  report->params.Set("write_mix",
                     "patch every txn; relink every 2nd; insert every 4th; "
                     "abort 1 in 16");
}

Report RunService(const RunOptions& options, bool writes) {
  Report report;
  SetParams(&report, writes);
  Inputs in;
  if (writes) {
    // Inputs come from the seed before timing; the write targets need the
    // database, which is the same on every build.
    std::unique_ptr<AcobDatabase> db = BuildDatabase(Clustering::kInterObject);
    Status status = db == nullptr
                        ? Status::Internal("database build failed")
                        : MakeWrites(db.get(), options.seed, &in.writes);
    if (!status.ok()) {
      Fail(&report, "write schedule: " + status.ToString());
      return report;
    }
    in.reads = MakeReads(*db, options.seed);
  } else {
    const Zipf zipf(kNumComplexObjects, kTheta);
    for (size_t c = 0; c < kClients; ++c) {
      std::mt19937_64 rng = Stream(options.seed, 10 + c);
      std::vector<uint32_t> draws(kDrawsPerClient);
      for (uint32_t& d : draws) d = static_cast<uint32_t>(zipf.Draw(&rng));
      in.client_draws.push_back(std::move(draws));
    }
  }

  auto check = [&](const Window& w) {
    if (!writes || w.crash_image == nullptr) return;
    Status durable = CheckDurable(w, in.writes);
    if (!durable.ok()) Fail(&report, durable.ToString());
  };
  auto extras = [&](const Window& w) {
    if (!writes) return;
    std::vector<double> commit_ms;
    uint64_t user_bytes = 0;
    for (size_t k = 0; k < w.writes.size(); ++k) {
      const WriteSample& ws = w.writes[k];
      if (in.writes[k].job.abort && ws.done && ws.ok && ws.aborted) continue;
      if (!ws.done || !ws.ok || ws.aborted) {
        // A failed commit counts as missing every percentile.
        commit_ms.push_back(std::numeric_limits<double>::infinity());
        continue;
      }
      commit_ms.push_back(ws.latency_ns / 1e6);
      user_bytes += in.writes[k].user_bytes;
    }
    SetMetric(&report.extra, "commit_p50_ms", Quantile(commit_ms, 0.5), "ms",
              commit_ms.size());
    SetMetric(&report.extra, "commit_p99_ms", Quantile(commit_ms, 0.99), "ms",
              commit_ms.size());
    const double written = static_cast<double>(
        w.delta.wal.log_pages_written + w.delta.buffer.dirty_writebacks) *
        1024.0;
    SetMetric(&report.extra, "write_bytes_per_user_byte",
              Ratio(written, static_cast<double>(user_bytes)), "ratio",
              commit_ms.size());
  };

  std::vector<double> setup_s;
  Window plain = Measure(writes, &in, options.seed, nullptr,
                         options.trace ? 1 : kSetupRepeats, &setup_s, &report);
  check(plain);
  extras(plain);
  report.detail.Set("queries", plain.queries.size());
  report.detail.Set("write_txns", plain.writes.size());
  report.detail.Set("window_s", plain.seconds);
  if (!options.trace) {
    SetEndToEnd(&report, plain.e2e, setup_s);
    return report;
  }
  SpanRecorder recorder;
  Window traced =
      Measure(writes, &in, options.seed, &recorder, 1, nullptr, &report);
  check(traced);
  InitLayerMetrics(&report);
  SetServiceLayers(&report, traced, writes);
  // Open-loop throughput is the offered rate, so rw_open compares latency.
  SetOverhead(&report, plain.e2e, traced.e2e, /*by_latency=*/writes);
  if (!options.spans_path.empty()) {
    (void)recorder.WriteJsonLines(options.spans_path);
  }
  report.detail.Set("spans_dropped", recorder.dropped());
  return report;
}

}  // namespace

Report HotZipf(const RunOptions& options) {
  return RunService(options, /*writes=*/false);
}

Report RwOpen(const RunOptions& options) {
  return RunService(options, /*writes=*/true);
}

}  // namespace perfbench
