// Zipfian multi-client read workload over the assembled-object cache.
//
// The paper's premise is that assembling a complex object from pages is the
// expensive operation (§4); ROADMAP item 4 asks what happens when many
// clients keep requesting the same hot objects.  K closed-loop clients draw
// root OIDs from a Zipf(theta) distribution — a small hot set absorbs most
// requests — and run assembly queries through one shared QueryService.
// With `--object-cache off` every request re-assembles from pages; with a
// cache the hot set is materialized once and served swizzled.
//
// One run per replacement policy (off, 2q, arc, lru, clock by default;
// `--object-cache P` narrows the comparison to off vs P).  The headline
// metrics are hit rate and rows/sec relative to the off baseline;
// `--scan-every S` makes every S-th query a sequential sweep of all roots,
// which is the scan-resistance case: ghost-list policies (2q, arc) keep
// their hot set, plain lru drops it.
//
// Flags: --clients K        closed-loop clients           (default 8)
//        --queries Q        queries per client            (default 64)
//        --roots-per-query R  Zipf draws per query        (default 16)
//        --theta T          Zipf skew                     (default 0.99)
//        --size N           complex objects in the database (default 1000)
//        --buffer-frames F  shared pool frames            (default 256)
//        --scan-every S     every S-th query sweeps all roots (default 0)
//        --seed X           workload RNG seed             (default 42)
//        --cache-capacity C cache entries                 (default 4096)
//        --object-cache P   compare off vs P only
//        --spindles N       disk-array arms (striped placement, default 1)
//        --stripe-width W   pages per stripe unit          (default 1)
//        --json PATH        machine-readable output (bench_golden.py cache)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "service/query_service.h"
#include "storage/async_disk.h"

namespace {

using namespace cobra;         // NOLINT: benchmark brevity
using namespace cobra::bench;  // NOLINT

struct Flags {
  size_t clients = 8;
  size_t queries = 64;
  size_t roots_per_query = 16;
  double theta = 0.99;
  size_t size = 1000;
  size_t buffer_frames = 256;
  size_t scan_every = 0;
  uint64_t seed = 42;
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
    } else if (const char* v = value_of(arg, "--queries", &i)) {
      flags.queries = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--roots-per-query", &i)) {
      flags.roots_per_query = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--theta", &i)) {
      flags.theta = std::strtod(v, nullptr);
    } else if (const char* v = value_of(arg, "--size", &i)) {
      flags.size = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--buffer-frames", &i)) {
      flags.buffer_frames = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--scan-every", &i)) {
      flags.scan_every = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--seed", &i)) {
      flags.seed = std::strtoull(v, nullptr, 10);
    }
  }
  if (flags.clients == 0) flags.clients = 1;
  if (flags.queries == 0) flags.queries = 1;
  if (flags.roots_per_query == 0) flags.roots_per_query = 1;
  if (flags.size == 0) flags.size = 1;
  if (flags.buffer_frames == 0) flags.buffer_frames = 64;
  return flags;
}

// Zipf(theta) over root ranks via inverse CDF on a prefix-sum table: rank r
// is drawn with probability 1/(r+1)^theta (normalized).  Deterministic given
// the RNG, O(log n) per draw.
class ZipfPicker {
 public:
  ZipfPicker(size_t n, double theta) : cdf_(n) {
    double sum = 0.0;
    for (size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cdf_[r] = sum;
    }
    for (size_t r = 0; r < n; ++r) cdf_[r] /= sum;
  }

  size_t Draw(std::mt19937_64* rng) const {
    double u = std::uniform_real_distribution<double>(0.0, 1.0)(*rng);
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

struct PolicyRun {
  std::string label;
  uint64_t rows = 0;
  uint64_t elapsed_ns = 0;
  double rows_per_sec = 0.0;
  cache::CacheStats cache;
  DiskStats disk;
  BufferStats buffer;
  // Per-spindle breakdown, one entry per spindle.
  std::vector<DiskStats> spindle_disk;

  double hit_rate() const {
    uint64_t total = cache.hits + cache.misses;
    return total == 0 ? 0.0
                      : static_cast<double>(cache.hits) /
                            static_cast<double>(total);
  }
};

PolicyRun RunPolicy(AcobDatabase* db, const Flags& flags,
                    cache::CachePolicyKind policy, size_t capacity) {
  if (auto s = db->ColdRestart(); !s.ok()) {
    std::fprintf(stderr, "cold restart failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  PolicyRun run;
  run.label = cache::CachePolicyKindName(policy);

  std::unique_ptr<cache::ObjectCache> object_cache;
  if (policy != cache::CachePolicyKind::kOff) {
    cache::CacheOptions copts;
    copts.capacity = capacity;
    copts.policy = policy;
    object_cache = std::make_unique<cache::ObjectCache>(copts);
  }

  ZipfPicker zipf(db->roots.size(), flags.theta);
  AssemblyOptions aopts;
  aopts.window_size = 50;
  aopts.scheduler = SchedulerKind::kElevator;

  // Same stack as multi_client: async front-end, sharded pool, service
  // worker per client.  Declaration order fixes teardown order.
  AsyncDisk async(db->disk.get());
  BufferManager pool(&async,
                     BufferOptions{flags.buffer_frames,
                                   db->options.replacement, db->options.retry,
                                   4 * flags.clients});
  auto start = std::chrono::steady_clock::now();
  std::atomic<uint64_t> rows{0};
  {
    service::ServiceOptions sopts;
    sopts.num_workers = flags.clients;
    sopts.async_disk = &async;
    sopts.cache = object_cache.get();
    service::QueryService service(&pool, db->directory.get(), sopts);
    std::vector<std::thread> clients;
    clients.reserve(flags.clients);
    for (size_t c = 0; c < flags.clients; ++c) {
      clients.emplace_back([&, c] {
        // Per-client stream, pinned to the workload seed so every policy
        // (and the off baseline) replays the identical request sequence.
        std::mt19937_64 rng(flags.seed * 7919 + c);
        for (size_t q = 0; q < flags.queries; ++q) {
          service::QueryJob job;
          job.client = "c" + std::to_string(c);
          job.tmpl = &db->tmpl;
          job.assembly = aopts;
          if (flags.scan_every > 0 && (q + 1) % flags.scan_every == 0) {
            job.roots = db->roots;  // the cache-polluting sequential sweep
          } else {
            job.roots.reserve(flags.roots_per_query);
            for (size_t r = 0; r < flags.roots_per_query; ++r) {
              job.roots.push_back(db->roots[zipf.Draw(&rng)]);
            }
          }
          service::QueryResult result = service.Submit(std::move(job)).get();
          if (!result.status.ok()) {
            std::fprintf(stderr, "query failed: %s\n",
                         result.status.ToString().c_str());
            std::exit(1);
          }
          rows.fetch_add(result.rows, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& client : clients) client.join();
    service.Drain();
  }
  async.Drain();
  run.elapsed_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  run.rows = rows.load(std::memory_order_relaxed);
  run.rows_per_sec = run.elapsed_ns == 0
                         ? 0.0
                         : static_cast<double>(run.rows) * 1e9 /
                               static_cast<double>(run.elapsed_ns);
  if (object_cache != nullptr) run.cache = object_cache->stats();
  run.disk = db->disk->stats();
  run.buffer = pool.stats();
  run.spindle_disk = SpindleStats(*db->disk);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);
  CacheFlags cache_flags = CacheFlags::Parse(argc, argv);
  SpindleFlags spindle = SpindleFlags::Parse(argc, argv);

  AcobOptions options;
  options.num_complex_objects = flags.size;
  options.clustering = Clustering::kInterObject;
  options.seed = 42;
  spindle.Apply(&options);
  auto db = MustBuild(options);

  // Default: every policy head-to-head.  --object-cache P narrows the
  // comparison to the off baseline vs P.
  std::vector<cache::CachePolicyKind> policies;
  policies.push_back(cache::CachePolicyKind::kOff);
  if (cache_flags.enabled()) {
    policies.push_back(cache_flags.policy);
  } else {
    policies.push_back(cache::CachePolicyKind::kTwoQ);
    policies.push_back(cache::CachePolicyKind::kArc);
    policies.push_back(cache::CachePolicyKind::kLru);
    policies.push_back(cache::CachePolicyKind::kClock);
  }

  JsonReporter reporter("cache_zipf", argc, argv);
  reporter.Set("clients", flags.clients);
  reporter.Set("queries_per_client", flags.queries);
  reporter.Set("roots_per_query", flags.roots_per_query);
  reporter.Set("theta", flags.theta);
  reporter.Set("num_complex_objects", flags.size);
  reporter.Set("buffer_frames", flags.buffer_frames);
  reporter.Set("cache_capacity", cache_flags.capacity);
  reporter.Set("seed", flags.seed);
  reporter.Set("scan_every", flags.scan_every);
  reporter.Set("num_spindles", static_cast<uint64_t>(spindle.spindles));
  reporter.Set("stripe_width", static_cast<uint64_t>(spindle.stripe_width));

  std::printf("Zipfian cache bench — %zu clients x %zu queries x %zu roots, "
              "theta=%.2f, N=%zu, %zu frames\n\n",
              flags.clients, flags.queries, flags.roots_per_query,
              flags.theta, flags.size, flags.buffer_frames);
  TablePrinter table({"policy", "rows", "rows/sec", "hit rate", "hits",
                      "misses", "evictions", "disk reads"});

  double off_rows_per_sec = 0.0;
  for (cache::CachePolicyKind policy : policies) {
    PolicyRun run = RunPolicy(db.get(), flags, policy, cache_flags.capacity);
    const bool cached = policy != cache::CachePolicyKind::kOff;
    if (!cached) off_rows_per_sec = run.rows_per_sec;
    table.AddRow({run.label, FmtInt(run.rows), Fmt(run.rows_per_sec),
                  cached ? Fmt(run.hit_rate()) : "-",
                  cached ? FmtInt(run.cache.hits) : "-",
                  cached ? FmtInt(run.cache.misses) : "-",
                  cached ? FmtInt(run.cache.evictions) : "-",
                  FmtInt(run.disk.reads)});
    obs::JsonValue out = obs::JsonValue::MakeObject();
    out.Set("label", run.label);
    out.Set("policy", run.label);
    out.Set("rows", run.rows);
    out.Set("elapsed_ns", run.elapsed_ns);
    out.Set("rows_per_sec", run.rows_per_sec);
    if (off_rows_per_sec > 0.0) {
      out.Set("speedup_vs_off", run.rows_per_sec / off_rows_per_sec);
    }
    out.Set("disk_reads", run.disk.reads);
    out.Set("buffer_faults", run.buffer.faults);
    out.Set("hit_rate", run.hit_rate());
    out.Set("cache", obs::ToJson(run.cache));
    out.Set("spindles", SpindlesToJson(run.spindle_disk));
    reporter.AddRaw(std::move(out));
  }
  table.Print(std::cout);
  std::printf("\n");
  return reporter.Finish();
}
