// Shared plumbing for the paper-figure benchmark binaries.

#ifndef COBRA_BENCH_BENCH_UTIL_H_
#define COBRA_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "assembly/assembly_operator.h"
#include "cache/cached_assembly.h"
#include "cache/object_cache.h"
#include "exec/scan.h"
#include "obs/export.h"
#include "obs/json.h"
#include "stats/histogram.h"
#include "stats/metrics.h"
#include "storage/disk_array.h"
#include "wal/wal.h"
#include "workload/acob.h"

namespace cobra::bench {

inline std::unique_ptr<exec::VectorScan> RootScan(
    const std::vector<Oid>& roots) {
  std::vector<exec::Row> rows;
  rows.reserve(roots.size());
  for (Oid oid : roots) {
    rows.push_back(exec::Row{exec::Value::Ref(oid)});
  }
  return std::make_unique<exec::VectorScan>(std::move(rows));
}

// Fault-injection flags shared by the figure benches:
//   --faults <seed>            back the database with FaultProfile::Mixed(seed)
//   --error-policy fail|skip   what an unrecoverable component read does
//                              (default: skip — drop the object, finish the
//                              query over the survivors)
struct FaultFlags {
  bool enabled = false;
  uint64_t seed = 0;
  ErrorPolicy policy = ErrorPolicy::kSkipObject;

  static FaultFlags Parse(int argc, char** argv) {
    FaultFlags flags;
    auto parse_policy = [&flags](const std::string& value) {
      if (value == "fail") {
        flags.policy = ErrorPolicy::kFailQuery;
      } else if (value == "skip") {
        flags.policy = ErrorPolicy::kSkipObject;
      } else {
        std::fprintf(stderr, "unknown --error-policy '%s' (want fail|skip)\n",
                     value.c_str());
        std::exit(2);
      }
    };
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--faults" && i + 1 < argc) {
        flags.enabled = true;
        flags.seed = std::strtoull(argv[++i], nullptr, 10);
      } else if (arg.rfind("--faults=", 0) == 0) {
        flags.enabled = true;
        flags.seed = std::strtoull(arg.c_str() + 9, nullptr, 10);
      } else if (arg == "--error-policy" && i + 1 < argc) {
        parse_policy(argv[++i]);
      } else if (arg.rfind("--error-policy=", 0) == 0) {
        parse_policy(arg.substr(15));
      }
    }
    return flags;
  }

  void Apply(AcobOptions* options) const {
    if (enabled) options->faults = FaultProfile::Mixed(seed);
  }
  void Apply(AssemblyOptions* options) const {
    options->error_policy = policy;
  }
};

// Output batch size for the bench drain loops: --batch-size N (or
// --batch-size=N).  Affects only how many rows each NextBatch() call may
// deliver — full drains do the same I/O in the same order at any size.
struct BatchFlags {
  size_t batch_size = exec::RowBatch::kDefaultCapacity;

  static BatchFlags Parse(int argc, char** argv) {
    BatchFlags flags;
    auto parse_size = [&flags](const char* value) {
      unsigned long long n = std::strtoull(value, nullptr, 10);
      flags.batch_size = n == 0 ? 1 : static_cast<size_t>(n);
    };
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--batch-size" && i + 1 < argc) {
        parse_size(argv[++i]);
      } else if (arg.rfind("--batch-size=", 0) == 0) {
        parse_size(arg.c_str() + 13);
      }
    }
    return flags;
  }
};

// Vectored-I/O batch size: --io-batch N (or --io-batch=N).  Sets
// AssemblyOptions::io_batch_pages; 1 (the default) is the single-page read
// path.
struct IoBatchFlags {
  size_t io_batch = 1;

  static IoBatchFlags Parse(int argc, char** argv) {
    IoBatchFlags flags;
    auto parse_size = [&flags](const char* value) {
      unsigned long long n = std::strtoull(value, nullptr, 10);
      flags.io_batch = n == 0 ? 1 : static_cast<size_t>(n);
    };
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--io-batch" && i + 1 < argc) {
        parse_size(argv[++i]);
      } else if (arg.rfind("--io-batch=", 0) == 0) {
        parse_size(arg.c_str() + 11);
      }
    }
    return flags;
  }

  void Apply(AssemblyOptions* options) const {
    options->io_batch_pages = io_batch;
  }
  // Records the swept parameter in a run object.
  void Annotate(obs::JsonValue* extra) const {
    extra->Set("io_batch", static_cast<uint64_t>(io_batch));
  }
};

// Disk-array geometry: --spindles N (or --spindles=N) and --stripe-width W.
// The defaults (1 spindle, stripe width 1) are the degenerate geometry that
// reproduces the paper's single-arm device; CI checks exactly that.
struct SpindleFlags {
  uint32_t spindles = 1;
  uint32_t stripe_width = 1;

  static SpindleFlags Parse(int argc, char** argv) {
    SpindleFlags flags;
    auto parse_u32 = [](const char* value, uint32_t* out) {
      unsigned long long n = std::strtoull(value, nullptr, 10);
      *out = n == 0 ? 1 : static_cast<uint32_t>(n);
    };
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--spindles" && i + 1 < argc) {
        parse_u32(argv[++i], &flags.spindles);
      } else if (arg.rfind("--spindles=", 0) == 0) {
        parse_u32(arg.c_str() + 11, &flags.spindles);
      } else if (arg == "--stripe-width" && i + 1 < argc) {
        parse_u32(argv[++i], &flags.stripe_width);
      } else if (arg.rfind("--stripe-width=", 0) == 0) {
        parse_u32(arg.c_str() + 15, &flags.stripe_width);
      }
    }
    return flags;
  }

  bool single_spindle() const { return spindles == 1; }

  void Apply(DiskGeometry* geometry) const {
    geometry->spindles = spindles;
    geometry->stripe_width = stripe_width;
  }
  void Apply(AcobOptions* options) const { Apply(&options->geometry); }
  // "spindles" is the per-spindle stats array in run objects, so the swept
  // geometry annotates as num_spindles/stripe_width.
  void Annotate(obs::JsonValue* extra) const {
    extra->Set("num_spindles", static_cast<uint64_t>(spindles));
    extra->Set("stripe_width", static_cast<uint64_t>(stripe_width));
  }
};

// Crash-safety rig: --wal attaches a recovered WalManager to the database
// for the measured runs — log extent past the data, buffer write gate
// armed.  The figure workloads are read-only, so they append nothing and
// the measured output must stay bit-identical to the WAL-less goldens (CI
// diffs it); the flag exists to prove exactly that.  No JSON annotation for
// the same reason.
struct WalFlags {
  bool enabled = false;
  size_t log_pages = 4096;
  // --wal-spindle K pins the whole log extent onto spindle K (a dedicated
  // log device, classic commit-latency tuning).  -1 = stripe the log like
  // data.  Implies --wal.
  int wal_spindle = -1;

  static WalFlags Parse(int argc, char** argv) {
    WalFlags flags;
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--wal") {
        flags.enabled = true;
      } else if (arg == "--wal-spindle" && i + 1 < argc) {
        flags.enabled = true;
        flags.wal_spindle =
            static_cast<int>(std::strtol(argv[++i], nullptr, 10));
      } else if (arg.rfind("--wal-spindle=", 0) == 0) {
        flags.enabled = true;
        flags.wal_spindle =
            static_cast<int>(std::strtol(arg.c_str() + 14, nullptr, 10));
      }
    }
    return flags;
  }

  // Call after the database is built (and after ColdRestart): the build's
  // own writes predate the log, exactly like a database that existed before
  // the WAL was introduced.
  std::unique_ptr<wal::WalManager> Attach(AcobDatabase* db) const {
    wal::WalOptions options;
    options.log_first_page = db->disk->page_span() + 64;
    options.log_max_pages = log_pages;
    if (wal_spindle >= 0) {
      // Pin the log extent to a dedicated spindle before any log I/O so
      // recovery and appends agree on the mapping.
      db->disk->SetLogRegion(options.log_first_page, log_pages,
                             static_cast<uint32_t>(wal_spindle));
    }
    auto manager = std::make_unique<wal::WalManager>(db->disk.get(), options);
    if (auto s = manager->Recover(); !s.ok()) {
      std::fprintf(stderr, "wal recover failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
    db->buffer->set_write_gate(manager.get());
    // The recovery scan touched the (empty) log extent; measured runs must
    // start from the same head position and counters as a WAL-less run.
    db->disk->ResetStats();
    db->disk->ParkHead(0);
    return manager;
  }
};

// Assembled-object cache: --object-cache off|2q|arc|lru|clock (default off,
// the uncached read path) and --cache-capacity N (entries).  With the cache
// off nothing is even constructed — CI checks `--object-cache off` output
// against the goldens.
struct CacheFlags {
  cache::CachePolicyKind policy = cache::CachePolicyKind::kOff;
  size_t capacity = 4096;

  static CacheFlags Parse(int argc, char** argv) {
    CacheFlags flags;
    auto parse_policy = [&flags](const std::string& value) {
      if (!cache::ParseCachePolicyKind(value, &flags.policy)) {
        std::fprintf(stderr,
                     "unknown --object-cache '%s' "
                     "(want off|2q|arc|lru|clock)\n",
                     value.c_str());
        std::exit(2);
      }
    };
    auto parse_capacity = [&flags](const char* value) {
      unsigned long long n = std::strtoull(value, nullptr, 10);
      flags.capacity = n == 0 ? 1 : static_cast<size_t>(n);
    };
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--object-cache" && i + 1 < argc) {
        parse_policy(argv[++i]);
      } else if (arg.rfind("--object-cache=", 0) == 0) {
        parse_policy(arg.substr(15));
      } else if (arg == "--cache-capacity" && i + 1 < argc) {
        parse_capacity(argv[++i]);
      } else if (arg.rfind("--cache-capacity=", 0) == 0) {
        parse_capacity(arg.c_str() + 17);
      }
    }
    return flags;
  }

  bool enabled() const {
    return policy != cache::CachePolicyKind::kOff;
  }

  // Null when disabled — the cache must not exist at all on the off path.
  std::unique_ptr<cache::ObjectCache> MakeCache() const {
    if (!enabled()) return nullptr;
    cache::CacheOptions options;
    options.capacity = capacity;
    options.policy = policy;
    return std::make_unique<cache::ObjectCache>(options);
  }

  void Annotate(obs::JsonValue* extra) const {
    extra->Set("object_cache", std::string(cache::CachePolicyKindName(policy)));
    extra->Set("cache_capacity", static_cast<uint64_t>(capacity));
  }
};

inline obs::JsonValue SpindlesToJson(const std::vector<DiskStats>& spindles) {
  obs::JsonValue out = obs::JsonValue::MakeArray();
  for (const DiskStats& stats : spindles) out.Append(obs::ToJson(stats));
  return out;
}

struct RunResult {
  DiskStats disk;
  BufferStats buffer;
  AssemblyStats assembly;
  FaultStats faults;           // all-zero unless the run injected faults
  bool fault_injection = false;
  size_t refetched_pages = 0;  // faults on pages already faulted before
  SeekHistogram read_seeks;    // seek-distance distribution (read trace)
  // Per-spindle breakdown, one entry per spindle; fields sum to `disk`.
  std::vector<DiskStats> spindle_disk;
  // Assembled-object cache outcomes (all zero with the cache off).
  std::string cache_policy = "off";
  cache::CacheStats cache;

  double avg_seek() const { return disk.AvgSeekPerRead(); }
  double avg_write_seek() const { return disk.AvgSeekPerWrite(); }

  // Full JSON export: stats, derived metrics, seek-distance quantiles,
  // per-spindle stats and cache outcomes.
  obs::JsonValue ToJson(const std::string& label) const {
    RunMetrics metrics;
    metrics.label = label;
    metrics.disk = disk;
    metrics.buffer = buffer;
    metrics.assembly = assembly;
    metrics.read_seeks = read_seeks;
    obs::JsonValue out = obs::ToJson(metrics);
    out.Set("refetched_pages", refetched_pages);
    if (fault_injection) out.Set("faults", obs::ToJson(faults));
    out.Set("spindles", SpindlesToJson(spindle_disk));
    obs::JsonValue c = obs::ToJson(cache);
    c.Set("policy", cache_policy);
    out.Set("cache", std::move(c));
    return out;
  }
};

// Cold-restarts `db`, assembles every root with `options`, and returns the
// measurement.  Aborts the benchmark on error (benchmarks are not supposed
// to fail silently).  Every run records the disk read trace (for the
// seek-distance histogram).  `extra_disk_listener`, when set, sees every
// disk event of the run (bench/recluster_convergence.cc feeds its affinity
// sketch this way).
inline RunResult RunAssembly(
    AcobDatabase* db, AssemblyOptions options,
    size_t batch_size = exec::RowBatch::kDefaultCapacity,
    const WalFlags* wal_flags = nullptr,
    const CacheFlags* cache_flags = nullptr,
    DiskEventListener* extra_disk_listener = nullptr) {
  if (auto s = db->ColdRestart(); !s.ok()) {
    std::fprintf(stderr, "cold restart failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  std::unique_ptr<wal::WalManager> wal;
  if (wal_flags != nullptr && wal_flags->enabled) {
    wal = wal_flags->Attach(db);
  }
  // Per-run cache, null unless requested: a single full sweep sees every
  // root once (all misses), so this measures the insert-path overhead and
  // proves off-path identity; cache_zipf is the hit-rate bench.
  std::unique_ptr<cache::ObjectCache> object_cache;
  if (cache_flags != nullptr) object_cache = cache_flags->MakeCache();
  db->disk->EnableReadTrace(true);
  db->disk->set_listener(extra_disk_listener);
  // With no cache this is the plain operator drain.
  cache::CachedAssemblyResult assembled = cache::AssembleThroughCache(
      object_cache.get(), &db->tmpl, db->store.get(), db->roots, options,
      batch_size);
  if (!assembled.status.ok()) {
    std::fprintf(stderr, "assembly failed: %s\n",
                 assembled.status.ToString().c_str());
    std::exit(1);
  }
  RunResult result;
  result.assembly = assembled.assembly;
  if (object_cache != nullptr) {
    result.cache_policy = object_cache->policy_name();
    result.cache = object_cache->stats();
  }
  result.disk = db->disk->stats();
  result.buffer = db->buffer->stats();
  if (db->faulty != nullptr) {
    result.fault_injection = true;
    result.faults = db->faulty->fault_stats();
  }
  result.refetched_pages = static_cast<size_t>(
      result.buffer.faults - db->buffer->unique_pages_faulted());
  if (db->disk->num_spindles() > 1) {
    // Arms move independently; the charged per-read distances — not
    // consecutive-page deltas — are the real seek distribution.
    result.read_seeks = SeekHistogram::FromDistances(db->disk->seek_trace());
  } else {
    result.read_seeks = SeekHistogram::FromReadTrace(db->disk->read_trace());
  }
  result.spindle_disk = SpindleStats(*db->disk);
  db->disk->set_listener(nullptr);
  db->buffer->set_write_gate(nullptr);  // the WAL dies with this run
  db->disk->EnableReadTrace(false);
  return result;
}

// Machine-readable bench output.  Construct with argv; when the user passed
// `--json <path>` (or `--json=<path>`), every AddRun() accumulates into a
// document written by Finish():
//
//   {"bench": "...", "runs": [{"label": ..., "avg_seek": ...,
//                              "seek_histogram": {"p50": ...}, ...}]}
class JsonReporter {
 public:
  JsonReporter(std::string bench_name, int argc, char** argv)
      : doc_(obs::JsonValue::MakeObject()) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--json" && i + 1 < argc) {
        path_ = argv[++i];
      } else if (arg.rfind("--json=", 0) == 0) {
        path_ = arg.substr(7);
      } else if (arg == "--json") {
        std::fprintf(stderr, "--json requires a path argument\n");
      }
    }
    doc_.Set("bench", std::move(bench_name));
    doc_.Set("runs", obs::JsonValue::MakeArray());
  }

  bool enabled() const { return !path_.empty(); }

  // Top-level metadata (database size, scheduler, ...).
  void Set(const std::string& key, obs::JsonValue value) {
    doc_.Set(key, std::move(value));
  }

  // Records one measured configuration.  `extra` members (e.g. the swept
  // parameter) are spliced into the run object after the standard fields.
  void AddRun(const std::string& label, const RunResult& result,
              obs::JsonValue extra = obs::JsonValue()) {
    if (!enabled()) return;
    obs::JsonValue run = result.ToJson(label);
    if (extra.is_object()) {
      for (auto& member : extra.AsObject()) {
        run.Set(member.first, std::move(member.second));
      }
    }
    doc_["runs"].Append(std::move(run));
  }

  // Records a run object the bench built itself (for benches whose result
  // shape differs from RunResult, e.g. stacked pipelines).
  void AddRaw(obs::JsonValue run) {
    if (!enabled()) return;
    doc_["runs"].Append(std::move(run));
  }

  // Writes the document if --json was requested.  Returns a process exit
  // code so `return reporter.Finish();` works from main().
  int Finish() {
    if (!enabled()) return 0;
    if (auto s = obs::WriteJsonFile(path_, doc_); !s.ok()) {
      std::fprintf(stderr, "writing %s failed: %s\n", path_.c_str(),
                   s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", path_.c_str());
    return 0;
  }

 private:
  std::string path_;
  obs::JsonValue doc_;
};

// Builds a benchmark database, exiting on failure.
inline std::unique_ptr<AcobDatabase> MustBuild(const AcobOptions& options) {
  auto db = BuildAcobDatabase(options);
  if (!db.ok()) {
    std::fprintf(stderr, "database build failed: %s\n",
                 db.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(db).value();
}

}  // namespace cobra::bench

#endif  // COBRA_BENCH_BENCH_UTIL_H_
