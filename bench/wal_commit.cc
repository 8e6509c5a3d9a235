// Group-commit throughput: committer threads vs. log flushes.
//
// K client threads push small write transactions (inserts, updates, an
// occasional abort) through the QueryService's write path.  Every commit
// needs its commit record durable before it acknowledges, but the WAL's
// group-commit daemon flushes one batch per cycle — so concurrent
// committers amortize flushes, and commits-per-flush should grow with the
// thread count while the log write count stays sublinear in commits.
//
// All I/O is the simulated disk, so every WAL/disk counter is exact; only
// the commits-per-flush batching factor depends on thread timing (more
// threads can only batch more, never less than one commit per flush).
//
// Flags: --threads-max K   sweep 1..K doubling        (default 8)
//        --txns N          transactions per thread    (default 200)
//        --spindles N      disk-array geometry; the whole log extent is
//                          pinned to the last spindle (a dedicated log
//                          device), so commit flushes never contend with
//                          data writebacks for arm position (default 1)
//        --json PATH       machine-readable output

#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "buffer/buffer_manager.h"
#include "file/heap_file.h"
#include "object/directory.h"
#include "object/object.h"
#include "service/query_service.h"
#include "storage/disk.h"
#include "storage/disk_array.h"
#include "wal/wal.h"

namespace {

using namespace cobra;         // NOLINT: benchmark brevity
using namespace cobra::bench;  // NOLINT

constexpr PageId kDataFirst = 0;
constexpr size_t kDataPages = 512;
constexpr PageId kLogFirst = 1024;
constexpr size_t kLogPages = 64 * 1024;

struct Flags {
  size_t threads_max = 8;
  size_t txns = 200;
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
    if (const char* v = value_of(arg, "--threads-max", &i)) {
      flags.threads_max = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--txns", &i)) {
      flags.txns = std::strtoull(v, nullptr, 10);
    }
  }
  if (flags.threads_max == 0) flags.threads_max = 1;
  if (flags.txns == 0) flags.txns = 1;
  return flags;
}

ObjectData MakeObject(Oid oid, int32_t tag) {
  ObjectData obj;
  obj.oid = oid;
  obj.type_id = 1;
  obj.fields = {tag, tag + 1, tag + 2, tag + 3};
  obj.refs = {};
  return obj;
}

struct CommitRun {
  size_t threads = 0;
  uint64_t wall_ns = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t failures = 0;
  wal::WalStats wal;
  DiskStats disk;
  // Per-spindle breakdown, one entry per spindle.
  std::vector<DiskStats> spindle_disk;

  double commits_per_flush() const {
    return wal.batches_flushed == 0
               ? 0.0
               : static_cast<double>(wal.commits) /
                     static_cast<double>(wal.batches_flushed);
  }
};

CommitRun RunCommitters(size_t threads, size_t txns_per_thread,
                        const SpindleFlags& spindle) {
  std::unique_ptr<SimulatedDisk> disk_owner;
  if (spindle.single_spindle()) {
    disk_owner = std::make_unique<SimulatedDisk>();
  } else {
    DiskGeometry geometry;
    spindle.Apply(&geometry);
    disk_owner = std::make_unique<DiskArray>(ValidateGeometry(geometry));
    // Dedicated log device: the whole log extent lives on the last spindle,
    // so the group-commit daemon's sequential appends keep their own arm.
    disk_owner->SetLogRegion(kLogFirst, kLogPages, geometry.spindles - 1);
  }
  SimulatedDisk& disk = *disk_owner;
  wal::WalOptions wal_options;
  wal_options.log_first_page = kLogFirst;
  wal_options.log_max_pages = kLogPages;
  wal::WalManager wal(&disk, wal_options);
  if (auto s = wal.Recover(); !s.ok()) {
    std::fprintf(stderr, "wal recover failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  BufferManager pool(&disk, BufferOptions{.num_frames = 1024, .num_shards = 8});
  pool.set_write_gate(&wal);
  HeapFile file(&pool, kDataFirst, kDataPages);
  file.set_wal(&wal);
  HashDirectory directory;

  service::ServiceOptions options;
  options.num_workers = threads;
  options.wal = &wal;
  options.write_file = &file;
  options.next_oid = 1;
  service::QueryService service(&pool, &directory, options);

  CommitRun run;
  run.threads = threads;
  std::vector<uint64_t> committed(threads, 0);
  std::vector<uint64_t> aborted(threads, 0);
  std::vector<uint64_t> failures(threads, 0);

  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(threads);
  for (size_t c = 0; c < threads; ++c) {
    clients.emplace_back([&, c] {
      // Disjoint preset OID ranges keep threads independent.
      Oid next = 1 + static_cast<Oid>(c) * 1'000'000;
      Oid oldest = next;
      for (size_t j = 0; j < txns_per_thread; ++j) {
        service::WriteJob job;
        job.client = "committer" + std::to_string(c);
        job.abort = j % 16 == 15;
        for (int i = 0; i < 2; ++i) {
          service::WriteOp op;
          op.kind = service::WriteOp::Kind::kInsert;
          op.obj = MakeObject(next++, static_cast<int32_t>(j * 2 + i));
          job.ops.push_back(op);
        }
        if (!job.abort && next - oldest > 2) {
          service::WriteOp op;
          op.kind = service::WriteOp::Kind::kUpdate;
          op.obj = MakeObject(oldest, static_cast<int32_t>(9000 + j));
          job.ops.push_back(op);
        }
        service::WriteResult result = service.ExecuteWrite(job);
        if (!result.status.ok()) {
          ++failures[c];
        } else if (result.aborted) {
          ++aborted[c];
        } else {
          ++committed[c];
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  service.Drain();
  run.wall_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  for (size_t c = 0; c < threads; ++c) {
    run.committed += committed[c];
    run.aborted += aborted[c];
    run.failures += failures[c];
  }
  run.wal = wal.stats();
  run.disk = disk.stats();
  run.spindle_disk = SpindleStats(disk);
  return run;
}

obs::JsonValue RunToJson(const CommitRun& run) {
  obs::JsonValue out = obs::JsonValue::MakeObject();
  out.Set("label", "threads=" + std::to_string(run.threads));
  out.Set("threads", static_cast<uint64_t>(run.threads));
  out.Set("wall_ns", run.wall_ns);
  out.Set("committed", run.committed);
  out.Set("aborted", run.aborted);
  out.Set("failures", run.failures);
  obs::JsonValue w = obs::JsonValue::MakeObject();
  w.Set("records_appended", run.wal.records_appended);
  w.Set("commits", run.wal.commits);
  w.Set("aborts", run.wal.aborts);
  w.Set("batches_flushed", run.wal.batches_flushed);
  w.Set("log_pages_written", run.wal.log_pages_written);
  w.Set("bytes_flushed", run.wal.bytes_flushed);
  out.Set("wal", std::move(w));
  obs::JsonValue d = obs::JsonValue::MakeObject();
  d.Set("writes", run.disk.writes);
  d.Set("write_seek_pages", run.disk.write_seek_pages);
  out.Set("disk", std::move(d));
  out.Set("spindles", SpindlesToJson(run.spindle_disk));
  out.Set("commits_per_flush", run.commits_per_flush());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);
  SpindleFlags spindle = SpindleFlags::Parse(argc, argv);
  JsonReporter reporter("wal_commit", argc, argv);
  reporter.Set("txns_per_thread", static_cast<uint64_t>(flags.txns));
  reporter.Set("spindles", spindle.spindles);

  std::printf("Group commit — %zu transactions per thread\n", flags.txns);
  TablePrinter table({"threads", "commits", "flushes", "commits/flush",
                      "log pages", "commits/s"});
  for (size_t threads = 1; threads <= flags.threads_max; threads *= 2) {
    CommitRun run = RunCommitters(threads, flags.txns, spindle);
    if (run.failures != 0) {
      std::fprintf(stderr, "%llu write jobs failed\n",
                   static_cast<unsigned long long>(run.failures));
      return 1;
    }
    double per_sec = run.wall_ns == 0
                         ? 0.0
                         : static_cast<double>(run.committed) * 1e9 /
                               static_cast<double>(run.wall_ns);
    table.AddRow({std::to_string(threads), std::to_string(run.committed),
                  std::to_string(run.wal.batches_flushed),
                  Fmt(run.commits_per_flush()),
                  std::to_string(run.wal.log_pages_written),
                  std::to_string(static_cast<uint64_t>(per_sec))});
    reporter.AddRaw(RunToJson(run));
  }
  table.Print(std::cout);
  return reporter.Finish();
}
