// obs_dump: live observability rendering for the query service.
//
// Drives a multi-client assembly workload through a QueryService over an
// AsyncDisk + sharded buffer pool — the same stack bench/multi_client
// measures — while a sampler thread takes obs::Snapshots of the running
// system.  The output is what a dashboard would show: in-flight queries
// with their attributed I/O so far, per-client cumulative totals,
// buffer-pool residency, the flight recorder's recent events, and any
// slow-query reports the run left.
//
// Text (default) renders the snapshots and reports; --json writes one
// machine-readable document with the same content.
//
// Flags: --clients K   concurrent clients          (default 4)
//        --size N      complex objects             (default 500)
//        --io-batch B  vectored-I/O run length     (default 1)
//        --slow-ns T   slow-query threshold in ns  (default 1: report all)
//        --recluster   run the background page mover under the workload
//                      and render its view: swaps applied, sketch
//                      occupancy, forwarding size, per-round seek trend
//        --json PATH   JSON output instead of text

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/flight_recorder.h"
#include "obs/snapshot.h"
#include "service/query_service.h"
#include "storage/async_disk.h"
#include "storage/recluster/affinity.h"
#include "storage/recluster/forwarding.h"
#include "storage/recluster/mover.h"

namespace {

using namespace cobra;         // NOLINT: tool brevity
using namespace cobra::bench;  // NOLINT

struct Flags {
  size_t clients = 4;
  size_t size = 500;
  size_t io_batch = 1;
  uint64_t slow_ns = 1;
  bool recluster = false;
  std::string json_path;
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
    } else if (const char* v = value_of(arg, "--size", &i)) {
      flags.size = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--io-batch", &i)) {
      flags.io_batch = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--slow-ns", &i)) {
      flags.slow_ns = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--json", &i)) {
      flags.json_path = v;
    } else if (arg == "--recluster") {
      flags.recluster = true;
    }
  }
  if (flags.clients == 0) flags.clients = 1;
  if (flags.size == 0) flags.size = 1;
  if (flags.io_batch == 0) flags.io_batch = 1;
  return flags;
}

std::vector<Oid> RootSlice(const std::vector<Oid>& roots, size_t i,
                           size_t k) {
  size_t n = roots.size();
  return std::vector<Oid>(roots.begin() + n * i / k,
                          roots.begin() + n * (i + 1) / k);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);

  AcobOptions options;
  options.num_complex_objects = flags.size;
  options.clustering = Clustering::kUnclustered;
  options.seed = 42;
  auto db = MustBuild(options);
  if (auto s = db->ColdRestart(); !s.ok()) {
    std::fprintf(stderr, "cold restart failed: %s\n", s.ToString().c_str());
    return 1;
  }

  AssemblyOptions aopts;
  aopts.window_size = 50;
  aopts.scheduler = SchedulerKind::kElevator;
  aopts.io_batch_pages = flags.io_batch;

  AsyncDisk async(db->disk.get());
  async.set_max_run_pages(flags.io_batch);
  BufferManager pool(&async,
                     BufferOptions{db->options.buffer_frames,
                                   db->options.replacement, db->options.retry,
                                   4 * flags.clients});

  // --recluster: the online re-clustering loop runs under the workload —
  // the sketch learns from the live disk event stream, the daemon moves
  // pages between (and during) rounds, and the tool renders its view.
  recluster::PageForwarding forwarding;
  recluster::AffinitySketch sketch;
  recluster::AffinityDiskListener learner(&sketch, &forwarding);
  if (flags.recluster) {
    pool.set_forwarding(&forwarding);
    db->disk->set_listener(&learner);
  }

  obs::JsonValue doc = obs::JsonValue::MakeObject();
  doc.Set("tool", "obs_dump");
  doc.Set("clients", flags.clients);
  doc.Set("size", flags.size);
  doc.Set("recluster", flags.recluster);
  obs::JsonValue live_samples = obs::JsonValue::MakeArray();
  std::string live_text;

  {
    service::ServiceOptions sopts;
    sopts.num_workers = flags.clients;
    sopts.async_disk = &async;
    sopts.slow_query_ns = flags.slow_ns;
    service::QueryService service(&pool, db->directory.get(), sopts);

    recluster::PageMover mover(&pool, &forwarding);
    recluster::DaemonOptions dopts;
    dopts.data_pages = db->data_pages;
    dopts.swaps_per_cycle = 32;
    dopts.cycle_sleep = std::chrono::milliseconds(1);
    recluster::ReclusterDaemon daemon(&mover, &sketch, &forwarding, dopts);
    if (flags.recluster) {
      daemon.set_exclusion([&](const std::function<void()>& fn) {
        service.WithReadLock(fn);
      });
      daemon.Start();
    }

    // With re-clustering on, run the root set twice: round 0 is the
    // unclustered baseline the sketch learns from, round 1 rides the moved
    // layout — the per-round seek totals are the convergence headline.
    std::vector<uint64_t> round_seek_pages;
    const size_t rounds = flags.recluster ? 2 : 1;
    for (size_t round = 0; round < rounds; ++round) {
      const uint64_t seeks_before = db->disk->stats().read_seek_pages;

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

      // Sampler: snapshot the live system while queries run.  Best effort
      // — a fast run may finish before any mid-flight sample lands.
      while (service.active_jobs() > 0) {
        obs::Snapshot snapshot = service.TakeSnapshot();
        if (!snapshot.in_flight.empty()) {
          live_samples.Append(snapshot.ToJson());
          live_text += snapshot.ToText();
          live_text += "\n";
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }

      for (auto& future : futures) {
        service::QueryResult result = future.get();
        if (!result.status.ok()) {
          std::fprintf(stderr, "client %s failed: %s\n",
                       result.client.c_str(),
                       result.status.ToString().c_str());
          return 1;
        }
      }
      service.Drain();
      round_seek_pages.push_back(db->disk->stats().read_seek_pages -
                                 seeks_before);
      // Give the daemon a beat to finish converging the quiet layout
      // before the measured second round.
      if (flags.recluster && round + 1 < rounds) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
    if (flags.recluster) daemon.Stop();

    obs::Snapshot final_snapshot = service.TakeSnapshot();
    std::vector<obs::SlowQueryReport> reports = service.slow_reports();

    obs::JsonValue recluster_view = obs::JsonValue::MakeObject();
    std::string recluster_text;
    if (flags.recluster) {
      const recluster::MoverStats mstats = mover.stats();
      const obs::QueryIoSnapshot mio = mover.io();
      recluster_view.Set("daemon_cycles", daemon.cycles());
      recluster_view.Set("swaps_applied", mstats.swaps_applied);
      recluster_view.Set("pages_moved", mstats.pages_moved);
      recluster_view.Set("skipped_uncommitted", mstats.skipped_uncommitted);
      recluster_view.Set("mover_disk_writes", mio.disk_writes);
      recluster_view.Set("mover_disk_reads", mio.disk_reads);
      recluster_view.Set("sketch_edges", sketch.edge_count());
      recluster_view.Set("sketch_occupancy", sketch.occupancy());
      recluster_view.Set("sketch_observations", sketch.observations());
      recluster_view.Set("forwarding_size", forwarding.size());
      obs::JsonValue seeks = obs::JsonValue::MakeArray();
      for (uint64_t pages : round_seek_pages) seeks.Append(pages);
      recluster_view.Set("round_read_seek_pages", std::move(seeks));

      char line[256];
      std::snprintf(line, sizeof(line),
                    "-- recluster --\n"
                    "cycles %llu, swaps %llu (pages %llu, skipped "
                    "uncommitted %llu), mover io r/w %llu/%llu\n"
                    "sketch: %zu edges (%.1f%% full, %llu observations), "
                    "forwarding: %zu pages displaced\n",
                    static_cast<unsigned long long>(daemon.cycles()),
                    static_cast<unsigned long long>(mstats.swaps_applied),
                    static_cast<unsigned long long>(mstats.pages_moved),
                    static_cast<unsigned long long>(
                        mstats.skipped_uncommitted),
                    static_cast<unsigned long long>(mio.disk_reads),
                    static_cast<unsigned long long>(mio.disk_writes),
                    sketch.edge_count(), 100.0 * sketch.occupancy(),
                    static_cast<unsigned long long>(sketch.observations()),
                    forwarding.size());
      recluster_text = line;
      recluster_text += "seek pages by round:";
      for (uint64_t pages : round_seek_pages) {
        recluster_text += " " + std::to_string(pages);
      }
      recluster_text += "\n";
    }

    if (!flags.json_path.empty()) {
      doc.Set("live", std::move(live_samples));
      doc.Set("final", final_snapshot.ToJson());
      doc.Set("flight", service.flight_recorder().ToJson());
      obs::JsonValue report_array = obs::JsonValue::MakeArray();
      for (const obs::SlowQueryReport& report : reports) {
        report_array.Append(report.ToJson());
      }
      doc.Set("slow_reports", std::move(report_array));
      if (flags.recluster) {
        doc.Set("recluster_view", std::move(recluster_view));
      }
      if (auto s = obs::WriteJsonFile(flags.json_path, doc); !s.ok()) {
        std::fprintf(stderr, "writing %s failed: %s\n",
                     flags.json_path.c_str(), s.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote %s\n", flags.json_path.c_str());
    } else {
      if (!live_text.empty()) {
        std::printf("-- live samples --\n%s", live_text.c_str());
      }
      std::printf("-- final --\n%s", final_snapshot.ToText().c_str());
      if (!recluster_text.empty()) {
        std::printf("\n%s", recluster_text.c_str());
      }
      std::printf("\n-- flight recorder: %zu events retained",
                  service.flight_recorder().Events().size());
      if (service.flight_recorder().dropped() > 0) {
        std::printf(" (%llu dropped)",
                    static_cast<unsigned long long>(
                        service.flight_recorder().dropped()));
      }
      std::printf(" --\n");
      for (const obs::SlowQueryReport& report : reports) {
        std::printf("\n%s", report.ToText().c_str());
      }
    }
  }
  async.Drain();
  return 0;
}
