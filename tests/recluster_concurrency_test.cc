// Query clients racing the background page mover (ctest label
// `concurrency`; CI runs it under TSan).
//
// Eight closed-loop clients assemble through a QueryService over AsyncDisk
// and a sharded pool while a ReclusterDaemon — learning from the live disk
// event stream and excluded from write windows via
// QueryService::WithReadLock — relocates the pages under them.  Two
// invariants:
//
//   * no stale or torn delivery: every delivered object is cross-checked
//     against an uncached shadow NaiveAssembler walk over the same pool at
//     delivery time;
//   * attribution stays conserved with the mover as a first-class query:
//     sum(per-query I/O) + mover I/O == global disk/buffer stats, exactly.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "assembly/naive.h"
#include "buffer/buffer_manager.h"
#include "object/assembled_object.h"
#include "object/object_store.h"
#include "service/query_service.h"
#include "storage/async_disk.h"
#include "storage/recluster/affinity.h"
#include "storage/recluster/forwarding.h"
#include "storage/recluster/mover.h"
#include "workload/acob.h"

namespace cobra {
namespace {

using recluster::AffinitySketch;
using recluster::PageForwarding;
using recluster::PageMover;
using recluster::ReclusterDaemon;

std::map<Oid, std::vector<int32_t>> FieldsByOid(const AssembledObject* root) {
  std::map<Oid, std::vector<int32_t>> out;
  VisitAssembled(root, [&](const AssembledObject& node) {
    out[node.oid].assign(node.fields.begin(), node.fields.end());
  });
  return out;
}

TEST(ReclusterConcurrency, ClientsRaceTheMoverWithConservedAttribution) {
  constexpr size_t kClients = 8;
  constexpr size_t kQueriesPerClient = 12;
  constexpr size_t kRootsPerQuery = 12;

  AcobOptions options;
  options.num_complex_objects = 200;
  options.clustering = Clustering::kUnclustered;
  options.seed = 42;
  auto built = BuildAcobDatabase(options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto db = std::move(*built);
  ASSERT_TRUE(db->ColdRestart().ok());

  PageForwarding fwd;
  AffinitySketch sketch;
  recluster::AffinityDiskListener learner(&sketch, &fwd);
  db->disk->set_listener(&learner);

  std::atomic<uint64_t> objects_checked{0};
  std::atomic<uint64_t> mismatches{0};
  std::mutex diag_mu;
  std::string first_diag;

  obs::QueryIoSnapshot attributed;
  DiskStats disk_stats;
  BufferStats buffer_stats;
  obs::QueryIoSnapshot mover_io;
  uint64_t swaps_applied = 0;
  uint64_t daemon_cycles = 0;
  {
    AsyncDisk async(db->disk.get());
    BufferManager pool(&async,
                       BufferOptions{.num_frames = 4096, .num_shards = 8});
    pool.set_forwarding(&fwd);
    service::ServiceOptions sopts;
    sopts.num_workers = kClients;
    sopts.async_disk = &async;
    service::QueryService service(&pool, db->directory.get(), sopts);

    // Delivery-time shadow: re-assemble the delivered root naively over
    // the same pool (and thus through the same live forwarding table) and
    // compare every scalar.  Runs inside the worker, so a swap committed
    // mid-query must still present each logical page intact.
    auto shadow_check = [&](const AssembledObject& got) {
      ObjectStore shadow_store(&pool, db->directory.get());
      NaiveAssembler shadow(&shadow_store, &db->tmpl);
      ObjectArena arena;
      auto want = shadow.AssembleOne(got.oid, &arena);
      objects_checked.fetch_add(1, std::memory_order_relaxed);
      std::string diag;
      if (!want.ok()) {
        diag = "shadow assembly failed: " + want.status().ToString();
      } else if (*want == nullptr) {
        diag = "shadow rejected root " + std::to_string(got.oid);
      } else if (FieldsByOid(&got) != FieldsByOid(*want)) {
        diag = "STALE READ: root " + std::to_string(got.oid) +
               " differs from shadow assembly";
      }
      if (!diag.empty()) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(diag_mu);
        if (first_diag.empty()) first_diag = diag;
      }
    };

    PageMover mover(&pool, &fwd);
    recluster::DaemonOptions dopts;
    dopts.data_first = 0;
    dopts.data_pages = db->data_pages;
    dopts.swaps_per_cycle = 8;
    dopts.cycle_sleep = std::chrono::milliseconds(1);
    dopts.min_observations = 32;
    ReclusterDaemon daemon(&mover, &sketch, &fwd, dopts);
    daemon.set_exclusion([&](const std::function<void()>& fn) {
      service.WithReadLock(fn);
    });
    daemon.Start();

    std::vector<std::thread> clients;
    std::mutex results_mu;
    std::vector<service::QueryResult> results;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::mt19937_64 rng(options.seed * 131 + c);
        for (size_t q = 0; q < kQueriesPerClient; ++q) {
          service::QueryJob job;
          job.client = "c" + std::to_string(c);
          job.tmpl = &db->tmpl;
          job.assembly.window_size = 16;
          job.assembly.scheduler = SchedulerKind::kElevator;
          job.on_object = shadow_check;
          job.roots.reserve(kRootsPerQuery);
          for (size_t r = 0; r < kRootsPerQuery; ++r) {
            job.roots.push_back(db->roots[rng() % db->roots.size()]);
          }
          service::QueryResult result = service.Submit(std::move(job)).get();
          ASSERT_TRUE(result.status.ok()) << result.status.ToString();
          std::lock_guard<std::mutex> lock(results_mu);
          results.push_back(std::move(result));
        }
      });
    }
    for (std::thread& client : clients) client.join();

    // Let the daemon keep converging the now-quiet layout until it has
    // demonstrably moved pages (the sketch saw every data page fault).
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(10);
    while (mover.stats().swaps_applied == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    daemon.Stop();
    service.Drain();
    async.Drain();

    for (const service::QueryResult& result : results) {
      attributed += result.io;
    }
    attributed += mover.io();
    mover_io = mover.io();
    swaps_applied = mover.stats().swaps_applied;
    daemon_cycles = daemon.cycles();
    disk_stats = db->disk->stats();
    buffer_stats = pool.stats();
  }
  db->disk->set_listener(nullptr);

  EXPECT_EQ(mismatches.load(), 0u) << first_diag;
  EXPECT_EQ(objects_checked.load(),
            kClients * kQueriesPerClient * kRootsPerQuery);
  EXPECT_GT(daemon_cycles, 0u);
  EXPECT_GT(swaps_applied, 0u) << "the mover never relocated a page";
  EXPECT_GT(mover_io.disk_writes, 0u);

  // Conservation with the mover as a synthetic query: per-query sums plus
  // the mover's context account for every global increment exactly.
  EXPECT_EQ(attributed.disk_reads, disk_stats.reads);
  EXPECT_EQ(attributed.disk_writes, disk_stats.writes);
  EXPECT_EQ(attributed.read_seek_pages, disk_stats.read_seek_pages);
  EXPECT_EQ(attributed.write_seek_pages, disk_stats.write_seek_pages);
  EXPECT_EQ(attributed.pages_read, disk_stats.pages_read);
  EXPECT_EQ(attributed.coalesced_runs, disk_stats.coalesced_runs);
  EXPECT_EQ(attributed.buffer_hits, buffer_stats.hits);
  EXPECT_EQ(attributed.buffer_faults, buffer_stats.faults);
}

}  // namespace
}  // namespace cobra
