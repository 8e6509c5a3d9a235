// Stale-read property harness for the assembled-object cache (ctest label
// `concurrency`; CI also runs this binary under -fsanitize=thread).
//
// The property: a cached read is NEVER stale.  Readers drain assembly
// queries through a QueryService whose ServiceOptions::cache is live, while
// writer threads commit scalar patches, structural updates, inserts, and
// aborted transactions against the same component population.  Every
// delivered complex object — cache hit or fresh assembly — is cross-checked
// against a shadow NaiveAssembler walk over the same buffer pool and
// directory, *inside the same shared-lock hold* that produced it (QueryJob::
// on_object), so the comparison sees exactly the pages the reader could see.
// Commit-time invalidation under the writer-exclusive lock is what makes the
// property hold; any early, late, or missed invalidation shows up here as a
// field mismatch.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "assembly/naive.h"
#include "assembly/template.h"
#include "buffer/buffer_manager.h"
#include "cache/object_cache.h"
#include "file/heap_file.h"
#include "object/assembled_object.h"
#include "object/object.h"
#include "object/object_store.h"
#include "service/query_service.h"
#include "storage/disk.h"
#include "wal/wal.h"
#include "workload/acob.h"

namespace cobra {
namespace {

// Pinned explicitly so a failure line reproduces with this exact schedule
// seed; every thread derives its stream from it.
constexpr uint64_t kSeed = 42;
constexpr size_t kWriters = 4;
constexpr size_t kTxnsPerWriter = 20;
constexpr size_t kReaderJobs = 24;

// Field values by OID over the whole reachable graph: the value identity
// compared between the delivered object and its shadow assembly.  (Node
// *instance* counts may differ legitimately — the cache deduplicates shared
// borders into segments, the naive walk refetches — but the values may not.)
std::map<Oid, std::vector<int32_t>> FieldsByOid(const AssembledObject* root) {
  std::map<Oid, std::vector<int32_t>> fields;
  VisitAssembled(root, [&fields](const AssembledObject& node) {
    fields[node.oid].assign(node.fields.begin(), node.fields.end());
  });
  return fields;
}

TEST(CacheProperty, ConcurrentCachedReadsMatchShadowAssembly) {
  SCOPED_TRACE("kSeed=" + std::to_string(kSeed));
  AcobOptions options;
  options.num_complex_objects = 96;
  options.clustering = Clustering::kUnclustered;
  options.sharing = 0.25;  // shared leaf pool: the fig15 stress case
  options.seed = kSeed;
  auto built = BuildAcobDatabase(options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto db = std::move(*built);
  ASSERT_TRUE(db->ColdRestart().ok());

  // Component discovery + before-images, single-threaded, before any
  // traffic: writers build patchable updates from these base images.
  std::vector<Oid> components;
  std::vector<Oid> root0_components;
  std::map<Oid, ObjectData> base_image;
  {
    NaiveAssembler naive(db->store.get(), &db->tmpl);
    ObjectArena arena;
    std::set<Oid> seen;
    for (Oid root : db->roots) {
      auto obj = naive.AssembleOne(root, &arena);
      ASSERT_TRUE(obj.ok()) << obj.status().ToString();
      ASSERT_NE(*obj, nullptr);
      for (Oid oid : CollectOids(*obj)) seen.insert(oid);
      if (root == db->roots[0]) {
        for (Oid oid : CollectOids(*obj)) {
          if (oid != root) root0_components.push_back(oid);
        }
      }
    }
    components.assign(seen.begin(), seen.end());
    for (Oid oid : components) {
      auto data = db->store->Get(oid);
      ASSERT_TRUE(data.ok()) << data.status().ToString();
      base_image[oid] = *data;
    }
  }
  // Disjoint target partitions keep scalar updates patchable for the whole
  // run: a scalar target's refs never change, so its before-image always
  // matches the base refs.
  std::vector<Oid> scalar_targets, struct_targets;
  for (size_t i = 0; i < components.size(); ++i) {
    (i % 5 == 0 ? struct_targets : scalar_targets).push_back(components[i]);
  }
  ASSERT_FALSE(scalar_targets.empty());
  ASSERT_FALSE(struct_targets.empty());

  // Write-path stack: the log extent past the workload data, and the
  // service's heap file REOPENED over the workload extent itself (plus tail
  // room for inserts) so updates can target the very objects the cached
  // assemblies are built from.
  const PageId base = db->disk->page_span();
  wal::WalOptions wal_options;
  wal_options.log_first_page = base + 128;
  wal_options.log_max_pages = 4096;
  wal::WalManager wal(db->disk.get(), wal_options);
  ASSERT_TRUE(wal.Recover().ok());
  BufferManager pool(db->disk.get(),
                     BufferOptions{.num_frames = 4096, .num_shards = 8});
  pool.set_write_gate(&wal);
  auto write_file = HeapFile::Open(&pool, 0, db->data_pages + 64);
  ASSERT_TRUE(write_file.ok()) << write_file.status().ToString();
  write_file->set_wal(&wal);

  // Sized to hold both template spaces entirely: this harness isolates the
  // staleness property; replacement churn is covered by cache_fuzz_test.
  cache::ObjectCache cache(cache::CacheOptions{.capacity = 256});

  service::ServiceOptions service_options;
  service_options.num_workers = 4;
  service_options.wal = &wal;
  service_options.write_file = &*write_file;
  service_options.next_oid = db->store->next_oid() + 1'000'000;
  service_options.cache = &cache;
  service::QueryService service(&pool, db->directory.get(), service_options);

  // A second space over the same data: same shape, but predicated, so its
  // entries are invalidate-only (a scalar change could flip membership).
  std::vector<TemplateNode*> pred_nodes;
  AssemblyTemplate pred_tmpl =
      MakeBinaryTreeTemplate(options.levels, &pred_nodes);
  pred_nodes[0]->predicate = [](const ObjectData&) { return true; };
  pred_nodes.back()->shared = db->nodes.back()->shared;
  pred_nodes.back()->sharing_degree = db->nodes.back()->sharing_degree;

  std::atomic<uint64_t> objects_checked{0};
  std::atomic<uint64_t> mismatches{0};
  std::mutex diag_mu;
  std::string first_diag;
  auto shadow_check = [&](const AssemblyTemplate* tmpl) {
    return [&, tmpl](const AssembledObject& got) {
      // Same pool, same directory, same shared-lock hold as the delivery.
      ObjectStore shadow_store(&pool, db->directory.get());
      NaiveAssembler shadow(&shadow_store, tmpl);
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
               " delivered values differ from shadow assembly";
      }
      if (!diag.empty()) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(diag_mu);
        if (first_diag.empty()) first_diag = diag;
      }
    };
  };

  auto make_job = [&](const AssemblyTemplate* tmpl, std::vector<Oid> roots,
                      const std::string& client) {
    service::QueryJob job;
    job.client = client;
    job.tmpl = tmpl;
    job.roots = std::move(roots);
    job.assembly.window_size = 8;
    job.assembly.scheduler = SchedulerKind::kElevator;
    job.on_object = shadow_check(tmpl);
    return job;
  };

  // Warmup: populate both spaces so the write traffic hits resident entries.
  {
    std::vector<std::future<service::QueryResult>> warm;
    warm.push_back(service.Submit(make_job(&db->tmpl, db->roots, "warm0")));
    warm.push_back(service.Submit(make_job(&pred_tmpl, db->roots, "warm1")));
    for (auto& f : warm) {
      service::QueryResult result = f.get();
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      EXPECT_EQ(result.rows, db->roots.size());
    }
  }
  ASSERT_EQ(mismatches.load(), 0u) << first_diag;
  EXPECT_EQ(cache.resident_entries(), 2 * db->roots.size());

  // Concurrent phase: 4 writer threads vs. 4 service workers.
  std::atomic<uint64_t> write_failures{0};
  std::string first_write_diag;
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      std::mt19937_64 rng(kSeed * 1000 + w);
      std::vector<Oid> own_inserts;
      Oid next_insert = db->store->next_oid() + static_cast<Oid>(w) * 10'000;
      for (size_t j = 0; j < kTxnsPerWriter; ++j) {
        service::WriteJob job;
        job.client = "writer" + std::to_string(w);
        job.abort = j % 7 == 6;
        // Scalar patch: base image with one field bumped (same type, same
        // refs, same shape — the patchable path).
        {
          service::WriteOp op;
          op.kind = service::WriteOp::Kind::kUpdate;
          op.obj = base_image.at(scalar_targets[rng() % scalar_targets.size()]);
          op.obj.fields[0] = static_cast<int32_t>(20'000 + w * 1'000 + j);
          job.ops.push_back(op);
        }
        // Structural update: an unused reference slot changes, which must
        // invalidate (assembly structure could depend on it).
        if (j % 2 == 1) {
          service::WriteOp op;
          op.kind = service::WriteOp::Kind::kUpdate;
          op.obj = base_image.at(struct_targets[rng() % struct_targets.size()]);
          op.obj.refs[7] = db->roots[rng() % db->roots.size()];
          job.ops.push_back(op);
        }
        // Inserts append past the workload data in the same extent; their
        // pages never intersect the footprints of the cached workload roots.
        if (j % 4 == 0) {
          service::WriteOp op;
          op.kind = service::WriteOp::Kind::kInsert;
          op.obj.oid = next_insert++;
          op.obj.type_id = 99;
          op.obj.fields = {int32_t(j), 0, 0, 0};
          op.obj.refs = {};
          if (!job.abort) own_inserts.push_back(op.obj.oid);
          job.ops.push_back(op);
        }
        if (j % 6 == 5 && !own_inserts.empty()) {
          service::WriteOp op;
          op.kind = service::WriteOp::Kind::kRemove;
          op.oid = own_inserts.back();
          own_inserts.pop_back();
          job.ops.push_back(op);
        }
        service::WriteResult result = service.ExecuteWrite(job);
        if (!result.status.ok()) {
          write_failures.fetch_add(1);
          std::lock_guard<std::mutex> lock(diag_mu);
          if (first_write_diag.empty()) {
            first_write_diag = result.status.ToString();
          }
        }
        if (result.status.ok() && job.abort) EXPECT_TRUE(result.aborted);
      }
    });
  }
  std::vector<std::future<service::QueryResult>> queries;
  {
    std::mt19937_64 rng(kSeed * 9001);
    for (size_t q = 0; q < kReaderJobs; ++q) {
      std::vector<Oid> roots;
      for (size_t k = 0; k < 12; ++k) {
        roots.push_back(db->roots[rng() % db->roots.size()]);
      }
      const AssemblyTemplate* tmpl = q % 2 == 0 ? &db->tmpl : &pred_tmpl;
      queries.push_back(
          service.Submit(make_job(tmpl, std::move(roots),
                                  "reader" + std::to_string(q))));
    }
  }
  for (auto& t : writers) t.join();
  uint64_t rows = 0;
  for (auto& f : queries) {
    service::QueryResult result = f.get();
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    rows += result.rows;
  }
  service.Drain();
  EXPECT_EQ(rows, kReaderJobs * 12);
  EXPECT_EQ(write_failures.load(), 0u) << first_write_diag;
  EXPECT_EQ(mismatches.load(), 0u) << first_diag;
  EXPECT_GT(objects_checked.load(), 2 * db->roots.size());

  cache::CacheStats stats = cache.stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.invalidations + stats.patches, 0u);
  EXPECT_EQ(cache.pinned_entries(), 0u);
  EXPECT_EQ(pool.pinned_frames(), 0u);
  EXPECT_EQ(wal.active_txns(), 0u);

  // Deterministic tail, single-threaded: one scalar patch and one
  // structural invalidation made visible end to end.
  ObjectStore reader(&pool, db->directory.get());
  const Oid root0 = db->roots[0];
  service.Submit(make_job(&db->tmpl, {root0}, "tail-warm")).get();
  const Oid target = root0_components.front();
  {
    auto current = reader.Get(target);
    ASSERT_TRUE(current.ok());
    service::WriteJob job;
    service::WriteOp op;
    op.kind = service::WriteOp::Kind::kUpdate;
    op.obj = *current;
    op.obj.fields[0] = 424'242;
    job.ops.push_back(op);
    const uint64_t patches_before = cache.stats().patches;
    ASSERT_TRUE(service.ExecuteWrite(job).status.ok());
    EXPECT_GT(cache.stats().patches, patches_before);
    // The patched value is what the cache serves now.
    cache::ObjectCache::Ref ref = cache.Lookup(&db->tmpl, root0);
    ASSERT_TRUE(ref);
    bool found = false;
    VisitAssembled(ref.object, [&](const AssembledObject& node) {
      if (node.oid == target) {
        EXPECT_EQ(node.fields[0], 424'242);
        found = true;
      }
    });
    EXPECT_TRUE(found);
    cache.Release(ref);
  }
  {
    auto current = reader.Get(target);
    ASSERT_TRUE(current.ok());
    service::WriteJob job;
    service::WriteOp op;
    op.kind = service::WriteOp::Kind::kUpdate;
    op.obj = *current;
    op.obj.refs[7] =
        current->refs[7] == db->roots[1] ? db->roots[2] : db->roots[1];
    job.ops.push_back(op);
    const uint64_t invalidations_before = cache.stats().invalidations;
    ASSERT_TRUE(service.ExecuteWrite(job).status.ok());
    EXPECT_GT(cache.stats().invalidations, invalidations_before);
    // The reference change dropped every entry whose footprint covers the
    // target's page — root0's entry among them.
    EXPECT_FALSE(cache.Lookup(&db->tmpl, root0));
  }
}

}  // namespace
}  // namespace cobra
