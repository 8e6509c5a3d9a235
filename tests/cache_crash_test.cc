// Crash-point sweep for the assembled-object cache (ctest label `crash`).
//
// The cache is process memory: no crash can leave a stale entry behind,
// because no entry survives the crash at all.  What CAN go wrong is the
// ordering around commit: the service applies cache invalidation under the
// writer-exclusive lock *before* the durability wait, so there are two
// windows a power cut can land in —
//
//   * before the commit record is durable: recovery rolls the pages back,
//     and the (already-invalidated, already-gone) cache state is moot;
//   * after the commit record is durable: recovery redoes the pages, and
//     the restarted stack builds a fresh cache from them.
//
// Either way the restarted cache must be COLD (zero resident entries) and
// its first fill must reflect exactly the recovered pages.  This sweep runs
// a cached write workload — populate, patch, structurally invalidate —
// against a power cut scheduled at every write boundary, in both crash
// modes, and asserts that after recovery a fresh cache assembles exactly
// the durable object graph, serves it again from hits, and that
// acknowledged commits are visible through the cache.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "assembly/template.h"
#include "buffer/buffer_manager.h"
#include "cache/cached_assembly.h"
#include "cache/object_cache.h"
#include "file/heap_file.h"
#include "object/assembled_object.h"
#include "object/directory.h"
#include "object/object.h"
#include "object/object_store.h"
#include "storage/faulty_disk.h"
#include "wal/wal.h"

namespace cobra {
namespace {

constexpr PageId kDataFirst = 0;
constexpr size_t kDataPages = 8;
constexpr PageId kLogFirst = 64;
constexpr size_t kLogPages = 128;

constexpr Oid kRoot1 = 1, kChild1 = 2, kRoot2 = 3, kChild2 = 4;

wal::WalOptions LogOptions() {
  wal::WalOptions options;
  options.log_first_page = kLogFirst;
  options.log_max_pages = kLogPages;
  return options;
}

ObjectData MakeRoot(Oid oid, Oid child, int32_t tag) {
  ObjectData obj;
  obj.oid = oid;
  obj.type_id = 1;
  obj.fields = {tag, 0, 0, 0};
  obj.refs.assign(8, kInvalidOid);
  obj.refs[0] = child;
  return obj;
}

ObjectData MakeChild(Oid oid, int32_t tag) {
  ObjectData obj;
  obj.oid = oid;
  obj.type_id = 2;
  obj.fields = {tag, 0, 0, 0};
  obj.refs.assign(8, kInvalidOid);
  return obj;
}

// root(type 1) --slot 0--> child(type 2), predicate-free (patchable space).
struct PairTemplate {
  AssemblyTemplate tmpl;
  PairTemplate() {
    TemplateNode* root = tmpl.AddNode("root");
    TemplateNode* child = tmpl.AddNode("child");
    root->expected_type = 1;
    child->expected_type = 2;
    root->children.push_back({0, child});
    tmpl.SetRoot(root);
  }
};

struct Ack {
  bool t1 = false;  // populate
  bool t2 = false;  // scalar patch of child1
  bool t3 = false;  // structural update of root2
};

// The cached write workload.  Mirrors the service's commit protocol
// (mutate -> ApplyCommittedWrite -> durability wait) single-threaded; the
// crash can land on any underlying page write, including mid-commit.
uint64_t RunCachedWorkload(FaultInjectingDisk* disk, uint64_t crash_after,
                           CrashWriteMode mode, Ack* ack) {
  disk->ScheduleCrash(crash_after, mode);
  {
    wal::WalManager wal(disk, LogOptions());
    if (!wal.Recover().ok()) return disk->writes_survived();
    BufferManager buffer(disk, BufferOptions{.num_frames = 32});
    buffer.set_write_gate(&wal);
    HeapFile file(&buffer, kDataFirst, kDataPages);
    file.set_wal(&wal);
    HashDirectory directory;
    ObjectStore store(&buffer, &directory);
    store.set_wal(&wal);
    cache::ObjectCache cache;
    PairTemplate pair;

    auto assemble = [&](std::vector<Oid> roots) {
      AssemblyOptions aopts;
      (void)cache::AssembleThroughCache(&cache, &pair.tmpl, &store,
                                        std::move(roots), aopts,
                                        /*batch_size=*/8);
    };
    auto locate_page = [&](Oid oid) -> PageId {
      auto loc = store.Locate(oid);
      return loc.ok() ? loc->page : kInvalidPageId;
    };

    // t1: populate two root/child pairs, then warm the cache.
    {
      auto t = store.BeginTxn();
      if (t.ok()) {
        bool ok = store.InsertTxn(*t, MakeChild(kChild1, 100), &file).ok() &&
                  store.InsertTxn(*t, MakeChild(kChild2, 200), &file).ok() &&
                  store.InsertTxn(*t, MakeRoot(kRoot1, kChild1, 10), &file)
                      .ok() &&
                  store.InsertTxn(*t, MakeRoot(kRoot2, kChild2, 20), &file)
                      .ok();
        if (!ok) {
          (void)store.AbortTxn(*t);
        } else if (store.CommitTxn(*t).ok()) {
          ack->t1 = true;
        }
      }
    }
    assemble({kRoot1, kRoot2});

    // t2: scalar patch of child1 — service order: mutate, apply to cache,
    // THEN wait for durability.  The crash may hit between the last two.
    {
      auto t = store.BeginTxn();
      if (t.ok()) {
        ObjectData after = MakeChild(kChild1, 2222);
        if (!store.UpdateTxn(*t, after, &file).ok()) {
          (void)store.AbortTxn(*t);
        } else {
          cache.ApplyCommittedWrite(
              {{locate_page(kChild1), /*patch=*/true, after}});
          if (store.CommitTxn(*t).ok()) ack->t2 = true;
        }
      }
    }
    assemble({kRoot1, kRoot2});

    // t3: structural update of root2 (a reference slot changes), which
    // invalidates instead of patching.
    {
      auto t = store.BeginTxn();
      if (t.ok()) {
        ObjectData after = MakeRoot(kRoot2, kChild2, 20);
        after.refs[7] = kRoot1;
        if (!store.UpdateTxn(*t, after, &file).ok()) {
          (void)store.AbortTxn(*t);
        } else {
          cache.ApplyCommittedWrite(
              {{locate_page(kRoot2), /*patch=*/false, {}}});
          if (store.CommitTxn(*t).ok()) ack->t3 = true;
        }
      }
    }
    assemble({kRoot1, kRoot2});
    (void)buffer.FlushAll();
  }
  return disk->writes_survived();
}

// Restart: recover, rebuild the directory from the heap scan, and check
// that a FRESH cache starts cold and its fills match the durable pages.
void VerifyColdConsistentCache(FaultInjectingDisk* disk, const Ack& ack,
                               const std::string& label) {
  SCOPED_TRACE(label);
  disk->ClearCrash();

  wal::WalManager wal(disk, LogOptions());
  Status recovered = wal.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  BufferManager buffer(disk, BufferOptions{.num_frames = 32});
  buffer.set_write_gate(&wal);
  auto file = HeapFile::Open(&buffer, kDataFirst, kDataPages);
  ASSERT_TRUE(file.ok()) << file.status().ToString();

  HashDirectory directory;
  std::map<Oid, ObjectData> durable;
  {
    auto cursor = file->Scan();
    RecordId rid;
    std::vector<std::byte> record;
    for (;;) {
      auto more = cursor.Next(&rid, &record);
      ASSERT_TRUE(more.ok()) << more.status().ToString();
      if (!*more) break;
      auto obj = ObjectData::Deserialize(record);
      ASSERT_TRUE(obj.ok()) << obj.status().ToString();
      ASSERT_TRUE(directory.Put(obj->oid, rid).ok());
      durable[obj->oid] = *obj;
    }
  }
  // Acknowledged commits are durable — visible to any post-restart fill.
  if (ack.t1) {
    ASSERT_TRUE(durable.contains(kRoot1) && durable.contains(kChild1));
  }
  if (ack.t2) EXPECT_EQ(durable.at(kChild1).fields[0], 2222);
  if (ack.t3) EXPECT_EQ(durable.at(kRoot2).refs[7], kRoot1);

  ObjectStore store(&buffer, &directory);
  cache::ObjectCache cache;
  EXPECT_EQ(cache.resident_entries(), 0u);  // cold, trivially consistent
  PairTemplate pair;

  std::vector<Oid> live_roots;
  for (const auto& [oid, obj] : durable) {
    if (obj.type_id == 1) live_roots.push_back(oid);
  }
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("pass=" + std::to_string(pass));
    std::map<Oid, std::vector<int32_t>> delivered;
    auto result = cache::AssembleThroughCache(
        &cache, &pair.tmpl, &store, live_roots, AssemblyOptions{},
        /*batch_size=*/8, [&](const AssembledObject& got) {
          VisitAssembled(&got, [&](const AssembledObject& node) {
            delivered[node.oid].assign(node.fields.begin(),
                                       node.fields.end());
          });
        });
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.rows, live_roots.size());
    if (pass == 0) {
      EXPECT_EQ(result.cache_misses, live_roots.size());
    } else {
      EXPECT_EQ(result.cache_hits, live_roots.size());
    }
    // Every delivered value is the durable one: the restarted cache cannot
    // remember pre-crash state it never saw.
    for (const auto& [oid, fields] : delivered) {
      ASSERT_TRUE(durable.contains(oid)) << "phantom oid " << oid;
      EXPECT_EQ(fields, durable.at(oid).fields) << "oid " << oid;
    }
  }
}

void SweepCachedCrashPoints(CrashWriteMode mode, const char* mode_name) {
  uint64_t total_writes = 0;
  {
    FaultInjectingDisk disk(FaultProfile{});
    Ack ack;
    total_writes = RunCachedWorkload(&disk, ~uint64_t{0}, mode, &ack);
    ASSERT_TRUE(ack.t1 && ack.t2 && ack.t3);
    ASSERT_FALSE(disk.crash_triggered());
    VerifyColdConsistentCache(&disk, ack,
                              std::string(mode_name) + " uncrashed");
  }
  ASSERT_GT(total_writes, 5u) << "workload too small to be interesting";

  for (uint64_t n = 0; n < total_writes; ++n) {
    FaultInjectingDisk disk(FaultProfile{});
    Ack ack;
    RunCachedWorkload(&disk, n, mode, &ack);
    EXPECT_TRUE(disk.crash_triggered()) << "crash point " << n << " unused";
    VerifyColdConsistentCache(&disk, ack,
                              std::string(mode_name) + " crash after " +
                                  std::to_string(n) + " writes");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CacheCrash, DropWriteSweepRestartsCold) {
  SweepCachedCrashPoints(CrashWriteMode::kDropWrite, "drop");
}

TEST(CacheCrash, TornWriteSweepRestartsCold) {
  SweepCachedCrashPoints(CrashWriteMode::kTornWrite, "torn");
}

}  // namespace
}  // namespace cobra
