// Unit coverage for the assembled-object cache (src/cache/): hit/miss
// behavior, footprint invalidation vs. in-place patching, shared-segment
// refcounting, replacement policies, pins/zombies, and the schema barrier.
// The multi-threaded stale-read property harness lives in
// cache_property_test.cc; randomized graph teardown in cache_fuzz_test.cc.

#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "assembly/assembly_operator.h"
#include "assembly/template.h"
#include "buffer/buffer_manager.h"
#include "cache/cache_policy.h"
#include "cache/cached_assembly.h"
#include "cache/object_cache.h"
#include "exec/scan.h"
#include "file/heap_file.h"
#include "object/assembled_object.h"
#include "object/directory.h"
#include "object/object_store.h"
#include "storage/disk.h"

namespace cobra {
namespace {

using cache::CacheOptions;
using cache::CachePolicyKind;
using cache::CachedAssemblyResult;
using cache::CommittedWrite;
using cache::MakeCachePolicy;
using cache::ObjectCache;
using cache::WriteEffect;

// Hand-built micro-database with explicit physical placement, so tests can
// reason about exactly which pages a cached entry's footprint covers.
class CacheTest : public ::testing::Test {
 protected:
  CacheTest()
      : buffer_(&disk_, BufferOptions{.num_frames = 512}),
        store_(&buffer_, &directory_),
        file_(&buffer_, 0, 256) {}

  Oid Put(TypeId type, std::vector<int32_t> fields, std::vector<Oid> refs,
          size_t page) {
    ObjectData obj;
    obj.oid = store_.AllocateOid();
    obj.type_id = type;
    obj.fields = std::move(fields);
    obj.refs = std::move(refs);
    obj.refs.resize(8, kInvalidOid);
    auto stored = store_.InsertAtPage(obj, &file_, page);
    EXPECT_TRUE(stored.ok()) << stored.status().ToString();
    return obj.oid;
  }

  PageId PageOf(Oid oid) {
    Result<RecordId> loc = store_.Locate(oid);
    EXPECT_TRUE(loc.ok()) << loc.status().ToString();
    return loc->page;
  }

  // Drains `roots` through the cache (or uncached when cache == nullptr) and
  // returns per-root field sums so value equality can be asserted across
  // cached / uncached / patched runs.
  CachedAssemblyResult Run(ObjectCache* cache, const AssemblyTemplate* tmpl,
                           const std::vector<Oid>& roots,
                           std::map<Oid, int64_t>* sums_out = nullptr) {
    AssemblyOptions options;
    auto on_object = [sums_out](const AssembledObject& obj) {
      if (sums_out != nullptr) (*sums_out)[obj.oid] = SumField(&obj, 0);
    };
    CachedAssemblyResult result = cache::AssembleThroughCache(
        cache, tmpl, &store_, roots, options, /*batch_size=*/16, on_object);
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    return result;
  }

  SimulatedDisk disk_;
  BufferManager buffer_;
  HashDirectory directory_;
  ObjectStore store_;
  HeapFile file_;
};

// root(type 1) -> mid(type 2) -> leaf(type 3), one object per page.
struct ChainTemplate {
  AssemblyTemplate tmpl;
  TemplateNode* root;
  TemplateNode* mid;
  TemplateNode* leaf;

  ChainTemplate() {
    root = tmpl.AddNode("root");
    mid = tmpl.AddNode("mid");
    leaf = tmpl.AddNode("leaf");
    root->expected_type = 1;
    mid->expected_type = 2;
    leaf->expected_type = 3;
    root->children.push_back({0, mid});
    mid->children.push_back({0, leaf});
    tmpl.SetRoot(root);
  }
};

TEST_F(CacheTest, SecondPassHitsWithoutDiskReads) {
  ChainTemplate ct;
  std::vector<Oid> roots;
  for (size_t i = 0; i < 4; ++i) {
    Oid leaf = Put(3, {int32_t(30 + i)}, {}, 3 * i + 2);
    Oid mid = Put(2, {int32_t(20 + i)}, {leaf}, 3 * i + 1);
    roots.push_back(Put(1, {int32_t(10 + i)}, {mid}, 3 * i));
  }

  ObjectCache cache;
  std::map<Oid, int64_t> first, second;
  CachedAssemblyResult cold = Run(&cache, &ct.tmpl, roots, &first);
  EXPECT_EQ(cold.rows, 4u);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, 4u);
  EXPECT_EQ(cache.stats().insertions, 4u);
  EXPECT_EQ(cache.resident_entries(), 4u);

  const uint64_t reads_after_cold = disk_.stats().reads;
  CachedAssemblyResult warm = Run(&cache, &ct.tmpl, roots, &second);
  EXPECT_EQ(warm.rows, 4u);
  EXPECT_EQ(warm.cache_hits, 4u);
  EXPECT_EQ(warm.cache_misses, 0u);
  // A hit is served from the resident copy: zero disk I/O.
  EXPECT_EQ(disk_.stats().reads, reads_after_cold);
  EXPECT_EQ(first, second);
  EXPECT_EQ(cache.pinned_entries(), 0u);
}

TEST_F(CacheTest, CachedValuesMatchUncached) {
  ChainTemplate ct;
  std::vector<Oid> roots;
  for (size_t i = 0; i < 8; ++i) {
    Oid leaf = Put(3, {int32_t(300 + i)}, {}, 3 * i + 2);
    Oid mid = Put(2, {int32_t(200 + i)}, {leaf}, 3 * i + 1);
    roots.push_back(Put(1, {int32_t(100 + i)}, {mid}, 3 * i));
  }

  std::map<Oid, int64_t> uncached_sums;
  CachedAssemblyResult uncached =
      Run(nullptr, &ct.tmpl, roots, &uncached_sums);
  EXPECT_EQ(uncached.cache_hits, 0u);
  EXPECT_EQ(uncached.cache_misses, 0u);

  ObjectCache cache;
  std::map<Oid, int64_t> cold_sums, warm_sums;
  Run(&cache, &ct.tmpl, roots, &cold_sums);
  Run(&cache, &ct.tmpl, roots, &warm_sums);
  EXPECT_EQ(uncached_sums, cold_sums);
  EXPECT_EQ(uncached_sums, warm_sums);
}

TEST_F(CacheTest, FootprintInvalidationDropsOnlyIntersectingEntries) {
  ChainTemplate ct;
  Oid leaf_a = Put(3, {30}, {}, 2);
  Oid mid_a = Put(2, {20}, {leaf_a}, 1);
  Oid root_a = Put(1, {10}, {mid_a}, 0);
  Oid leaf_b = Put(3, {31}, {}, 5);
  Oid mid_b = Put(2, {21}, {leaf_b}, 4);
  Oid root_b = Put(1, {11}, {mid_b}, 3);

  ObjectCache cache;
  Run(&cache, &ct.tmpl, {root_a, root_b});
  ASSERT_EQ(cache.resident_entries(), 2u);

  // A write to A's mid page kills exactly A's entry; B is untouched.
  WriteEffect effect =
      cache.ApplyCommittedWrite({{PageOf(mid_a), /*patch=*/false, {}}});
  EXPECT_EQ(effect.invalidated, 1u);
  EXPECT_EQ(effect.patched, 0u);
  EXPECT_EQ(cache.resident_entries(), 1u);
  EXPECT_FALSE(cache.Lookup(&ct.tmpl, root_a));
  ObjectCache::Ref b = cache.Lookup(&ct.tmpl, root_b);
  EXPECT_TRUE(b);
  cache.Release(b);

  // The dropped entry is gone from the page index entirely: a second write
  // to another page of A's old footprint invalidates nothing.
  effect = cache.ApplyCommittedWrite({{PageOf(leaf_a), false, {}}});
  EXPECT_EQ(effect.invalidated, 0u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST_F(CacheTest, ScalarPatchVisibleOnNextLookup) {
  ChainTemplate ct;
  Oid leaf = Put(3, {30}, {}, 2);
  Oid mid = Put(2, {20}, {leaf}, 1);
  Oid root = Put(1, {10}, {mid}, 0);

  ObjectCache cache;
  std::map<Oid, int64_t> before;
  Run(&cache, &ct.tmpl, {root}, &before);
  EXPECT_EQ(before[root], 10 + 20 + 30);

  // Scalar-only update of the leaf: same type, same refs, same shape —
  // the write path reports it as patchable and the entry stays resident.
  ObjectData after;
  after.oid = leaf;
  after.type_id = 3;
  after.fields = {99};
  WriteEffect effect =
      cache.ApplyCommittedWrite({{PageOf(leaf), /*patch=*/true, after}});
  EXPECT_EQ(effect.patched, 1u);
  EXPECT_EQ(effect.invalidated, 0u);
  EXPECT_EQ(cache.resident_entries(), 1u);

  ObjectCache::Ref ref = cache.Lookup(&ct.tmpl, root);
  ASSERT_TRUE(ref);
  EXPECT_EQ(SumField(ref.object, 0), 10 + 20 + 99);
  cache.Release(ref);
  EXPECT_EQ(cache.stats().patches, 1u);
}

TEST_F(CacheTest, EntryOutlivesProducerArenaAndStaysPatchable) {
  // The cache copies an entry into an arena of its own, so the entry stays
  // valid (and patchable) after the operator that assembled the object,
  // and with it the operator's arena, is gone.
  ChainTemplate ct;
  Oid leaf = Put(3, {30}, {}, 2);
  Oid mid = Put(2, {20}, {leaf}, 1);
  Oid root = Put(1, {10}, {mid}, 0);

  ObjectCache cache;
  std::weak_ptr<ObjectArena> producer_arena;
  {
    std::vector<exec::Row> rows = {{exec::Value::Ref(root)}};
    AssemblyOperator op(std::make_unique<exec::VectorScan>(std::move(rows)),
                        &ct.tmpl, &store_);
    auto out = exec::DrainAll(&op);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_EQ(out->size(), 1u);
    const AssembledObject* assembled = (*out)[0][0].AsObject();
    cache.Insert(&ct.tmpl, *assembled, store_);
    producer_arena = op.arena();
  }
  ASSERT_TRUE(producer_arena.expired());

  ObjectCache::Ref ref = cache.Lookup(&ct.tmpl, root);
  ASSERT_TRUE(ref);
  EXPECT_EQ(ref.object->oid, root);
  ASSERT_EQ(ref.object->children.size(), 1u);
  ASSERT_NE(ref.object->children[0], nullptr);
  EXPECT_EQ(ref.object->children[0]->oid, mid);
  EXPECT_EQ(ref.object->child_slots[0], 0);
  EXPECT_EQ(SumField(ref.object, 0), 10 + 20 + 30);
  cache.Release(ref);

  ObjectData after;
  after.oid = leaf;
  after.type_id = 3;
  after.fields = {77};
  WriteEffect effect =
      cache.ApplyCommittedWrite({{PageOf(leaf), /*patch=*/true, after}});
  EXPECT_EQ(effect.patched, 1u);
  ref = cache.Lookup(&ct.tmpl, root);
  ASSERT_TRUE(ref);
  EXPECT_EQ(SumField(ref.object, 0), 10 + 20 + 77);
  cache.Release(ref);
}

TEST_F(CacheTest, ReshapedPatchInvalidatesInsteadOfWriting) {
  // Cached fields live in fixed-size spans: an after-image with a different
  // field count is not written into them; the entry is invalidated.
  ChainTemplate ct;
  Oid leaf = Put(3, {30}, {}, 2);
  Oid mid = Put(2, {20}, {leaf}, 1);
  Oid root = Put(1, {10}, {mid}, 0);

  ObjectCache cache;
  Run(&cache, &ct.tmpl, {root});
  ASSERT_EQ(cache.resident_entries(), 1u);

  ObjectData after;
  after.oid = leaf;
  after.type_id = 3;
  after.fields = {99, 100};
  WriteEffect effect =
      cache.ApplyCommittedWrite({{PageOf(leaf), /*patch=*/true, after}});
  EXPECT_EQ(effect.patched, 0u);
  EXPECT_EQ(effect.invalidated, 1u);
  EXPECT_EQ(cache.resident_entries(), 0u);
  EXPECT_FALSE(cache.Lookup(&ct.tmpl, root));
}

TEST_F(CacheTest, PredicatedTemplateInvalidatesInsteadOfPatching) {
  ChainTemplate ct;
  // Any predicate anywhere in the template makes the space invalidate-only:
  // a changed scalar can flip membership, not just values.
  ct.leaf->predicate = [](const ObjectData&) { return true; };
  Oid leaf = Put(3, {30}, {}, 2);
  Oid mid = Put(2, {20}, {leaf}, 1);
  Oid root = Put(1, {10}, {mid}, 0);

  ObjectCache cache;
  Run(&cache, &ct.tmpl, {root});
  ASSERT_EQ(cache.resident_entries(), 1u);

  ObjectData after;
  after.oid = leaf;
  after.type_id = 3;
  after.fields = {99};
  WriteEffect effect =
      cache.ApplyCommittedWrite({{PageOf(leaf), /*patch=*/true, after}});
  EXPECT_EQ(effect.patched, 0u);
  EXPECT_EQ(effect.invalidated, 1u);
  EXPECT_EQ(cache.resident_entries(), 0u);
  EXPECT_FALSE(cache.Lookup(&ct.tmpl, root));
}

TEST_F(CacheTest, SharedSegmentReusedAndRefcounted) {
  // root(1) -> leaf(3) where the leaf border is marked shared and both
  // roots reference the SAME leaf object — the fig15 shape in miniature.
  AssemblyTemplate tmpl;
  TemplateNode* root_node = tmpl.AddNode("root");
  TemplateNode* leaf_node = tmpl.AddNode("leaf");
  root_node->expected_type = 1;
  leaf_node->expected_type = 3;
  leaf_node->shared = true;
  root_node->children.push_back({0, leaf_node});
  tmpl.SetRoot(root_node);

  Oid leaf = Put(3, {7}, {}, 2);
  Oid root_a = Put(1, {10}, {leaf}, 0);
  Oid root_b = Put(1, {11}, {leaf}, 1);

  ObjectCache cache;
  std::map<Oid, int64_t> sums;
  Run(&cache, &tmpl, {root_a, root_b}, &sums);
  EXPECT_EQ(sums[root_a], 17);
  EXPECT_EQ(sums[root_b], 18);
  // One resident segment, linked by both entries; the second link is a reuse.
  EXPECT_EQ(cache.shared_segment_count(), 1u);
  EXPECT_EQ(cache.stats().shared_reuses, 1u);
  EXPECT_EQ(cache.total_shared_refs(), 2u);

  // Both cached roots point at the one resident leaf copy.
  ObjectCache::Ref a = cache.Lookup(&tmpl, root_a);
  ObjectCache::Ref b = cache.Lookup(&tmpl, root_b);
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  ASSERT_EQ(a.object->children.size(), 1u);
  ASSERT_EQ(b.object->children.size(), 1u);
  EXPECT_EQ(a.object->children[0], b.object->children[0]);
  cache.Release(a);
  cache.Release(b);

  // Dropping A (write to its private root page) releases one reference;
  // the segment survives for B.
  cache.ApplyCommittedWrite({{PageOf(root_a), false, {}}});
  EXPECT_EQ(cache.resident_entries(), 1u);
  EXPECT_EQ(cache.shared_segment_count(), 1u);
  EXPECT_EQ(cache.total_shared_refs(), 1u);

  cache.Clear();
  EXPECT_EQ(cache.resident_entries(), 0u);
  EXPECT_EQ(cache.shared_segment_count(), 0u);
  EXPECT_EQ(cache.total_shared_refs(), 0u);
}

TEST_F(CacheTest, EvictionRespectsCapacityAndSkipsPinned) {
  ChainTemplate ct;
  std::vector<Oid> roots;
  for (size_t i = 0; i < 3; ++i) {
    Oid leaf = Put(3, {int32_t(30 + i)}, {}, 3 * i + 2);
    Oid mid = Put(2, {int32_t(20 + i)}, {leaf}, 3 * i + 1);
    roots.push_back(Put(1, {int32_t(10 + i)}, {mid}, 3 * i));
  }

  ObjectCache cache(CacheOptions{.capacity = 2, .policy = CachePolicyKind::kLru});
  Run(&cache, &ct.tmpl, {roots[0], roots[1]});
  ASSERT_EQ(cache.resident_entries(), 2u);

  // Pin roots[0]; inserting a third entry must evict the unpinned one.
  ObjectCache::Ref pinned = cache.Lookup(&ct.tmpl, roots[0]);
  ASSERT_TRUE(pinned);
  Run(&cache, &ct.tmpl, {roots[2]});
  EXPECT_EQ(cache.resident_entries(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  ObjectCache::Ref still_there = cache.Lookup(&ct.tmpl, roots[0]);
  EXPECT_TRUE(still_there);
  EXPECT_FALSE(cache.Lookup(&ct.tmpl, roots[1]));
  cache.Release(still_there);
  cache.Release(pinned);
  EXPECT_EQ(cache.pinned_entries(), 0u);
}

TEST_F(CacheTest, PinnedEntrySurvivesInvalidationUntilReleased) {
  ChainTemplate ct;
  Oid leaf = Put(3, {30}, {}, 2);
  Oid mid = Put(2, {20}, {leaf}, 1);
  Oid root = Put(1, {10}, {mid}, 0);

  ObjectCache cache;
  Run(&cache, &ct.tmpl, {root});
  ObjectCache::Ref ref = cache.Lookup(&ct.tmpl, root);
  ASSERT_TRUE(ref);

  cache.ApplyCommittedWrite({{PageOf(mid), false, {}}});
  EXPECT_EQ(cache.resident_entries(), 0u);
  EXPECT_FALSE(cache.Lookup(&ct.tmpl, root));
  // The reader's view stays valid and unchanged while pinned (zombie).
  EXPECT_EQ(cache.pinned_entries(), 1u);
  EXPECT_EQ(SumField(ref.object, 0), 10 + 20 + 30);

  cache.Release(ref);
  EXPECT_EQ(cache.pinned_entries(), 0u);
}

TEST_F(CacheTest, SchemaBarrierFlushesEverySpace) {
  ChainTemplate ct;
  Oid leaf = Put(3, {30}, {}, 2);
  Oid mid = Put(2, {20}, {leaf}, 1);
  Oid root = Put(1, {10}, {mid}, 0);

  ObjectCache cache;
  Run(&cache, &ct.tmpl, {root});
  ASSERT_EQ(cache.resident_entries(), 1u);
  const uint64_t version_before = cache.schema_version();

  cache.BumpSchemaVersion();
  EXPECT_EQ(cache.schema_version(), version_before + 1);
  EXPECT_EQ(cache.stats().schema_flushes, 1u);
  EXPECT_EQ(cache.resident_entries(), 0u);
  EXPECT_FALSE(cache.Lookup(&ct.tmpl, root));

  // The space is usable again under the new version.
  Run(&cache, &ct.tmpl, {root});
  ObjectCache::Ref ref = cache.Lookup(&ct.tmpl, root);
  EXPECT_TRUE(ref);
  cache.Release(ref);
}

// The cache-off regression, unit flavor: the disabled configuration must not
// even construct the cache layer (the CI half diffs bench JSON against the
// pre-cache goldens).
TEST_F(CacheTest, DisabledPathConstructsNoCache) {
  ChainTemplate ct;
  Oid leaf = Put(3, {30}, {}, 2);
  Oid mid = Put(2, {20}, {leaf}, 1);
  Oid root = Put(1, {10}, {mid}, 0);

  const uint64_t live_before = ObjectCache::live_instances();
  CachedAssemblyResult result = Run(nullptr, &ct.tmpl, {root});
  EXPECT_EQ(result.rows, 1u);
  EXPECT_EQ(result.cache_hits, 0u);
  EXPECT_EQ(result.cache_misses, 0u);
  EXPECT_EQ(ObjectCache::live_instances(), live_before);
  {
    ObjectCache cache;
    EXPECT_EQ(ObjectCache::live_instances(), live_before + 1);
  }
  EXPECT_EQ(ObjectCache::live_instances(), live_before);
}

// --- replacement-policy unit tests (no cache, no I/O) ---

constexpr auto kAnyKey = [](uint64_t) { return true; };

TEST(CachePolicyTest, LruEvictsLeastRecentlyUsed) {
  auto lru = MakeCachePolicy(CachePolicyKind::kLru, 4);
  lru->OnInsert(1);
  lru->OnInsert(2);
  lru->OnInsert(3);
  lru->OnHit(1);  // 1 is now the most recent; 2 is the oldest untouched
  EXPECT_EQ(lru->Victim(kAnyKey), 2u);
  lru->OnEvict(2);
  EXPECT_EQ(lru->Victim(kAnyKey), 3u);
}

TEST(CachePolicyTest, ClockGivesSecondChanceToReferencedEntries) {
  auto clock = MakeCachePolicy(CachePolicyKind::kClock, 4);
  clock->OnInsert(1);
  clock->OnInsert(2);
  clock->OnInsert(3);
  clock->OnHit(1);
  // The hand starts at 1: its bit is set, so it gets a second chance and
  // the sweep settles on 2.
  EXPECT_EQ(clock->Victim(kAnyKey), 2u);
}

TEST(CachePolicyTest, TwoQScanDiesInFifoWithoutDisplacingHotSet) {
  // capacity 8 -> Kin = 2, Kout = 4.
  auto twoq = MakeCachePolicy(CachePolicyKind::kTwoQ, 8);
  // Key 1 falls out of the FIFO, then is re-referenced: promoted to Am.
  twoq->OnInsert(1);
  twoq->OnInsert(2);
  EXPECT_EQ(twoq->Victim(kAnyKey), 1u);  // FIFO order
  twoq->OnEvict(1);                       // 1 becomes a ghost (A1out)
  twoq->OnInsert(1);                      // ghost hit -> Am
  // A scan of one-touch keys churns through A1in; the proven-hot key 1 is
  // never chosen while scan entries remain.
  for (uint64_t key = 100; key < 110; ++key) {
    twoq->OnInsert(key);
    uint64_t victim = twoq->Victim(kAnyKey);
    EXPECT_NE(victim, 1u) << "scan displaced the hot entry";
    twoq->OnEvict(victim);
  }
  // With the FIFO drained below Kin, eviction falls back to Am and finds 1.
  while (true) {
    uint64_t victim = twoq->Victim(kAnyKey);
    ASSERT_NE(victim, 0u);
    twoq->OnEvict(victim);
    if (victim == 1u) break;
  }
}

TEST(CachePolicyTest, ArcProtectsReReferencedEntries) {
  auto arc = MakeCachePolicy(CachePolicyKind::kArc, 4);
  arc->OnInsert(1);
  arc->OnInsert(2);
  arc->OnInsert(3);
  arc->OnHit(2);  // promoted to the frequency list T2
  // T1 holds {3, 1}; the oldest one-touch entry loses, never the T2 member.
  EXPECT_EQ(arc->Victim(kAnyKey), 1u);
  arc->OnEvict(1);
  arc->OnInsert(4);  // T1 = {4, 3}, above the recency target again
  EXPECT_EQ(arc->Victim(kAnyKey), 3u);
}

TEST(CachePolicyTest, VictimSkipsUnevictableKeys) {
  auto lru = MakeCachePolicy(CachePolicyKind::kLru, 4);
  lru->OnInsert(1);
  lru->OnInsert(2);
  EXPECT_EQ(lru->Victim([](uint64_t key) { return key != 1; }), 2u);
  EXPECT_EQ(lru->Victim([](uint64_t) { return false; }), 0u);
}

TEST(CachePolicyTest, ParseRoundTripsEveryKind) {
  for (CachePolicyKind kind :
       {CachePolicyKind::kOff, CachePolicyKind::kTwoQ, CachePolicyKind::kArc,
        CachePolicyKind::kLru, CachePolicyKind::kClock}) {
    CachePolicyKind parsed;
    ASSERT_TRUE(
        cache::ParseCachePolicyKind(cache::CachePolicyKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  CachePolicyKind parsed;
  EXPECT_FALSE(cache::ParseCachePolicyKind("mru", &parsed));
  EXPECT_EQ(MakeCachePolicy(CachePolicyKind::kOff, 4), nullptr);
}

}  // namespace
}  // namespace cobra
