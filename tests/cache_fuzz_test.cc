// Randomized churn over the assembled-object cache (ctest label `stress`;
// CI also runs this binary under -fsanitize=address).
//
// Each seed generates a random assembly template (depth, branching, shared
// borders, sometimes a predicate), a random object graph placed on random
// heap pages, and a small cache under one of the four replacement policies.
// The churn loop then interleaves cached assembly, page invalidations,
// scalar patches (applied to the store first, then to the cache — the
// commit-order the service enforces), pins across invalidations, Clear and
// schema bumps, asserting after every step that
//
//   * no entry survives an invalidation of a page in its footprint,
//   * every resident entry's values match the store image exactly,
//   * shared-segment refcounts drain to zero on teardown.
//
// Seeds are pinned and embedded in the test name, so a failing ctest line
// reproduces the exact graph and schedule.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "assembly/assembly_operator.h"
#include "assembly/naive.h"
#include "assembly/template.h"
#include "buffer/buffer_manager.h"
#include "cache/cache_policy.h"
#include "cache/cached_assembly.h"
#include "cache/object_cache.h"
#include "file/heap_file.h"
#include "object/assembled_object.h"
#include "object/directory.h"
#include "object/object_store.h"
#include "storage/disk.h"

namespace cobra {
namespace {

using cache::CacheOptions;
using cache::CachePolicyKind;
using cache::CommittedWrite;
using cache::ObjectCache;

constexpr size_t kComplexObjects = 32;
constexpr size_t kDataPages = 400;
constexpr size_t kChurnSteps = 200;

class CacheFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheFuzzTest, RandomGraphsSurviveInvalidationChurn) {
  const uint64_t seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  std::mt19937_64 rng(seed);

  SimulatedDisk disk;
  BufferManager buffer(&disk, BufferOptions{.num_frames = 1024});
  HashDirectory directory;
  ObjectStore store(&buffer, &directory);
  HeapFile file(&buffer, 0, 512);

  // Random template: 2-4 levels, 1-3 children per node, distinct types,
  // some non-root borders marked shared.  A third of the seeds get an
  // (always-true) predicate, which makes the space invalidate-only.
  AssemblyTemplate tmpl;
  TypeId next_type = 1;
  const int levels_below_root = 1 + static_cast<int>(rng() % 3);
  std::function<TemplateNode*(int)> grow = [&](int depth) {
    TemplateNode* node = tmpl.AddNode();
    node->expected_type = next_type++;
    if (depth > 0) {
      const size_t kids = 1 + rng() % 3;
      for (size_t k = 0; k < kids; ++k) {
        TemplateNode* child = grow(depth - 1);
        if (rng() % 4 == 0) child->shared = true;
        node->children.push_back({static_cast<int>(k), child});
      }
    }
    return node;
  };
  TemplateNode* root_node = grow(levels_below_root);
  tmpl.SetRoot(root_node);
  const bool predicated = rng() % 3 == 0;
  if (predicated) {
    root_node->predicate = [](const ObjectData&) { return true; };
  }
  ASSERT_TRUE(tmpl.Validate().ok());

  // Random conforming object graph on random pages.  `image` is the ground
  // truth every resident entry is checked against; shared borders reuse
  // earlier instances half the time.
  std::map<Oid, ObjectData> image;
  std::map<const TemplateNode*, std::vector<Oid>> shared_instances;
  std::function<Oid(const TemplateNode*)> materialize =
      [&](const TemplateNode* node) -> Oid {
    std::vector<Oid>& pool = shared_instances[node];
    if (node->shared && !pool.empty() && rng() % 2 == 0) {
      return pool[rng() % pool.size()];
    }
    ObjectData obj;
    obj.oid = store.AllocateOid();
    obj.type_id = node->expected_type;
    obj.fields = {static_cast<int32_t>(rng() % 10'000), 0, 0, 0};
    obj.refs.assign(8, kInvalidOid);
    for (const TemplateNode::ChildEdge& edge : node->children) {
      obj.refs[edge.ref_slot] = materialize(edge.child);
    }
    Status stored = Status::Internal("unplaced");
    for (int attempt = 0; attempt < 64 && !stored.ok(); ++attempt) {
      stored = store.InsertAtPage(obj, &file, rng() % kDataPages).status();
    }
    if (!stored.ok()) stored = store.Insert(obj, &file).status();
    EXPECT_TRUE(stored.ok()) << stored.ToString();
    image[obj.oid] = obj;
    if (node->shared) pool.push_back(obj.oid);
    return obj.oid;
  };
  std::vector<Oid> roots;
  for (size_t i = 0; i < kComplexObjects; ++i) {
    roots.push_back(materialize(tmpl.root()));
  }

  // Per-root page footprints, from the same directory the cache uses.
  std::map<Oid, std::set<PageId>> footprint;
  std::set<PageId> used_pages;
  {
    NaiveAssembler naive(&store, &tmpl);
    ObjectArena arena;
    for (Oid root : roots) {
      auto obj = naive.AssembleOne(root, &arena);
      ASSERT_TRUE(obj.ok()) << obj.status().ToString();
      ASSERT_NE(*obj, nullptr);
      for (Oid oid : CollectOids(*obj)) {
        auto loc = store.Locate(oid);
        ASSERT_TRUE(loc.ok());
        footprint[root].insert(loc->page);
        used_pages.insert(loc->page);
      }
    }
  }
  std::vector<PageId> page_list(used_pages.begin(), used_pages.end());
  std::vector<Oid> oid_list;
  for (const auto& [oid, data] : image) oid_list.push_back(oid);

  const CachePolicyKind kPolicies[] = {
      CachePolicyKind::kTwoQ, CachePolicyKind::kArc, CachePolicyKind::kLru,
      CachePolicyKind::kClock};
  ObjectCache cache(CacheOptions{
      .capacity = 8 + rng() % 16,  // far below the root count: churn
      .policy = kPolicies[seed % 4]});

  // Resident entries must always agree with the store image; a survivor of
  // a footprint invalidation or a missed patch fails here.
  auto verify_if_resident = [&](Oid root) {
    ObjectCache::Ref ref = cache.Lookup(&tmpl, root);
    if (!ref) return;
    VisitAssembled(ref.object, [&](const AssembledObject& node) {
      auto it = image.find(node.oid);
      if (it == image.end()) {
        ADD_FAILURE() << "cached node with unknown oid " << node.oid;
        return;
      }
      EXPECT_EQ(std::vector<int32_t>(node.fields.begin(), node.fields.end()),
                it->second.fields)
          << "stale cached value for oid " << node.oid << " under root "
          << root;
    });
    cache.Release(ref);
  };

  auto assemble_batch = [&](const std::vector<Oid>& batch) {
    AssemblyOptions aopts;
    aopts.window_size = 4;
    auto result = cache::AssembleThroughCache(
        &cache, &tmpl, &store, batch, aopts, /*batch_size=*/8,
        [&](const AssembledObject& got) {
          VisitAssembled(&got, [&](const AssembledObject& node) {
            auto it = image.find(node.oid);
            ASSERT_NE(it, image.end());
            EXPECT_EQ(std::vector<int32_t>(node.fields.begin(),
                                           node.fields.end()),
                      it->second.fields)
                << "delivered stale oid " << node.oid;
          });
        });
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.rows, batch.size());
  };

  assemble_batch(roots);  // initial population (partially evicted already)

  std::vector<ObjectCache::Ref> pinned;
  for (size_t step = 0; step < kChurnSteps; ++step) {
    SCOPED_TRACE("step=" + std::to_string(step));
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2: {  // cached assembly over a random batch
        std::vector<Oid> batch;
        const size_t n = 2 + rng() % 6;
        for (size_t i = 0; i < n; ++i) {
          batch.push_back(roots[rng() % roots.size()]);
        }
        assemble_batch(batch);
        break;
      }
      case 3:
      case 4: {  // page invalidation: nothing touching the page survives
        PageId page = page_list[rng() % page_list.size()];
        cache.ApplyCommittedWrite({{page, /*patch=*/false, {}}});
        for (Oid root : roots) {
          if (footprint[root].count(page) != 0) {
            EXPECT_FALSE(cache.Lookup(&tmpl, root))
                << "entry survived invalidation of page " << page;
          }
        }
        break;
      }
      case 5: {  // scalar patch: store first, then cache (commit order)
        Oid target = oid_list[rng() % oid_list.size()];
        ObjectData after = image.at(target);
        after.fields[0] = static_cast<int32_t>(rng() % 10'000);
        ASSERT_TRUE(store.Update(after).ok());
        image[target] = after;
        auto loc = store.Locate(target);
        ASSERT_TRUE(loc.ok());
        cache.ApplyCommittedWrite({{loc->page, /*patch=*/true, after}});
        if (predicated) {
          // Invalidate-only space: the patch must have dropped instead.
          for (Oid root : roots) {
            if (footprint[root].count(loc->page) != 0) {
              EXPECT_FALSE(cache.Lookup(&tmpl, root))
                  << "predicated entry survived a write to page "
                  << loc->page;
            }
          }
        }
        break;
      }
      case 6: {  // pin across future invalidations, release in bulk later
        ObjectCache::Ref ref = cache.Lookup(&tmpl, roots[rng() % roots.size()]);
        if (ref) pinned.push_back(ref);
        if (rng() % 4 == 0) {
          for (const ObjectCache::Ref& held : pinned) cache.Release(held);
          pinned.clear();
        }
        break;
      }
      case 7: {  // rare global barriers
        if (rng() % 8 == 0) {
          cache.Clear();
          EXPECT_EQ(cache.resident_entries(), 0u);
        } else if (rng() % 8 == 1) {
          cache.BumpSchemaVersion();
          for (Oid root : roots) {
            EXPECT_FALSE(cache.Lookup(&tmpl, root))
                << "entry survived the schema barrier";
          }
        }
        break;
      }
    }
    // Global invariant sweep: every resident entry matches the image.
    for (Oid root : roots) verify_if_resident(root);
    // Pinned entries cannot be evicted, so they may hold the cache above
    // capacity; everything evictable is bounded.
    EXPECT_LE(cache.resident_entries(), cache.capacity() + pinned.size());
  }

  for (const ObjectCache::Ref& held : pinned) cache.Release(held);
  pinned.clear();
  EXPECT_EQ(cache.pinned_entries(), 0u);

  // Teardown: everything drains, refcounts reach zero.
  cache.Clear();
  EXPECT_EQ(cache.resident_entries(), 0u);
  EXPECT_EQ(cache.shared_segment_count(), 0u);
  EXPECT_EQ(cache.total_shared_refs(), 0u);
  EXPECT_EQ(cache.pinned_entries(), 0u);
  EXPECT_GT(cache.stats().hits + cache.stats().misses, 0u);
  EXPECT_GT(cache.stats().insertions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CacheFuzzTest,
    ::testing::Values<uint64_t>(1, 7, 42, 1337, 9001, 424242),
    [](const ::testing::TestParamInfo<uint64_t>& info) {
      return "Seed" + std::to_string(info.param);
    });

}  // namespace
}  // namespace cobra
