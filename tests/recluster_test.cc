// Telemetry-driven online re-clustering (storage/recluster/): the
// forwarding algebra, the planner's permutation guarantees, buffer-level
// translation, the bounded affinity sketch, the mover's content/cache
// behavior, and the end-to-end seek-convergence property the subsystem
// exists for.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "assembly/assembly_operator.h"
#include "buffer/buffer_manager.h"
#include "cache/cached_assembly.h"
#include "cache/object_cache.h"
#include "exec/scan.h"
#include "storage/disk.h"
#include "storage/placement.h"
#include "storage/recluster/affinity.h"
#include "storage/recluster/forwarding.h"
#include "storage/recluster/mover.h"
#include "storage/recluster/planner.h"
#include "workload/acob.h"

namespace cobra {
namespace {

using exec::Row;
using exec::Value;
using exec::VectorScan;
using recluster::AffinitySketch;
using recluster::LayoutPlan;
using recluster::PageForwarding;
using recluster::PageMover;
using recluster::PlanLayout;

// Asserts the table is a bijection on [0, n): both directions compose to
// the identity and the physical image is a permutation of the domain.
void ExpectBijection(const PageForwarding& fwd, PageId n) {
  std::set<PageId> image;
  for (PageId p = 0; p < n; ++p) {
    PageId phys = fwd.ToPhysical(p);
    EXPECT_EQ(fwd.ToLogical(phys), p) << "page " << p;
    EXPECT_LT(phys, n) << "page " << p << " mapped outside the extent";
    image.insert(phys);
  }
  EXPECT_EQ(image.size(), static_cast<size_t>(n));
}

TEST(Forwarding, RandomSwapScheduleStaysBijective) {
  constexpr PageId kPages = 64;
  std::mt19937_64 rng(7);
  PageForwarding fwd;
  uint64_t real_swaps = 0;  // a == b is a counted-nowhere no-op
  for (int step = 0; step < 500; ++step) {
    PageId a = rng() % kPages;
    PageId b = rng() % kPages;
    fwd.SwapPhysical(a, b);
    if (a != b) ++real_swaps;
    if (step % 50 == 0) ExpectBijection(fwd, kPages);
  }
  ExpectBijection(fwd, kPages);
  EXPECT_EQ(fwd.swaps(), real_swaps);
  fwd.Clear();
  EXPECT_TRUE(fwd.empty());
  for (PageId p = 0; p < kPages; ++p) {
    EXPECT_EQ(fwd.ToPhysical(p), p);
    EXPECT_EQ(fwd.ToLogical(p), p);
  }
}

TEST(Forwarding, InstallDisplacesOccupantAndStaysBijective) {
  constexpr PageId kPages = 32;
  PageForwarding fwd;
  // Install 5 at slot 9: the displaced occupant of slot 9 (logical 9 under
  // identity) must take 5's old slot.
  fwd.Install(5, 9);
  EXPECT_EQ(fwd.ToPhysical(5), 9u);
  EXPECT_EQ(fwd.ToPhysical(9), 5u);
  ExpectBijection(fwd, kPages);

  std::mt19937_64 rng(11);
  for (int step = 0; step < 300; ++step) {
    fwd.Install(rng() % kPages, rng() % kPages);
  }
  ExpectBijection(fwd, kPages);

  // Snapshot round-trips through Install (recovery's checkpoint path).
  auto snapshot = fwd.Snapshot();
  PageForwarding rebuilt;
  for (const auto& [logical, physical] : snapshot) {
    rebuilt.Install(logical, physical);
  }
  for (PageId p = 0; p < kPages; ++p) {
    EXPECT_EQ(rebuilt.ToPhysical(p), fwd.ToPhysical(p)) << "page " << p;
  }
}

// Feeds one synthetic fault epoch (query 0 touching `order` in sequence)
// into a sketch.
void ObserveEpoch(AffinitySketch* sketch, const std::vector<PageId>& order) {
  for (PageId page : order) sketch->ObserveRead(0, page, 3, 1);
  sketch->EndEpoch();
}

TEST(Planner, RealizesFaultOrderAndAnyPrefixIsValid) {
  constexpr PageId kPages = 40;
  std::mt19937_64 rng(23);
  for (int round = 0; round < 20; ++round) {
    std::vector<PageId> order(kPages);
    for (PageId p = 0; p < kPages; ++p) order[p] = p;
    std::shuffle(order.begin(), order.end(), rng);

    AffinitySketch sketch;
    ObserveEpoch(&sketch, order);
    PageForwarding fwd;
    LayoutPlan plan = PlanLayout(sketch, fwd, 0, kPages);
    EXPECT_EQ(plan.chains, 1u);
    EXPECT_EQ(plan.pages_planned, static_cast<size_t>(kPages));

    // Any prefix leaves a bijection (the mover is rate-limited and may
    // stop anywhere).
    size_t prefix = rng() % (plan.swaps.size() + 1);
    PageForwarding partial;
    for (size_t i = 0; i < prefix; ++i) {
      partial.SwapPhysical(plan.swaps[i].first, plan.swaps[i].second);
    }
    ExpectBijection(partial, kPages);

    // The full schedule lays the fault order out physically ascending.
    PageForwarding full;
    for (const auto& [a, b] : plan.swaps) full.SwapPhysical(a, b);
    ExpectBijection(full, kPages);
    for (size_t i = 1; i < order.size(); ++i) {
      EXPECT_EQ(full.ToPhysical(order[i]), full.ToPhysical(order[i - 1]) + 1)
          << "fault step " << i;
    }

    // Replanning a converged layout is the identity: the loop is
    // idempotent, not oscillating.
    AffinitySketch again;
    ObserveEpoch(&again, order);
    EXPECT_TRUE(PlanLayout(again, full, 0, kPages).swaps.empty());
  }
}

TEST(Planner, NeverTouchesPagesOutsideTheDataExtent) {
  AffinitySketch sketch;
  // Fault order mixing data pages [10, 20) with out-of-extent pages (a
  // WAL log tail at 100+, a catalog page at 3).
  ObserveEpoch(&sketch, {12, 100, 15, 3, 11, 101, 17, 14, 19, 10});
  PageForwarding fwd;
  LayoutPlan plan = PlanLayout(sketch, fwd, 10, 10);
  EXPECT_FALSE(plan.swaps.empty());
  for (const auto& [a, b] : plan.swaps) {
    EXPECT_GE(a, 10u);
    EXPECT_LT(a, 20u);
    EXPECT_GE(b, 10u);
    EXPECT_LT(b, 20u);
  }
}

TEST(Planner, ComposesWithStripedPlacementPerSpindleMonotone) {
  // The plan relabels which logical page occupies which physical address;
  // the placement policy still inverts every address, and because the
  // fault order is dealt into ascending physical slots, each spindle sees
  // its share of the sweep in ascending offset order.
  constexpr PageId kPages = 64;
  DiskGeometry geometry;
  geometry.spindles = 4;
  geometry.stripe_width = 2;
  PlacementPolicy placement(geometry);

  std::mt19937_64 rng(31);
  std::vector<PageId> order(kPages);
  for (PageId p = 0; p < kPages; ++p) order[p] = p;
  std::shuffle(order.begin(), order.end(), rng);

  AffinitySketch sketch;
  ObserveEpoch(&sketch, order);
  PageForwarding fwd;
  LayoutPlan plan = PlanLayout(sketch, fwd, 0, kPages);
  for (const auto& [a, b] : plan.swaps) fwd.SwapPhysical(a, b);

  std::map<uint32_t, PageId> last_offset;
  for (PageId logical : order) {
    PageId phys = fwd.ToPhysical(logical);
    SpindleSlot slot = placement.Resolve(phys);
    EXPECT_EQ(placement.PageAt(slot.spindle, slot.offset), phys);
    auto it = last_offset.find(slot.spindle);
    if (it != last_offset.end()) {
      EXPECT_GE(slot.offset, it->second)
          << "spindle " << slot.spindle << " sweep went backward";
    }
    last_offset[slot.spindle] = slot.offset;
  }
}

TEST(Buffer, TranslatesAtTheDiskBoundaryUnderEvictionPressure) {
  constexpr PageId kPages = 8;
  SimulatedDisk disk;
  PageForwarding fwd;
  fwd.SwapPhysical(0, 5);
  fwd.SwapPhysical(2, 7);
  fwd.SwapPhysical(1, 6);

  {
    // Two frames force eviction on nearly every fetch: every page round-
    // trips the disk through the translated address.
    BufferManager pool(&disk, BufferOptions{.num_frames = 2});
    pool.set_forwarding(&fwd);
    for (PageId p = 0; p < kPages; ++p) {
      auto guard = pool.CreatePage(p);
      ASSERT_TRUE(guard.ok()) << guard.status().ToString();
      std::memset(guard->data().data(), static_cast<int>(0x40 + p),
                  disk.page_size());
      guard->MarkDirty();
    }
    ASSERT_TRUE(pool.FlushAll().ok());
    for (PageId p = 0; p < kPages; ++p) {
      auto guard = pool.FetchPage(p);
      ASSERT_TRUE(guard.ok()) << guard.status().ToString();
      EXPECT_EQ(guard->data()[7], static_cast<std::byte>(0x40 + p))
          << "logical page " << p;
    }
  }

  // The bytes physically live at the forwarded addresses.
  std::vector<std::byte> raw(disk.page_size());
  for (PageId p = 0; p < kPages; ++p) {
    ASSERT_TRUE(disk.ReadPage(fwd.ToPhysical(p), raw.data()).ok());
    EXPECT_EQ(raw[7], static_cast<std::byte>(0x40 + p)) << "page " << p;
  }
}

TEST(Sketch, StaysBoundedUnderDistinctEdgeFlood) {
  AffinitySketch sketch(recluster::AffinityOptions{.max_edges = 8});
  for (PageId p = 0; p < 400; p += 2) {
    sketch.ObserveRead(0, p, 1, 1);
    sketch.ObserveRead(0, p + 1, 1, 1);
    sketch.EndEpoch();  // one distinct (p, p+1) edge per epoch
  }
  EXPECT_GT(sketch.decays(), 0u);
  EXPECT_LT(sketch.edge_count(), 16u);  // lossy counting holds the line
  EXPECT_EQ(sketch.observations(), 400u);
}

std::unique_ptr<VectorScan> RootScan(const std::vector<Oid>& roots) {
  std::vector<Row> rows;
  for (Oid oid : roots) rows.push_back(Row{Value::Ref(oid)});
  return std::make_unique<VectorScan>(std::move(rows));
}

// One full assembly sweep; returns every delivered scalar keyed by OID so
// epochs can be compared for content identity.
std::map<Oid, std::vector<int32_t>> AssembleAll(AcobDatabase* db,
                                                AssemblyStats* stats,
                                                DiskStats* disk) {
  AssemblyOptions options;
  options.window_size = 50;
  options.scheduler = SchedulerKind::kElevator;
  AssemblyOperator op(RootScan(db->roots), &db->tmpl, db->store.get(),
                      options);
  EXPECT_TRUE(op.Open().ok());
  std::map<Oid, std::vector<int32_t>> delivered;
  exec::RowBatch batch;
  for (;;) {
    auto n = op.NextBatch(&batch);
    EXPECT_TRUE(n.ok()) << n.status().ToString();
    if (!n.ok() || *n == 0) break;
    for (size_t i = 0; i < *n; ++i) {
      VisitAssembled(batch[i][0].AsObject(),
                     [&](const AssembledObject& node) {
                       delivered[node.oid].assign(node.fields.begin(),
                                                  node.fields.end());
                     });
    }
  }
  if (stats != nullptr) *stats = op.stats();
  if (disk != nullptr) *disk = db->disk->stats();
  (void)op.Close();
  return delivered;
}

TEST(Mover, SwapsRelocateWithoutChangingContentAndInvalidateTheCache) {
  AcobOptions options;
  options.num_complex_objects = 20;
  options.clustering = Clustering::kUnclustered;
  auto built = BuildAcobDatabase(options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto db = std::move(*built);
  PageForwarding fwd;
  db->forwarding = &fwd;
  ASSERT_TRUE(db->ColdRestart().ok());

  auto before = AssembleAll(db.get(), nullptr, nullptr);
  ASSERT_FALSE(before.empty());

  // Warm an object cache over the same store, then move pages under it.
  cache::ObjectCache cache;
  auto warmed = cache::AssembleThroughCache(&cache, &db->tmpl,
                                            db->store.get(), db->roots,
                                            AssemblyOptions{}, 8);
  ASSERT_TRUE(warmed.status.ok());
  ASSERT_GT(cache.resident_entries(), 0u);

  PageMover mover(db->buffer.get(), &fwd);
  mover.set_cache(&cache);
  ASSERT_GE(db->data_pages, 4u);
  ASSERT_TRUE(mover.SwapOne(0, db->data_pages - 1).ok());
  ASSERT_TRUE(mover.SwapOne(1, db->data_pages - 2).ok());
  auto stats = mover.stats();
  EXPECT_EQ(stats.swaps_applied, 2u);
  EXPECT_EQ(stats.pages_moved, 4u);
  EXPECT_GT(cache.stats().invalidations, 0u);
  EXPECT_EQ(fwd.ToPhysical(0), db->data_pages - 1);

  // Relocation is invisible above the buffer: identical delivery, both
  // through the warm pool and after a cold restart re-attaches the table.
  EXPECT_EQ(AssembleAll(db.get(), nullptr, nullptr), before);
  ASSERT_TRUE(db->ColdRestart().ok());
  EXPECT_EQ(AssembleAll(db.get(), nullptr, nullptr), before);
}

TEST(Recluster, EndToEndSeekPagesConvergeTowardClustered) {
  AcobOptions options;
  options.num_complex_objects = 200;
  options.clustering = Clustering::kUnclustered;
  auto built = BuildAcobDatabase(options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto db = std::move(*built);
  PageForwarding fwd;
  db->forwarding = &fwd;

  AffinitySketch sketch;
  recluster::AffinityDiskListener learner(&sketch, &fwd);

  // Epoch 0: measure the unclustered layout while the sketch listens.
  ASSERT_TRUE(db->ColdRestart().ok());
  db->disk->set_listener(&learner);
  DiskStats epoch0;
  auto before = AssembleAll(db.get(), nullptr, &epoch0);
  db->disk->set_listener(nullptr);
  sketch.EndEpoch();
  ASSERT_GT(epoch0.read_seek_pages, 0u);

  // Move: apply the whole plan (unit tests need not rate-limit).
  LayoutPlan plan = PlanLayout(sketch, fwd, 0, db->data_pages);
  ASSERT_FALSE(plan.swaps.empty());
  PageMover mover(db->buffer.get(), &fwd);
  size_t cursor = 0;
  while (cursor < plan.swaps.size()) {
    auto applied = mover.ExecuteBatch(plan, &cursor);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  }

  // Epoch 1: same logical fault order, near-sequential physical sweep.
  ASSERT_TRUE(db->ColdRestart().ok());
  DiskStats epoch1;
  auto after = AssembleAll(db.get(), nullptr, &epoch1);
  EXPECT_EQ(after, before);  // relocation never changes delivered content
  EXPECT_EQ(epoch1.reads, epoch0.reads);
  // Converged means the fault order became a sequential physical sweep:
  // about one page of head travel per read (the floor), not merely better
  // than before.
  EXPECT_LE(epoch1.read_seek_pages, epoch1.reads + 8)
      << "re-clustering should collapse head travel to ~1 page/read "
      << "(epoch0=" << epoch0.read_seek_pages
      << ", epoch1=" << epoch1.read_seek_pages
      << ", reads=" << epoch1.reads << ")";
  EXPECT_LT(epoch1.read_seek_pages, epoch0.read_seek_pages / 3);
  // The mover's I/O was charged to its own synthetic query context.
  EXPECT_GT(mover.io().disk_writes, 0u);
}

}  // namespace
}  // namespace cobra
