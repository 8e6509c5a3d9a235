// Disk-array model: striped placement, per-spindle seek accounting, log
// region pinning, per-spindle fault scoping, and — the load-bearing
// invariants — (a) the degenerate 1-spindle geometry is bit-identical to
// the plain single-arm SimulatedDisk, and (b) per-spindle statistics sum
// exactly to the global counters at every point.

#include <cstddef>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "obs/query_context.h"
#include "stats/histogram.h"
#include "storage/async_disk.h"
#include "storage/disk_array.h"
#include "storage/faulty_disk.h"
#include "storage/placement.h"

namespace cobra {
namespace {

std::vector<std::byte> MakePage(size_t size, uint8_t fill) {
  return std::vector<std::byte>(size, std::byte{fill});
}

DiskGeometry Geometry(uint32_t spindles, uint32_t stripe_width = 1) {
  DiskGeometry g;
  g.spindles = spindles;
  g.stripe_width = stripe_width;
  return g;
}

// --- Placement math ----------------------------------------------------

TEST(PlacementTest, SingleSpindleIsIdentity) {
  PlacementPolicy policy(Geometry(1, 1));
  for (PageId page : {PageId{0}, PageId{7}, PageId{1000}, PageId{123456}}) {
    SpindleSlot slot = policy.Resolve(page);
    EXPECT_EQ(slot.spindle, 0u);
    EXPECT_EQ(slot.offset, page);
  }
}

TEST(PlacementTest, RoundRobinStripeWidthOne) {
  PlacementPolicy policy(Geometry(4, 1));
  // Pages 0,1,2,3 land on spindles 0,1,2,3 at offset 0; 4..7 at offset 1.
  for (PageId page = 0; page < 16; ++page) {
    SpindleSlot slot = policy.Resolve(page);
    EXPECT_EQ(slot.spindle, page % 4);
    EXPECT_EQ(slot.offset, page / 4);
  }
}

TEST(PlacementTest, RoundRobinWideStripeKeepsRunsTogether) {
  PlacementPolicy policy(Geometry(2, 8));
  // Pages 0..7 share spindle 0; 8..15 spindle 1; 16..23 spindle 0 again —
  // and within a stripe, offsets are consecutive (SCAN-equivalent order).
  for (PageId page = 0; page < 32; ++page) {
    SpindleSlot slot = policy.Resolve(page);
    EXPECT_EQ(slot.spindle, (page / 8) % 2) << "page " << page;
    if (page % 8 != 0) {
      SpindleSlot prev = policy.Resolve(page - 1);
      if (prev.spindle == slot.spindle) {
        EXPECT_EQ(slot.offset, prev.offset + 1) << "page " << page;
      }
    }
  }
}

TEST(PlacementTest, RoundRobinInverseRoundTrips) {
  for (uint32_t spindles : {1u, 2u, 3u, 4u, 8u}) {
    for (uint32_t width : {1u, 2u, 8u}) {
      PlacementPolicy policy(Geometry(spindles, width));
      for (PageId page = 0; page < 500; ++page) {
        SpindleSlot slot = policy.Resolve(page);
        EXPECT_LT(slot.spindle, spindles);
        EXPECT_EQ(policy.PageAt(slot.spindle, slot.offset), page)
            << "spindles=" << spindles << " width=" << width
            << " page=" << page;
      }
    }
  }
}

TEST(PlacementTest, ClusteredPartitionsContiguously) {
  DiskGeometry g;
  g.spindles = 4;
  g.placement = PlacementKind::kClustered;
  g.clustered_pages_per_spindle = 100;
  PlacementPolicy policy(g);
  EXPECT_EQ(policy.Resolve(0).spindle, 0u);
  EXPECT_EQ(policy.Resolve(99).spindle, 0u);
  EXPECT_EQ(policy.Resolve(100).spindle, 1u);
  EXPECT_EQ(policy.Resolve(399).spindle, 3u);
  // Overflow past the last partition stays on the last spindle.
  EXPECT_EQ(policy.Resolve(5000).spindle, 3u);
  for (PageId page = 0; page < 400; ++page) {
    SpindleSlot slot = policy.Resolve(page);
    EXPECT_EQ(policy.PageAt(slot.spindle, slot.offset), page);
  }
}

// Per-spindle page order must equal offset order: the elevator sorts by
// PageId, so a spindle's service order is a physical SCAN only if the
// mapping is monotone per spindle.
TEST(PlacementTest, PerSpindleOffsetOrderIsPageOrder) {
  for (uint32_t width : {1u, 4u}) {
    PlacementPolicy policy(Geometry(3, width));
    std::vector<PageId> last_offset(3, 0);
    std::vector<bool> seen(3, false);
    for (PageId page = 0; page < 600; ++page) {
      SpindleSlot slot = policy.Resolve(page);
      if (seen[slot.spindle]) {
        EXPECT_GT(slot.offset, last_offset[slot.spindle])
            << "width " << width << " page " << page;
      }
      last_offset[slot.spindle] = slot.offset;
      seen[slot.spindle] = true;
    }
  }
}

// --- Degenerate geometry bit-identity ----------------------------------

TEST(DiskArrayTest, SingleSpindleMatchesPlainDiskExactly) {
  SimulatedDisk plain;
  DiskArray array(Geometry(1, 1));
  auto page = MakePage(plain.page_size(), 0x5A);
  const PageId kPages[] = {0, 50, 10, 99, 3, 10};
  for (PageId id : kPages) {
    ASSERT_TRUE(plain.WritePage(id, page.data()).ok());
    ASSERT_TRUE(array.WritePage(id, page.data()).ok());
  }
  // Park both arms so the trace-delta histogram (which assumes a head at
  // page 0) agrees with the charged distances.
  plain.ParkHead(0);
  array.ParkHead(0);
  plain.EnableReadTrace(true);
  array.EnableReadTrace(true);
  std::vector<std::byte> out(plain.page_size());
  for (PageId id : {PageId{99}, PageId{0}, PageId{50}, PageId{50}}) {
    ASSERT_TRUE(plain.ReadPage(id, out.data()).ok());
    ASSERT_TRUE(array.ReadPage(id, out.data()).ok());
  }
  EXPECT_EQ(plain.stats().reads, array.stats().reads);
  EXPECT_EQ(plain.stats().writes, array.stats().writes);
  EXPECT_EQ(plain.stats().read_seek_pages, array.stats().read_seek_pages);
  EXPECT_EQ(plain.stats().write_seek_pages, array.stats().write_seek_pages);
  EXPECT_EQ(plain.head(), array.head());
  EXPECT_EQ(plain.read_trace(), array.read_trace());
  // The charged-distance trace equals the trace-delta histogram on one arm.
  SeekHistogram from_trace = SeekHistogram::FromReadTrace(array.read_trace());
  SeekHistogram from_charges = SeekHistogram::FromDistances(array.seek_trace());
  EXPECT_EQ(from_trace.count(), from_charges.count());
  EXPECT_EQ(from_trace.total(), from_charges.total());
}

// --- Per-spindle accounting --------------------------------------------

TEST(DiskArrayTest, SeeksChargePerSpindleArm) {
  DiskArray array(Geometry(2, 1));
  auto page = MakePage(array.page_size(), 1);
  // Pages 0,2,4.. -> spindle 0 offsets 0,1,2..; 1,3,5.. -> spindle 1.
  for (PageId id = 0; id < 12; ++id) {
    ASSERT_TRUE(array.WritePage(id, page.data()).ok());
  }
  array.ResetStats();
  array.ParkHead(0);
  std::vector<std::byte> out(array.page_size());
  // Spindle 0: offsets 0 -> 5 (seek 5) -> 1 (seek 4).
  ASSERT_TRUE(array.ReadPage(0, out.data()).ok());
  ASSERT_TRUE(array.ReadPage(10, out.data()).ok());
  ASSERT_TRUE(array.ReadPage(2, out.data()).ok());
  // Spindle 1: offset 0 -> 3 (seek 3); its arm never moved before.
  ASSERT_TRUE(array.ReadPage(1, out.data()).ok());
  ASSERT_TRUE(array.ReadPage(7, out.data()).ok());
  DiskStats s0 = array.spindle_stats(0);
  DiskStats s1 = array.spindle_stats(1);
  EXPECT_EQ(s0.reads, 3u);
  EXPECT_EQ(s0.read_seek_pages, 9u);
  EXPECT_EQ(s1.reads, 2u);
  EXPECT_EQ(s1.read_seek_pages, 3u);
  EXPECT_EQ(array.stats().reads, 5u);
  EXPECT_EQ(array.stats().read_seek_pages, 12u);
  EXPECT_TRUE(array.SpindleStatsConserve());
}

TEST(DiskArrayTest, StripingCutsSeeksVersusSingleArm) {
  // Stride-4 access: a single arm travels 4 pages per read, while on a
  // 4-spindle width-1 stripe the same pages are physically consecutive on
  // one spindle (1 page per read).
  SimulatedDisk plain;
  DiskArray array(Geometry(4, 1));
  auto page = MakePage(plain.page_size(), 2);
  for (PageId id = 0; id < 256; ++id) {
    ASSERT_TRUE(plain.WritePage(id, page.data()).ok());
    ASSERT_TRUE(array.WritePage(id, page.data()).ok());
  }
  plain.ResetStats();
  plain.ParkHead(0);
  array.ResetStats();
  array.ParkHead(0);
  std::vector<std::byte> out(plain.page_size());
  for (PageId id = 0; id < 256; id += 4) {
    ASSERT_TRUE(plain.ReadPage(id, out.data()).ok());
    ASSERT_TRUE(array.ReadPage(id, out.data()).ok());
  }
  EXPECT_EQ(plain.stats().reads, array.stats().reads);
  EXPECT_LT(array.stats().read_seek_pages, plain.stats().read_seek_pages);
  // Stride 4 lands every read on spindle 0 at consecutive offsets: the one
  // busy arm travels 1 page per read where the single arm travelled 4.
  EXPECT_EQ(array.stats().read_seek_pages,
            plain.stats().read_seek_pages / 4);
  EXPECT_TRUE(array.SpindleStatsConserve());
}

TEST(DiskArrayTest, ConservationHoldsUnderMixedTraffic) {
  DiskArray array(Geometry(3, 2));
  auto page = MakePage(array.page_size(), 3);
  for (PageId id = 0; id < 60; ++id) {
    ASSERT_TRUE(array.WritePage(id * 7 % 60, page.data()).ok());
  }
  std::vector<std::byte> out(array.page_size());
  for (PageId id = 0; id < 60; id += 3) {
    ASSERT_TRUE(array.ReadPage(id, out.data()).ok());
  }
  array.AddSeekPenalty(17, true);
  array.AddSeekPenaltyAt(5, 9, false);
  EXPECT_TRUE(array.SpindleStatsConserve());
  EXPECT_TRUE(SpindleStatsConserve(array));
  uint64_t reads = 0;
  for (const DiskStats& s : SpindleStats(array)) reads += s.reads;
  EXPECT_EQ(reads, array.stats().reads);
}

// --- ReadRun across stripe seams ---------------------------------------

TEST(DiskArrayTest, ReadRunSplitsTransfersAtSpindleSeams) {
  // Stripe width 2 over 2 spindles: pages {0,1} s0, {2,3} s1, {4,5} s0...
  DiskArray array(Geometry(2, 2));
  auto page = MakePage(array.page_size(), 4);
  for (PageId id = 0; id < 8; ++id) {
    ASSERT_TRUE(array.WritePage(id, page.data()).ok());
  }
  array.ResetStats();
  array.ParkHead(0);
  std::vector<std::vector<std::byte>> bufs(6, MakePage(array.page_size(), 0));
  std::vector<std::byte*> outs;
  for (auto& b : bufs) outs.push_back(b.data());
  RunReadResult result = array.ReadRun(0, 6, true, outs.data());
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.pages_ok, 6u);
  // Pages 0..5 cross the seams 1|2 and 3|4: three device transfers.
  EXPECT_EQ(array.stats().reads, 3u);
  EXPECT_EQ(array.stats().pages_read, 6u);
  EXPECT_EQ(array.stats().coalesced_runs, 3u);
  EXPECT_EQ(array.spindle_stats(0).reads, 2u);
  EXPECT_EQ(array.spindle_stats(1).reads, 1u);
  EXPECT_TRUE(array.SpindleStatsConserve());
}

TEST(DiskArrayTest, ReadRunSingleSpindleUnchanged) {
  SimulatedDisk plain;
  DiskArray array(Geometry(1, 1));
  auto page = MakePage(plain.page_size(), 5);
  for (PageId id = 10; id < 18; ++id) {
    ASSERT_TRUE(plain.WritePage(id, page.data()).ok());
    ASSERT_TRUE(array.WritePage(id, page.data()).ok());
  }
  plain.ResetStats();
  plain.ParkHead(0);
  array.ResetStats();
  array.ParkHead(0);
  std::vector<std::vector<std::byte>> bufs(8, MakePage(plain.page_size(), 0));
  std::vector<std::byte*> outs;
  for (auto& b : bufs) outs.push_back(b.data());
  RunReadResult rp = plain.ReadRun(10, 8, true, outs.data());
  RunReadResult ra = array.ReadRun(10, 8, true, outs.data());
  ASSERT_TRUE(rp.status.ok());
  ASSERT_TRUE(ra.status.ok());
  EXPECT_EQ(plain.stats().reads, array.stats().reads);
  EXPECT_EQ(plain.stats().pages_read, array.stats().pages_read);
  EXPECT_EQ(plain.stats().coalesced_runs, array.stats().coalesced_runs);
  EXPECT_EQ(plain.stats().read_seek_pages, array.stats().read_seek_pages);
}

// --- Log region --------------------------------------------------------

TEST(DiskArrayTest, LogRegionPinsToDedicatedSpindle) {
  DiskArray array(Geometry(4, 1));
  const PageId kLogFirst = 1000;
  array.SetLogRegion(kLogFirst, 64, 3);
  auto page = MakePage(array.page_size(), 6);
  // Log appends land on spindle 3 only; data writes stripe as usual.
  for (PageId id = kLogFirst; id < kLogFirst + 8; ++id) {
    ASSERT_TRUE(array.WritePage(id, page.data()).ok());
    EXPECT_EQ(array.SpindleOf(id), 3u);
  }
  for (PageId id = 0; id < 8; ++id) {
    ASSERT_TRUE(array.WritePage(id, page.data()).ok());
  }
  EXPECT_EQ(array.spindle_stats(3).writes, 8u + 2u);  // log + striped 3,7
  EXPECT_TRUE(array.SpindleStatsConserve());
  // Sequential log appends on the dedicated arm cost one page each after
  // the initial positioning seek.
  DiskArray fresh(Geometry(4, 1));
  fresh.SetLogRegion(kLogFirst, 64, 3);
  for (PageId id = kLogFirst; id < kLogFirst + 8; ++id) {
    ASSERT_TRUE(fresh.WritePage(id, page.data()).ok());
  }
  EXPECT_EQ(fresh.spindle_stats(3).write_seek_pages,
            kLogFirst + 7);  // first seek to 1000, then 7 single steps
}

// --- Fault scoping -----------------------------------------------------

TEST(FaultScopingTest, FaultSpindleRestrictsInjection) {
  FaultProfile profile;
  profile.seed = 7;
  profile.permanent_page_fail = 1.0;  // every read of every page fails
  DiskOptions options;
  options.geometry = Geometry(2, 1);
  FaultInjectingDisk disk(profile, options);
  auto page = MakePage(disk.page_size(), 7);
  for (PageId id = 0; id < 8; ++id) {
    ASSERT_TRUE(disk.WritePage(id, page.data()).ok());
  }
  disk.set_enabled(true);
  disk.set_fault_spindle(1);
  std::vector<std::byte> out(disk.page_size());
  // Even pages (spindle 0) are out of scope and read fine; odd pages fail.
  for (PageId id = 0; id < 8; id += 2) {
    EXPECT_TRUE(disk.ReadPage(id, out.data()).ok()) << "page " << id;
  }
  for (PageId id = 1; id < 8; id += 2) {
    EXPECT_FALSE(disk.ReadPage(id, out.data()).ok()) << "page " << id;
  }
  EXPECT_EQ(disk.fault_stats().permanent_failures, 4u);
}

TEST(FaultScopingTest, DegradedSpindleFailsItsReadsOnly) {
  DiskOptions options;
  options.geometry = Geometry(4, 1);
  FaultInjectingDisk disk(FaultProfile{}, options);
  auto page = MakePage(disk.page_size(), 8);
  for (PageId id = 0; id < 16; ++id) {
    ASSERT_TRUE(disk.WritePage(id, page.data()).ok());
  }
  disk.set_degraded_spindle(2);
  std::vector<std::byte> out(disk.page_size());
  size_t failed = 0;
  for (PageId id = 0; id < 16; ++id) {
    Status s = disk.ReadPage(id, out.data());
    if (disk.SpindleOf(id) == 2u) {
      EXPECT_TRUE(s.IsCorruption()) << "page " << id;
      ++failed;
    } else {
      EXPECT_TRUE(s.ok()) << "page " << id;
    }
  }
  EXPECT_EQ(failed, 4u);
  EXPECT_EQ(disk.fault_stats().degraded_reads, 4u);
  // Recovery: clearing the degraded mark restores every page (the platter
  // content was never lost, only unreachable).
  disk.set_degraded_spindle(-1);
  for (PageId id = 0; id < 16; ++id) {
    EXPECT_TRUE(disk.ReadPage(id, out.data()).ok());
  }
}

TEST(FaultScopingTest, ScopedCrashSparesOtherSpindles) {
  DiskOptions options;
  options.geometry = Geometry(2, 1);
  FaultInjectingDisk disk(FaultProfile{}, options);
  auto page = MakePage(disk.page_size(), 9);
  // Crash spindle 1 after 2 more successful writes to it.
  disk.ScheduleCrash(2, CrashWriteMode::kDropWrite, /*spindle=*/1);
  // Writes: s1, s1 survive; third s1 write crashes.  s0 writes never count
  // toward the fuse and keep succeeding afterwards.
  ASSERT_TRUE(disk.WritePage(1, page.data()).ok());
  ASSERT_TRUE(disk.WritePage(3, page.data()).ok());
  ASSERT_TRUE(disk.WritePage(0, page.data()).ok());
  EXPECT_FALSE(disk.WritePage(5, page.data()).ok());  // the crash write
  EXPECT_FALSE(disk.WritePage(7, page.data()).ok());  // still down
  EXPECT_TRUE(disk.WritePage(2, page.data()).ok());   // other enclosure
  std::vector<std::byte> out(disk.page_size());
  EXPECT_TRUE(disk.ReadPage(1, out.data()).ok());     // reads still work
  EXPECT_TRUE(disk.ReadPage(5, out.data()).IsNotFound());  // dropped
}

// --- Per-query spindle attribution -------------------------------------

TEST(DiskArrayTest, QueryAttributionCarriesSpindleDimension) {
  DiskArray array(Geometry(3, 1));
  auto page = MakePage(array.page_size(), 10);
  for (PageId id = 0; id < 30; ++id) {
    ASSERT_TRUE(array.WritePage(id, page.data()).ok());
  }
  auto ctx = std::make_shared<obs::QueryContext>(1, "test");
  {
    obs::ScopedQueryContext scope(ctx);
    std::vector<std::byte> out(array.page_size());
    for (PageId id = 0; id < 30; id += 2) {
      ASSERT_TRUE(array.ReadPage(id, out.data()).ok());
    }
  }
  obs::QueryIoSnapshot snap = ctx->io.Snapshot();
  uint64_t reads = 0;
  uint64_t seeks = 0;
  for (size_t s = 0; s < obs::kMaxTrackedSpindles; ++s) {
    reads += snap.spindle_reads[s];
    seeks += snap.spindle_seek_pages[s];
  }
  EXPECT_EQ(snap.disk_reads, 15u);
  EXPECT_EQ(reads, snap.disk_reads);
  EXPECT_EQ(seeks, snap.read_seek_pages);
  // Spindle spread: pages 0,2,4.. mod 3 touch every spindle.
  EXPECT_GT(snap.spindle_reads[0], 0u);
  EXPECT_GT(snap.spindle_reads[1], 0u);
  EXPECT_GT(snap.spindle_reads[2], 0u);
}

// --- AsyncDisk over an array -------------------------------------------

TEST(DiskArrayTest, AsyncDiskForwardsArrayGeometry) {
  DiskArray array(Geometry(4, 1));
  auto page = MakePage(array.page_size(), 11);
  for (PageId id = 0; id < 64; ++id) {
    ASSERT_TRUE(array.WritePage(id, page.data()).ok());
  }
  array.ResetStats();
  array.ParkHead(0);
  AsyncDisk async(&array);
  EXPECT_EQ(async.num_spindles(), 4u);
  std::vector<std::byte> out(array.page_size());
  for (PageId id = 0; id < 64; ++id) {
    ASSERT_TRUE(async.ReadPage(id, out.data()).ok());
  }
  async.Drain();
  EXPECT_EQ(array.stats().reads, 64u);
  EXPECT_TRUE(array.SpindleStatsConserve());
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(async.spindle_stats(s).reads, array.spindle_stats(s).reads);
  }
}

TEST(DiskArrayTest, ValidateGeometryNormalizesDefaults) {
  DiskGeometry g = ValidateGeometry(DiskGeometry{});
  EXPECT_EQ(g.spindles, 1u);
  EXPECT_EQ(g.stripe_width, 1u);
  DiskGeometry zero;
  zero.spindles = 0;
  zero.stripe_width = 0;
  DiskGeometry fixed = ValidateGeometry(zero);
  EXPECT_EQ(fixed.spindles, 1u);
  EXPECT_EQ(fixed.stripe_width, 1u);
}

}  // namespace
}  // namespace cobra
