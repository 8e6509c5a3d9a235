#include <cstddef>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "storage/disk.h"

namespace cobra {
namespace {

std::vector<std::byte> MakePage(size_t size, uint8_t fill) {
  return std::vector<std::byte>(size, std::byte{fill});
}

TEST(DiskTest, ReadBackWrittenPage) {
  SimulatedDisk disk;
  auto page = MakePage(disk.page_size(), 0xAB);
  ASSERT_TRUE(disk.WritePage(3, page.data()).ok());
  std::vector<std::byte> out(disk.page_size());
  ASSERT_TRUE(disk.ReadPage(3, out.data()).ok());
  EXPECT_EQ(out, page);
}

TEST(DiskTest, ReadUnwrittenPageIsNotFound) {
  SimulatedDisk disk;
  std::vector<std::byte> out(disk.page_size());
  EXPECT_TRUE(disk.ReadPage(5, out.data()).IsNotFound());
}

TEST(DiskTest, SeekDistanceIsHeadDelta) {
  SimulatedDisk disk;
  auto page = MakePage(disk.page_size(), 1);
  // Populate pages 0, 10, 4 without charging read seeks.
  ASSERT_TRUE(disk.WritePage(0, page.data()).ok());
  ASSERT_TRUE(disk.WritePage(10, page.data()).ok());
  ASSERT_TRUE(disk.WritePage(4, page.data()).ok());
  disk.ResetStats();
  disk.ParkHead(0);
  std::vector<std::byte> out(disk.page_size());
  ASSERT_TRUE(disk.ReadPage(10, out.data()).ok());  // |10 - 0|  = 10
  ASSERT_TRUE(disk.ReadPage(4, out.data()).ok());   // |4  - 10| = 6
  ASSERT_TRUE(disk.ReadPage(4, out.data()).ok());   // |4  - 4|  = 0
  EXPECT_EQ(disk.stats().reads, 3u);
  EXPECT_EQ(disk.stats().read_seek_pages, 16u);
  EXPECT_DOUBLE_EQ(disk.stats().AvgSeekPerRead(), 16.0 / 3.0);
}

TEST(DiskTest, WriteSeeksTrackedSeparately) {
  SimulatedDisk disk;
  auto page = MakePage(disk.page_size(), 2);
  ASSERT_TRUE(disk.WritePage(100, page.data()).ok());
  EXPECT_EQ(disk.stats().writes, 1u);
  EXPECT_EQ(disk.stats().write_seek_pages, 100u);
  EXPECT_EQ(disk.stats().reads, 0u);
  EXPECT_EQ(disk.stats().read_seek_pages, 0u);
}

TEST(DiskTest, ParkHeadDoesNotCharge) {
  SimulatedDisk disk;
  auto page = MakePage(disk.page_size(), 3);
  ASSERT_TRUE(disk.WritePage(50, page.data()).ok());
  disk.ResetStats();
  disk.ParkHead(0);
  EXPECT_EQ(disk.head(), 0u);
  std::vector<std::byte> out(disk.page_size());
  ASSERT_TRUE(disk.ReadPage(50, out.data()).ok());
  EXPECT_EQ(disk.stats().read_seek_pages, 50u);
}

TEST(DiskTest, AvgSeekZeroWithNoReads) {
  SimulatedDisk disk;
  EXPECT_DOUBLE_EQ(disk.stats().AvgSeekPerRead(), 0.0);
}

TEST(DiskTest, SparseAllocationTracksSpanAndCount) {
  SimulatedDisk disk;
  auto page = MakePage(disk.page_size(), 4);
  ASSERT_TRUE(disk.WritePage(1000000, page.data()).ok());
  ASSERT_TRUE(disk.WritePage(2, page.data()).ok());
  EXPECT_EQ(disk.allocated_pages(), 2u);
  EXPECT_EQ(disk.page_span(), 1000001u);
}

TEST(DiskTest, OverwriteKeepsSingleAllocation) {
  SimulatedDisk disk;
  auto a = MakePage(disk.page_size(), 5);
  auto b = MakePage(disk.page_size(), 6);
  ASSERT_TRUE(disk.WritePage(7, a.data()).ok());
  ASSERT_TRUE(disk.WritePage(7, b.data()).ok());
  EXPECT_EQ(disk.allocated_pages(), 1u);
  std::vector<std::byte> out(disk.page_size());
  ASSERT_TRUE(disk.ReadPage(7, out.data()).ok());
  EXPECT_EQ(out, b);
}

TEST(DiskTest, InvalidPageIdRejected) {
  SimulatedDisk disk;
  auto page = MakePage(disk.page_size(), 7);
  EXPECT_TRUE(
      disk.WritePage(kInvalidPageId, page.data()).IsInvalidArgument());
}

TEST(DiskTest, CustomPageSize) {
  SimulatedDisk disk(DiskOptions{.page_size = 4096});
  EXPECT_EQ(disk.page_size(), 4096u);
  auto page = MakePage(4096, 8);
  ASSERT_TRUE(disk.WritePage(0, page.data()).ok());
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(disk.ReadPage(0, out.data()).ok());
  EXPECT_EQ(out, page);
}

TEST(DiskTest, ElevatorFriendlySequentialReadsAreCheap) {
  SimulatedDisk disk;
  auto page = MakePage(disk.page_size(), 9);
  for (PageId p = 0; p < 100; ++p) {
    ASSERT_TRUE(disk.WritePage(p, page.data()).ok());
  }
  disk.ResetStats();
  disk.ParkHead(0);
  std::vector<std::byte> out(disk.page_size());
  for (PageId p = 0; p < 100; ++p) {
    ASSERT_TRUE(disk.ReadPage(p, out.data()).ok());
  }
  // Sequential sweep: total seek = 99 pages over 100 reads.
  EXPECT_DOUBLE_EQ(disk.stats().AvgSeekPerRead(), 0.99);
}

TEST(SeekHelperTest, SeekDistancePagesIsAbsoluteDelta) {
  EXPECT_EQ(SeekDistancePages(0, 0), 0u);
  EXPECT_EQ(SeekDistancePages(3, 10), 7u);
  EXPECT_EQ(SeekDistancePages(10, 3), 7u);
  EXPECT_EQ(SeekDistancePages(0, kInvalidPageId - 1), kInvalidPageId - 1);
}

TEST(SeekHelperTest, ScanNextFollowsSweepAndReverses) {
  std::multimap<PageId, int> pending{{2, 0}, {5, 1}, {9, 2}};
  bool up = true;
  // Head at 4 sweeping up: nearest at-or-above is 5, then 9, then reverse
  // down to 2.
  auto it = ScanNext(pending, 4, &up);
  EXPECT_EQ(it->first, 5u);
  EXPECT_TRUE(up);
  pending.erase(it);
  it = ScanNext(pending, 5, &up);
  EXPECT_EQ(it->first, 9u);
  pending.erase(it);
  it = ScanNext(pending, 9, &up);
  EXPECT_EQ(it->first, 2u);
  EXPECT_FALSE(up);
  pending.erase(it);
  EXPECT_EQ(ScanNext(pending, 2, &up), pending.end());
}

TEST(SeekHelperTest, ScanNextDownSweepTakesHighestBelowHead) {
  std::multimap<PageId, int> pending{{1, 0}, {6, 1}, {8, 2}};
  bool up = false;
  auto it = ScanNext(pending, 7, &up);
  EXPECT_EQ(it->first, 6u);
  EXPECT_FALSE(up);
  pending.erase(it);
  it = ScanNext(pending, 6, &up);
  EXPECT_EQ(it->first, 1u);
  pending.erase(it);
  // Nothing below: reverses up.
  it = ScanNext(pending, 1, &up);
  EXPECT_EQ(it->first, 8u);
  EXPECT_TRUE(up);
}

// Captures run events for the vectored-read listener tests.
struct RunCapture : DiskEventListener {
  struct Event {
    PageId first = kInvalidPageId;
    size_t pages = 0;
    uint64_t seek = 0;
  };
  std::vector<Event> runs;
  std::vector<Event> singles;

  void OnDiskRead(PageId page, uint64_t seek_pages) override {
    singles.push_back({page, 1, seek_pages});
  }
  void OnDiskWrite(PageId, uint64_t) override {}
  void OnDiskReadRun(PageId first_page, size_t pages,
                     uint64_t seek_pages) override {
    runs.push_back({first_page, pages, seek_pages});
  }
};

TEST(DiskReadRunTest, AscendingRunChargesOneSeekPlusSequentialTransfers) {
  SimulatedDisk disk;
  auto page = MakePage(disk.page_size(), 1);
  for (PageId p = 10; p < 14; ++p) {
    ASSERT_TRUE(disk.WritePage(p, page.data()).ok());
  }
  disk.ResetStats();
  disk.ParkHead(0);
  std::vector<std::vector<std::byte>> bufs(4, MakePage(disk.page_size(), 0));
  std::vector<std::byte*> outs;
  for (auto& b : bufs) outs.push_back(b.data());
  RunReadResult result = disk.ReadRun(10, 4, /*ascending=*/true, outs.data());
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.pages_ok, 4u);
  // One seek to the run's entry (|10 - 0|) plus one page per subsequent
  // sequential transfer.
  EXPECT_EQ(disk.stats().reads, 1u);
  EXPECT_EQ(disk.stats().read_seek_pages, 10u + 3u);
  EXPECT_EQ(disk.stats().pages_read, 4u);
  EXPECT_EQ(disk.stats().coalesced_runs, 1u);
  EXPECT_EQ(disk.head(), 13u);
  for (auto& b : bufs) EXPECT_EQ(b, page);

  // A single-page read after the run is one more transfer of one page.
  ASSERT_TRUE(disk.ReadPage(12, outs[0]).ok());
  EXPECT_EQ(disk.stats().reads, 2u);
  EXPECT_EQ(disk.stats().pages_read, 5u);
  EXPECT_EQ(disk.stats().coalesced_runs, 1u);
}

TEST(DiskReadRunTest, DescendingRunEntersAtHighEnd) {
  SimulatedDisk disk;
  auto page = MakePage(disk.page_size(), 2);
  for (PageId p = 4; p < 8; ++p) {
    ASSERT_TRUE(disk.WritePage(p, page.data()).ok());
  }
  disk.ResetStats();
  disk.ParkHead(9);
  std::vector<std::vector<std::byte>> bufs(4, MakePage(disk.page_size(), 0));
  std::vector<std::byte*> outs;
  for (auto& b : bufs) outs.push_back(b.data());
  RunReadResult result = disk.ReadRun(4, 4, /*ascending=*/false, outs.data());
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.pages_ok, 4u);
  // Entry at page 7 (|7 - 9| = 2) then 3 sequential transfers down to 4.
  EXPECT_EQ(disk.stats().read_seek_pages, 2u + 3u);
  EXPECT_EQ(disk.head(), 4u);
}

TEST(DiskReadRunTest, SinglePageRunMatchesReadPageAccounting) {
  SimulatedDisk a;
  SimulatedDisk b;
  auto page = MakePage(a.page_size(), 3);
  ASSERT_TRUE(a.WritePage(20, page.data()).ok());
  ASSERT_TRUE(b.WritePage(20, page.data()).ok());
  a.ResetStats();
  b.ResetStats();
  a.ParkHead(5);
  b.ParkHead(5);
  std::vector<std::byte> out(a.page_size());
  std::byte* outs[] = {out.data()};
  ASSERT_TRUE(a.ReadRun(20, 1, true, outs).status.ok());
  ASSERT_TRUE(b.ReadPage(20, out.data()).ok());
  EXPECT_EQ(a.stats().reads, b.stats().reads);
  EXPECT_EQ(a.stats().read_seek_pages, b.stats().read_seek_pages);
  EXPECT_EQ(a.stats().pages_read, b.stats().pages_read);
  EXPECT_EQ(a.stats().coalesced_runs, 0u);
  EXPECT_EQ(a.head(), b.head());
}

TEST(DiskReadRunTest, MissingPageStopsTransferAtFault) {
  SimulatedDisk disk;
  auto page = MakePage(disk.page_size(), 4);
  ASSERT_TRUE(disk.WritePage(0, page.data()).ok());
  ASSERT_TRUE(disk.WritePage(1, page.data()).ok());
  // Page 2 never written; page 3 written.
  ASSERT_TRUE(disk.WritePage(3, page.data()).ok());
  disk.ResetStats();
  disk.ParkHead(0);
  std::vector<std::vector<std::byte>> bufs(4, MakePage(disk.page_size(), 0));
  std::vector<std::byte*> outs;
  for (auto& b : bufs) outs.push_back(b.data());
  RunReadResult result = disk.ReadRun(0, 4, true, outs.data());
  EXPECT_TRUE(result.status.IsNotFound());
  EXPECT_EQ(result.pages_ok, 2u);
  // Only the good prefix transferred: pages 0 and 1.
  EXPECT_EQ(disk.stats().pages_read, 2u);
  EXPECT_EQ(disk.head(), 1u);
  EXPECT_EQ(bufs[0], page);
  EXPECT_EQ(bufs[1], page);
}

TEST(DiskReadRunTest, EmptyRunIsInvalidArgument) {
  SimulatedDisk disk;
  EXPECT_TRUE(disk.ReadRun(0, 0, true, nullptr).status.IsInvalidArgument());
}

TEST(DiskReadRunTest, ListenerSeesOneRunEventAndTraceStaysPerPage) {
  SimulatedDisk disk;
  auto page = MakePage(disk.page_size(), 5);
  for (PageId p = 0; p < 3; ++p) {
    ASSERT_TRUE(disk.WritePage(p, page.data()).ok());
  }
  RunCapture capture;
  disk.set_listener(&capture);
  disk.EnableReadTrace(true);
  disk.ResetStats();
  disk.ParkHead(0);
  std::vector<std::vector<std::byte>> bufs(3, MakePage(disk.page_size(), 0));
  std::vector<std::byte*> outs;
  for (auto& b : bufs) outs.push_back(b.data());
  ASSERT_TRUE(disk.ReadRun(0, 3, true, outs.data()).status.ok());
  ASSERT_EQ(capture.runs.size(), 1u);
  EXPECT_EQ(capture.runs[0].first, 0u);
  EXPECT_EQ(capture.runs[0].pages, 3u);
  EXPECT_EQ(capture.runs[0].seek, 2u);
  EXPECT_TRUE(capture.singles.empty());
  // The read trace keeps per-page granularity for the seek histogram.
  EXPECT_EQ(disk.read_trace().size(), 3u);
  disk.set_listener(nullptr);
}

}  // namespace
}  // namespace cobra
