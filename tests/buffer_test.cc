#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "buffer/buffer_manager.h"
#include "buffer/replacement.h"
#include "storage/checksum.h"
#include "storage/disk.h"

namespace cobra {
namespace {

// Raw pages bypass the buffer manager, so bytes [0, kPageChecksumSize) must
// stay zero ("unstamped"); the marker byte lives just past the checksum
// field.
constexpr size_t kMarker = kPageChecksumSize;

void FillDisk(SimulatedDisk* disk, PageId count) {
  std::vector<std::byte> page(disk->page_size());
  for (PageId p = 0; p < count; ++p) {
    page[kMarker] = static_cast<std::byte>(p & 0xFF);
    ASSERT_TRUE(disk->WritePage(p, page.data()).ok());
  }
  disk->ResetStats();
}

TEST(BufferTest, FetchReadsThroughOnFault) {
  SimulatedDisk disk;
  FillDisk(&disk, 4);
  BufferManager buffer(&disk, BufferOptions{.num_frames = 8});
  auto guard = buffer.FetchPage(2);
  ASSERT_TRUE(guard.ok());
  EXPECT_EQ(guard->data()[kMarker], std::byte{2});
  EXPECT_EQ(buffer.stats().faults, 1u);
  EXPECT_EQ(buffer.stats().hits, 0u);
}

TEST(BufferTest, SecondFetchIsHit) {
  SimulatedDisk disk;
  FillDisk(&disk, 4);
  BufferManager buffer(&disk, BufferOptions{.num_frames = 8});
  { auto g = buffer.FetchPage(1); ASSERT_TRUE(g.ok()); }
  { auto g = buffer.FetchPage(1); ASSERT_TRUE(g.ok()); }
  EXPECT_EQ(buffer.stats().faults, 1u);
  EXPECT_EQ(buffer.stats().hits, 1u);
  EXPECT_EQ(disk.stats().reads, 1u);
  EXPECT_DOUBLE_EQ(buffer.stats().HitRate(), 0.5);
}

TEST(BufferTest, FetchMissingPageFails) {
  SimulatedDisk disk;
  BufferManager buffer(&disk, BufferOptions{.num_frames = 2});
  EXPECT_TRUE(buffer.FetchPage(99).status().IsNotFound());
  // The failed fetch must not leak the frame.
  EXPECT_TRUE(buffer.CreatePage(0).ok());
  EXPECT_TRUE(buffer.CreatePage(1).ok());
}

TEST(BufferTest, CreatePageZeroFilledAndDirty) {
  SimulatedDisk disk;
  BufferManager buffer(&disk, BufferOptions{.num_frames = 4});
  auto guard = buffer.CreatePage(7);
  ASSERT_TRUE(guard.ok());
  for (std::byte b : guard->data()) {
    ASSERT_EQ(b, std::byte{0});
  }
  guard->data()[kMarker] = std::byte{0xEE};
  guard->Release();
  ASSERT_TRUE(buffer.FlushAll().ok());
  std::vector<std::byte> out(disk.page_size());
  ASSERT_TRUE(disk.ReadPage(7, out.data()).ok());
  EXPECT_EQ(out[kMarker], std::byte{0xEE});
}

TEST(BufferTest, CreateExistingPageFails) {
  SimulatedDisk disk;
  FillDisk(&disk, 1);
  BufferManager buffer(&disk, BufferOptions{.num_frames = 4});
  EXPECT_TRUE(buffer.CreatePage(0).status().IsAlreadyExists());
}

TEST(BufferTest, EvictionWritesBackDirtyVictim) {
  SimulatedDisk disk;
  FillDisk(&disk, 4);
  BufferManager buffer(&disk, BufferOptions{.num_frames = 2});
  {
    auto g = buffer.FetchPage(0);
    ASSERT_TRUE(g.ok());
    g->data()[kMarker] = std::byte{0x77};
    g->MarkDirty();
  }
  // Fill both frames with other pages, evicting page 0.
  { auto g = buffer.FetchPage(1); ASSERT_TRUE(g.ok()); }
  { auto g = buffer.FetchPage(2); ASSERT_TRUE(g.ok()); }
  EXPECT_GE(buffer.stats().evictions, 1u);
  EXPECT_GE(buffer.stats().dirty_writebacks, 1u);
  std::vector<std::byte> out(disk.page_size());
  ASSERT_TRUE(disk.ReadPage(0, out.data()).ok());
  EXPECT_EQ(out[kMarker], std::byte{0x77});
}

TEST(BufferTest, PinnedPagesAreNotEvicted) {
  SimulatedDisk disk;
  FillDisk(&disk, 4);
  BufferManager buffer(&disk, BufferOptions{.num_frames = 2});
  auto pinned = buffer.FetchPage(0);
  ASSERT_TRUE(pinned.ok());
  { auto g = buffer.FetchPage(1); ASSERT_TRUE(g.ok()); }
  { auto g = buffer.FetchPage(2); ASSERT_TRUE(g.ok()); }
  // Page 0 stayed resident throughout.
  EXPECT_TRUE(buffer.IsResident(0));
  EXPECT_EQ(pinned->data()[kMarker], std::byte{0});
}

TEST(BufferTest, AllFramesPinnedIsResourceExhausted) {
  SimulatedDisk disk;
  FillDisk(&disk, 4);
  BufferManager buffer(&disk, BufferOptions{.num_frames = 2});
  auto g0 = buffer.FetchPage(0);
  auto g1 = buffer.FetchPage(1);
  ASSERT_TRUE(g0.ok() && g1.ok());
  EXPECT_TRUE(buffer.FetchPage(2).status().IsResourceExhausted());
  g0->Release();
  EXPECT_TRUE(buffer.FetchPage(2).ok());
}

TEST(BufferTest, LruEvictsLeastRecentlyUsed) {
  SimulatedDisk disk;
  FillDisk(&disk, 4);
  BufferManager buffer(&disk, BufferOptions{.num_frames = 3});
  { auto g = buffer.FetchPage(0); ASSERT_TRUE(g.ok()); }
  { auto g = buffer.FetchPage(1); ASSERT_TRUE(g.ok()); }
  { auto g = buffer.FetchPage(2); ASSERT_TRUE(g.ok()); }
  // Touch 0 so 1 becomes the LRU.
  { auto g = buffer.FetchPage(0); ASSERT_TRUE(g.ok()); }
  { auto g = buffer.FetchPage(3); ASSERT_TRUE(g.ok()); }
  EXPECT_TRUE(buffer.IsResident(0));
  EXPECT_FALSE(buffer.IsResident(1));
  EXPECT_TRUE(buffer.IsResident(2));
}

TEST(BufferTest, ClockPolicyEvictsAndStaysCorrect) {
  SimulatedDisk disk;
  FillDisk(&disk, 16);
  BufferManager buffer(&disk, BufferOptions{
                                  .num_frames = 4,
                                  .replacement = ReplacementKind::kClock});
  for (PageId p = 0; p < 16; ++p) {
    auto g = buffer.FetchPage(p);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->data()[kMarker], std::byte{static_cast<uint8_t>(p)});
  }
  EXPECT_EQ(buffer.stats().faults, 16u);
  EXPECT_EQ(buffer.stats().evictions, 12u);
}

TEST(BufferTest, MaxPinnedHighWaterMark) {
  SimulatedDisk disk;
  FillDisk(&disk, 8);
  BufferManager buffer(&disk, BufferOptions{.num_frames = 8});
  {
    auto a = buffer.FetchPage(0);
    auto b = buffer.FetchPage(1);
    auto c = buffer.FetchPage(2);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    EXPECT_EQ(buffer.pinned_frames(), 3u);
  }
  EXPECT_EQ(buffer.pinned_frames(), 0u);
  EXPECT_EQ(buffer.stats().max_pinned, 3u);
}

TEST(BufferTest, MultiplePinsOnSamePage) {
  SimulatedDisk disk;
  FillDisk(&disk, 2);
  BufferManager buffer(&disk, BufferOptions{.num_frames = 4});
  auto a = buffer.FetchPage(0);
  auto b = buffer.FetchPage(0);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(buffer.pinned_frames(), 1u);  // one frame, pin count 2
  a->Release();
  EXPECT_EQ(buffer.pinned_frames(), 1u);
  b->Release();
  EXPECT_EQ(buffer.pinned_frames(), 0u);
}

TEST(BufferTest, GuardMoveTransfersPin) {
  SimulatedDisk disk;
  FillDisk(&disk, 2);
  BufferManager buffer(&disk, BufferOptions{.num_frames = 4});
  auto a = buffer.FetchPage(0);
  ASSERT_TRUE(a.ok());
  PageGuard moved = std::move(*a);
  EXPECT_TRUE(moved.valid());
  EXPECT_FALSE(a->valid());
  EXPECT_EQ(buffer.pinned_frames(), 1u);
  moved.Release();
  EXPECT_EQ(buffer.pinned_frames(), 0u);
}

TEST(BufferTest, RefetchTraceCountsReReads) {
  SimulatedDisk disk;
  FillDisk(&disk, 8);
  BufferManager buffer(&disk, BufferOptions{.num_frames = 2});
  // Cycle through 4 pages twice with only 2 frames: 8 faults, 4 unique.
  for (int round = 0; round < 2; ++round) {
    for (PageId p = 0; p < 4; ++p) {
      auto g = buffer.FetchPage(p);
      ASSERT_TRUE(g.ok());
    }
  }
  EXPECT_EQ(buffer.stats().faults, 8u);
  EXPECT_EQ(buffer.unique_pages_faulted(), 4u);
}

TEST(BufferTest, FlushPageOnlyWritesDirty) {
  SimulatedDisk disk;
  FillDisk(&disk, 2);
  BufferManager buffer(&disk, BufferOptions{.num_frames = 4});
  { auto g = buffer.FetchPage(0); ASSERT_TRUE(g.ok()); }
  disk.ResetStats();
  ASSERT_TRUE(buffer.FlushPage(0).ok());
  EXPECT_EQ(disk.stats().writes, 0u);  // clean page: no write-back
  EXPECT_TRUE(buffer.FlushPage(5).IsNotFound());
}

TEST(LruPolicyTest, VictimSkipsUnevictable) {
  LruPolicy lru(3);
  lru.RecordAccess(0);
  lru.RecordAccess(1);
  lru.RecordAccess(2);
  auto victim = lru.Victim([](size_t f) { return f != 0; });
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 1u);
}

TEST(LruPolicyTest, EmptyReturnsNullopt) {
  LruPolicy lru(2);
  EXPECT_FALSE(lru.Victim([](size_t) { return true; }).has_value());
}

TEST(ClockPolicyTest, SecondChanceOrder) {
  ClockPolicy clock(3);
  clock.RecordAccess(0);
  clock.RecordAccess(1);
  clock.RecordAccess(2);
  // First sweep clears all reference bits; victim is frame 0.
  auto victim = clock.Victim([](size_t) { return true; });
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 0u);
}

TEST(ClockPolicyTest, AllPinnedReturnsNullopt) {
  ClockPolicy clock(2);
  clock.RecordAccess(0);
  clock.RecordAccess(1);
  EXPECT_FALSE(clock.Victim([](size_t) { return false; }).has_value());
}

}  // namespace
}  // namespace cobra
