// The allocation-lean fetch path's replaced pieces, each checked against the
// straightforward structure it replaced:
//
//   * CRC32C, both the dispatched entry point (the SSE4.2 instruction where
//     the CPU has it) and the portable slicing-by-8 path, against RFC 3720
//     known answers and a bytewise reference;
//   * the intrusive LruPolicy against a std::list recency model;
//   * the pool-allocated ElevatorScheduler against a plain std::multimap
//     elevator, which fixes its fetch order and tie-breaking;
//   * frames created on first use, reads by location and the reusable
//     decoder.
//
// Randomized tests take pinned seeds embedded in their names (…/Seed3), so a
// failing ctest line replays the exact sequence.

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "assembly/scheduler.h"
#include "buffer/buffer_manager.h"
#include "buffer/replacement.h"
#include "common/rng.h"
#include "file/heap_file.h"
#include "object/directory.h"
#include "object/object.h"
#include "object/object_store.h"
#include "storage/checksum.h"
#include "storage/disk.h"

namespace cobra {
namespace {

std::string SeedName(const ::testing::TestParamInfo<uint64_t>& info) {
  return "Seed" + std::to_string(info.param);
}

// ------------------------------------------------------------------ CRC32C

std::vector<std::byte> Bytes(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

// The classic byte-at-a-time CRC32C the sliced version must reproduce.
uint32_t BytewiseCrc32c(const std::byte* data, size_t n) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
      }
      t[i] = crc;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ static_cast<uint8_t>(data[i])) & 0xFF];
  }
  return crc ^ 0xFFFFFFFFu;
}

// The implementations under test, each checked against the bytewise
// reference: the dispatched entry point and the portable path.
struct Crc32cImpl {
  const char* name;
  uint32_t (*fn)(const std::byte*, size_t);
};
constexpr Crc32cImpl kCrc32cImpls[] = {{"Crc32c", Crc32c},
                                       {"Crc32cPortable", Crc32cPortable}};

TEST(Crc32cTest, Rfc3720KnownAnswers) {
  // RFC 3720, appendix B.4.
  std::vector<std::byte> zeros(32, std::byte{0x00});
  std::vector<std::byte> ones(32, std::byte{0xFF});
  std::vector<std::byte> ascending(32);
  std::vector<std::byte> descending(32);
  for (int i = 0; i < 32; ++i) {
    ascending[i] = static_cast<std::byte>(i);
    descending[i] = static_cast<std::byte>(31 - i);
  }
  // The customary check value of the Castagnoli CRC.
  std::vector<std::byte> digits =
      Bytes({'1', '2', '3', '4', '5', '6', '7', '8', '9'});
  const std::vector<std::pair<const std::vector<std::byte>*, uint32_t>>
      answers = {{&zeros, 0x8A9136AAu},
                 {&ones, 0x62A8AB43u},
                 {&ascending, 0x46DD794Eu},
                 {&descending, 0x113FDB5Cu},
                 {&digits, 0xE3069283u}};
  for (const auto& [bytes, expected] : answers) {
    EXPECT_EQ(BytewiseCrc32c(bytes->data(), bytes->size()), expected);
  }
  for (const Crc32cImpl& impl : kCrc32cImpls) {
    SCOPED_TRACE(impl.name);
    for (const auto& [bytes, expected] : answers) {
      EXPECT_EQ(impl.fn(bytes->data(), bytes->size()), expected);
    }
    EXPECT_EQ(impl.fn(nullptr, 0), 0u);
  }
}

class Crc32cSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Crc32cSweepTest, SlicedMatchesBytewiseAtEveryLengthAndOffset) {
  // Every length 0..2048 at every start offset 0..7, so each alignment of
  // the 8-byte body and every tail length are covered.
  constexpr size_t kMaxLength = 2048;
  constexpr size_t kOffsets = 8;
  Rng rng(GetParam());
  std::vector<std::byte> buffer(kMaxLength + kOffsets);
  for (std::byte& b : buffer) {
    b = static_cast<std::byte>(rng.NextBounded(256));
  }
  for (size_t offset = 0; offset < kOffsets; ++offset) {
    for (size_t length = 0; length <= kMaxLength; ++length) {
      const std::byte* data = buffer.data() + offset;
      const uint32_t expected = BytewiseCrc32c(data, length);
      for (const Crc32cImpl& impl : kCrc32cImpls) {
        ASSERT_EQ(impl.fn(data, length), expected)
            << impl.name << " offset " << offset << " length " << length;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Crc32cSweepTest,
                         ::testing::Values(uint64_t{1}, uint64_t{2026}),
                         SeedName);

// -------------------------------------------------------------- LruPolicy

class LruPolicyDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LruPolicyDifferentialTest, MatchesListModel) {
  constexpr size_t kFrames = 48;
  Rng rng(GetParam());
  LruPolicy lru(kFrames);
  std::list<size_t> model;  // front = least recently used
  std::vector<bool> evictable(kFrames);
  for (int step = 0; step < 20000; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const uint64_t op = rng.NextBounded(10);
    const size_t frame = static_cast<size_t>(rng.NextBounded(kFrames));
    if (op < 6) {
      lru.RecordAccess(frame);
      model.remove(frame);
      model.push_back(frame);
    } else if (op < 8) {
      lru.Remove(frame);
      model.remove(frame);
    } else {
      // A random pin pattern, from nearly all pinned to nearly all free.
      const double p = rng.NextDouble();
      for (size_t f = 0; f < kFrames; ++f) evictable[f] = rng.NextBool(p);
      // The policy must ask about tracked frames in recency order and stop
      // at the first evictable one, exactly as a walk of the model does.
      std::vector<size_t> asked;
      std::optional<size_t> victim = lru.Victim([&](size_t f) {
        asked.push_back(f);
        return static_cast<bool>(evictable[f]);
      });
      std::vector<size_t> expected_asked;
      std::optional<size_t> expected;
      for (size_t f : model) {
        expected_asked.push_back(f);
        if (evictable[f]) {
          expected = f;
          break;
        }
      }
      ASSERT_EQ(victim, expected);
      ASSERT_EQ(asked, expected_asked);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruPolicyDifferentialTest,
                         ::testing::Values(uint64_t{3}, uint64_t{17},
                                           uint64_t{4242}),
                         SeedName);

// ------------------------------------------------------- ElevatorScheduler

// The reference elevator: an ordered multimap from page to reference, which
// preserves arrival order among equal pages.  Every I/O golden was recorded
// with this order.
class MultimapElevator {
 public:
  void AddBatch(const std::vector<PendingRef>& batch) {
    for (const PendingRef& ref : batch) by_page_.emplace(ref.page, ref);
  }
  size_t Size() const { return by_page_.size(); }
  bool sweeping_up() const { return sweeping_up_; }
  size_t RefsOn(PageId page) const { return by_page_.count(page); }

  PendingRef Pop(PageId head) {
    auto it = ScanNext(by_page_, head, &sweeping_up_);
    PendingRef ref = it->second;
    by_page_.erase(it);
    return ref;
  }

  RefRun PopRun(PageId head, size_t max_run_pages) {
    auto it = ScanNext(by_page_, head, &sweeping_up_);
    RefRun run;
    run.ascending = sweeping_up_;
    const PageId entry = it->first;
    auto drain_page = [this, &run](PageId page) {
      auto [lo, hi] = by_page_.equal_range(page);
      for (auto w = lo; w != hi; ++w) run.refs.push_back(w->second);
      by_page_.erase(lo, hi);
    };
    drain_page(entry);
    const size_t budget = max_run_pages == 0 ? 1 : max_run_pages;
    PageId cursor = entry;
    while (run.pages < budget) {
      PageId next_page;
      if (run.ascending) {
        auto next = by_page_.upper_bound(cursor);
        if (next == by_page_.end()) break;
        next_page = next->first;
        if (next_page - entry >= budget) break;
      } else {
        auto next = by_page_.lower_bound(cursor);
        if (next == by_page_.begin()) break;
        next_page = std::prev(next)->first;
        if (entry - next_page >= budget) break;
      }
      drain_page(next_page);
      cursor = next_page;
      run.pages = static_cast<size_t>(run.ascending ? next_page - entry
                                                    : entry - next_page) +
                  1;
    }
    run.first_page = run.ascending ? entry : cursor;
    return run;
  }

  std::vector<PageId> PeekPages(PageId head, size_t k) const {
    std::vector<PageId> keys;
    for (auto it = by_page_.begin(); it != by_page_.end();
         it = by_page_.upper_bound(it->first)) {
      keys.push_back(it->first);
    }
    std::vector<PageId> pages;
    if (k == 0) return pages;
    if (sweeping_up_) {
      auto lo = std::lower_bound(keys.begin(), keys.end(), head);
      for (auto it = lo; it != keys.end() && pages.size() < k; ++it) {
        pages.push_back(*it);
      }
      for (auto it = lo; it != keys.begin() && pages.size() < k;) {
        pages.push_back(*--it);
      }
    } else {
      auto hi = std::upper_bound(keys.begin(), keys.end(), head);
      for (auto it = hi; it != keys.begin() && pages.size() < k;) {
        pages.push_back(*--it);
      }
      for (auto it = hi; it != keys.end() && pages.size() < k; ++it) {
        pages.push_back(*it);
      }
    }
    return pages;
  }

  void RemoveComplex(uint64_t id) {
    std::erase_if(by_page_, [id](const auto& entry) {
      return entry.second.complex_id == id && !entry.second.shared_owned;
    });
  }

 private:
  std::multimap<PageId, PendingRef> by_page_;
  bool sweeping_up_ = true;
};

// References are identified by their OID, unique per generated reference.
std::vector<Oid> OidsOf(const std::vector<PendingRef>& refs) {
  std::vector<Oid> oids;
  for (const PendingRef& ref : refs) oids.push_back(ref.oid);
  return oids;
}

class ElevatorDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ElevatorDifferentialTest, MatchesMultimapModel) {
  // Pages come from a narrow range so most pages carry several references
  // and ties are resolved on both sweep directions.
  constexpr uint64_t kPages = 24;
  constexpr uint64_t kComplexIds = 12;
  Rng rng(GetParam());
  ElevatorScheduler scheduler;
  MultimapElevator model;
  Oid next_oid = 1;
  PageId head = 0;
  int up_ties = 0;
  int down_ties = 0;
  for (int step = 0; step < 6000; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const uint64_t op = rng.NextBounded(12);
    if (op < 4 || model.Size() == 0) {
      std::vector<PendingRef> batch(rng.NextBounded(6));
      for (PendingRef& ref : batch) {
        ref.oid = next_oid++;
        ref.complex_id = 1 + rng.NextBounded(kComplexIds);
        ref.page = rng.NextBounded(kPages);
        ref.slot = static_cast<uint16_t>(rng.NextBounded(9));
        ref.shared_owned = rng.NextBool(0.2);
      }
      scheduler.AddBatch(batch, /*is_root=*/rng.NextBool(0.5));
      model.AddBatch(batch);
    } else if (op < 8) {
      // Heads follow the served page most of the time (as assembly drives
      // it) and jump elsewhere otherwise.
      if (rng.NextBool(0.3)) head = rng.NextBounded(kPages + 4);
      PendingRef got = scheduler.Pop(head);
      PendingRef want = model.Pop(head);
      if (model.RefsOn(want.page) > 0) {
        (model.sweeping_up() ? up_ties : down_ties)++;
      }
      ASSERT_EQ(got.oid, want.oid);
      ASSERT_EQ(got.page, want.page);
      ASSERT_EQ(got.slot, want.slot);
      ASSERT_EQ(got.complex_id, want.complex_id);
      head = got.page;
    } else if (op < 10) {
      if (rng.NextBool(0.3)) head = rng.NextBounded(kPages + 4);
      const size_t max_run = static_cast<size_t>(rng.NextBounded(9));
      RefRun got = scheduler.PopRun(head, max_run);
      RefRun want = model.PopRun(head, max_run);
      ASSERT_EQ(OidsOf(got.refs), OidsOf(want.refs));
      ASSERT_EQ(got.first_page, want.first_page);
      ASSERT_EQ(got.pages, want.pages);
      ASSERT_EQ(got.ascending, want.ascending);
      head = got.ascending ? got.first_page + (got.pages - 1) : got.first_page;
    } else if (op < 11) {
      const PageId peek_head = rng.NextBounded(kPages + 4);
      const size_t k = static_cast<size_t>(rng.NextBounded(10));
      ASSERT_EQ(scheduler.PeekPages(peek_head, k),
                model.PeekPages(peek_head, k));
    } else {
      const uint64_t id = 1 + rng.NextBounded(kComplexIds);
      scheduler.RemoveComplex(id);
      model.RemoveComplex(id);
    }
    ASSERT_EQ(scheduler.Size(), model.Size());
    ASSERT_EQ(scheduler.Empty(), model.Size() == 0);
  }
  // Drain what is left, still in lockstep.
  while (model.Size() > 0) {
    ASSERT_EQ(scheduler.Pop(head).oid, model.Pop(head).oid);
  }
  EXPECT_TRUE(scheduler.Empty());
  // The sequence must have broken ties on one page in both directions.
  EXPECT_GT(up_ties, 0);
  EXPECT_GT(down_ties, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ElevatorDifferentialTest,
                         ::testing::Values(uint64_t{5}, uint64_t{99},
                                           uint64_t{31337}),
                         SeedName);

TEST(ElevatorTieTest, DownSweepServesNewestOfAPageFirst) {
  // Equal pages are served oldest first going up and newest first going
  // down (the first and the last of equal keys in page order).
  ElevatorScheduler scheduler;
  std::vector<PendingRef> batch(3);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].oid = i + 1;
    batch[i].page = 5;
  }
  scheduler.AddBatch(batch, /*is_root=*/false);
  EXPECT_EQ(scheduler.Pop(/*head=*/0).oid, 1u);   // up-sweep: oldest
  EXPECT_EQ(scheduler.Pop(/*head=*/9).oid, 3u);   // reversal: newest
  EXPECT_EQ(scheduler.Pop(/*head=*/5).oid, 2u);
  EXPECT_TRUE(scheduler.Empty());
}

// ------------------------------------------- frames, reads by location

TEST(LazyFrameTest, ResidencyReportsConfiguredFrames) {
  SimulatedDisk disk;
  BufferManager buffer(&disk, BufferOptions{.num_frames = 8, .num_shards = 2});
  BufferManager::Residency empty = buffer.GetResidency();
  EXPECT_EQ(empty.total_frames, 8u);
  EXPECT_EQ(empty.free_frames, 8u);
  EXPECT_EQ(empty.resident, 0u);
  for (PageId id = 0; id < 3; ++id) {
    ASSERT_TRUE(buffer.CreatePage(id).ok());
  }
  BufferManager::Residency used = buffer.GetResidency();
  EXPECT_EQ(used.total_frames, 8u);
  EXPECT_EQ(used.resident, 3u);
  EXPECT_EQ(used.free_frames, 5u);
  ASSERT_TRUE(buffer.DropAll().ok());
  BufferManager::Residency dropped = buffer.GetResidency();
  EXPECT_EQ(dropped.total_frames, 8u);
  EXPECT_EQ(dropped.free_frames, 8u);
}

TEST(LazyFrameTest, LruEvictsInFirstUseOrderOnceFull) {
  // A two-frame pool fills frames 0 and 1 on first use; the third page
  // evicts the least recently used one, as an eagerly built pool does.
  SimulatedDisk disk;
  std::vector<std::byte> zero(disk.page_size(), std::byte{0});
  for (PageId id = 0; id < 3; ++id) {
    ASSERT_TRUE(disk.WritePage(id, zero.data()).ok());
  }
  BufferManager buffer(&disk, BufferOptions{.num_frames = 2});
  { auto g = buffer.FetchPage(0); ASSERT_TRUE(g.ok()); }
  { auto g = buffer.FetchPage(1); ASSERT_TRUE(g.ok()); }
  { auto g = buffer.FetchPage(0); ASSERT_TRUE(g.ok()); }  // 1 is now LRU
  { auto g = buffer.FetchPage(2); ASSERT_TRUE(g.ok()); }
  EXPECT_TRUE(buffer.IsResident(0));
  EXPECT_FALSE(buffer.IsResident(1));
  EXPECT_TRUE(buffer.IsResident(2));
  EXPECT_EQ(buffer.stats().evictions, 1u);
}

TEST(ReadAtTest, ReadsByLocationIntoReusedStorage) {
  SimulatedDisk disk;
  BufferManager buffer(&disk, BufferOptions{.num_frames = 16});
  PageAllocator allocator;
  HeapFile file(&buffer, allocator.AllocateExtent(4), 4);
  HashDirectory directory;
  ObjectStore store(&buffer, &directory);
  ObjectData a;
  a.type_id = 1;
  a.fields = {1, 2, 3, 4};
  a.refs.assign(8, kInvalidOid);
  ObjectData b = a;
  b.fields = {5, 6, 7, 8};
  auto a_oid = store.Insert(a, &file);
  auto b_oid = store.Insert(b, &file);
  ASSERT_TRUE(a_oid.ok() && b_oid.ok());
  auto a_loc = store.Locate(*a_oid);
  auto b_loc = store.Locate(*b_oid);
  ASSERT_TRUE(a_loc.ok() && b_loc.ok());

  ObjectData record;
  ASSERT_TRUE(store.ReadAt(*a_oid, *a_loc, &record).ok());
  EXPECT_EQ(record.fields, a.fields);
  const int32_t* storage = record.fields.data();
  ASSERT_TRUE(store.ReadAt(*b_oid, *b_loc, &record).ok());
  EXPECT_EQ(record.fields, b.fields);
  EXPECT_EQ(record.fields.data(), storage);  // decoded in place
  auto via_get = store.Get(*b_oid);
  ASSERT_TRUE(via_get.ok());
  EXPECT_EQ(*via_get, record);

  // A location holding another object's record is corruption, as in Get.
  EXPECT_TRUE(store.ReadAt(*a_oid, *b_loc, &record).IsCorruption());
}

TEST(DeserializeIntoTest, MatchesDeserializeAndRejectsBadSizes) {
  ObjectData obj;
  obj.oid = 77;
  obj.type_id = 3;
  obj.fields = {9, -9};
  obj.refs = {1, 2, 3};
  std::vector<std::byte> bytes = obj.Serialize();
  ObjectData into;
  into.fields.assign(10, 0);  // stale contents must not survive
  ASSERT_TRUE(ObjectData::DeserializeInto(bytes, &into).ok());
  EXPECT_EQ(into, obj);
  auto copy = ObjectData::Deserialize(bytes);
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(*copy, obj);
  bytes.pop_back();
  EXPECT_TRUE(ObjectData::DeserializeInto(bytes, &into).IsCorruption());
  std::span<const std::byte> header(bytes.data(), 10);
  EXPECT_TRUE(ObjectData::DeserializeInto(header, &into).IsCorruption());
}

}  // namespace
}  // namespace cobra
