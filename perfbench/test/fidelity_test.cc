// Decorator fidelity: the traced stack must do exactly the work of the
// untraced one.  The benchmark's per-layer split is only meaningful if
// putting TimedDisk / TimedListener / SpanIterator into a stack changes no
// count the end-to-end metrics are built from.
//
//   * cold_fig13 and recluster_epochs passes give the same DiskStats,
//     BufferStats, read trace and output traced and untraced;
//   * TimedDisk forwards every public virtual of SimulatedDisk, so whatever
//     BufferManager, AsyncDisk and WalManager call reaches the device;
//   * a BufferManager + AsyncDisk + WalManager stack with a TimedDisk on
//     each side of AsyncDisk leaves the device in the same state, with the
//     same data-plane calls, as the stack without them.

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common.h"
#include "spans.h"
#include "storage/async_disk.h"
#include "timed_disk.h"
#include "wal/wal.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cobra::BufferManager;
using cobra::BufferOptions;
using cobra::DiskStats;
using cobra::PageId;
using cobra::SimulatedDisk;
using cobra::Status;

void ExpectSameDisk(const DiskStats& a, const DiskStats& b) {
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.read_seek_pages, b.read_seek_pages);
  EXPECT_EQ(a.write_seek_pages, b.write_seek_pages);
  EXPECT_EQ(a.pages_read, b.pages_read);
  EXPECT_EQ(a.coalesced_runs, b.coalesced_runs);
}

void ExpectSamePass(const PassCounts& plain, const PassCounts& traced) {
  ExpectSameDisk(plain.disk, traced.disk);
  EXPECT_EQ(plain.buffer.hits, traced.buffer.hits);
  EXPECT_EQ(plain.buffer.faults, traced.buffer.faults);
  EXPECT_EQ(plain.buffer.evictions, traced.buffer.evictions);
  EXPECT_EQ(plain.buffer.dirty_writebacks, traced.buffer.dirty_writebacks);
  EXPECT_EQ(plain.read_trace, traced.read_trace);
  EXPECT_EQ(plain.rows, traced.rows);
  EXPECT_EQ(plain.checksum, traced.checksum);
}

TEST(FidelityTest, ColdFig13TracedPassMatchesUntraced) {
  auto db = BuildDatabase(cobra::Clustering::kInterObject);
  ASSERT_NE(db, nullptr);
  PassCounts plain = Fig13Pass(db.get(), nullptr, /*read_trace=*/true);
  SpanRecorder recorder;
  recorder.Start();
  PassCounts traced = Fig13Pass(db.get(), &recorder, /*read_trace=*/true);
  recorder.Stop();
  ExpectSamePass(plain, traced);
  EXPECT_EQ(plain.disk.reads, kFig13Reads);
  EXPECT_EQ(plain.disk.read_seek_pages, kFig13ReadSeekPages);
  EXPECT_EQ(plain.read_trace.size(), kFig13Reads);
  // The traced pass really was traced: one device read span per read.
  const SpanTable spans = recorder.Totals();
  EXPECT_EQ(Get(spans, SpanName::kDiskRead).count, plain.disk.reads);
  EXPECT_GT(Get(spans, SpanName::kOpAssembly).count, 0u);
  EXPECT_GT(Get(spans, SpanName::kOpProject).count, 0u);
}

TEST(FidelityTest, ReclusterTracedEpisodeMatchesUntraced) {
  auto db = BuildDatabase(cobra::Clustering::kUnclustered);
  ASSERT_NE(db, nullptr);
  std::vector<PassCounts> plain =
      ReclusterEpisode(db.get(), nullptr, /*read_trace=*/true, 12);
  SpanRecorder recorder;
  std::vector<PassCounts> traced =
      ReclusterEpisode(db.get(), &recorder, /*read_trace=*/true, 12);
  ASSERT_EQ(plain.size(), traced.size());
  ASSERT_GE(plain.size(), 2u);
  for (size_t i = 0; i < plain.size(); ++i) {
    SCOPED_TRACE("pass " + std::to_string(i));
    ExpectSamePass(plain[i], traced[i]);
  }
  // Converged to the intra-object reference.
  EXPECT_LE(static_cast<double>(plain.back().disk.read_seek_pages),
            1.1 * static_cast<double>(kIntraObjectSeekPages));
  const SpanTable spans = recorder.Totals();
  EXPECT_GT(Get(spans, SpanName::kLearner).count, 0u);
  EXPECT_GT(Get(spans, SpanName::kPlanLayout).count, 0u);
  EXPECT_GT(Get(spans, SpanName::kMoverBatch).count, 0u);
  EXPECT_GT(Get(spans, SpanName::kLogWrite).count, 0u);
}

// A device that counts the calls reaching each public virtual.
enum Call : size_t {
  kReadPage,
  kWritePage,
  kReadRun,
  kSubmitRead,
  kAddSeekPenalty,
  kAddSeekPenaltyAt,
  kExists,
  kHead,
  kNumSpindles,
  kSpindleOf,
  kSpindleHeadPage,
  kSpindleStats,
  kNumCalls,
};

class RecordingDisk final : public SimulatedDisk {
 public:
  mutable std::array<std::atomic<uint64_t>, kNumCalls> calls{};

  uint64_t count(Call c) const { return calls[c].load(); }
  void Clear() {
    for (auto& c : calls) c.store(0);
  }

  Status ReadPage(PageId id, std::byte* out) override {
    calls[kReadPage]++;
    return SimulatedDisk::ReadPage(id, out);
  }
  Status WritePage(PageId id, const std::byte* data) override {
    calls[kWritePage]++;
    return SimulatedDisk::WritePage(id, data);
  }
  cobra::RunReadResult ReadRun(PageId first, size_t n, bool ascending,
                               std::byte* const* outs) override {
    calls[kReadRun]++;
    return SimulatedDisk::ReadRun(first, n, ascending, outs);
  }
  std::shared_future<Status> SubmitRead(PageId id, std::byte* out) override {
    calls[kSubmitRead]++;
    return SimulatedDisk::SubmitRead(id, out);
  }
  void AddSeekPenalty(uint64_t pages, bool is_read) override {
    calls[kAddSeekPenalty]++;
    SimulatedDisk::AddSeekPenalty(pages, is_read);
  }
  void AddSeekPenaltyAt(PageId near_page, uint64_t pages,
                        bool is_read) override {
    calls[kAddSeekPenaltyAt]++;
    SimulatedDisk::AddSeekPenaltyAt(near_page, pages, is_read);
  }
  bool Exists(PageId id) const override {
    calls[kExists]++;
    return SimulatedDisk::Exists(id);
  }
  PageId head() const override {
    calls[kHead]++;
    return SimulatedDisk::head();
  }
  uint32_t num_spindles() const override {
    calls[kNumSpindles]++;
    return SimulatedDisk::num_spindles();
  }
  uint32_t SpindleOf(PageId id) const override {
    calls[kSpindleOf]++;
    return SimulatedDisk::SpindleOf(id);
  }
  PageId spindle_head_page(uint32_t s) const override {
    calls[kSpindleHeadPage]++;
    return SimulatedDisk::spindle_head_page(s);
  }
  DiskStats spindle_stats(uint32_t s) const override {
    calls[kSpindleStats]++;
    return SimulatedDisk::spindle_stats(s);
  }
};

class ForwardingTest : public ::testing::TestWithParam<TimedDisk::Side> {};

TEST_P(ForwardingTest, EveryVirtualReachesTheWrappedDevice) {
  RecordingDisk inner;
  std::vector<std::byte> page(inner.page_size(), std::byte{7});
  std::vector<std::byte> out(inner.page_size());
  for (PageId id = 0; id < 8; ++id) {
    ASSERT_TRUE(inner.WritePage(id, page.data()).ok());
  }
  inner.Clear();
  SpanRecorder recorder;
  recorder.Start();
  TimedDisk timed(&inner, &recorder, GetParam());

  auto expect_one = [&](Call c) {
    EXPECT_EQ(inner.count(c), 1u) << "virtual #" << c;
  };
  EXPECT_TRUE(timed.ReadPage(3, out.data()).ok());
  expect_one(kReadPage);
  EXPECT_EQ(out, page);
  EXPECT_TRUE(timed.WritePage(9, page.data()).ok());
  expect_one(kWritePage);
  std::array<std::vector<std::byte>, 2> run_pages = {out, out};
  std::array<std::byte*, 2> outs = {run_pages[0].data(), run_pages[1].data()};
  EXPECT_EQ(timed.ReadRun(4, 2, true, outs.data()).pages_ok, 2u);
  expect_one(kReadRun);
  EXPECT_TRUE(timed.SubmitRead(5, out.data()).get().ok());
  expect_one(kSubmitRead);
  timed.AddSeekPenalty(3, true);
  expect_one(kAddSeekPenalty);
  timed.AddSeekPenaltyAt(2, 3, false);
  expect_one(kAddSeekPenaltyAt);
  EXPECT_TRUE(timed.Exists(9));
  expect_one(kExists);
  EXPECT_EQ(timed.head(), inner.SimulatedDisk::head());
  expect_one(kHead);
  EXPECT_EQ(timed.num_spindles(), 1u);
  expect_one(kNumSpindles);
  EXPECT_EQ(timed.SpindleOf(4), 0u);
  expect_one(kSpindleOf);
  EXPECT_EQ(timed.spindle_head_page(0), inner.SimulatedDisk::head());
  expect_one(kSpindleHeadPage);
  EXPECT_EQ(timed.spindle_stats(0).reads, inner.stats().reads);
  expect_one(kSpindleStats);
  EXPECT_EQ(timed.page_size(), inner.page_size());
  recorder.Stop();
}

INSTANTIATE_TEST_SUITE_P(BothSides, ForwardingTest,
                         ::testing::Values(TimedDisk::Side::kPoolSide,
                                           TimedDisk::Side::kDeviceSide));

// What the service stack leaves on the device, decorated or not.
struct StackOutcome {
  DiskStats disk;
  std::array<uint64_t, kNumCalls> calls{};
  std::vector<std::vector<std::byte>> pages;
  cobra::wal::WalStats wal;
};

StackOutcome RunServiceStack(cobra::AcobDatabase* db, bool traced) {
  RecordingDisk device;
  {
    std::unique_ptr<SimulatedDisk> copy = CopyDisk(db->disk.get());
    std::vector<std::byte> buf(copy->page_size());
    for (PageId id = 0; id < copy->page_span(); ++id) {
      if (copy->Exists(id) && copy->ReadPage(id, buf.data()).ok()) {
        EXPECT_TRUE(device.WritePage(id, buf.data()).ok());
      }
    }
  }
  const PageId data_span = device.page_span();
  device.ResetStats();
  device.ParkHead(0);
  device.Clear();

  SpanRecorder recorder;
  recorder.Start();
  std::unique_ptr<TimedDisk> device_side;
  std::unique_ptr<TimedDisk> pool_side;
  SimulatedDisk* below = &device;
  if (traced) {
    device_side = std::make_unique<TimedDisk>(below, &recorder,
                                              TimedDisk::Side::kDeviceSide);
    below = device_side.get();
  }
  cobra::wal::WalOptions wal_options;
  wal_options.log_first_page = data_span + 128;
  wal_options.log_max_pages = 256;
  if (device_side != nullptr) {
    device_side->set_log_extent(wal_options.log_first_page, 256);
  }
  StackOutcome outcome;
  {
    cobra::AsyncDisk async(below);
    SimulatedDisk* above = &async;
    if (traced) {
      pool_side = std::make_unique<TimedDisk>(above, &recorder,
                                              TimedDisk::Side::kPoolSide);
      above = pool_side.get();
    }
    cobra::wal::WalManager wal(below, wal_options);
    EXPECT_TRUE(wal.Recover().ok());
    BufferManager pool(above, BufferOptions{64, cobra::ReplacementKind::kLru,
                                            cobra::RetryPolicy{}, 4});
    pool.set_write_gate(&wal);
    // Faults through AsyncDisk, with evictions (64 frames, 200 pages).
    for (PageId id = 0; id < 200; ++id) {
      EXPECT_TRUE(pool.FetchPage(id).ok());
    }
    (void)pool.HeadLogical();
    // A vectored run and a prefetch.
    std::vector<cobra::Result<cobra::PageGuard>> run;
    pool.FixRun(300, 8, /*ascending=*/true, &run);
    for (auto& guard : run) EXPECT_TRUE(guard.ok());
    run.clear();
    EXPECT_TRUE(pool.PrefetchPage(400).ok());
    EXPECT_TRUE(pool.FetchPage(400).ok());
    // Logged writes: format fresh pages past the data, commit, write back.
    auto txn = wal.Begin();
    EXPECT_TRUE(txn.ok());
    for (PageId id = data_span + 1; id < data_span + 5; ++id) {
      auto guard = pool.CreatePage(id);
      EXPECT_TRUE(guard.ok());
      if (!guard.ok()) continue;
      guard->data()[0] = std::byte{static_cast<unsigned char>(id)};
      guard->MarkDirty();
      EXPECT_TRUE(wal.LogPageFormat(id).ok());
    }
    if (txn.ok()) {
      EXPECT_TRUE(wal.Commit(*txn).ok());
    }
    EXPECT_TRUE(pool.FlushAll().ok());
    EXPECT_TRUE(wal.Flush().ok());
    async.Drain();
    outcome.wal = wal.stats();
  }
  recorder.Stop();
  outcome.disk = device.stats();
  for (size_t c = 0; c < kNumCalls; ++c) {
    outcome.calls[c] = device.count(Call(c));
  }
  std::vector<std::byte> buf(device.page_size());
  for (PageId id = 0; id < device.page_span(); ++id) {
    if (device.SimulatedDisk::Exists(id) &&
        device.SimulatedDisk::ReadPage(id, buf.data()).ok()) {
      outcome.pages.push_back(buf);
    }
  }
  if (traced) {
    const SpanTable spans = recorder.Totals();
    EXPECT_GT(Get(spans, SpanName::kPoolRead).count, 0u);
    EXPECT_GT(Get(spans, SpanName::kDiskRead).count, 0u);
    EXPECT_GT(Get(spans, SpanName::kLogWrite).count, 0u);
    EXPECT_GT(Get(spans, SpanName::kDiskWrite).count, 0u);
  }
  return outcome;
}

TEST(FidelityTest, ServiceStackLeavesTheDeviceUnchanged) {
  auto db = BuildDatabase(cobra::Clustering::kInterObject);
  ASSERT_NE(db, nullptr);
  StackOutcome plain = RunServiceStack(db.get(), /*traced=*/false);
  StackOutcome traced = RunServiceStack(db.get(), /*traced=*/true);
  ExpectSameDisk(plain.disk, traced.disk);
  EXPECT_EQ(plain.pages, traced.pages);
  EXPECT_EQ(plain.wal.commits, traced.wal.commits);
  EXPECT_EQ(plain.wal.log_pages_written, traced.wal.log_pages_written);
  // Data-plane calls match one for one.  head() and spindle_head_page()
  // are lock-free snapshots AsyncDisk's elevator polls a timing-dependent
  // number of times.
  for (Call c : {kReadPage, kWritePage, kReadRun, kSubmitRead, kAddSeekPenalty,
                 kAddSeekPenaltyAt, kExists, kSpindleOf}) {
    EXPECT_EQ(plain.calls[c], traced.calls[c]) << "virtual #" << c;
  }
  EXPECT_GT(plain.calls[kReadPage], 0u);
  EXPECT_GT(plain.calls[kWritePage], 0u);
}

}  // namespace
}  // namespace perfbench
