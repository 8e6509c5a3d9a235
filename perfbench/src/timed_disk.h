// Forwarding decorators that time the storage layers from outside.
//
// TimedDisk wraps any SimulatedDisk and forwards every virtual of the
// interface unchanged, opening a span around each data-plane call.  The
// traced stack puts one on each side of AsyncDisk:
//
//   BufferManager -> TimedDisk(kPoolSide) -> AsyncDisk
//                 -> TimedDisk(kDeviceSide) -> SimulatedDisk
//
// so a pool-side span is the time a fault waited for storage and the
// device-side span under it is the time the disk model worked; the
// difference is the AsyncDisk queue.  Without AsyncDisk one device-side
// decorator sits directly under the pool.  Writes to the WAL log extent
// are named apart from data writes, and their cumulative time is exposed
// for the per-flush split.
//
// Only the virtual interface is forwarded: control-plane calls (stats,
// ResetStats, ParkHead, read traces, listeners) go to the wrapped device
// itself, which the benchmark keeps its own pointer to.  SubmitRead is timed
// for the submission only and is not offered to device-side spans: the
// wait happens when the pool consumes the future.  No workload prefetches.
//
// TimedListener does the same for a DiskEventListener: it wraps the
// re-clustering AffinityDiskListener and times each callback.

#ifndef PERFBENCH_TIMED_DISK_H_
#define PERFBENCH_TIMED_DISK_H_

#include <atomic>
#include <cstdint>
#include <future>

#include "obs/query_context.h"
#include "spans.h"
#include "storage/disk.h"

namespace perfbench {

class TimedDisk final : public cobra::SimulatedDisk {
 public:
  enum class Side { kPoolSide, kDeviceSide };

  // Does not own `inner`, which must outlive the decorator.
  TimedDisk(cobra::SimulatedDisk* inner, SpanRecorder* recorder, Side side)
      : SimulatedDisk(cobra::DiskOptions{inner->page_size(),
                                         inner->geometry()}),
        inner_(inner),
        recorder_(recorder),
        side_(side) {}

  // Names writes to [first, first + pages) log writes and sums their time.
  void set_log_extent(cobra::PageId first, size_t pages) {
    log_first_ = first;
    log_pages_ = pages;
  }
  uint64_t log_write_ns() const {
    return log_write_ns_.load(std::memory_order_acquire);
  }

  cobra::Status ReadPage(cobra::PageId id, std::byte* out) override {
    Call call(this, id, /*write=*/false);
    return inner_->ReadPage(id, out);
  }

  cobra::Status WritePage(cobra::PageId id, const std::byte* data) override {
    const bool log = IsLog(id);
    const uint64_t start = log ? NowNs() : 0;
    cobra::Status status;
    {
      Call call(this, id, /*write=*/true);
      status = inner_->WritePage(id, data);
    }
    if (log) {
      log_write_ns_.fetch_add(NowNs() - start, std::memory_order_acq_rel);
    }
    return status;
  }

  cobra::RunReadResult ReadRun(cobra::PageId first, size_t n, bool ascending,
                               std::byte* const* outs) override {
    Call call(this, first, /*write=*/false);
    return inner_->ReadRun(first, n, ascending, outs);
  }

  std::shared_future<cobra::Status> SubmitRead(cobra::PageId id,
                                               std::byte* out) override {
    SpanRecorder::Scope span(recorder_, ReadName());
    return inner_->SubmitRead(id, out);
  }

  void AddSeekPenalty(uint64_t pages, bool is_read) override {
    inner_->AddSeekPenalty(pages, is_read);
  }
  void AddSeekPenaltyAt(cobra::PageId near_page, uint64_t pages,
                        bool is_read) override {
    inner_->AddSeekPenaltyAt(near_page, pages, is_read);
  }
  bool Exists(cobra::PageId id) const override { return inner_->Exists(id); }
  cobra::PageId head() const override { return inner_->head(); }
  uint32_t num_spindles() const override { return inner_->num_spindles(); }
  uint32_t SpindleOf(cobra::PageId id) const override {
    return inner_->SpindleOf(id);
  }
  cobra::PageId spindle_head_page(uint32_t s) const override {
    return inner_->spindle_head_page(s);
  }
  cobra::DiskStats spindle_stats(uint32_t s) const override {
    return inner_->spindle_stats(s);
  }

 private:
  // One timed data-plane call.  Pool-side spans offer themselves to the
  // device-side span that serves them on an AsyncDisk I/O thread.
  class Call {
   public:
    Call(TimedDisk* disk, cobra::PageId page, bool write)
        : key_{cobra::obs::CurrentQueryId(), page, write},
          span_(disk->recorder_, disk->NameFor(page, write),
                disk->side_ == Side::kDeviceSide ? &key_ : nullptr) {
      if (disk->side_ == Side::kPoolSide) span_.Offer(key_);
    }

   private:
    HandoffKey key_;
    SpanRecorder::Scope span_;
  };

  bool IsLog(cobra::PageId id) const {
    return id >= log_first_ && id - log_first_ < log_pages_;
  }
  SpanName ReadName() const {
    return side_ == Side::kPoolSide ? SpanName::kPoolRead : SpanName::kDiskRead;
  }
  SpanName NameFor(cobra::PageId page, bool write) const {
    if (!write) return ReadName();
    if (side_ == Side::kPoolSide) return SpanName::kPoolWrite;
    return IsLog(page) ? SpanName::kLogWrite : SpanName::kDiskWrite;
  }

  cobra::SimulatedDisk* inner_;
  SpanRecorder* recorder_;
  Side side_;
  cobra::PageId log_first_ = cobra::kInvalidPageId;
  size_t log_pages_ = 0;
  std::atomic<uint64_t> log_write_ns_{0};
};

class TimedListener final : public cobra::DiskEventListener {
 public:
  TimedListener(cobra::DiskEventListener* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  void OnDiskRead(cobra::PageId page, uint64_t seek_pages) override {
    SpanRecorder::Scope span(recorder_, SpanName::kLearner);
    inner_->OnDiskRead(page, seek_pages);
  }
  void OnDiskWrite(cobra::PageId page, uint64_t seek_pages) override {
    SpanRecorder::Scope span(recorder_, SpanName::kLearner);
    inner_->OnDiskWrite(page, seek_pages);
  }
  void OnDiskReadRun(cobra::PageId first, size_t pages,
                     uint64_t seek_pages) override {
    SpanRecorder::Scope span(recorder_, SpanName::kLearner);
    inner_->OnDiskReadRun(first, pages, seek_pages);
  }
  void OnDiskReadAt(uint32_t spindle, cobra::PageId page,
                    uint64_t seek_pages) override {
    SpanRecorder::Scope span(recorder_, SpanName::kLearner);
    inner_->OnDiskReadAt(spindle, page, seek_pages);
  }
  void OnDiskWriteAt(uint32_t spindle, cobra::PageId page,
                     uint64_t seek_pages) override {
    SpanRecorder::Scope span(recorder_, SpanName::kLearner);
    inner_->OnDiskWriteAt(spindle, page, seek_pages);
  }
  void OnDiskReadRunAt(uint32_t spindle, cobra::PageId first, size_t pages,
                       uint64_t seek_pages) override {
    SpanRecorder::Scope span(recorder_, SpanName::kLearner);
    inner_->OnDiskReadRunAt(spindle, first, pages, seek_pages);
  }
  void OnDiskFault(cobra::PageId page, cobra::FaultKind kind) override {
    inner_->OnDiskFault(page, kind);
  }

 private:
  cobra::DiskEventListener* inner_;
  SpanRecorder* recorder_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_DISK_H_
