#include "buffer/buffer_manager.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/query_context.h"
#include "storage/checksum.h"

namespace cobra {
namespace {

// Attribution helpers: charge the current query (if any) at the same site
// the shard counter bumps, preserving the conservation invariant per field.
inline void ChargeHit() {
  if (obs::QueryContext* query = obs::CurrentQuery()) {
    query->io.buffer_hits.fetch_add(1, std::memory_order_relaxed);
  }
}

inline void ChargeFault() {
  if (obs::QueryContext* query = obs::CurrentQuery()) {
    query->io.buffer_faults.fetch_add(1, std::memory_order_relaxed);
  }
}

inline void ChargeRetry(PageId id, int attempt) {
  if (obs::QueryContext* query = obs::CurrentQuery()) {
    query->io.retries.fetch_add(1, std::memory_order_relaxed);
    query->Record({obs::SpanEventKind::kBufferRetry, 0, 0, id,
                   static_cast<uint64_t>(attempt), 0});
  }
}

inline void ChargeChecksumFailure(PageId id) {
  if (obs::QueryContext* query = obs::CurrentQuery()) {
    query->io.checksum_failures.fetch_add(1, std::memory_order_relaxed);
    query->Record({obs::SpanEventKind::kChecksumFailure, 0, 0, id, 0, 0});
  }
}

// splitmix64 finalizer: decorrelates page ids (often sequential) from shard
// indices so stripes fill evenly.
inline uint64_t MixPage(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    manager_ = other.manager_;
    frame_ = other.frame_;
    page_id_ = other.page_id_;
    other.manager_ = nullptr;
    other.frame_ = nullptr;
    other.page_id_ = kInvalidPageId;
  }
  return *this;
}

std::span<std::byte> PageGuard::data() {
  auto* frame = static_cast<BufferManager::Frame*>(frame_);
  return std::span<std::byte>(frame->data.data(), frame->data.size());
}

std::span<const std::byte> PageGuard::data() const {
  const auto* frame = static_cast<const BufferManager::Frame*>(frame_);
  return std::span<const std::byte>(frame->data.data(), frame->data.size());
}

void PageGuard::MarkDirty() {
  static_cast<BufferManager::Frame*>(frame_)->dirty.store(
      true, std::memory_order_relaxed);
}

void PageGuard::Release() {
  if (manager_ != nullptr) {
    manager_->Unpin(static_cast<BufferManager::Frame*>(frame_));
    manager_ = nullptr;
    frame_ = nullptr;
    page_id_ = kInvalidPageId;
  }
}

BufferManager::BufferManager(SimulatedDisk* disk, BufferOptions options)
    : disk_(disk), options_(options) {
  size_t shards = options_.num_shards == 0 ? 1 : options_.num_shards;
  if (options_.num_frames > 0 && shards > options_.num_frames) {
    shards = options_.num_frames;
  }
  shards_.reserve(shards);
  size_t base = options_.num_frames / shards;
  size_t remainder = options_.num_frames % shards;
  for (size_t s = 0; s < shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->capacity = base + (s < remainder ? 1 : 0);
    shard->policy = MakeReplacementPolicy(options_.replacement, shard->capacity);
    shards_.push_back(std::move(shard));
  }
}

BufferManager::~BufferManager() {
  // Best effort: persist dirty pages so a test that rebuilds a manager over
  // the same disk sees its data.  Pending prefetches must land first — they
  // target frame memory this destructor is about to free.
  (void)FlushAll();
}

size_t BufferManager::ShardIndex(PageId id) const {
  return shards_.size() == 1
             ? 0
             : static_cast<size_t>(MixPage(id) % shards_.size());
}

void BufferManager::NotePin(Frame* frame) {
  if (frame->pin_count.fetch_add(1, std::memory_order_acq_rel) == 0) {
    size_t pinned =
        pinned_frames_.fetch_add(1, std::memory_order_relaxed) + 1;
    size_t seen = max_pinned_.load(std::memory_order_relaxed);
    while (pinned > seen &&
           !max_pinned_.compare_exchange_weak(seen, pinned,
                                              std::memory_order_relaxed)) {
    }
  }
}

void BufferManager::Unpin(Frame* frame) {
  if (frame->pin_count.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    pinned_frames_.fetch_sub(1, std::memory_order_relaxed);
  }
}

Status BufferManager::WriteBack(Shard* shard, Frame* frame) {
  if (!frame->dirty.load(std::memory_order_relaxed)) {
    return Status::OK();
  }
  // Stamp the page checksum over the final frame contents; FetchPage
  // verifies it when the page is next faulted in.
  StampPageChecksum(frame->data.data(), frame->data.size());
  if (write_gate_ != nullptr) {
    // WAL-before-data: the gate logs a full-page image of exactly these
    // bytes (checksum already stamped) and blocks until it is durable, so a
    // torn data write below is repairable from the log.
    COBRA_RETURN_IF_ERROR(write_gate_->BeforePageWrite(
        frame->page_id, frame->data.data(), frame->data.size()));
  }
  // Bounded retry for transient write failures, mirroring ReadWithRetry.
  // A torn write is invisible here (the disk reports success); it surfaces
  // as a checksum failure on the next read and is repaired by recovery.
  int max_attempts = options_.retry.max_read_attempts < 1
                         ? 1
                         : options_.retry.max_read_attempts;
  Status write;
  PageId phys = Phys(frame->page_id);
  for (int attempt = 1;; ++attempt) {
    write = disk_->WritePage(phys, frame->data.data());
    if (write.ok() || !write.IsUnavailable() || attempt >= max_attempts) {
      if (!write.ok() && write.IsUnavailable()) shard->retries_exhausted++;
      break;
    }
    shard->write_retries++;
    if (listener_ != nullptr) listener_->OnBufferRetry(frame->page_id, attempt);
    disk_->AddSeekPenaltyAt(
        phys,
        static_cast<uint64_t>(attempt) * options_.retry.backoff_seek_pages,
        /*is_read=*/false);
  }
  COBRA_RETURN_IF_ERROR(write);
  frame->dirty.store(false, std::memory_order_relaxed);
  shard->dirty_writebacks++;
  return Status::OK();
}

Result<size_t> BufferManager::ObtainFrame(Shard* shard) {
  if (!shard->free_list.empty()) {
    size_t frame = shard->free_list.back();
    shard->free_list.pop_back();
    return frame;
  }
  if (shard->frames.size() < shard->capacity) {
    // Frames are created on first use, in index order, and only when no
    // released frame is free: the order a pool built in full hands them
    // out, so LRU and Clock choose the same victims.
    shard->frames.push_back(std::make_unique<Frame>());
    return shard->frames.size() - 1;
  }
  std::optional<size_t> victim =
      shard->policy->Victim([this, shard](size_t f) {
        const Frame& frame = *shard->frames[f];
        if (frame.pin_count.load(std::memory_order_acquire) != 0 ||
            frame.has_pending) {
          return false;
        }
        // NO-STEAL: a page dirtied by an in-flight transaction must never
        // reach disk (recovery is redo-only), so it is not evictable either.
        return write_gate_ == nullptr ||
               !write_gate_->IsUncommitted(frame.page_id);
      });
  if (!victim.has_value()) {
    return Status::ResourceExhausted("all buffer frames are pinned");
  }
  size_t frame_index = *victim;
  Frame& frame = *shard->frames[frame_index];
  bool was_dirty = frame.dirty.load(std::memory_order_relaxed);
  COBRA_RETURN_IF_ERROR(WriteBack(shard, &frame));
  shard->page_table.erase(frame.page_id);
  shard->policy->Remove(frame_index);
  frame.valid = false;
  PageId evicted = frame.page_id;
  frame.page_id = kInvalidPageId;
  shard->evictions++;
  if (listener_ != nullptr) {
    // `dirty` here reports whether the victim needed a write-back (WriteBack
    // above already cleared the flag after flushing).
    listener_->OnBufferEviction(evicted, was_dirty);
  }
  return frame_index;
}

Status BufferManager::ReadWithRetry(Shard* shard, PageId id, std::byte* data,
                                    int attempt) {
  // Bounded retry for transient failures; everything else (NotFound,
  // Corruption, a failed checksum) is permanent and fails immediately.
  int max_attempts = options_.retry.max_read_attempts < 1
                         ? 1
                         : options_.retry.max_read_attempts;
  Status read;
  PageId phys = Phys(id);
  for (;; ++attempt) {
    {
      // Only the device call is I/O wait; checksum verification below is
      // CPU, as in ConsumePending and FixRun.
      obs::IoWaitTimer io_wait;
      read = disk_->ReadPage(phys, data);
    }
    if (read.ok()) {
      read = VerifyPageChecksum(data, disk_->page_size(), id);
      if (read.ok()) break;
      shard->checksum_failures++;
      ChargeChecksumFailure(id);
      if (listener_ != nullptr) listener_->OnBufferChecksumFailure(id);
      break;
    }
    if (!read.IsUnavailable() || attempt >= max_attempts) {
      if (read.IsUnavailable()) shard->retries_exhausted++;
      break;
    }
    shard->retries++;
    ChargeRetry(id, attempt);
    if (listener_ != nullptr) listener_->OnBufferRetry(id, attempt);
    // Deterministic linear backoff, accounted in the disk's cost unit.
    disk_->AddSeekPenaltyAt(
        phys,
        static_cast<uint64_t>(attempt) * options_.retry.backoff_seek_pages,
        /*is_read=*/true);
  }
  return read;
}

Status BufferManager::ConsumePending(Shard* shard, size_t index, PageId id) {
  Frame& frame = *shard->frames[index];
  Status status;
  {
    // Only the wait itself is I/O time; the retry fallback below times its
    // own reads.
    obs::IoWaitTimer io_wait;
    status = frame.pending.get();
  }
  frame.has_pending = false;
  frame.pending = {};
  if (status.ok()) {
    status = VerifyPageChecksum(frame.data.data(), frame.data.size(), id);
    if (!status.ok()) {
      shard->checksum_failures++;
      ChargeChecksumFailure(id);
      if (listener_ != nullptr) listener_->OnBufferChecksumFailure(id);
    }
  } else if (status.IsUnavailable()) {
    // The async attempt was attempt 1; fall back to the synchronous retry
    // policy for the remainder.
    int max_attempts = options_.retry.max_read_attempts < 1
                           ? 1
                           : options_.retry.max_read_attempts;
    if (max_attempts > 1) {
      shard->retries++;
      ChargeRetry(id, 1);
      if (listener_ != nullptr) listener_->OnBufferRetry(id, 1);
      disk_->AddSeekPenaltyAt(Phys(id), options_.retry.backoff_seek_pages,
                              /*is_read=*/true);
      status = ReadWithRetry(shard, id, frame.data.data(), /*attempt=*/2);
    } else {
      shard->retries_exhausted++;
    }
  }
  if (!status.ok()) {
    // Unfix-on-error: the frame returns to the free list and the page-table
    // entry disappears, exactly as a failed synchronous fetch.
    shard->page_table.erase(id);
    shard->policy->Remove(index);
    frame.valid = false;
    frame.page_id = kInvalidPageId;
    shard->free_list.push_back(index);
    return status;
  }
  frame.valid = true;
  frame.dirty.store(false, std::memory_order_relaxed);
  return Status::OK();
}

void BufferManager::SettlePending(Shard* shard) {
  for (size_t i = 0; i < shard->frames.size(); ++i) {
    Frame& frame = *shard->frames[i];
    if (frame.has_pending) {
      // Discard the prefetch entirely (success or failure): callers of
      // SettlePending are about to flush, drop or destroy the pool.
      (void)frame.pending.wait();
      (void)ConsumePending(shard, i, frame.page_id);
    }
  }
}

Result<PageGuard> BufferManager::FetchPage(PageId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.page_table.find(id);
  if (it != shard.page_table.end()) {
    size_t frame_index = it->second;
    Frame* frame = shard.frames[frame_index].get();
    if (frame->has_pending) {
      // A prefetched read is in flight; wait for it and account the access
      // as the fault it is (the disk read really happened).
      COBRA_RETURN_IF_ERROR(ConsumePending(&shard, frame_index, id));
      shard.faults++;
      ChargeFault();
      if (listener_ != nullptr) listener_->OnBufferFault(id);
      shard.faulted_pages.insert(id);
    } else {
      shard.hits++;
      ChargeHit();
      if (listener_ != nullptr) listener_->OnBufferHit(id);
    }
    shard.policy->RecordAccess(frame_index);
    NotePin(frame);
    return PageGuard(this, frame, id);
  }
  COBRA_ASSIGN_OR_RETURN(size_t frame_index, ObtainFrame(&shard));
  Frame& frame = *shard.frames[frame_index];
  frame.data.resize(disk_->page_size());
  Status read = ReadWithRetry(&shard, id, frame.data.data(), /*attempt=*/1);
  if (!read.ok()) {
    shard.free_list.push_back(frame_index);
    return read;
  }
  shard.faults++;
  ChargeFault();
  if (listener_ != nullptr) listener_->OnBufferFault(id);
  shard.faulted_pages.insert(id);
  frame.page_id = id;
  frame.valid = true;
  frame.dirty.store(false, std::memory_order_relaxed);
  shard.page_table[id] = frame_index;
  shard.policy->RecordAccess(frame_index);
  NotePin(&frame);
  return PageGuard(this, &frame, id);
}

void BufferManager::FixRun(PageId first, size_t n, bool ascending,
                           std::vector<Result<PageGuard>>* out) {
  out->clear();
  if (n == 0) {
    return;
  }
  if (n - 1 > kInvalidPageId - first) {
    for (size_t i = 0; i < n; ++i) {
      out->push_back(Status::InvalidArgument("run overflows the page space"));
    }
    return;
  }
  if (n == 1) {
    out->push_back(FetchPage(first));
    return;
  }

  // Lock every shard the run touches, in shard-index order.  The canonical
  // order makes concurrent FixRuns deadlock-free against each other, and
  // FetchPage (single shard lock, waits only on the disk) cannot close a
  // cycle.
  std::vector<size_t> shard_indices;
  shard_indices.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shard_indices.push_back(ShardIndex(first + i));
  }
  std::sort(shard_indices.begin(), shard_indices.end());
  shard_indices.erase(
      std::unique(shard_indices.begin(), shard_indices.end()),
      shard_indices.end());
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shard_indices.size());
  for (size_t s : shard_indices) {
    locks.emplace_back(shards_[s]->mu);
  }

  // Phase 1: pin residents (and in-flight prefetches) as FetchPage would;
  // obtain a frame for each miss.  Slots of pages still waiting on the
  // vectored read hold a placeholder that phase 2 always overwrites.
  struct MissingPage {
    size_t offset = 0;  // page = first + offset
    size_t frame = 0;   // frame index within the page's shard
  };
  std::vector<MissingPage> missing;
  missing.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const PageId id = first + i;
    Shard& shard = *shards_[ShardIndex(id)];
    auto it = shard.page_table.find(id);
    if (it != shard.page_table.end()) {
      size_t frame_index = it->second;
      Frame* frame = shard.frames[frame_index].get();
      if (frame->has_pending) {
        Status consumed = ConsumePending(&shard, frame_index, id);
        if (!consumed.ok()) {
          out->push_back(std::move(consumed));
          continue;
        }
        shard.faults++;
        ChargeFault();
        if (listener_ != nullptr) listener_->OnBufferFault(id);
        shard.faulted_pages.insert(id);
      } else {
        shard.hits++;
        ChargeHit();
        if (listener_ != nullptr) listener_->OnBufferHit(id);
      }
      shard.policy->RecordAccess(frame_index);
      NotePin(frame);
      out->push_back(PageGuard(this, frame, id));
      continue;
    }
    Result<size_t> frame_index = ObtainFrame(&shard);
    if (!frame_index.ok()) {
      // Shard exhausted: report without reading; the page stays fetchable
      // one-at-a-time once the caller releases other pins.
      out->push_back(frame_index.status());
      continue;
    }
    shard.frames[*frame_index]->data.resize(disk_->page_size());
    out->push_back(Status::Internal("run read still pending"));
    missing.push_back(MissingPage{i, *frame_index});
  }

  // Phase 2: serve each maximal consecutive group of misses with vectored
  // reads.  A transient failure retries only the untransferred tail; a
  // permanent failure (or exhausted retries) marks its own page and the
  // transfer continues behind it.
  const int max_attempts = options_.retry.max_read_attempts < 1
                               ? 1
                               : options_.retry.max_read_attempts;
  // On a disk array a group never crosses a stripe seam: pages on different
  // spindles are separate arms, so chaining them into one transfer would
  // serialize what the per-spindle elevators can overlap.  The virtual
  // SpindleOf calls are skipped entirely on a single-spindle device.
  const bool multi_spindle = disk_->num_spindles() > 1;
  size_t group_begin = 0;
  while (group_begin < missing.size()) {
    size_t group_end = group_begin;  // inclusive
    // A group must be consecutive in *physical* addresses too: with a
    // forwarding table attached, a logical run may be scattered until the
    // mover has packed it, and each physically-contiguous fragment is its
    // own transfer.  Without a table Phys is the identity, so the physical
    // condition is implied by the offset condition and grouping is
    // unchanged.
    while (group_end + 1 < missing.size() &&
           missing[group_end + 1].offset == missing[group_end].offset + 1 &&
           Phys(first + missing[group_end + 1].offset) ==
               Phys(first + missing[group_end].offset) + 1 &&
           (!multi_spindle ||
            disk_->SpindleOf(Phys(first + missing[group_end + 1].offset)) ==
                disk_->SpindleOf(Phys(first + missing[group_end].offset)))) {
      group_end++;
    }
    const size_t m = group_end - group_begin + 1;
    // t-th page of the group in transfer order.
    auto at = [&](size_t t) -> MissingPage& {
      return missing[ascending ? group_begin + t : group_end - t];
    };
    auto frame_of = [&](const MissingPage& mp) -> Frame& {
      return *shards_[ShardIndex(first + mp.offset)]->frames[mp.frame];
    };
    std::vector<uint8_t> good(m, 0);  // indexed in transfer order
    size_t pos = 0;
    int attempt = 1;
    while (pos < m) {
      const size_t remaining = m - pos;
      // The transfer runs in physical address space (the group is
      // physically consecutive by construction above).
      const PageId front_page = Phys(first + at(pos).offset);
      const PageId low_page =
          ascending ? front_page : front_page - (remaining - 1);
      std::vector<std::byte*> outs(remaining, nullptr);
      for (size_t t = 0; t < remaining; ++t) {
        MissingPage& mp = at(pos + t);
        outs[Phys(first + mp.offset) - low_page] = frame_of(mp).data.data();
      }
      RunReadResult read;
      {
        obs::IoWaitTimer io_wait;
        read = disk_->ReadRun(low_page, remaining, ascending, outs.data());
      }
      for (size_t t = 0; t < read.pages_ok; ++t) {
        good[pos + t] = 1;
      }
      if (read.pages_ok > 0) {
        attempt = 1;  // the failing front page changed; restart its budget
      }
      pos += read.pages_ok;
      if (pos >= m) {
        break;
      }
      const PageId failed_page = first + at(pos).offset;
      Shard& failed_shard = *shards_[ShardIndex(failed_page)];
      if (read.status.IsUnavailable() && attempt < max_attempts) {
        failed_shard.retries++;
        ChargeRetry(failed_page, attempt);
        if (listener_ != nullptr) {
          listener_->OnBufferRetry(failed_page, attempt);
        }
        disk_->AddSeekPenaltyAt(
            Phys(failed_page),
            static_cast<uint64_t>(attempt) * options_.retry.backoff_seek_pages,
            /*is_read=*/true);
        attempt++;
        continue;  // re-read from the same front page
      }
      if (read.status.IsUnavailable()) {
        failed_shard.retries_exhausted++;
      }
      (*out)[at(pos).offset] = read.status;
      pos++;  // the transfer resumes behind the bad page
      attempt = 1;
    }
    // Finalize the group: verify checksums, publish good pages, free the
    // frames of failed ones (they were never in the page table).
    for (size_t t = 0; t < m; ++t) {
      MissingPage& mp = at(t);
      const PageId id = first + mp.offset;
      Shard& shard = *shards_[ShardIndex(id)];
      Frame& frame = frame_of(mp);
      if (!good[t]) {
        shard.free_list.push_back(mp.frame);
        continue;
      }
      Status verified =
          VerifyPageChecksum(frame.data.data(), frame.data.size(), id);
      if (!verified.ok()) {
        shard.checksum_failures++;
        ChargeChecksumFailure(id);
        if (listener_ != nullptr) listener_->OnBufferChecksumFailure(id);
        (*out)[mp.offset] = std::move(verified);
        shard.free_list.push_back(mp.frame);
        continue;
      }
      shard.faults++;
      ChargeFault();
      if (listener_ != nullptr) listener_->OnBufferFault(id);
      shard.faulted_pages.insert(id);
      frame.page_id = id;
      frame.valid = true;
      frame.dirty.store(false, std::memory_order_relaxed);
      shard.page_table[id] = mp.frame;
      shard.policy->RecordAccess(mp.frame);
      NotePin(&frame);
      (*out)[mp.offset] = PageGuard(this, &frame, id);
    }
    group_begin = group_end + 1;
  }
}

void BufferManager::PrefetchRun(PageId first, size_t n) {
  if (n == 0 || n - 1 > kInvalidPageId - first) {
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    (void)PrefetchPage(first + i);  // best effort, like single-page prefetch
  }
}

Status BufferManager::PrefetchPage(PageId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.page_table.contains(id)) {
    return Status::OK();  // resident or already in flight
  }
  COBRA_ASSIGN_OR_RETURN(size_t frame_index, ObtainFrame(&shard));
  Frame& frame = *shard.frames[frame_index];
  frame.data.resize(disk_->page_size());
  frame.page_id = id;
  frame.valid = false;
  frame.dirty.store(false, std::memory_order_relaxed);
  frame.has_pending = true;
  {
    // Submission may execute synchronously on a plain SimulatedDisk; the
    // time is I/O either way.
    obs::IoWaitTimer io_wait;
    frame.pending = disk_->SubmitRead(Phys(id), frame.data.data());
  }
  shard.page_table[id] = frame_index;
  shard.policy->RecordAccess(frame_index);
  shard.prefetches++;
  return Status::OK();
}

Result<PageGuard> BufferManager::CreatePage(PageId id) {
  if (id == kInvalidPageId) {
    return Status::InvalidArgument("cannot create the invalid page id");
  }
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.page_table.contains(id) || disk_->Exists(Phys(id))) {
    return Status::AlreadyExists("page " + std::to_string(id) +
                                 " already exists");
  }
  COBRA_ASSIGN_OR_RETURN(size_t frame_index, ObtainFrame(&shard));
  Frame& frame = *shard.frames[frame_index];
  frame.data.assign(disk_->page_size(), std::byte{0});
  frame.page_id = id;
  frame.valid = true;
  frame.dirty.store(true, std::memory_order_relaxed);
  shard.page_table[id] = frame_index;
  shard.policy->RecordAccess(frame_index);
  NotePin(&frame);
  return PageGuard(this, &frame, id);
}

Status BufferManager::FlushPage(PageId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.page_table.find(id);
  if (it == shard.page_table.end()) {
    return Status::NotFound("page not resident");
  }
  Frame* frame = shard.frames[it->second].get();
  if (frame->has_pending) {
    COBRA_RETURN_IF_ERROR(ConsumePending(&shard, it->second, id));
  }
  if (write_gate_ != nullptr && write_gate_->IsUncommitted(id)) {
    return Status::OK();  // no-steal: stays dirty until its txn resolves
  }
  return WriteBack(&shard, frame);
}

Status BufferManager::FlushAll() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    SettlePending(shard.get());
    for (auto& frame : shard->frames) {
      if (frame->valid &&
          (write_gate_ == nullptr ||
           !write_gate_->IsUncommitted(frame->page_id))) {
        COBRA_RETURN_IF_ERROR(WriteBack(shard.get(), frame.get()));
      }
    }
  }
  return Status::OK();
}

Status BufferManager::DropAll() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    SettlePending(shard.get());
    for (size_t i = 0; i < shard->frames.size(); ++i) {
      Frame& frame = *shard->frames[i];
      if (!frame.valid) continue;
      if (frame.pin_count.load(std::memory_order_acquire) > 0) {
        return Status::ResourceExhausted("cannot drop pinned page " +
                                         std::to_string(frame.page_id));
      }
      if (write_gate_ == nullptr ||
          !write_gate_->IsUncommitted(frame.page_id)) {
        COBRA_RETURN_IF_ERROR(WriteBack(shard.get(), &frame));
      }
      // An uncommitted page is dropped without write-back: no-steal forbids
      // it reaching disk, and DropAll models a restart, which loses it.
      shard->page_table.erase(frame.page_id);
      shard->policy->Remove(i);
      frame.valid = false;
      frame.page_id = kInvalidPageId;
      shard->free_list.push_back(i);
    }
  }
  return Status::OK();
}

bool BufferManager::IsResident(PageId id) const {
  const Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.page_table.contains(id);
}

BufferStats BufferManager::stats() const {
  BufferStats stats;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.hits += shard->hits;
    stats.faults += shard->faults;
    stats.evictions += shard->evictions;
    stats.dirty_writebacks += shard->dirty_writebacks;
    stats.retries += shard->retries;
    stats.retries_exhausted += shard->retries_exhausted;
    stats.checksum_failures += shard->checksum_failures;
    stats.write_retries += shard->write_retries;
    stats.prefetches += shard->prefetches;
  }
  stats.max_pinned = max_pinned_.load(std::memory_order_relaxed);
  return stats;
}

void BufferManager::ResetStats() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->hits = 0;
    shard->faults = 0;
    shard->evictions = 0;
    shard->dirty_writebacks = 0;
    shard->retries = 0;
    shard->retries_exhausted = 0;
    shard->checksum_failures = 0;
    shard->write_retries = 0;
    shard->prefetches = 0;
  }
  max_pinned_.store(0, std::memory_order_relaxed);
}

size_t BufferManager::unique_pages_faulted() const {
  size_t unique = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    unique += shard->faulted_pages.size();
  }
  return unique;
}

void BufferManager::ResetFetchTrace() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->faulted_pages.clear();
  }
}

BufferManager::Residency BufferManager::GetResidency() const {
  Residency residency;
  residency.per_shard_resident.reserve(shards_.size());
  // One shard lock at a time: the snapshot is per-shard consistent, which is
  // all a live dashboard needs.
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    size_t resident = 0;
    residency.total_frames += shard->capacity;
    for (const auto& frame : shard->frames) {
      if (frame->has_pending) residency.pending++;
      if (!frame->valid) continue;
      resident++;
      if (frame->pin_count.load(std::memory_order_acquire) > 0) {
        residency.pinned++;
      }
      if (frame->dirty.load(std::memory_order_relaxed)) {
        residency.dirty++;
      }
    }
    residency.resident += resident;
    residency.free_frames +=
        shard->free_list.size() + (shard->capacity - shard->frames.size());
    residency.per_shard_resident.push_back(resident);
  }
  return residency;
}

}  // namespace cobra
