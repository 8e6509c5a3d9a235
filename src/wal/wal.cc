#include "wal/wal.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "storage/checksum.h"
#include "storage/slotted_page.h"

namespace cobra::wal {

// ---- Log scan --------------------------------------------------------------

LogScanResult ScanLog(SimulatedDisk* disk, PageId first, size_t max_pages) {
  LogScanResult result;
  result.next_page = first;
  const size_t ps = disk->page_size();
  std::vector<std::byte> buf(ps);
  const PageId end = first + max_pages;
  PageId cursor = first;
  bool have_epoch = false;
  Lsn expected = 0;  // learned from the first page's batch_first_lsn

  while (cursor < end) {
    if (!disk->ReadPage(cursor, buf.data()).ok()) {
      result.tail_note = "end of log (unwritten page)";
      break;
    }
    LogPageHeader head;
    if (!ReadLogPage(buf.data(), ps, &head)) {
      result.torn_tail = true;
      result.tail_note = "torn log page (bad CRC)";
      break;
    }
    if (!have_epoch) {
      result.epoch = head.epoch;
      have_epoch = true;
      expected = head.batch_first_lsn;
    } else if (head.epoch != result.epoch) {
      result.tail_note = "stale epoch (checkpoint-truncated tail)";
      break;
    }
    if (head.batch_first_lsn != expected) {
      result.tail_note = "stale batch (LSN discontinuity)";
      break;
    }

    // Accumulate the whole batch: continuation pages must exist, verify,
    // and carry the same epoch and batch-first LSN.
    std::vector<std::byte> stream(
        buf.begin() + static_cast<long>(kLogPageHeaderSize),
        buf.begin() + static_cast<long>(kLogPageHeaderSize + head.used));
    size_t batch_pages = 1;
    bool continues = head.continues;
    bool batch_ok = true;
    while (continues) {
      const PageId next = cursor + batch_pages;
      if (next >= end || !disk->ReadPage(next, buf.data()).ok()) {
        result.torn_tail = true;
        result.tail_note = "torn batch (missing continuation page)";
        batch_ok = false;
        break;
      }
      LogPageHeader cont;
      if (!ReadLogPage(buf.data(), ps, &cont) ||
          cont.epoch != result.epoch ||
          cont.batch_first_lsn != head.batch_first_lsn) {
        result.torn_tail = true;
        result.tail_note = "torn batch (bad continuation page)";
        batch_ok = false;
        break;
      }
      stream.insert(stream.end(),
                    buf.begin() + static_cast<long>(kLogPageHeaderSize),
                    buf.begin() +
                        static_cast<long>(kLogPageHeaderSize + cont.used));
      ++batch_pages;
      continues = cont.continues;
    }
    if (!batch_ok) {
      break;
    }

    // A complete batch must parse as whole records with dense LSNs.
    std::vector<LogRecord> batch;
    size_t offset = 0;
    bool parse_ok = true;
    while (offset < stream.size()) {
      LogRecord rec;
      if (DecodeLogRecord(stream, &offset, &rec) != DecodeOutcome::kRecord ||
          rec.lsn != expected + batch.size()) {
        result.torn_tail = true;
        result.tail_note = "corrupt record inside batch";
        parse_ok = false;
        break;
      }
      batch.push_back(std::move(rec));
    }
    if (!parse_ok) {
      break;
    }

    expected += batch.size();
    for (LogRecord& rec : batch) {
      result.records.push_back(std::move(rec));
    }
    result.complete_batches++;
    result.pages_scanned += batch_pages;
    cursor += batch_pages;
    if (result.tail_note.empty() && cursor >= end) {
      result.tail_note = "end of log extent";
    }
  }

  result.next_page = cursor;
  result.next_lsn = expected == 0 ? 1 : expected;
  return result;
}

// ---- Construction / daemon -------------------------------------------------

WalManager::WalManager(SimulatedDisk* disk, WalOptions options)
    : disk_(disk), options_(options), cursor_(options.log_first_page) {
  daemon_ = std::thread([this] { DaemonLoop(); });
}

WalManager::~WalManager() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  durable_cv_.notify_all();
  daemon_.join();
}

Status WalManager::WritePageWithRetry(PageId id, const std::byte* data,
                                      int* retries) {
  Status status;
  for (int attempt = 1; attempt <= options_.max_write_attempts; ++attempt) {
    status = disk_->WritePage(id, data);
    if (status.ok() || !status.IsUnavailable()) {
      return status;
    }
    if (attempt < options_.max_write_attempts) {
      ++*retries;
      disk_->AddSeekPenaltyAt(
          id, static_cast<uint64_t>(attempt) * options_.backoff_seek_pages,
          /*is_read=*/false);
    }
  }
  return status;
}

void WalManager::DaemonLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  const size_t ps = disk_->page_size();
  const size_t capacity = LogPagePayloadCapacity(ps);
  std::vector<std::byte> page(ps);
  while (true) {
    work_cv_.wait(lock, [&] {
      return stop_ || (log_status_.ok() && !pending_.empty() &&
                       requested_lsn_ > durable_lsn_);
    });
    if (stop_) {
      break;
    }

    // Grab the whole pending batch; appenders keep filling a fresh one
    // while the pages are written below.
    std::vector<std::byte> bytes = std::move(pending_);
    pending_.clear();
    const Lsn batch_first = pending_first_lsn_;
    const size_t records = pending_records_;
    const Lsn target = last_appended_lsn_;
    pending_first_lsn_ = 0;
    pending_records_ = 0;

    const size_t pages = (bytes.size() + capacity - 1) / capacity;
    const PageId start = cursor_;
    const uint16_t epoch = epoch_;
    if (start + pages > options_.log_first_page + options_.log_max_pages) {
      log_status_ = Status::ResourceExhausted("wal log extent full");
      durable_cv_.notify_all();
      continue;
    }

    lock.unlock();
    Status status;
    int retries = 0;
    for (size_t i = 0; i < pages && status.ok(); ++i) {
      const size_t off = i * capacity;
      const size_t chunk = std::min(capacity, bytes.size() - off);
      std::fill(page.begin(), page.end(), std::byte{0});
      std::memcpy(page.data() + kLogPageHeaderSize, bytes.data() + off,
                  chunk);
      LogPageHeader head;
      head.used = static_cast<uint16_t>(chunk);
      head.continues = i + 1 < pages;
      head.epoch = epoch;
      head.batch_first_lsn = batch_first;
      SealLogPage(page.data(), ps, head);
      status = WritePageWithRetry(start + i, page.data(), &retries);
    }
    lock.lock();

    stats_.flush_retries += static_cast<uint64_t>(retries);
    if (status.ok()) {
      cursor_ = start + pages;
      durable_lsn_ = target;
      stats_.batches_flushed++;
      stats_.log_pages_written += pages;
      stats_.bytes_flushed += bytes.size();
      if (listener_ != nullptr) {
        listener_->OnWalFlush(target, pages, bytes.size(), records);
      }
    } else {
      log_status_ = std::move(status);
    }
    durable_cv_.notify_all();
  }
}

// ---- Append path -----------------------------------------------------------

Result<Lsn> WalManager::AppendLocked(LogRecord record) {
  COBRA_RETURN_IF_ERROR(log_status_);
  if (!recovered_) {
    return Status::InvalidArgument("WalManager::Recover() was never called");
  }
  record.lsn = next_lsn_++;
  if (pending_.empty()) {
    pending_first_lsn_ = record.lsn;
  }
  EncodeLogRecord(record, &pending_);
  pending_records_++;
  last_appended_lsn_ = record.lsn;
  stats_.records_appended++;
  return record.lsn;
}

Status WalManager::FlushUntilLocked(Lsn target,
                                    std::unique_lock<std::mutex>& lock) {
  if (target == 0 || durable_lsn_ >= target) {
    return log_status_;
  }
  requested_lsn_ = std::max(requested_lsn_, target);
  work_cv_.notify_all();
  durable_cv_.wait(lock, [&] {
    return stop_ || !log_status_.ok() || durable_lsn_ >= target;
  });
  if (durable_lsn_ >= target) {
    return Status::OK();
  }
  return log_status_.ok() ? Status::Unavailable("wal shutting down")
                          : log_status_;
}

Result<TxnId> WalManager::Begin() {
  std::unique_lock<std::mutex> lock(mu_);
  LogRecord rec;
  rec.type = LogRecordType::kBegin;
  TxnId txn = next_txn_++;
  rec.txn = txn;
  COBRA_RETURN_IF_ERROR(AppendLocked(std::move(rec)).status());
  active_.emplace(txn, TxnInfo{});
  stats_.begins++;
  return txn;
}

Result<Lsn> WalManager::LogHeapInsert(TxnId txn, PageId page, uint16_t slot,
                                      std::span<const std::byte> body) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = active_.find(txn);
  if (it == active_.end()) {
    return Status::InvalidArgument("unknown or closed transaction");
  }
  LogRecord rec;
  rec.type = LogRecordType::kHeapInsert;
  rec.txn = txn;
  rec.page = page;
  rec.slot = slot;
  rec.payload.assign(body.begin(), body.end());
  Result<Lsn> lsn = AppendLocked(std::move(rec));
  if (lsn.ok() && it->second.pages.insert(page).second) {
    uncommitted_pages_[page]++;
  }
  return lsn;
}

Result<Lsn> WalManager::LogHeapUpdate(TxnId txn, PageId page, uint16_t slot,
                                      std::span<const std::byte> body) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = active_.find(txn);
  if (it == active_.end()) {
    return Status::InvalidArgument("unknown or closed transaction");
  }
  LogRecord rec;
  rec.type = LogRecordType::kHeapUpdate;
  rec.txn = txn;
  rec.page = page;
  rec.slot = slot;
  rec.payload.assign(body.begin(), body.end());
  Result<Lsn> lsn = AppendLocked(std::move(rec));
  if (lsn.ok() && it->second.pages.insert(page).second) {
    uncommitted_pages_[page]++;
  }
  return lsn;
}

Result<Lsn> WalManager::LogHeapDelete(TxnId txn, PageId page, uint16_t slot) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = active_.find(txn);
  if (it == active_.end()) {
    return Status::InvalidArgument("unknown or closed transaction");
  }
  LogRecord rec;
  rec.type = LogRecordType::kHeapDelete;
  rec.txn = txn;
  rec.page = page;
  rec.slot = slot;
  Result<Lsn> lsn = AppendLocked(std::move(rec));
  if (lsn.ok() && it->second.pages.insert(page).second) {
    uncommitted_pages_[page]++;
  }
  return lsn;
}

Result<Lsn> WalManager::LogPageFormat(PageId page) {
  std::unique_lock<std::mutex> lock(mu_);
  LogRecord rec;
  rec.type = LogRecordType::kPageFormat;
  rec.txn = 0;
  rec.page = page;
  return AppendLocked(std::move(rec));
}

namespace {

// kPageMove payload layout: [from_phys 8][to_phys 8][page image].
void PutMoveU64(std::byte* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
  }
}

uint64_t GetMoveU64(const std::byte* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

constexpr size_t kMoveHeaderSize = 16;

}  // namespace

Result<Lsn> WalManager::LogPageMove(TxnId txn, PageId logical,
                                    PageId from_phys, PageId to_phys,
                                    std::span<const std::byte> image) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!active_.contains(txn)) {
    return Status::InvalidArgument("unknown or closed transaction");
  }
  LogRecord rec;
  rec.type = LogRecordType::kPageMove;
  rec.txn = txn;
  rec.page = logical;
  rec.payload.resize(kMoveHeaderSize + image.size());
  PutMoveU64(rec.payload.data(), from_phys);
  PutMoveU64(rec.payload.data() + 8, to_phys);
  std::memcpy(rec.payload.data() + kMoveHeaderSize, image.data(),
              image.size());
  Result<Lsn> lsn = AppendLocked(std::move(rec));
  if (lsn.ok()) stats_.moves_logged++;
  // A move does not alter the page's logical content, so it does not pin
  // the page into `uncommitted_pages_`: the bytes a concurrent write-back
  // would flush are committed data wherever they land.
  return lsn;
}

void WalManager::ReleaseTxnLocked(TxnId txn) {
  auto it = active_.find(txn);
  if (it == active_.end()) {
    return;
  }
  for (PageId page : it->second.pages) {
    auto pin = uncommitted_pages_.find(page);
    if (pin != uncommitted_pages_.end() && --pin->second == 0) {
      uncommitted_pages_.erase(pin);
    }
  }
  active_.erase(it);
}

Status WalManager::Commit(TxnId txn) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!active_.contains(txn)) {
    return Status::InvalidArgument("unknown or closed transaction");
  }
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn = txn;
  Result<Lsn> lsn = AppendLocked(std::move(rec));
  COBRA_RETURN_IF_ERROR(lsn.status());
  // The txn is logically over the moment the commit record is in the log
  // buffer; releasing its pages here lets them be written back while we
  // wait, and the gate's WAL-before-data flush keeps ordering correct.
  ReleaseTxnLocked(txn);
  stats_.commits++;
  return FlushUntilLocked(*lsn, lock);
}

Status WalManager::Abort(TxnId txn) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!active_.contains(txn)) {
    return Status::InvalidArgument("unknown or closed transaction");
  }
  LogRecord rec;
  rec.type = LogRecordType::kAbort;
  rec.txn = txn;
  Result<Lsn> lsn = AppendLocked(std::move(rec));
  // Even if the append failed (dead log), the in-memory undo already ran;
  // release the txn either way so its pages become evictable.
  ReleaseTxnLocked(txn);
  stats_.aborts++;
  return lsn.status();
}

Status WalManager::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  return FlushUntilLocked(last_appended_lsn_, lock);
}

// ---- Write gate ------------------------------------------------------------

Status WalManager::BeforePageWrite(PageId page, const std::byte* data,
                                   size_t size) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!recovered_) {
    // The WAL is attached but idle (e.g. a read-only run that never
    // bootstrapped it); let untracked write-backs through unchanged.
    return Status::OK();
  }
  LogRecord rec;
  rec.type = LogRecordType::kPageImage;
  rec.txn = 0;
  rec.page = page;
  rec.payload.assign(data, data + size);
  Result<Lsn> lsn = AppendLocked(std::move(rec));
  COBRA_RETURN_IF_ERROR(lsn.status());
  stats_.images_logged++;
  return FlushUntilLocked(*lsn, lock);
}

bool WalManager::IsUncommitted(PageId page) const {
  std::lock_guard<std::mutex> lock(mu_);
  return uncommitted_pages_.contains(page);
}

// ---- Checkpoint ------------------------------------------------------------

Status WalManager::Checkpoint(BufferManager* buffer) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!active_.empty()) {
      return Status::InvalidArgument(
          "checkpoint requires no active transactions");
    }
  }
  // Make every buffered change durable (each write-back passes through the
  // gate, so the log covering it is flushed first)...
  COBRA_RETURN_IF_ERROR(buffer->FlushAll());
  std::unique_lock<std::mutex> lock(mu_);
  COBRA_RETURN_IF_ERROR(FlushUntilLocked(last_appended_lsn_, lock));
  // ...then the whole history is redundant: bump the epoch so stale pages
  // terminate future scans, and restart the log at the extent head.
  epoch_++;
  cursor_ = options_.log_first_page;
  LogRecord rec;
  rec.type = LogRecordType::kCheckpoint;
  rec.txn = 0;
  if (forwarding_ != nullptr) {
    // Truncation discards the kPageMove history, so the checkpoint record
    // carries the live logical -> physical table: 16-byte (logical, phys)
    // pairs.  An empty table (or no table) leaves the payload empty,
    // byte-identical to the pre-recluster checkpoint record.
    auto snapshot = forwarding_->Snapshot();
    rec.payload.resize(snapshot.size() * 16);
    for (size_t i = 0; i < snapshot.size(); ++i) {
      PutMoveU64(rec.payload.data() + 16 * i, snapshot[i].first);
      PutMoveU64(rec.payload.data() + 16 * i + 8, snapshot[i].second);
    }
  }
  Result<Lsn> lsn = AppendLocked(std::move(rec));
  COBRA_RETURN_IF_ERROR(lsn.status());
  COBRA_RETURN_IF_ERROR(FlushUntilLocked(*lsn, lock));
  stats_.checkpoints++;
  return Status::OK();
}

// ---- Recovery --------------------------------------------------------------

namespace {

struct RecoveredPage {
  std::vector<std::byte> data;
  bool valid = false;
  bool dirty = false;
};

}  // namespace

Status WalManager::Recover() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (recovered_) {
      return Status::InvalidArgument("Recover() called twice");
    }
    if (last_appended_lsn_ != 0) {
      return Status::InvalidArgument("Recover() after appends");
    }
  }
  const size_t ps = disk_->page_size();
  LogScanResult scan =
      ScanLog(disk_, options_.log_first_page, options_.log_max_pages);

  // Winners have a durable commit record; everything else logged by a
  // transaction is discarded (no-steal means the disk never saw it).
  std::unordered_set<TxnId> committed;
  std::unordered_set<TxnId> seen;
  TxnId max_txn = 0;
  for (const LogRecord& rec : scan.records) {
    if (rec.txn != 0) {
      seen.insert(rec.txn);
      max_txn = std::max(max_txn, rec.txn);
    }
    if (rec.type == LogRecordType::kCommit) {
      committed.insert(rec.txn);
    }
  }

  WalStats recovery;
  recovery.recovered_records = scan.records.size();
  recovery.recovered_commits = committed.size();
  recovery.discarded_txns = seen.size() - committed.size();
  if (scan.torn_tail) {
    recovery.torn_tail_events = 1;
  }

  // Re-clustering: the logical -> physical map as of the record being
  // replayed.  Rebuilt progressively, in LSN order, from the checkpoint
  // snapshot and committed kPageMove records, so every disk access below
  // uses the address that was current *at that point of the history*.
  std::unordered_map<PageId, PageId> fwd;
  auto phys = [&](PageId id) -> PageId {
    auto it = fwd.find(id);
    return it == fwd.end() ? id : it->second;
  };

  std::unordered_map<PageId, RecoveredPage> pages;
  auto load = [&](PageId id) -> RecoveredPage& {
    auto [it, fresh] = pages.try_emplace(id);
    if (fresh) {
      it->second.data.resize(ps);
      Status read = disk_->ReadPage(phys(id), it->second.data.data());
      it->second.valid =
          read.ok() &&
          VerifyPageChecksum(it->second.data.data(), ps, id).ok();
    }
    return it->second;
  };

  for (const LogRecord& rec : scan.records) {
    switch (rec.type) {
      case LogRecordType::kBegin:
      case LogRecordType::kCommit:
      case LogRecordType::kAbort:
        break;
      case LogRecordType::kCheckpoint: {
        // The checkpoint payload is the authoritative forwarding snapshot
        // at truncation time (empty = identity, the pre-recluster format).
        if (rec.payload.size() % 16 != 0) {
          return Status::Corruption("checkpoint forwarding has wrong size");
        }
        fwd.clear();
        for (size_t off = 0; off < rec.payload.size(); off += 16) {
          fwd[GetMoveU64(rec.payload.data() + off)] =
              GetMoveU64(rec.payload.data() + off + 8);
        }
        break;
      }
      case LogRecordType::kPageMove: {
        if (rec.payload.size() != kMoveHeaderSize + ps) {
          return Status::Corruption("page move record has wrong size");
        }
        if (!committed.contains(rec.txn)) {
          recovery.redo_skipped_uncommitted++;
          break;
        }
        RecoveredPage& page = load(rec.page);
        // The logged image is the page's committed content at move time;
        // apply it unconditionally (like kPageImage — it heals a torn
        // write at either the old or the new address) and retarget the
        // page's write-out to its new home.
        std::memcpy(page.data.data(), rec.payload.data() + kMoveHeaderSize,
                    ps);
        page.valid = true;
        page.dirty = true;
        fwd[rec.page] = GetMoveU64(rec.payload.data() + 8);
        recovery.redo_moves++;
        break;
      }
      case LogRecordType::kPageFormat: {
        RecoveredPage& page = load(rec.page);
        SlottedPage view(page.data.data(), ps);
        if (!page.valid || view.lsn() < rec.lsn) {
          SlottedPage::Init(page.data.data(), ps);
          view.set_lsn(rec.lsn);
          page.valid = true;
          page.dirty = true;
          recovery.redo_formats++;
        } else {
          recovery.redo_skipped_stale++;
        }
        break;
      }
      case LogRecordType::kPageImage: {
        if (rec.payload.size() != ps) {
          return Status::Corruption("page image record has wrong size");
        }
        RecoveredPage& page = load(rec.page);
        std::memcpy(page.data.data(), rec.payload.data(), ps);
        page.valid = true;
        page.dirty = true;
        recovery.redo_images++;
        break;
      }
      case LogRecordType::kHeapInsert:
      case LogRecordType::kHeapUpdate:
      case LogRecordType::kHeapDelete: {
        if (!committed.contains(rec.txn)) {
          recovery.redo_skipped_uncommitted++;
          break;
        }
        RecoveredPage& page = load(rec.page);
        if (!page.valid) {
          // The page's base is torn or missing: its last write-back was
          // the crash write, so a later image in this same log supersedes
          // this record (the image embeds its effect).
          recovery.redo_deferred++;
          break;
        }
        SlottedPage view(page.data.data(), ps);
        if (view.lsn() >= rec.lsn) {
          recovery.redo_skipped_stale++;
          break;
        }
        Status applied;
        if (rec.type == LogRecordType::kHeapInsert) {
          applied = view.InsertAt(rec.slot, rec.payload);
        } else if (rec.type == LogRecordType::kHeapUpdate) {
          applied = view.Update(rec.slot, rec.payload);
        } else {
          applied = view.Delete(rec.slot);
        }
        if (!applied.ok()) {
          return Status::Corruption(
              "redo of LSN " + std::to_string(rec.lsn) + " failed: " +
              applied.ToString());
        }
        view.set_lsn(rec.lsn);
        page.dirty = true;
        recovery.redo_applied++;
        break;
      }
    }
  }

  // Every page the log touches must have been reconstructed; a still-torn
  // page here means the WAL-before-data invariant was violated.
  int repair_retries = 0;
  for (auto& [id, page] : pages) {
    if (!page.valid) {
      return Status::Corruption("page " + std::to_string(id) +
                                " unrecoverable (no durable image)");
    }
    if (!page.dirty) {
      continue;
    }
    StampPageChecksum(page.data.data(), ps);
    COBRA_RETURN_IF_ERROR(
        WritePageWithRetry(phys(id), page.data.data(), &repair_retries));
    recovery.pages_repaired++;
  }

  // Publish the recovered forwarding table so the buffer manager resolves
  // relocated pages at their post-crash addresses.
  if (forwarding_ != nullptr) {
    forwarding_->Clear();
    for (const auto& [logical, physical] : fwd) {
      forwarding_->Install(logical, physical);
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  epoch_ = scan.epoch;
  cursor_ = scan.next_page;
  next_lsn_ = scan.next_lsn;
  last_appended_lsn_ = scan.next_lsn - 1;
  durable_lsn_ = scan.next_lsn - 1;
  next_txn_ = max_txn + 1;
  recovered_ = true;
  stats_.recovered_records += recovery.recovered_records;
  stats_.recovered_commits += recovery.recovered_commits;
  stats_.discarded_txns += recovery.discarded_txns;
  stats_.redo_applied += recovery.redo_applied;
  stats_.redo_moves += recovery.redo_moves;
  stats_.redo_images += recovery.redo_images;
  stats_.redo_formats += recovery.redo_formats;
  stats_.redo_skipped_uncommitted += recovery.redo_skipped_uncommitted;
  stats_.redo_skipped_stale += recovery.redo_skipped_stale;
  stats_.redo_deferred += recovery.redo_deferred;
  stats_.pages_repaired += recovery.pages_repaired;
  stats_.torn_tail_events += recovery.torn_tail_events;
  stats_.flush_retries += static_cast<uint64_t>(repair_retries);
  return Status::OK();
}

// ---- Accessors -------------------------------------------------------------

Lsn WalManager::durable_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_lsn_;
}

Lsn WalManager::next_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_;
}

size_t WalManager::active_txns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_.size();
}

WalStats WalManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void WalManager::set_listener(WalEventListener* listener) {
  std::lock_guard<std::mutex> lock(mu_);
  listener_ = listener;
}

}  // namespace cobra::wal
