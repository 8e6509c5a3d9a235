// WalManager: write-ahead logging, group commit, and ARIES-style redo
// recovery for the update path.
//
// The design is redo-only ARIES specialised to a NO-STEAL buffer policy:
//
//   * Every logical mutation (heap insert / update / delete, page format)
//     is logged before it is applied to the buffered page, and the page's
//     header LSN is stamped with the record's LSN (storage/slotted_page.h).
//   * The buffer manager never writes a page carrying uncommitted data
//     (PageWriteGate::IsUncommitted), so the disk only ever holds effects
//     of committed transactions — recovery needs no undo pass.  Explicit
//     Abort is undone in memory by the caller (object/object_store.h)
//     before the abort record is appended.
//   * Before any data page is written back, the gate logs a full-page
//     image of the exact bytes being written and flushes the log through
//     it (WAL-before-data).  The image doubles as a torn-write repair —
//     the equivalent of a double-write buffer — so a crash that tears a
//     data page is healed from the log, not just detected by its CRC.
//   * Commit appends a commit record and blocks until the group-commit
//     daemon has made it durable.  The daemon batches every record
//     appended since its last write into one multi-page flush, always
//     starting on a fresh log page, so concurrent committers share a
//     single log write and a torn log write can only damage commits that
//     were never acknowledged.  It writes only when someone waits on the
//     log (a commit, Flush, or a data-page write-back), so a single-threaded
//     workload issues the same log writes on every run.
//
// Recovery (Recover) scans the log (ScanLog, shared with tools/wal_dump),
// discards the torn tail, classifies transactions by the presence of a
// durable commit record, and replays in LSN order against the disk:
// structural records (formats, images) always; logical records only for
// committed transactions, gated on the page LSN so replay is idempotent —
// running recovery twice (a crash during recovery) yields bit-identical
// pages.  Repaired pages are checksum-stamped and written straight to
// disk, so the store is CRC-clean before the buffer pool warms up.

#ifndef COBRA_WAL_WAL_H_
#define COBRA_WAL_WAL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/disk.h"
#include "wal/log_record.h"
#include "wal/wal_events.h"

namespace cobra::wal {

struct WalOptions {
  // Log extent [log_first_page, log_first_page + log_max_pages) on the
  // shared disk.  Appends fail with ResourceExhausted when it fills;
  // Checkpoint() reclaims it.
  PageId log_first_page = 0;
  size_t log_max_pages = 0;
  // Transient write failures (Status::Unavailable) are retried with a
  // linear seek-page backoff, mirroring the buffer manager's read policy.
  int max_write_attempts = 3;
  uint64_t backoff_seek_pages = 16;
};

struct WalStats {
  // Append / flush path.
  uint64_t records_appended = 0;
  uint64_t begins = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t images_logged = 0;
  uint64_t batches_flushed = 0;
  uint64_t log_pages_written = 0;
  uint64_t bytes_flushed = 0;
  uint64_t flush_retries = 0;
  uint64_t checkpoints = 0;
  // Recovery.
  uint64_t recovered_records = 0;
  uint64_t recovered_commits = 0;
  uint64_t discarded_txns = 0;    // logged but without a durable commit
  uint64_t moves_logged = 0;      // kPageMove records appended
  uint64_t redo_applied = 0;      // logical records replayed
  uint64_t redo_moves = 0;        // committed page moves replayed
  uint64_t redo_images = 0;       // page images applied
  uint64_t redo_formats = 0;      // page formats applied
  uint64_t redo_skipped_uncommitted = 0;
  uint64_t redo_skipped_stale = 0;    // page LSN already covered the record
  uint64_t redo_deferred = 0;     // op on a torn page, superseded by an image
  uint64_t pages_repaired = 0;    // pages rewritten (checksum-stamped)
  uint64_t torn_tail_events = 0;  // scans that found a torn log tail
};

// Result of scanning the log extent.  Shared by recovery and
// tools/wal_dump; does not mutate the disk.
struct LogScanResult {
  std::vector<LogRecord> records;  // every durable record, LSN order
  uint16_t epoch = 1;
  PageId next_page = 0;   // where the next batch will be written
  Lsn next_lsn = 1;       // LSN the next record will receive
  size_t pages_scanned = 0;
  size_t complete_batches = 0;
  bool torn_tail = false;  // scan ended on a torn page or torn batch
  std::string tail_note;   // why the scan stopped
};

LogScanResult ScanLog(SimulatedDisk* disk, PageId first, size_t max_pages);

class WalManager : public PageWriteGate {
 public:
  WalManager(SimulatedDisk* disk, WalOptions options);
  ~WalManager() override;

  WalManager(const WalManager&) = delete;
  WalManager& operator=(const WalManager&) = delete;

  // Bootstraps from whatever the log extent holds: scans, replays against
  // the disk, repairs torn pages, and positions the append cursor.  Must
  // be called (once) before any append; a fresh extent recovers to an
  // empty log.  Fails with Corruption if a page cannot be reconstructed.
  Status Recover();

  // --- Transactions ---------------------------------------------------
  Result<TxnId> Begin();
  // Log a mutation the caller is about to apply (or just applied) to the
  // buffered page; the returned LSN must be stamped into the page header.
  Result<Lsn> LogHeapInsert(TxnId txn, PageId page, uint16_t slot,
                            std::span<const std::byte> body);
  Result<Lsn> LogHeapUpdate(TxnId txn, PageId page, uint16_t slot,
                            std::span<const std::byte> body);
  Result<Lsn> LogHeapDelete(TxnId txn, PageId page, uint16_t slot);
  // Structural (transaction-independent): a page freshly formatted as an
  // empty slotted page.
  Result<Lsn> LogPageFormat(PageId page);
  // Re-clustering move: logical page `logical` (whose current bytes are
  // `image`) is being relocated from physical address `from_phys` to
  // `to_phys`.  Logged inside `txn` so a swap — two moves — commits
  // atomically: recovery applies both relocations or neither.  The full
  // image makes redo self-contained (a torn data write at either address
  // is healed from the log).
  Result<Lsn> LogPageMove(TxnId txn, PageId logical, PageId from_phys,
                          PageId to_phys, std::span<const std::byte> image);

  // Appends the commit record and blocks until the group-commit daemon
  // has made it durable.  On OK the transaction is durably committed.
  Status Commit(TxnId txn);
  // Appends the abort record.  The caller must already have undone the
  // transaction's effects in the buffer pool (no-steal guarantees the
  // disk never saw them).  Does not wait for durability.
  Status Abort(TxnId txn);

  // Makes every record appended so far durable.
  Status Flush();

  // Truncates the log after the caller's data is durable: flushes all
  // buffered pages (through the gate), bumps the log epoch and restarts
  // the log at the first extent page with a checkpoint record.  Fails
  // with InvalidArgument while any transaction is active.
  Status Checkpoint(BufferManager* buffer);

  // --- PageWriteGate --------------------------------------------------
  Status BeforePageWrite(PageId page, const std::byte* data,
                         size_t size) override;
  bool IsUncommitted(PageId page) const override;

  Lsn durable_lsn() const;
  Lsn next_lsn() const;
  size_t active_txns() const;
  WalStats stats() const;

  // Optional telemetry listener (borrowed; must outlive the manager or
  // be cleared).
  void set_listener(WalEventListener* listener);

  // Optional page-forwarding table (borrowed), wired when re-clustering is
  // enabled alongside the WAL.  Must be attached *before* Recover():
  // recovery then reads and repairs data pages through the logical ->
  // physical map it rebuilds from checkpoint snapshots and committed
  // kPageMove records, and installs the final map into `forwarding`.
  // Checkpoint() serializes the table into its checkpoint record so the
  // mapping survives log truncation.  Null (the default) keeps the
  // historical identity behavior.
  void set_forwarding(recluster::PageForwarding* forwarding) {
    forwarding_ = forwarding;
  }

  const WalOptions& options() const { return options_; }

 private:
  struct TxnInfo {
    std::unordered_set<PageId> pages;  // pages with this txn's data
  };

  // Serializes `record` into the pending batch, assigning its LSN.
  // Caller holds mu_.
  Result<Lsn> AppendLocked(LogRecord record);
  // Blocks until durable_lsn_ >= target (or the log dies).  Caller holds
  // `lock` on mu_.
  Status FlushUntilLocked(Lsn target, std::unique_lock<std::mutex>& lock);
  void ReleaseTxnLocked(TxnId txn);
  Status WritePageWithRetry(PageId id, const std::byte* data, int* retries);
  void DaemonLoop();

  SimulatedDisk* disk_;
  WalOptions options_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;     // wakes the daemon
  std::condition_variable durable_cv_;  // wakes commit / flush waiters
  bool stop_ = false;
  Status log_status_;  // sticky: first unrecoverable log-write failure

  std::vector<std::byte> pending_;  // serialized records awaiting flush
  Lsn pending_first_lsn_ = 0;
  size_t pending_records_ = 0;
  Lsn next_lsn_ = 1;
  Lsn last_appended_lsn_ = 0;
  Lsn durable_lsn_ = 0;
  Lsn requested_lsn_ = 0;  // highest LSN a waiter needs durable
  PageId cursor_;     // next fresh log page
  uint16_t epoch_ = 1;
  bool recovered_ = false;

  TxnId next_txn_ = 1;
  std::unordered_map<TxnId, TxnInfo> active_;
  std::unordered_map<PageId, int> uncommitted_pages_;

  WalStats stats_;
  WalEventListener* listener_ = nullptr;
  recluster::PageForwarding* forwarding_ = nullptr;

  std::thread daemon_;
};

}  // namespace cobra::wal

#endif  // COBRA_WAL_WAL_H_
