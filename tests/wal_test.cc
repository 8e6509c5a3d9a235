// Write-ahead log coverage: record/page framing, log scanning, group
// commit, the no-steal write gate, logged heap-file mutations, object-store
// transactions, crash recovery (committed durable, uncommitted invisible,
// torn pages repaired), checkpoint truncation, and the wal.* telemetry
// plumbing.  The exhaustive crash-point sweep lives in crash_matrix_test.cc
// (label `crash`); the redo-twice idempotence stress in
// wal_recovery_stress_test.cc (label `stress`).

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "buffer/buffer_manager.h"
#include "file/heap_file.h"
#include "object/directory.h"
#include "object/object.h"
#include "object/object_store.h"
#include "obs/registry.h"
#include "obs/telemetry.h"
#include "service/query_service.h"
#include "storage/checksum.h"
#include "storage/disk.h"
#include "storage/faulty_disk.h"
#include "storage/slotted_page.h"
#include "wal/log_record.h"
#include "wal/wal.h"

namespace cobra {
namespace {

using wal::DecodeLogRecord;
using wal::DecodeOutcome;
using wal::EncodeLogRecord;
using wal::LogRecord;
using wal::LogRecordType;
using wal::LogScanResult;
using wal::Lsn;
using wal::ScanLog;
using wal::TxnId;
using wal::WalManager;
using wal::WalOptions;

// Shared layout: data extent at the front, log extent far behind it.
constexpr PageId kDataFirst = 0;
constexpr size_t kDataPages = 8;
constexpr PageId kLogFirst = 64;
constexpr size_t kLogPages = 64;

WalOptions LogOptions(PageId first = kLogFirst, size_t pages = kLogPages) {
  WalOptions options;
  options.log_first_page = first;
  options.log_max_pages = pages;
  return options;
}

std::vector<std::byte> PatternRecord(size_t size, uint8_t tag) {
  std::vector<std::byte> record(size);
  for (size_t i = 0; i < size; ++i) {
    record[i] = static_cast<std::byte>((i * 17 + tag) & 0xFF);
  }
  return record;
}

// ------------------------------------------------------------ record codec

TEST(LogRecordCodec, RoundTripAllTypes) {
  std::vector<LogRecord> in;
  Lsn lsn = 1;
  for (LogRecordType type :
       {LogRecordType::kBegin, LogRecordType::kHeapInsert,
        LogRecordType::kHeapUpdate, LogRecordType::kHeapDelete,
        LogRecordType::kPageFormat, LogRecordType::kPageImage,
        LogRecordType::kCommit, LogRecordType::kAbort,
        LogRecordType::kCheckpoint}) {
    LogRecord rec;
    rec.lsn = lsn++;
    rec.type = type;
    rec.txn = rec.structural() ? 0 : 7;
    rec.page = 42;
    rec.slot = 3;
    if (type == LogRecordType::kHeapInsert ||
        type == LogRecordType::kHeapUpdate) {
      rec.payload = PatternRecord(40, static_cast<uint8_t>(lsn));
    } else if (type == LogRecordType::kPageImage) {
      rec.payload = PatternRecord(256, 9);
    }
    in.push_back(rec);
  }

  std::vector<std::byte> stream;
  for (const LogRecord& rec : in) {
    EncodeLogRecord(rec, &stream);
  }

  size_t offset = 0;
  for (const LogRecord& want : in) {
    LogRecord got;
    ASSERT_EQ(DecodeLogRecord(stream, &offset, &got), DecodeOutcome::kRecord);
    EXPECT_EQ(got.lsn, want.lsn);
    EXPECT_EQ(got.txn, want.txn);
    EXPECT_EQ(got.type, want.type);
    EXPECT_EQ(got.page, want.page);
    EXPECT_EQ(got.slot, want.slot);
    EXPECT_EQ(got.payload, want.payload);
  }
  EXPECT_EQ(offset, stream.size());
}

TEST(LogRecordCodec, CrcCatchesCorruptionAndTruncation) {
  LogRecord rec;
  rec.lsn = 5;
  rec.txn = 2;
  rec.type = LogRecordType::kHeapInsert;
  rec.page = 1;
  rec.slot = 0;
  rec.payload = PatternRecord(64, 1);
  std::vector<std::byte> stream;
  EncodeLogRecord(rec, &stream);

  // Flip one payload byte: the CRC rejects the record.
  std::vector<std::byte> corrupt = stream;
  corrupt[wal::kLogRecordHeaderSize + 10] ^= std::byte{0x04};
  size_t offset = 0;
  LogRecord out;
  EXPECT_EQ(DecodeLogRecord(corrupt, &offset, &out), DecodeOutcome::kCorrupt);

  // Cut the stream mid-record: reported as truncation, not corruption.
  std::span<const std::byte> half(stream.data(), stream.size() - 20);
  offset = 0;
  EXPECT_EQ(DecodeLogRecord(half, &offset, &out), DecodeOutcome::kTruncated);
  offset = 0;
  std::span<const std::byte> header_cut(stream.data(), 10);
  EXPECT_EQ(DecodeLogRecord(header_cut, &offset, &out),
            DecodeOutcome::kTruncated);
}

TEST(LogPageFraming, SealReadRoundTripAndCorruption) {
  const size_t ps = 1024;
  std::vector<std::byte> page(ps, std::byte{0});
  // Payload reaching past the page midpoint, so a half-torn page actually
  // loses content.
  std::vector<std::byte> payload = PatternRecord(900, 5);
  std::memcpy(page.data() + wal::kLogPageHeaderSize, payload.data(),
              payload.size());
  wal::LogPageHeader in;
  in.used = 900;
  in.continues = true;
  in.epoch = 3;
  in.batch_first_lsn = 77;
  wal::SealLogPage(page.data(), ps, in);

  wal::LogPageHeader out;
  ASSERT_TRUE(wal::ReadLogPage(page.data(), ps, &out));
  EXPECT_EQ(out.used, 900);
  EXPECT_TRUE(out.continues);
  EXPECT_EQ(out.epoch, 3);
  EXPECT_EQ(out.batch_first_lsn, 77u);

  // A torn page (half persisted) fails the CRC.
  std::vector<std::byte> torn = page;
  std::fill(torn.begin() + static_cast<long>(ps / 2), torn.end(),
            std::byte{0});
  EXPECT_FALSE(wal::ReadLogPage(torn.data(), ps, &out));
}

// ---------------------------------------------------------------- log scan

TEST(WalScan, EmptyExtentIsFreshLog) {
  SimulatedDisk disk;
  LogScanResult scan = ScanLog(&disk, kLogFirst, kLogPages);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.next_lsn, 1u);
  EXPECT_EQ(scan.next_page, kLogFirst);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.complete_batches, 0u);
}

TEST(WalScan, TornTailIsDiscardedEarlierBatchesSurvive) {
  SimulatedDisk disk;
  size_t first_batch_records = 0;
  {
    WalManager wal(&disk, LogOptions());
    ASSERT_TRUE(wal.Recover().ok());
    auto t1 = wal.Begin();
    ASSERT_TRUE(t1.ok());
    auto body = PatternRecord(40, 1);
    ASSERT_TRUE(wal.LogHeapInsert(*t1, 0, 0, body).ok());
    ASSERT_TRUE(wal.Commit(*t1).ok());  // batch 1: begin, insert, commit
    first_batch_records = 3;
    auto t2 = wal.Begin();
    ASSERT_TRUE(t2.ok());
    ASSERT_TRUE(wal.LogHeapInsert(*t2, 0, 1, body).ok());
    ASSERT_TRUE(wal.Commit(*t2).ok());  // batch 2
  }

  LogScanResult intact = ScanLog(&disk, kLogFirst, kLogPages);
  ASSERT_EQ(intact.records.size(), 6u);
  ASSERT_GE(intact.next_page, kLogFirst + 2);

  // Tear the last written log page — flip a byte inside its used payload —
  // and the scan drops exactly the final batch.  (Zeroing the unused tail
  // would be a harmless no-op: the tail is already zero and the CRC covers
  // it as such.)
  std::vector<std::byte> raw(disk.page_size());
  ASSERT_TRUE(disk.ReadPage(intact.next_page - 1, raw.data()).ok());
  raw[wal::kLogPageHeaderSize + 5] ^= std::byte{0x01};
  ASSERT_TRUE(disk.WritePage(intact.next_page - 1, raw.data()).ok());

  LogScanResult torn = ScanLog(&disk, kLogFirst, kLogPages);
  EXPECT_TRUE(torn.torn_tail);
  EXPECT_EQ(torn.records.size(), first_batch_records);
  for (size_t i = 0; i < torn.records.size(); ++i) {
    EXPECT_EQ(torn.records[i].lsn, i + 1);  // dense LSNs from 1
  }
}

// --------------------------------------------------------- manager basics

TEST(WalManager, AppendsRequireRecover) {
  SimulatedDisk disk;
  WalManager wal(&disk, LogOptions());
  EXPECT_TRUE(wal.Begin().status().IsInvalidArgument());
  // The gate stays open while the WAL is idle: read-only stacks that never
  // bootstrap the log must keep writing pages unchanged.
  std::vector<std::byte> page(disk.page_size(), std::byte{0});
  EXPECT_TRUE(wal.BeforePageWrite(0, page.data(), page.size()).ok());
  ASSERT_TRUE(wal.Recover().ok());
  EXPECT_TRUE(wal.Begin().ok());
  EXPECT_TRUE(wal.Recover().IsInvalidArgument());  // once only
}

TEST(WalManager, GroupCommitMakesDenseDurableLog) {
  SimulatedDisk disk;
  WalManager wal(&disk, LogOptions());
  ASSERT_TRUE(wal.Recover().ok());
  auto txn = wal.Begin();
  ASSERT_TRUE(txn.ok());
  for (int i = 0; i < 3; ++i) {
    auto body = PatternRecord(40, static_cast<uint8_t>(i));
    ASSERT_TRUE(wal.LogHeapInsert(*txn, 0, static_cast<uint16_t>(i), body)
                    .ok());
  }
  ASSERT_TRUE(wal.Commit(*txn).ok());
  EXPECT_EQ(wal.durable_lsn(), 5u);  // begin + 3 inserts + commit
  EXPECT_EQ(wal.active_txns(), 0u);

  wal::WalStats stats = wal.stats();
  EXPECT_EQ(stats.records_appended, 5u);
  EXPECT_EQ(stats.begins, 1u);
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_GE(stats.batches_flushed, 1u);
  EXPECT_GE(stats.log_pages_written, 1u);

  LogScanResult scan = ScanLog(&disk, kLogFirst, kLogPages);
  ASSERT_EQ(scan.records.size(), 5u);
  EXPECT_EQ(scan.records.front().type, LogRecordType::kBegin);
  EXPECT_EQ(scan.records.back().type, LogRecordType::kCommit);
  EXPECT_EQ(scan.next_lsn, 6u);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.complete_batches, stats.batches_flushed);
}

TEST(WalManager, DaemonWritesOnlyWhenAWaiterAsks) {
  // The daemon thread starts with the manager and may first run while the
  // transaction below is still appending; those records must wait for the
  // commit that asks for them, so every fresh log holds exactly one batch
  // whatever the scheduling, and crash-point sweeps see the same writes on
  // every run.
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    SimulatedDisk disk;
    WalManager wal(&disk, LogOptions());
    ASSERT_TRUE(wal.Recover().ok());
    auto txn = wal.Begin();
    ASSERT_TRUE(txn.ok());
    auto body = PatternRecord(40, static_cast<uint8_t>(round));
    for (uint16_t slot = 0; slot < 50; ++slot) {
      ASSERT_TRUE(wal.LogHeapInsert(*txn, 0, slot, body).ok());
    }
    ASSERT_TRUE(wal.Commit(*txn).ok());
    wal::WalStats stats = wal.stats();
    EXPECT_EQ(stats.batches_flushed, 1u);
    EXPECT_EQ(disk.stats().writes, stats.log_pages_written);
  }
}

TEST(WalManager, UnknownTxnRejected) {
  SimulatedDisk disk;
  WalManager wal(&disk, LogOptions());
  ASSERT_TRUE(wal.Recover().ok());
  auto body = PatternRecord(16, 0);
  EXPECT_TRUE(wal.LogHeapInsert(99, 0, 0, body).status().IsInvalidArgument());
  EXPECT_TRUE(wal.Commit(99).IsInvalidArgument());
  EXPECT_TRUE(wal.Abort(99).IsInvalidArgument());
  auto txn = wal.Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(wal.Commit(*txn).ok());
  EXPECT_TRUE(wal.Commit(*txn).IsInvalidArgument());  // already closed
}

TEST(WalManager, FullLogExtentSurfacesResourceExhausted) {
  SimulatedDisk disk;
  WalManager wal(&disk, LogOptions(kLogFirst, /*pages=*/1));
  ASSERT_TRUE(wal.Recover().ok());
  auto txn = wal.Begin();
  ASSERT_TRUE(txn.ok());
  // Two 600-byte bodies cannot fit one 1 KB log page: the flush must fail
  // rather than wrap or overwrite.
  for (int i = 0; i < 2; ++i) {
    auto body = PatternRecord(600, static_cast<uint8_t>(i));
    ASSERT_TRUE(wal.LogHeapInsert(*txn, 0, static_cast<uint16_t>(i), body)
                    .ok());
  }
  EXPECT_TRUE(wal.Commit(*txn).IsResourceExhausted());
  // The failure is sticky: the log is dead until truncated.
  EXPECT_TRUE(wal.Begin().status().IsResourceExhausted());
}

// ------------------------------------------------------ logged heap files

TEST(LoggedHeapFile, RejectsUnloggedMutations) {
  SimulatedDisk disk;
  WalManager wal(&disk, LogOptions());
  ASSERT_TRUE(wal.Recover().ok());
  BufferManager buffer(&disk, BufferOptions{.num_frames = 16});
  buffer.set_write_gate(&wal);
  HeapFile file(&buffer, kDataFirst, kDataPages);
  file.set_wal(&wal);

  auto body = PatternRecord(40, 1);
  EXPECT_TRUE(file.Append(body).status().IsInvalidArgument());
  EXPECT_TRUE(file.InsertAtPage(0, body).status().IsInvalidArgument());
  EXPECT_TRUE(file.Delete(RecordId{kDataFirst, 0}).IsInvalidArgument());
  EXPECT_TRUE(
      file.Update(RecordId{kDataFirst, 0}, body).IsInvalidArgument());
  EXPECT_EQ(file.record_count(), 0u);
}

TEST(LoggedHeapFile, TxnMutationsStampMonotonePageLsn) {
  SimulatedDisk disk;
  WalManager wal(&disk, LogOptions());
  ASSERT_TRUE(wal.Recover().ok());
  BufferManager buffer(&disk, BufferOptions{.num_frames = 16});
  buffer.set_write_gate(&wal);
  HeapFile file(&buffer, kDataFirst, kDataPages);
  file.set_wal(&wal);

  auto txn = wal.Begin();
  ASSERT_TRUE(txn.ok());
  auto rid = file.AppendTxn(*txn, PatternRecord(40, 1));
  ASSERT_TRUE(rid.ok());

  auto page_lsn = [&](PageId page) {
    auto guard = buffer.FetchPage(page);
    EXPECT_TRUE(guard.ok());
    SlottedPage view(guard->data().data(), disk.page_size());
    return view.lsn();
  };
  uint64_t after_insert = page_lsn(rid->page);
  EXPECT_GT(after_insert, 0u);

  ASSERT_TRUE(file.UpdateTxn(*txn, *rid, PatternRecord(40, 2)).ok());
  uint64_t after_update = page_lsn(rid->page);
  EXPECT_GT(after_update, after_insert);

  ASSERT_TRUE(file.DeleteTxn(*txn, *rid).ok());
  EXPECT_GT(page_lsn(rid->page), after_update);
  ASSERT_TRUE(wal.Commit(*txn).ok());
}

TEST(WalNoSteal, UncommittedPagesNeverReachDisk) {
  SimulatedDisk disk;
  WalManager wal(&disk, LogOptions());
  ASSERT_TRUE(wal.Recover().ok());
  BufferManager buffer(&disk, BufferOptions{.num_frames = 16});
  buffer.set_write_gate(&wal);
  HeapFile file(&buffer, kDataFirst, kDataPages);
  file.set_wal(&wal);

  auto txn = wal.Begin();
  ASSERT_TRUE(txn.ok());
  auto rid = file.AppendTxn(*txn, PatternRecord(40, 1));
  ASSERT_TRUE(rid.ok());
  EXPECT_TRUE(wal.IsUncommitted(rid->page));

  // Flushing is a silent no-op for the uncommitted page.
  ASSERT_TRUE(buffer.FlushPage(rid->page).ok());
  ASSERT_TRUE(buffer.FlushAll().ok());
  EXPECT_FALSE(disk.Exists(rid->page));

  ASSERT_TRUE(wal.Commit(*txn).ok());
  EXPECT_FALSE(wal.IsUncommitted(rid->page));
  ASSERT_TRUE(buffer.FlushAll().ok());
  EXPECT_TRUE(disk.Exists(rid->page));
  // The write-back passed through the gate: a page image is in the log.
  EXPECT_GE(wal.stats().images_logged, 1u);
}

TEST(WalNoSteal, FullPoolOfUncommittedPagesRefusesToSteal) {
  SimulatedDisk disk;
  WalManager wal(&disk, LogOptions());
  ASSERT_TRUE(wal.Recover().ok());
  BufferManager buffer(&disk, BufferOptions{.num_frames = 1});
  buffer.set_write_gate(&wal);
  HeapFile file(&buffer, kDataFirst, kDataPages);
  file.set_wal(&wal);

  auto txn = wal.Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(file.AppendTxn(*txn, PatternRecord(40, 1)).ok());

  // The only frame holds uncommitted data: it must not be stolen, so there
  // is no frame for a new page.
  EXPECT_TRUE(buffer.CreatePage(40).status().IsResourceExhausted());

  ASSERT_TRUE(wal.Commit(*txn).ok());
  // Committed, the frame is evictable (write-back goes through the gate).
  EXPECT_TRUE(buffer.CreatePage(40).ok());
  EXPECT_TRUE(disk.Exists(kDataFirst));
}

// ------------------------------------------------------------- recovery

// Reads all live records of the data extent after reattaching, in scan
// order.
std::vector<std::vector<std::byte>> ScanExtent(BufferManager* buffer) {
  std::vector<std::vector<std::byte>> records;
  auto file = HeapFile::Open(buffer, kDataFirst, kDataPages);
  EXPECT_TRUE(file.ok());
  if (!file.ok()) return records;
  auto cursor = file->Scan();
  RecordId rid;
  std::vector<std::byte> record;
  for (;;) {
    auto more = cursor.Next(&rid, &record);
    EXPECT_TRUE(more.ok());
    if (!more.ok() || !*more) break;
    records.push_back(record);
  }
  return records;
}

void ExpectDataExtentChecksumClean(SimulatedDisk* disk) {
  std::vector<std::byte> raw(disk->page_size());
  for (PageId id = kDataFirst; id < kDataFirst + kDataPages; ++id) {
    if (!disk->Exists(id)) continue;
    ASSERT_TRUE(disk->ReadPage(id, raw.data()).ok());
    EXPECT_TRUE(VerifyPageChecksum(raw.data(), raw.size(), id).ok())
        << "page " << id;
  }
}

TEST(WalRecovery, CommittedDurableUncommittedInvisible) {
  FaultInjectingDisk disk(FaultProfile{});
  auto r1 = PatternRecord(40, 1);
  auto r2 = PatternRecord(40, 2);
  auto r3 = PatternRecord(40, 3);
  {
    WalManager wal(&disk, LogOptions());
    ASSERT_TRUE(wal.Recover().ok());
    BufferManager buffer(&disk, BufferOptions{.num_frames = 16});
    buffer.set_write_gate(&wal);
    HeapFile file(&buffer, kDataFirst, kDataPages);
    file.set_wal(&wal);

    auto t1 = wal.Begin();
    ASSERT_TRUE(t1.ok());
    ASSERT_TRUE(file.AppendTxn(*t1, r1).ok());
    ASSERT_TRUE(file.AppendTxn(*t1, r2).ok());
    ASSERT_TRUE(wal.Commit(*t1).ok());

    // A second transaction appends and even gets its records durably into
    // the log (Flush), but never commits.
    auto t2 = wal.Begin();
    ASSERT_TRUE(t2.ok());
    ASSERT_TRUE(file.AppendTxn(*t2, r3).ok());
    ASSERT_TRUE(wal.Flush().ok());

    // Power cut: every write from here on fails; no data page was ever
    // written back.
    disk.ScheduleCrash(0, CrashWriteMode::kDropWrite);
  }

  // Restart.
  disk.ClearCrash();
  WalManager wal(&disk, LogOptions());
  ASSERT_TRUE(wal.Recover().ok());
  wal::WalStats stats = wal.stats();
  EXPECT_EQ(stats.recovered_commits, 1u);
  EXPECT_EQ(stats.discarded_txns, 1u);
  EXPECT_GE(stats.redo_applied, 2u);  // the two committed inserts
  EXPECT_GE(stats.redo_skipped_uncommitted, 1u);
  EXPECT_GE(stats.pages_repaired, 1u);

  ExpectDataExtentChecksumClean(&disk);
  BufferManager buffer(&disk, BufferOptions{.num_frames = 16});
  buffer.set_write_gate(&wal);
  auto records = ScanExtent(&buffer);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], r1);
  EXPECT_EQ(records[1], r2);
}

TEST(WalRecovery, TornDataPageRepairedFromLoggedImage) {
  SimulatedDisk disk;
  auto r1 = PatternRecord(40, 1);
  auto r2 = PatternRecord(40, 2);
  {
    WalManager wal(&disk, LogOptions());
    ASSERT_TRUE(wal.Recover().ok());
    BufferManager buffer(&disk, BufferOptions{.num_frames = 16});
    buffer.set_write_gate(&wal);
    HeapFile file(&buffer, kDataFirst, kDataPages);
    file.set_wal(&wal);
    auto txn = wal.Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(file.AppendTxn(*txn, r1).ok());
    ASSERT_TRUE(file.AppendTxn(*txn, r2).ok());
    ASSERT_TRUE(wal.Commit(*txn).ok());
    ASSERT_TRUE(buffer.FlushAll().ok());  // image logged, page written
    ASSERT_TRUE(buffer.DropAll().ok());
  }

  // Tear the data page behind everyone's back: keep the head, zero the
  // tail — exactly what a power cut mid-sector-run leaves.
  std::vector<std::byte> raw(disk.page_size());
  ASSERT_TRUE(disk.ReadPage(kDataFirst, raw.data()).ok());
  std::fill(raw.begin() + static_cast<long>(disk.page_size() / 2), raw.end(),
            std::byte{0});
  ASSERT_TRUE(disk.WritePage(kDataFirst, raw.data()).ok());
  ASSERT_FALSE(
      VerifyPageChecksum(raw.data(), raw.size(), kDataFirst).ok());

  WalManager wal(&disk, LogOptions());
  ASSERT_TRUE(wal.Recover().ok());
  EXPECT_GE(wal.stats().redo_images, 1u);
  EXPECT_GE(wal.stats().pages_repaired, 1u);

  ExpectDataExtentChecksumClean(&disk);
  BufferManager buffer(&disk, BufferOptions{.num_frames = 16});
  buffer.set_write_gate(&wal);
  auto records = ScanExtent(&buffer);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], r1);
  EXPECT_EQ(records[1], r2);
}

TEST(WalRecovery, RunningRecoveryTwiceIsBitIdentical) {
  FaultInjectingDisk disk(FaultProfile{});
  {
    WalManager wal(&disk, LogOptions());
    ASSERT_TRUE(wal.Recover().ok());
    BufferManager buffer(&disk, BufferOptions{.num_frames = 16});
    buffer.set_write_gate(&wal);
    HeapFile file(&buffer, kDataFirst, kDataPages);
    file.set_wal(&wal);
    auto txn = wal.Begin();
    ASSERT_TRUE(txn.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          file.AppendTxn(*txn, PatternRecord(40, static_cast<uint8_t>(i)))
              .ok());
    }
    ASSERT_TRUE(wal.Commit(*txn).ok());
    disk.ScheduleCrash(0, CrashWriteMode::kDropWrite);
  }
  disk.ClearCrash();

  auto snapshot = [&] {
    std::vector<std::vector<std::byte>> pages;
    std::vector<std::byte> raw(disk.page_size());
    for (PageId id = kDataFirst; id < kDataFirst + kDataPages; ++id) {
      if (disk.Exists(id)) {
        EXPECT_TRUE(disk.ReadPage(id, raw.data()).ok());
        pages.push_back(raw);
      } else {
        pages.emplace_back();
      }
    }
    return pages;
  };

  {
    WalManager wal(&disk, LogOptions());
    ASSERT_TRUE(wal.Recover().ok());
    EXPECT_GT(wal.stats().redo_applied, 0u);
  }
  auto first = snapshot();
  {
    // A crash during recovery means recovery runs again from the top: the
    // replay must be idempotent.
    WalManager wal(&disk, LogOptions());
    ASSERT_TRUE(wal.Recover().ok());
    EXPECT_GT(wal.stats().redo_skipped_stale, 0u);
  }
  EXPECT_EQ(first, snapshot());
}

TEST(WalCheckpoint, TruncatesLogAndRecoversAcrossIt) {
  FaultInjectingDisk disk(FaultProfile{});
  auto r1 = PatternRecord(40, 1);
  auto r2 = PatternRecord(40, 2);
  {
    WalManager wal(&disk, LogOptions());
    ASSERT_TRUE(wal.Recover().ok());
    BufferManager buffer(&disk, BufferOptions{.num_frames = 16});
    buffer.set_write_gate(&wal);
    HeapFile file(&buffer, kDataFirst, kDataPages);
    file.set_wal(&wal);

    auto t1 = wal.Begin();
    ASSERT_TRUE(t1.ok());
    ASSERT_TRUE(file.AppendTxn(*t1, r1).ok());
    ASSERT_TRUE(wal.Commit(*t1).ok());
    ASSERT_TRUE(wal.Checkpoint(&buffer).ok());
    EXPECT_EQ(wal.stats().checkpoints, 1u);

    // The truncated log holds exactly the checkpoint record, a bumped
    // epoch, and restarts at the extent head.
    LogScanResult scan = ScanLog(&disk, kLogFirst, kLogPages);
    ASSERT_EQ(scan.records.size(), 1u);
    EXPECT_EQ(scan.records[0].type, LogRecordType::kCheckpoint);
    EXPECT_EQ(scan.epoch, 2u);

    auto t2 = wal.Begin();
    ASSERT_TRUE(t2.ok());
    ASSERT_TRUE(file.AppendTxn(*t2, r2).ok());
    ASSERT_TRUE(wal.Commit(*t2).ok());
    disk.ScheduleCrash(0, CrashWriteMode::kDropWrite);
  }

  disk.ClearCrash();
  WalManager wal(&disk, LogOptions());
  ASSERT_TRUE(wal.Recover().ok());
  // Only the post-checkpoint transaction replays; the pre-checkpoint data
  // is already durable on its page.
  EXPECT_EQ(wal.stats().recovered_commits, 1u);
  ExpectDataExtentChecksumClean(&disk);
  BufferManager buffer(&disk, BufferOptions{.num_frames = 16});
  buffer.set_write_gate(&wal);
  auto records = ScanExtent(&buffer);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], r1);
  EXPECT_EQ(records[1], r2);
}

TEST(WalCheckpoint, RequiresQuiescence) {
  SimulatedDisk disk;
  WalManager wal(&disk, LogOptions());
  ASSERT_TRUE(wal.Recover().ok());
  BufferManager buffer(&disk, BufferOptions{.num_frames = 16});
  buffer.set_write_gate(&wal);
  auto txn = wal.Begin();
  ASSERT_TRUE(txn.ok());
  EXPECT_TRUE(wal.Checkpoint(&buffer).IsInvalidArgument());
  ASSERT_TRUE(wal.Commit(*txn).ok());
  EXPECT_TRUE(wal.Checkpoint(&buffer).ok());
}

// ---------------------------------------------------- object-store txns

ObjectData MakeObject(Oid oid, int32_t tag) {
  ObjectData obj;
  obj.oid = oid;
  obj.type_id = 1;
  obj.fields = {tag, tag + 1, tag + 2, tag + 3};
  obj.refs = {};
  return obj;
}

TEST(ObjectStoreTxn, CommitMakesVisibleAbortRollsBack) {
  SimulatedDisk disk;
  WalManager wal(&disk, LogOptions());
  ASSERT_TRUE(wal.Recover().ok());
  BufferManager buffer(&disk, BufferOptions{.num_frames = 32});
  buffer.set_write_gate(&wal);
  HeapFile file(&buffer, kDataFirst, kDataPages);
  file.set_wal(&wal);
  HashDirectory directory;
  ObjectStore store(&buffer, &directory);
  store.set_wal(&wal);

  ObjectData a = MakeObject(kInvalidOid, 100);
  auto t1 = store.BeginTxn();
  ASSERT_TRUE(t1.ok());
  auto a_oid = store.InsertTxn(*t1, a, &file);
  ASSERT_TRUE(a_oid.ok());
  ASSERT_TRUE(store.CommitTxn(*t1).ok());
  a.oid = *a_oid;
  auto got = store.Get(*a_oid);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, a);

  // Abort: the inserted object vanishes, the update is physically undone.
  auto t2 = store.BeginTxn();
  ASSERT_TRUE(t2.ok());
  auto b_oid = store.InsertTxn(*t2, MakeObject(kInvalidOid, 200), &file);
  ASSERT_TRUE(b_oid.ok());
  ObjectData a2 = a;
  a2.fields[0] = 999;
  ASSERT_TRUE(store.UpdateTxn(*t2, a2, &file).ok());
  ASSERT_TRUE(store.AbortTxn(*t2).ok());
  EXPECT_TRUE(store.Get(*b_oid).status().IsNotFound());
  got = store.Get(*a_oid);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, a);  // pre-update image restored

  // Removal commits durably.
  auto t3 = store.BeginTxn();
  ASSERT_TRUE(t3.ok());
  ASSERT_TRUE(store.RemoveTxn(*t3, *a_oid, &file).ok());
  ASSERT_TRUE(store.CommitTxn(*t3).ok());
  EXPECT_TRUE(store.Get(*a_oid).status().IsNotFound());

  EXPECT_EQ(store.stats().txns_committed, 2u);
  EXPECT_EQ(store.stats().txns_aborted, 1u);
  EXPECT_EQ(wal.active_txns(), 0u);
}

// -------------------------------------------------------------- telemetry

TEST(WalObs, FlushEventsBindLazilyIntoRegistry) {
  obs::Registry registry;
  obs::RegistryPublisher publisher(&registry);
  SimulatedDisk disk;
  WalManager wal(&disk, LogOptions());
  wal.set_listener(&publisher);
  ASSERT_TRUE(wal.Recover().ok());

  // No flush yet: the wal.* instruments must not exist (lazy binding keeps
  // read-only registry dumps identical to the pre-WAL goldens).
  EXPECT_EQ(registry.FindCounter("wal.flushes"), nullptr);

  auto txn = wal.Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(wal.LogHeapInsert(*txn, 0, 0, PatternRecord(40, 1)).ok());
  ASSERT_TRUE(wal.Commit(*txn).ok());

  const obs::Counter* flushes = registry.FindCounter("wal.flushes");
  ASSERT_NE(flushes, nullptr);
  EXPECT_GE(flushes->value(), 1u);
  const obs::Counter* records = registry.FindCounter("wal.records");
  ASSERT_NE(records, nullptr);
  EXPECT_EQ(records->value(), 3u);  // begin + insert + commit
  const obs::Counter* pages = registry.FindCounter("wal.pages");
  ASSERT_NE(pages, nullptr);
  EXPECT_GE(pages->value(), 1u);
}

// ------------------------------------------------------- service writes

TEST(ServiceWrite, ExecuteWriteCommitAndAbort) {
  SimulatedDisk disk;
  WalManager wal(&disk, LogOptions());
  ASSERT_TRUE(wal.Recover().ok());
  BufferManager buffer(&disk, BufferOptions{.num_frames = 32});
  buffer.set_write_gate(&wal);
  HeapFile file(&buffer, kDataFirst, kDataPages);
  file.set_wal(&wal);
  HashDirectory directory;

  service::ServiceOptions options;
  options.num_workers = 1;
  options.wal = &wal;
  options.write_file = &file;
  options.next_oid = 1;
  service::QueryService service(&buffer, &directory, options);

  service::WriteJob insert_job;
  insert_job.client = "w0";
  for (int i = 0; i < 2; ++i) {
    service::WriteOp op;
    op.kind = service::WriteOp::Kind::kInsert;
    op.obj = MakeObject(static_cast<Oid>(10 + i), 100 + i);
    insert_job.ops.push_back(op);
  }
  service::WriteResult committed = service.ExecuteWrite(insert_job);
  ASSERT_TRUE(committed.status.ok()) << committed.status.ToString();
  EXPECT_EQ(committed.ops_applied, 2u);
  EXPECT_FALSE(committed.aborted);
  EXPECT_GT(committed.txn, 0u);

  // An aborted job leaves no trace.
  service::WriteJob abort_job;
  abort_job.client = "w1";
  abort_job.abort = true;
  service::WriteOp update;
  update.kind = service::WriteOp::Kind::kUpdate;
  update.obj = MakeObject(10, 777);
  abort_job.ops.push_back(update);
  service::WriteOp extra;
  extra.kind = service::WriteOp::Kind::kInsert;
  extra.obj = MakeObject(12, 300);
  abort_job.ops.push_back(extra);
  service::WriteResult aborted = service.ExecuteWrite(abort_job);
  ASSERT_TRUE(aborted.status.ok()) << aborted.status.ToString();
  EXPECT_TRUE(aborted.aborted);

  // A remove commits.
  service::WriteJob remove_job;
  service::WriteOp remove;
  remove.kind = service::WriteOp::Kind::kRemove;
  remove.oid = 11;
  remove_job.ops.push_back(remove);
  service::WriteResult removed = service.ExecuteWrite(remove_job);
  ASSERT_TRUE(removed.status.ok());

  service.Drain();
  ObjectStore reader(&buffer, &directory);
  auto obj10 = reader.Get(10);
  ASSERT_TRUE(obj10.ok());
  EXPECT_EQ(obj10->fields[0], 100);  // aborted update never stuck
  EXPECT_TRUE(reader.Get(11).status().IsNotFound());
  EXPECT_TRUE(reader.Get(12).status().IsNotFound());
  EXPECT_EQ(wal.stats().commits, 2u);
  EXPECT_EQ(wal.stats().aborts, 1u);
}

TEST(ServiceWrite, RequiresConfiguredWritePath) {
  SimulatedDisk disk;
  BufferManager buffer(&disk, BufferOptions{.num_frames = 8});
  HashDirectory directory;
  service::QueryService service(&buffer, &directory, {});
  service::WriteJob job;
  service::WriteOp op;
  op.kind = service::WriteOp::Kind::kInsert;
  op.obj = MakeObject(1, 1);
  job.ops.push_back(op);
  EXPECT_TRUE(service.ExecuteWrite(job).status.IsInvalidArgument());
}

}  // namespace
}  // namespace cobra
