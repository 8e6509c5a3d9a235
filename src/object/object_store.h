// ObjectStore: the storage-layer object API.
//
// Writes go into a caller-chosen HeapFile (that is how the workload
// generator realizes clustering policies — §6.1), reads resolve the OID
// through the Directory and fetch the record through the buffer manager.
// Locate() exposes the physical page of an object without I/O; the assembly
// schedulers are built on it.

#ifndef COBRA_OBJECT_OBJECT_STORE_H_
#define COBRA_OBJECT_OBJECT_STORE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/result.h"
#include "common/status.h"
#include "file/heap_file.h"
#include "object/directory.h"
#include "object/object.h"
#include "object/oid.h"
#include "wal/wal.h"

namespace cobra {

struct ObjectStoreStats {
  uint64_t objects_read = 0;
  uint64_t objects_written = 0;
  uint64_t txns_committed = 0;
  uint64_t txns_aborted = 0;
};

class ObjectStore {
 public:
  // Does not take ownership of `buffer` or `directory`.
  ObjectStore(BufferManager* buffer, Directory* directory)
      : buffer_(buffer), directory_(directory) {}

  // Returns a fresh, never-used OID.
  Oid AllocateOid() { return next_oid_++; }

  // The next OID AllocateOid() would hand out.  A store reattached to
  // existing data must be seeded past all stored OIDs via set_next_oid().
  Oid next_oid() const { return next_oid_; }
  void set_next_oid(Oid oid) { next_oid_ = oid; }

  // Appends `obj` to `file`, registering it in the directory.  If obj.oid is
  // kInvalidOid a fresh OID is assigned; the returned value is the OID used.
  Result<Oid> Insert(const ObjectData& obj, HeapFile* file);

  // Places `obj` into page `page_index` of `file`'s extent (explicit
  // physical placement for clustering control).
  Result<Oid> InsertAtPage(const ObjectData& obj, HeapFile* file,
                           size_t page_index);

  // Reads and decodes the object.  NotFound if the OID is unregistered.
  Result<ObjectData> Get(Oid oid) const;

  // Get without the directory lookup: decodes the record at `location`,
  // which Locate(oid) returned, into `*out`, reusing its storage.
  // Corruption if the record there is not `oid`.  Get is Locate plus
  // ReadAt.
  Status ReadAt(Oid oid, RecordId location, ObjectData* out) const;

  // Physical location without I/O (with a HashDirectory).
  Result<RecordId> Locate(Oid oid) const { return directory_->Lookup(oid); }

  // In-place overwrite; the serialized size must be unchanged.
  Status Update(const ObjectData& obj);

  Status Remove(Oid oid);

  // --- Transactions ------------------------------------------------------
  //
  // Available once a WAL is attached (set_wal).  Mutations are logged by
  // the heap file; the store additionally keeps an in-memory undo list of
  // before-images so an explicit AbortTxn can physically revert the
  // buffered pages (the disk never sees uncommitted data — no-steal — so
  // undo is never needed after a crash).  Not thread-safe: the service
  // layer serializes writers (service/query_service.h).
  void set_wal(wal::WalManager* wal) { wal_ = wal; }
  wal::WalManager* wal() const { return wal_; }

  Result<wal::TxnId> BeginTxn();
  // Logged insert into `file` (which must share this store's WAL).
  Result<Oid> InsertTxn(wal::TxnId txn, const ObjectData& obj, HeapFile* file);
  // Logged same-size overwrite of the stored object with obj.oid.
  Status UpdateTxn(wal::TxnId txn, const ObjectData& obj, HeapFile* file);
  // Logged removal.
  Status RemoveTxn(wal::TxnId txn, Oid oid, HeapFile* file);
  // Durably commits: returns OK only after the commit record is on disk.
  Status CommitTxn(wal::TxnId txn);
  // Reverts every buffered effect of the transaction (reverse order), then
  // logs the abort.
  Status AbortTxn(wal::TxnId txn);

  BufferManager* buffer() const { return buffer_; }
  Directory* directory() const { return directory_; }
  const ObjectStoreStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ObjectStoreStats(); }

 private:
  struct UndoEntry {
    enum class Kind { kInsert, kUpdate, kRemove };
    Kind kind;
    Oid oid;
    RecordId location;
    HeapFile* file;
    std::vector<std::byte> before;  // pre-image for kUpdate / kRemove
  };

  Result<Oid> InsertCommon(const ObjectData& obj, HeapFile* file,
                           bool explicit_page, size_t page_index);

  BufferManager* buffer_;
  Directory* directory_;
  wal::WalManager* wal_ = nullptr;
  Oid next_oid_ = 1;
  std::unordered_map<wal::TxnId, std::vector<UndoEntry>> txns_;
  mutable ObjectStoreStats stats_;
};

}  // namespace cobra

#endif  // COBRA_OBJECT_OBJECT_STORE_H_
