#include "object/object_store.h"

#include <string>

#include "storage/slotted_page.h"

namespace cobra {

Result<Oid> ObjectStore::InsertCommon(const ObjectData& obj, HeapFile* file,
                                      bool explicit_page, size_t page_index) {
  ObjectData to_write = obj;
  if (to_write.oid == kInvalidOid) {
    to_write.oid = AllocateOid();
  } else if (to_write.oid >= next_oid_) {
    // Keep the allocator ahead of externally chosen OIDs.
    next_oid_ = to_write.oid + 1;
  }
  if (directory_->Lookup(to_write.oid).ok()) {
    return Status::AlreadyExists("OID " + std::to_string(to_write.oid) +
                                 " already stored");
  }
  std::vector<std::byte> record = to_write.Serialize();
  RecordId location;
  if (explicit_page) {
    COBRA_ASSIGN_OR_RETURN(location, file->InsertAtPage(page_index, record));
  } else {
    COBRA_ASSIGN_OR_RETURN(location, file->Append(record));
  }
  COBRA_RETURN_IF_ERROR(directory_->Put(to_write.oid, location));
  stats_.objects_written++;
  return to_write.oid;
}

Result<Oid> ObjectStore::Insert(const ObjectData& obj, HeapFile* file) {
  return InsertCommon(obj, file, /*explicit_page=*/false, 0);
}

Result<Oid> ObjectStore::InsertAtPage(const ObjectData& obj, HeapFile* file,
                                      size_t page_index) {
  return InsertCommon(obj, file, /*explicit_page=*/true, page_index);
}

Result<ObjectData> ObjectStore::Get(Oid oid) const {
  COBRA_ASSIGN_OR_RETURN(RecordId location, directory_->Lookup(oid));
  ObjectData obj;
  COBRA_RETURN_IF_ERROR(ReadAt(oid, location, &obj));
  return obj;
}

Status ObjectStore::ReadAt(Oid oid, RecordId location, ObjectData* out) const {
  COBRA_ASSIGN_OR_RETURN(PageGuard guard, buffer_->FetchPage(location.page));
  SlottedPage page(guard.data().data(), guard.data().size());
  COBRA_ASSIGN_OR_RETURN(std::span<const std::byte> body,
                         page.Get(location.slot));
  COBRA_RETURN_IF_ERROR(ObjectData::DeserializeInto(body, out));
  if (out->oid != oid) {
    return Status::Corruption("directory points at record with OID " +
                              std::to_string(out->oid) + ", expected " +
                              std::to_string(oid));
  }
  stats_.objects_read++;
  return Status::OK();
}

Status ObjectStore::Update(const ObjectData& obj) {
  COBRA_ASSIGN_OR_RETURN(RecordId location, directory_->Lookup(obj.oid));
  COBRA_ASSIGN_OR_RETURN(PageGuard guard, buffer_->FetchPage(location.page));
  SlottedPage page(guard.data().data(), guard.data().size());
  std::vector<std::byte> record = obj.Serialize();
  COBRA_RETURN_IF_ERROR(page.Update(location.slot, record));
  guard.MarkDirty();
  return Status::OK();
}

Status ObjectStore::Remove(Oid oid) {
  COBRA_ASSIGN_OR_RETURN(RecordId location, directory_->Lookup(oid));
  COBRA_ASSIGN_OR_RETURN(PageGuard guard, buffer_->FetchPage(location.page));
  SlottedPage page(guard.data().data(), guard.data().size());
  COBRA_RETURN_IF_ERROR(page.Delete(location.slot));
  guard.MarkDirty();
  return directory_->Remove(oid);
}

Result<wal::TxnId> ObjectStore::BeginTxn() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument("BeginTxn without an attached WAL");
  }
  COBRA_ASSIGN_OR_RETURN(wal::TxnId txn, wal_->Begin());
  txns_[txn];  // materialize an empty undo list
  return txn;
}

Result<Oid> ObjectStore::InsertTxn(wal::TxnId txn, const ObjectData& obj,
                                   HeapFile* file) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) {
    return Status::InvalidArgument("unknown transaction");
  }
  ObjectData to_write = obj;
  if (to_write.oid == kInvalidOid) {
    to_write.oid = AllocateOid();
  } else if (to_write.oid >= next_oid_) {
    next_oid_ = to_write.oid + 1;
  }
  if (directory_->Lookup(to_write.oid).ok()) {
    return Status::AlreadyExists("OID " + std::to_string(to_write.oid) +
                                 " already stored");
  }
  std::vector<std::byte> record = to_write.Serialize();
  COBRA_ASSIGN_OR_RETURN(RecordId location, file->AppendTxn(txn, record));
  COBRA_RETURN_IF_ERROR(directory_->Put(to_write.oid, location));
  it->second.push_back(
      {UndoEntry::Kind::kInsert, to_write.oid, location, file, {}});
  stats_.objects_written++;
  return to_write.oid;
}

Status ObjectStore::UpdateTxn(wal::TxnId txn, const ObjectData& obj,
                              HeapFile* file) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) {
    return Status::InvalidArgument("unknown transaction");
  }
  COBRA_ASSIGN_OR_RETURN(RecordId location, directory_->Lookup(obj.oid));
  COBRA_ASSIGN_OR_RETURN(std::vector<std::byte> before, file->Get(location));
  std::vector<std::byte> record = obj.Serialize();
  COBRA_RETURN_IF_ERROR(file->UpdateTxn(txn, location, record));
  it->second.push_back({UndoEntry::Kind::kUpdate, obj.oid, location, file,
                        std::move(before)});
  stats_.objects_written++;
  return Status::OK();
}

Status ObjectStore::RemoveTxn(wal::TxnId txn, Oid oid, HeapFile* file) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) {
    return Status::InvalidArgument("unknown transaction");
  }
  COBRA_ASSIGN_OR_RETURN(RecordId location, directory_->Lookup(oid));
  COBRA_ASSIGN_OR_RETURN(std::vector<std::byte> before, file->Get(location));
  COBRA_RETURN_IF_ERROR(file->DeleteTxn(txn, location));
  COBRA_RETURN_IF_ERROR(directory_->Remove(oid));
  it->second.push_back(
      {UndoEntry::Kind::kRemove, oid, location, file, std::move(before)});
  return Status::OK();
}

Status ObjectStore::CommitTxn(wal::TxnId txn) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) {
    return Status::InvalidArgument("unknown transaction");
  }
  txns_.erase(it);
  COBRA_RETURN_IF_ERROR(wal_->Commit(txn));
  stats_.txns_committed++;
  return Status::OK();
}

Status ObjectStore::AbortTxn(wal::TxnId txn) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) {
    return Status::InvalidArgument("unknown transaction");
  }
  // Reverse order: a later op may depend on an earlier one (e.g. update
  // after insert of the same object).
  Status undo_status;
  for (auto undo = it->second.rbegin(); undo != it->second.rend(); ++undo) {
    Status s;
    switch (undo->kind) {
      case UndoEntry::Kind::kInsert:
        s = undo->file->UndoInsert(undo->location);
        if (s.ok()) s = directory_->Remove(undo->oid);
        break;
      case UndoEntry::Kind::kUpdate:
        s = undo->file->UndoUpdate(undo->location, undo->before);
        break;
      case UndoEntry::Kind::kRemove:
        s = undo->file->UndoDelete(undo->location, undo->before);
        if (s.ok()) s = directory_->Put(undo->oid, undo->location);
        break;
    }
    if (!s.ok() && undo_status.ok()) undo_status = s;
  }
  txns_.erase(it);
  COBRA_RETURN_IF_ERROR(wal_->Abort(txn));
  stats_.txns_aborted++;
  return undo_status;
}

}  // namespace cobra
