// Directory: the OID -> physical-location mapping.
//
// The assembly operator's schedulers need the physical page of every
// unresolved reference *without* performing I/O (the elevator scheduler
// orders fetches by page number before any page is read).  Two
// implementations:
//
//   * HashDirectory  — resident map; what the experiments use, standing in
//     for a hot, cached OID index (the paper assumes location lookups are
//     cheap relative to seeks).  A flat open-addressing table: the
//     assembly operator probes it once per reference.
//   * BTreeDirectory — persistent mapping through the B+-tree; used by tests
//     and examples to show the full disk-backed path.

#ifndef COBRA_OBJECT_DIRECTORY_H_
#define COBRA_OBJECT_DIRECTORY_H_

#include <cstddef>

#include "common/flat_map.h"
#include "common/result.h"
#include "common/status.h"
#include "file/heap_file.h"
#include "index/btree.h"
#include "object/oid.h"

namespace cobra {

class Directory {
 public:
  virtual ~Directory() = default;

  // Registers or moves an object.
  virtual Status Put(Oid oid, RecordId location) = 0;
  // NotFound for unregistered OIDs.
  virtual Result<RecordId> Lookup(Oid oid) const = 0;
  virtual Status Remove(Oid oid) = 0;
  virtual size_t size() const = 0;
};

class HashDirectory : public Directory {
 public:
  Status Put(Oid oid, RecordId location) override;
  Result<RecordId> Lookup(Oid oid) const override;
  Status Remove(Oid oid) override;
  size_t size() const override { return map_.size(); }

 private:
  FlatMap<Oid, RecordId, kInvalidOid> map_;
};

class BTreeDirectory : public Directory {
 public:
  // Does not take ownership of `tree`.
  explicit BTreeDirectory(BTree* tree) : tree_(tree) {}

  Status Put(Oid oid, RecordId location) override;
  Result<RecordId> Lookup(Oid oid) const override;
  Status Remove(Oid oid) override;
  size_t size() const override { return tree_->size(); }

 private:
  BTree* tree_;
};

}  // namespace cobra

#endif  // COBRA_OBJECT_DIRECTORY_H_
