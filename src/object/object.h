// ObjectData: the storage-layer object and its disk codec.
//
// The paper's benchmark objects consist of "4 integer and 8 object reference
// fields equaling 96 bytes, resulting in 9 objects per page" (§6).  COBRA
// generalizes to any number of scalar fields and reference fields; with the
// paper's 4+8 configuration the serialized form is exactly 96 bytes:
//
//   [oid u64][type u32][nfields u16][nrefs u16][fields i32 x n][refs u64 x m]
//    8        4         2            2           16              64       = 96

#ifndef COBRA_OBJECT_OBJECT_H_
#define COBRA_OBJECT_OBJECT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "object/oid.h"

namespace cobra {

struct ObjectData {
  Oid oid = kInvalidOid;
  TypeId type_id = kAnyTypeId;
  std::vector<int32_t> fields;
  std::vector<Oid> refs;

  size_t SerializedSize() const {
    return 16 + fields.size() * sizeof(int32_t) + refs.size() * sizeof(Oid);
  }

  // Serializes into `out`, which must hold SerializedSize() bytes.
  void SerializeTo(std::byte* out) const;

  std::vector<std::byte> Serialize() const;

  static Result<ObjectData> Deserialize(std::span<const std::byte> buf);

  // The decoder Deserialize wraps: decodes `buf` into `*out`, reusing the
  // capacity of its vectors, so a caller that keeps one ObjectData decodes
  // record after record without allocating.  On error `*out` is
  // unspecified.
  static Status DeserializeInto(std::span<const std::byte> buf,
                                ObjectData* out);

  friend bool operator==(const ObjectData&, const ObjectData&) = default;
};

}  // namespace cobra

#endif  // COBRA_OBJECT_OBJECT_H_
