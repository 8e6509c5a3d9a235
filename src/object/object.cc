#include "object/object.h"

#include <cstring>

namespace cobra {
namespace {

template <typename T>
void Append(std::byte** cursor, T value) {
  std::memcpy(*cursor, &value, sizeof(T));
  *cursor += sizeof(T);
}

template <typename T>
Status Take(std::span<const std::byte>* buf, T* out) {
  if (buf->size() < sizeof(T)) {
    return Status::Corruption("object record truncated");
  }
  std::memcpy(out, buf->data(), sizeof(T));
  *buf = buf->subspan(sizeof(T));
  return Status::OK();
}

}  // namespace

void ObjectData::SerializeTo(std::byte* out) const {
  std::byte* cursor = out;
  Append(&cursor, oid);
  Append(&cursor, type_id);
  Append(&cursor, static_cast<uint16_t>(fields.size()));
  Append(&cursor, static_cast<uint16_t>(refs.size()));
  for (int32_t f : fields) Append(&cursor, f);
  for (Oid r : refs) Append(&cursor, r);
}

std::vector<std::byte> ObjectData::Serialize() const {
  std::vector<std::byte> out(SerializedSize());
  SerializeTo(out.data());
  return out;
}

Result<ObjectData> ObjectData::Deserialize(std::span<const std::byte> buf) {
  ObjectData obj;
  COBRA_RETURN_IF_ERROR(DeserializeInto(buf, &obj));
  return obj;
}

Status ObjectData::DeserializeInto(std::span<const std::byte> buf,
                                   ObjectData* out) {
  uint16_t nfields = 0;
  uint16_t nrefs = 0;
  COBRA_RETURN_IF_ERROR(Take(&buf, &out->oid));
  COBRA_RETURN_IF_ERROR(Take(&buf, &out->type_id));
  COBRA_RETURN_IF_ERROR(Take(&buf, &nfields));
  COBRA_RETURN_IF_ERROR(Take(&buf, &nrefs));
  const size_t field_bytes = nfields * sizeof(int32_t);
  if (buf.size() != field_bytes + nrefs * sizeof(Oid)) {
    return Status::Corruption("object record size mismatch");
  }
  out->fields.resize(nfields);
  out->refs.resize(nrefs);
  if (nfields > 0) std::memcpy(out->fields.data(), buf.data(), field_bytes);
  if (nrefs > 0) {
    std::memcpy(out->refs.data(), buf.data() + field_bytes,
                buf.size() - field_bytes);
  }
  return Status::OK();
}

}  // namespace cobra
