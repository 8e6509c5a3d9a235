#include "object/assembled_object.h"

#include <algorithm>
#include <new>
#include <type_traits>

namespace cobra {

static_assert(std::is_trivially_destructible_v<AssembledObject>,
              "the arena frees nodes without running destructors");

namespace {

constexpr size_t kAlign = alignof(AssembledObject);

constexpr size_t RoundUp(size_t bytes) {
  return (bytes + kAlign - 1) / kAlign * kAlign;
}

}  // namespace

std::byte* ObjectArena::Allocate(size_t bytes) {
  if (bytes > remaining_) {
    // Oversized requests get a block of their own size; the doubling
    // schedule continues from where it was.
    size_t block = std::max(bytes, next_block_bytes_);
    next_block_bytes_ = std::min(next_block_bytes_ * 2, kMaxBlockBytes);
    blocks_.push_back(std::make_unique_for_overwrite<std::byte[]>(block));
    cursor_ = blocks_.back().get();
    remaining_ = block;
    reserved_ += block;
  }
  std::byte* out = cursor_;
  cursor_ += bytes;
  remaining_ -= bytes;
  return out;
}

AssembledObject* ObjectArena::New(Oid oid, TypeId type_id,
                                  std::span<const int32_t> fields,
                                  size_t child_count) {
  // One piece: the node, then its child pointers, fields and slots.
  static_assert(alignof(AssembledObject*) <= kAlign &&
                alignof(int32_t) <= alignof(AssembledObject*));
  const size_t children_at = RoundUp(sizeof(AssembledObject));
  const size_t fields_at =
      children_at + child_count * sizeof(AssembledObject*);
  const size_t slots_at = fields_at + fields.size() * sizeof(int32_t);
  const size_t total = RoundUp(slots_at + child_count * sizeof(int));
  std::byte* base = Allocate(total);

  auto* children = reinterpret_cast<AssembledObject**>(base + children_at);
  auto* field_data = reinterpret_cast<int32_t*>(base + fields_at);
  auto* slots = reinterpret_cast<int*>(base + slots_at);
  std::fill_n(children, child_count, nullptr);
  std::copy(fields.begin(), fields.end(), field_data);
  std::fill_n(slots, child_count, -1);

  auto* node = new (base) AssembledObject();
  node->oid = oid;
  node->type_id = type_id;
  node->fields = {field_data, fields.size()};
  node->children = {children, child_count};
  node->child_slots = {slots, child_count};
  nodes_++;
  return node;
}

namespace {

void VisitImpl(const AssembledObject* node,
               std::unordered_set<const AssembledObject*>* seen,
               const std::function<void(const AssembledObject&)>& fn) {
  if (node == nullptr || !seen->insert(node).second) return;
  fn(*node);
  for (const AssembledObject* child : node->children) {
    VisitImpl(child, seen, fn);
  }
}

}  // namespace

void VisitAssembled(const AssembledObject* root,
                    const std::function<void(const AssembledObject&)>& fn) {
  std::unordered_set<const AssembledObject*> seen;
  VisitImpl(root, &seen, fn);
}

size_t CountAssembled(const AssembledObject* root) {
  size_t count = 0;
  VisitAssembled(root, [&count](const AssembledObject&) { ++count; });
  return count;
}

std::unordered_set<Oid> CollectOids(const AssembledObject* root) {
  std::unordered_set<Oid> oids;
  VisitAssembled(root,
                 [&oids](const AssembledObject& node) { oids.insert(node.oid); });
  return oids;
}

const AssembledObject* FindByType(const AssembledObject* root, TypeId type) {
  const AssembledObject* found = nullptr;
  VisitAssembled(root, [&found, type](const AssembledObject& node) {
    if (found == nullptr && node.type_id == type) {
      found = &node;
    }
  });
  return found;
}

int64_t SumField(const AssembledObject* root, size_t field_index) {
  int64_t total = 0;
  VisitAssembled(root, [&total, field_index](const AssembledObject& node) {
    if (field_index < node.fields.size()) {
      total += node.fields[field_index];
    }
  });
  return total;
}

}  // namespace cobra
