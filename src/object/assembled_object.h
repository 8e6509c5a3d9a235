// AssembledObject: the pointer-swizzled in-memory complex object.
//
// §4 of the paper: "all object references (OIDs) are changed to memory
// pointers.  This 'pointer-swizzling' process results in a structure that
// can be scanned without the need to consult an OID-to-memory-address
// mapping table."  An AssembledObject holds the scalar fields plus direct
// pointers to the children the template asked for; traversal never touches
// the directory or the buffer pool.
//
// Objects live in an ObjectArena owned by whichever operator (or cache entry)
// produced them.  A node and its three arrays are carved from the arena's
// blocks in one piece, so building a node costs no heap allocation of its
// own and releasing a whole assembly is one bulk free.  The node is
// trivially destructible: the arena never runs destructors.  Shared
// sub-objects are represented by multiple parents pointing at one node;
// ref_count tracks how many parents hold a pointer so the assembly window
// knows when a shared component can be dropped from its resident map.
//
// Lifetime: a node and its spans are valid exactly as long as the arena
// that holds it.  Consumers that outlive the producing operator either hold
// its arena (PrebuiltComponents, AssemblyOperator::arena()) or copy the DAG
// into an arena of their own (the object cache).

#ifndef COBRA_OBJECT_ASSEMBLED_OBJECT_H_
#define COBRA_OBJECT_ASSEMBLED_OBJECT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "object/object.h"
#include "object/oid.h"

namespace cobra {

struct AssembledObject {
  Oid oid = kInvalidOid;
  TypeId type_id = kAnyTypeId;
  // Scalar fields, copied from the stored object.  The span's size is
  // fixed at creation; writers (cache patches) overwrite it in place.
  std::span<int32_t> fields;

  // Swizzled children, in the order the template lists them.  child_slots[i]
  // is the reference-field index in the on-disk object that children[i] was
  // resolved from (-1 until linked).  A child may be nullptr while assembly
  // is in flight or when the reference field held kInvalidOid.
  std::span<AssembledObject*> children;
  std::span<int> child_slots;

  // Number of parents currently pointing at this object (> 1 only for
  // shared sub-objects).
  int ref_count = 0;
};

// Bump allocator for AssembledObjects: stable addresses, bulk lifetime.
// Blocks start small and double up to a cap, so an arena holding one cached
// complex object stays about as small as the object while an operator's
// arena for a whole pass allocates a few dozen blocks.
class ObjectArena {
 public:
  ObjectArena() = default;
  ObjectArena(const ObjectArena&) = delete;
  ObjectArena& operator=(const ObjectArena&) = delete;

  // A node holding a copy of `fields` and `child_count` child pointers
  // (initially null) with their slots (initially -1).
  AssembledObject* New(Oid oid, TypeId type_id,
                       std::span<const int32_t> fields, size_t child_count);

  // Copies the scalar part of `data` into a fresh node with
  // `template_child_count` (initially null) child pointers.
  AssembledObject* NewFrom(const ObjectData& data,
                           size_t template_child_count) {
    return New(data.oid, data.type_id, data.fields, template_child_count);
  }

  // Nodes allocated so far.
  size_t size() const { return nodes_; }
  // Bytes of block storage held.
  size_t bytes_reserved() const { return reserved_; }

 private:
  static constexpr size_t kFirstBlockBytes = 1024;
  static constexpr size_t kMaxBlockBytes = 64 * 1024;

  // `bytes` of storage aligned for AssembledObject.
  std::byte* Allocate(size_t bytes);

  std::vector<std::unique_ptr<std::byte[]>> blocks_;
  std::byte* cursor_ = nullptr;
  size_t remaining_ = 0;
  size_t next_block_bytes_ = kFirstBlockBytes;
  size_t reserved_ = 0;
  size_t nodes_ = 0;
};

// Components pre-assembled by an earlier operator (stacked assembly,
// Fig. 17): a downstream assembly operator links these instead of fetching.
// shared_ptr because rows carry it through the Volcano pipeline.
struct PrebuiltComponents {
  std::unordered_map<Oid, AssembledObject*> by_oid;
  // Keeps the producing operator's arena alive as long as any consumer row
  // still references its objects.
  std::shared_ptr<ObjectArena> arena;
};

// --- traversal helpers (DAG-safe: shared nodes visited once) ---

// Calls `fn` exactly once per distinct reachable node, pre-order.
void VisitAssembled(const AssembledObject* root,
                    const std::function<void(const AssembledObject&)>& fn);

// Number of distinct nodes reachable from root.
size_t CountAssembled(const AssembledObject* root);

// OIDs of all distinct reachable nodes (unordered).
std::unordered_set<Oid> CollectOids(const AssembledObject* root);

// First reachable node with the given type, or nullptr.
const AssembledObject* FindByType(const AssembledObject* root, TypeId type);

// Sum of a scalar field over all distinct reachable nodes that have it;
// shared nodes are counted once.
int64_t SumField(const AssembledObject* root, size_t field_index);

}  // namespace cobra

#endif  // COBRA_OBJECT_ASSEMBLED_OBJECT_H_
