// ObjectCache: a mid-tier cache of fully assembled, swizzled objects.
//
// The paper's thesis is that *assembly* — not the individual page read — is
// the expensive unit of work: materializing one complex object touches every
// component page, decodes every record, and swizzles the references into a
// traversable structure (§4).  When the same hot roots are requested over
// and over (the workload millions of users generate), re-running assembly
// from the page pool wastes exactly that work.  This cache sits above the
// sharded buffer pool and below QueryService and keeps the finished product:
// a deep copy of the assembled DAG, keyed by (root OID, assembly template,
// schema version).
//
// Sharing (§6.4): template borders marked `shared` are materialized once per
// cache space as a refcounted SharedSegment; every entry whose assembly
// reaches that border links the same resident copy, mirroring the assembly
// operator's resident-component map.  fig15's sharing workload is the
// stress case.
//
// Consistency — the invalidation protocol:
//
//   Every entry records its *page footprint*: the set of data pages holding
//   any reachable component (computed from the directory, no I/O).  A write
//   transaction reports its committed mutations via ApplyCommittedWrite();
//   every entry whose footprint intersects a written page is dropped — or,
//   for a scalar-only update (same type, same reference fields, same shape)
//   in a space whose template has no predicates, patched in place by
//   overwriting the cached scalar fields ("Demand-Driven Incremental Object
//   Queries" gives the delta-maintenance framing; a patch is the delta).
//   Spaces whose templates carry predicates are never patched: a changed
//   scalar can flip a predicate, which changes *membership*, not just
//   field values, so those entries are invalidated outright.
//
//   ApplyCommittedWrite must be called at commit time, never before: under
//   the service's reader/writer lock (service/query_service.h) the writer
//   holds the exclusive side across mutation + invalidation, so a reader
//   can never observe a cached value newer or older than the pages it could
//   read itself.  tests/cache_property_test.cc hammers exactly this.
//
// Thread safety: all public methods are safe to call concurrently; one
// internal mutex guards the maps, policy, and stats.  The assembled nodes
// themselves are immutable while readers hold them (Lookup pins the entry;
// eviction skips pinned entries; patches only run writer-exclusive), so
// traversing a looked-up object needs no lock.
//
// Attribution: hits and misses are charged to the calling thread's
// obs::QueryContext (cache_hits / cache_misses, span events).  A hit
// charges zero disk reads, keeping the conservation invariant intact
// trivially — the cache never touches the disk or the buffer pool.

#ifndef COBRA_CACHE_OBJECT_CACHE_H_
#define COBRA_CACHE_OBJECT_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "assembly/template.h"
#include "cache/cache_policy.h"
#include "object/assembled_object.h"
#include "object/object.h"
#include "object/object_store.h"
#include "object/oid.h"
#include "storage/placement.h"

namespace cobra::cache {

struct CacheOptions {
  // Resident root entries (shared segments ride along uncounted: they are
  // reachable sub-structure, not independently evictable).
  size_t capacity = 4096;
  CachePolicyKind policy = CachePolicyKind::kTwoQ;
  // Part of the key: bumping it (BumpSchemaVersion) makes every resident
  // entry unreachable, the cache equivalent of a DDL barrier.
  uint64_t schema_version = 1;
};

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;       // dropped by replacement
  uint64_t invalidations = 0;   // dropped by committed writes
  uint64_t patches = 0;         // entries patched in place instead
  uint64_t shared_reuses = 0;   // an entry linked an already-resident segment
  uint64_t schema_flushes = 0;
};

// One committed mutation, as the write path reports it: the data page it
// touched, and — for a scalar-only update — the after-image to patch in.
struct CommittedWrite {
  PageId page = kInvalidPageId;
  bool patch = false;
  ObjectData after;  // meaningful only when patch
};

struct WriteEffect {
  uint64_t invalidated = 0;
  uint64_t patched = 0;
};

class ObjectCache {
 public:
  // A pinned view of a cached entry.  Valid until Release(); the object
  // pointer stays stable even if the entry is invalidated meanwhile (the
  // cache keeps invalidated-but-pinned entries alive until unpinned).
  struct Ref {
    const AssembledObject* object = nullptr;
    void* entry = nullptr;
    explicit operator bool() const { return object != nullptr; }
  };

  explicit ObjectCache(CacheOptions options = {});
  ~ObjectCache();

  ObjectCache(const ObjectCache&) = delete;
  ObjectCache& operator=(const ObjectCache&) = delete;

  // Looks up the assembled object for `root` under `tmpl`.  A hit pins the
  // entry (Release when done) and charges cache_hits to the current query
  // context; a miss charges cache_misses.
  Ref Lookup(const AssemblyTemplate* tmpl, Oid root);
  void Release(const Ref& ref);

  // Deep-copies `obj` (just assembled by the caller) into the cache under
  // (tmpl, obj.oid).  `store` supplies the directory for the page-footprint
  // computation (Locate only — no I/O).  No-op if already resident.
  void Insert(const AssemblyTemplate* tmpl, const AssembledObject& obj,
              const ObjectStore& store);

  // Applies a committed transaction's mutations: every resident entry whose
  // footprint intersects a written page is invalidated, or patched in place
  // for scalar-only updates in predicate-free spaces.  Call at commit time,
  // under the same exclusion that ordered the mutations before readers.
  WriteEffect ApplyCommittedWrite(const std::vector<CommittedWrite>& ops);

  // Drops everything (entries, segments, ghosts).  Pinned entries survive
  // until released.
  void Clear();

  // Schema barrier: invalidates every space built under the old version.
  void BumpSchemaVersion();
  uint64_t schema_version() const;

  CacheStats stats() const;
  size_t resident_entries() const;
  size_t shared_segment_count() const;
  // Sum of entry->segment references currently held; 0 after teardown.
  uint64_t total_shared_refs() const;
  size_t pinned_entries() const;
  const char* policy_name() const;
  size_t capacity() const { return options_.capacity; }

  // Number of ObjectCache instances alive in the process.  The cache-off
  // regression asserts the disabled configuration never constructs one.
  static uint64_t live_instances();

 private:
  struct SharedSegment {
    Oid root_oid = kInvalidOid;
    AssembledObject* root = nullptr;
    ObjectArena arena;  // the segment's copied nodes
    std::unordered_map<Oid, std::vector<AssembledObject*>> by_oid;
    // Nested shared borders reached from inside this segment; this segment
    // holds one reference on each, so entry->segment chains stay alive.
    std::vector<SharedSegment*> children;
    int refs = 0;
  };

  struct Space;

  struct Entry {
    Space* space = nullptr;
    Oid root_oid = kInvalidOid;
    uint64_t key = 0;
    AssembledObject* root = nullptr;
    ObjectArena arena;  // the entry-private copied nodes
    std::unordered_map<Oid, std::vector<AssembledObject*>> by_oid;
    std::vector<SharedSegment*> segments;  // one reference held on each
    std::vector<PageId> footprint;         // sorted, distinct
    int pins = 0;
    bool zombie = false;  // detached while pinned; freed on last Release
  };

  struct Space {
    uint32_t id = 0;
    const AssemblyTemplate* tmpl = nullptr;
    uint64_t schema_version = 0;
    // No template node carries a predicate, so a scalar change cannot
    // change membership — the precondition for patching.
    bool patchable = false;
    std::unordered_map<Oid, Entry*> entries;
    std::unordered_map<Oid, std::unique_ptr<SharedSegment>> segments;
  };

  struct CopyScope {
    Space* space = nullptr;
    // Where segments linked at this level record themselves (the entry's
    // list, or an enclosing segment's children list) — each exactly once.
    std::vector<SharedSegment*>* seg_list = nullptr;
    std::unordered_set<SharedSegment*>* seg_seen = nullptr;
  };

  Space* GetSpaceLocked(const AssemblyTemplate* tmpl);
  void DropSpaceLocked(Space* space);
  AssembledObject* CopyNodeLocked(
      const AssembledObject* src, const TemplateNode* tnode,
      ObjectArena* arena,
      std::unordered_map<Oid, std::vector<AssembledObject*>>* by_oid,
      std::unordered_map<const AssembledObject*, AssembledObject*>* memo,
      CopyScope* scope);
  AssembledObject* LinkSegmentLocked(const AssembledObject* src,
                                     const TemplateNode* tnode,
                                     CopyScope* scope);
  void DerefSegmentLocked(Space* space, SharedSegment* segment);
  // Detaches the entry from every index; evict=true routes the key to the
  // policy's ghost lists.  Frees it unless pinned (then zombie).
  void RemoveEntryLocked(Entry* entry, bool evict);
  void EvictToCapacityLocked();
  // Outcome of patching one entry: it holds no copy of the object; every
  // copy was overwritten; or the after-image's field count differs from
  // the copies' (their spans cannot grow), so nothing was written.
  enum class PatchResult { kAbsent, kPatched, kReshaped };
  PatchResult PatchEntryLocked(Entry* entry, const ObjectData& after);
  void ChargeLookupLocked(Oid root, bool hit);

  const CacheOptions options_;

  mutable std::mutex mu_;
  uint64_t schema_version_;
  uint32_t next_space_id_ = 1;
  std::unique_ptr<CacheReplacementPolicy> policy_;
  std::unordered_map<const AssemblyTemplate*, std::unique_ptr<Space>> spaces_;
  std::unordered_map<uint64_t, std::unique_ptr<Entry>> entries_;  // by key
  std::unordered_map<PageId, std::unordered_set<Entry*>> by_page_;
  std::vector<std::unique_ptr<Entry>> zombies_;
  CacheStats stats_;
};

}  // namespace cobra::cache

#endif  // COBRA_CACHE_OBJECT_CACHE_H_
