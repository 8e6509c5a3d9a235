// The assembly operator (paper §4): set-oriented retrieval and pointer
// swizzling of complex objects.
//
// The operator consumes rows carrying root OIDs and produces the same rows
// with the OID replaced by a fully swizzled AssembledObject.  Internally it
// maintains:
//
//   * a sliding *window* of up to W partially assembled complex objects —
//     "as soon as any one of these complex objects becomes assembled and
//     passed up the query tree, the operator retrieves another one";
//   * the pool of *unresolved references* across the window, managed by a
//     pluggable Scheduler (depth-first / breadth-first / elevator);
//   * a resident map of *shared components* (enabled by template sharing
//     statistics) that prevents double-loading and keeps shared sub-objects
//     in memory while any in-flight object references them (§6.4);
//   * *selective assembly*: a failing node predicate aborts the whole
//     complex object and cancels its pending references window-wide (§6.5).
//
// Stacked assembly (§7, Fig. 17): when `prebuilt_column` names a column
// carrying PrebuiltComponents, references whose OID appears there are linked
// without any fetch, so a downstream assembly operator completes complex
// objects bottom-up assembled by an upstream one.

#ifndef COBRA_ASSEMBLY_ASSEMBLY_OPERATOR_H_
#define COBRA_ASSEMBLY_ASSEMBLY_OPERATOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "assembly/component_iterator.h"
#include "assembly/scheduler.h"
#include "assembly/template.h"
#include "exec/iterator.h"
#include "object/assembled_object.h"
#include "object/object_store.h"

namespace cobra {

// What an unrecoverable component read does to the query:
//   kFailQuery  — the first error aborts the whole query (Next returns it);
//   kSkipObject — the error aborts only the complex object that needed the
//     unreadable component (reusing the selective-assembly early-abort
//     machinery): its window slot is released, `objects_dropped` is
//     incremented, and the query completes over the surviving objects.
enum class ErrorPolicy { kFailQuery, kSkipObject };

const char* ErrorPolicyName(ErrorPolicy policy);

struct AssemblyOptions {
  // W: complex objects assembled concurrently.  1 degenerates to
  // object-at-a-time (with any scheduler; see §6.3.1 for why their seek
  // behavior still differs slightly).
  size_t window_size = 1;
  SchedulerKind scheduler = SchedulerKind::kElevator;
  // Consult template sharing annotations: dedup shared components through a
  // resident map.  Off = the §6.4 ablation (every reference is fetched).
  bool use_sharing_statistics = true;
  // Order same-cost sibling fetches by descending rejection probability.
  bool prioritize_predicates = true;
  // Degraded-mode behavior under storage errors (fault injection, bad
  // pages, dangling OIDs).
  ErrorPolicy error_policy = ErrorPolicy::kFailQuery;
  // Input admission granularity: how many rows one underlying input
  // NextBatch() call may deliver.  Kept at 1 by default so admission I/O
  // interleaves with assembly fetches exactly as in row-at-a-time execution
  // — stacked assembly shares one simulated disk between the producing and
  // consuming operator, and prefetching input rows would reorder its seek
  // trace.  Raise only when the input does no I/O (e.g. an in-memory root
  // list).  0 is treated as 1.
  size_t batch_size = 1;
  // Async read-ahead: before each resolution, ask the scheduler for the next
  // pages it expects to visit (Scheduler::PeekPages) and start them through
  // BufferManager::PrefetchPage.  Only pays off over an AsyncDisk, where the
  // reads overlap assembly CPU and merge into the elevator queue.  0 (the
  // default) disables read-ahead and preserves the historical fetch order
  // exactly.
  size_t prefetch_depth = 0;
  // Vectored I/O: how many consecutive pages one resolution step may pull in
  // a single coalesced disk transfer.  With > 1 the operator pops reference
  // *runs* (Scheduler::PopRun) and faults their pages with
  // BufferManager::FixRun — one positioning seek plus sequential transfers —
  // instead of paying a full read per page.  1 (the default) preserves the
  // historical page-at-a-time path exactly, bit-identical goldens included.
  // 0 is treated as 1.  Only the elevator scheduler produces multi-page
  // runs; position-blind schedulers degrade gracefully to single-ref runs.
  size_t io_batch_pages = 1;
};

// One step of assembly execution, for observers (tracing, debugging,
// animation of the window behavior).
struct AssemblyEvent {
  enum class Kind {
    kAdmit,        // complex object entered the window
    kFetch,        // object read from storage and swizzled
    kSharedHit,    // reference satisfied by the resident shared map
    kPrebuiltHit,  // reference satisfied by stacked-assembly input
    kAbort,        // complex object rejected by a predicate
    kEmit,         // complex object completed and queued for the consumer
    kDrop,         // complex object dropped by an unrecoverable read error
                   // under ErrorPolicy::kSkipObject
  };
  Kind kind;
  uint64_t complex_id = 0;   // owner (0 for shared-owned fetches)
  Oid oid = kInvalidOid;     // object involved (root OID for admit/emit)
  PageId page = kInvalidPageId;  // physical page (fetch events)
  const TemplateNode* node = nullptr;
  // Operator state at event time, for occupancy/pool telemetry: in-flight
  // complex objects (window occupancy) and unresolved references pooled in
  // the scheduler.
  size_t window_occupancy = 0;
  size_t pool_size = 0;
};

class AssemblyObserver {
 public:
  virtual ~AssemblyObserver() = default;
  virtual void OnEvent(const AssemblyEvent& event) = 0;
};

struct AssemblyStats {
  uint64_t objects_fetched = 0;   // storage objects read and decoded
  uint64_t shared_hits = 0;       // references satisfied by the resident map
  uint64_t prebuilt_hits = 0;     // references satisfied by stacked input
  uint64_t refs_resolved = 0;
  uint64_t complex_admitted = 0;
  uint64_t complex_emitted = 0;
  uint64_t complex_aborted = 0;   // predicate failures
  // Complex objects dropped by unrecoverable read errors under
  // ErrorPolicy::kSkipObject (degraded mode).
  uint64_t objects_dropped = 0;
  // High-water marks: the §6.3.3 buffer-requirement discussion.
  size_t max_window_pages = 0;  // distinct pages backing window + ready rows
  size_t max_pool_size = 0;     // unresolved-reference pool
};

class AssemblyOperator : public exec::Iterator {
 public:
  // `input` rows carry a root OID in column `root_column`; when
  // `prebuilt_column` >= 0 that column carries a PrebuiltComponents handle.
  // Does not take ownership of `tmpl` or `store`.
  AssemblyOperator(std::unique_ptr<exec::Iterator> input,
                   const AssemblyTemplate* tmpl, ObjectStore* store,
                   AssemblyOptions options = {}, size_t root_column = 0,
                   int prebuilt_column = -1);

  Status Open() override;
  // Output: the input rows with column `root_column` replaced by
  // Value::Obj(assembled root).  Rows are emitted in completion order; a
  // batch fills with as many completed complex objects as assembly yields
  // before the input and window drain.
  Result<size_t> NextBatch(exec::RowBatch* out) override;
  Status Close() override;

  const AssemblyStats& stats() const { return stats_; }

  // Optional event observer (borrowed; must outlive the operator).  Set
  // before Open().
  void set_observer(AssemblyObserver* observer) { observer_ = observer; }

  // The arena owning every AssembledObject this operator produced.  Emitted
  // objects stay valid until the operator is destroyed, or indefinitely if
  // the consumer keeps a reference to this arena.
  const std::shared_ptr<ObjectArena>& arena() const { return arena_; }

 private:
  // One window slot: a partially assembled complex object.
  struct InFlight {
    uint64_t id = 0;
    exec::Row input_row;
    std::shared_ptr<PrebuiltComponents> prebuilt;
    AssembledObject* root = nullptr;
    // Outstanding references belonging directly to this complex object.
    size_t unresolved = 0;
    // Incomplete shared components this complex object is waiting on.
    size_t shared_pending = 0;
    // The page of every component fetched for this complex object, one
    // entry per fetch (buffer accounting: each entry is one charge in
    // page_charges_).  Storage comes from and returns to spare_page_lists_.
    std::vector<PageId> pages;
  };

  // Resident shared component (template node marked shared).
  struct SharedEntry {
    AssembledObject* obj = nullptr;
    // Outstanding events before the component subtree is complete: its own
    // scheduled references plus incomplete nested shared components.
    size_t pending = 0;
    // A predicate failed inside this subtree; linking it disqualifies the
    // linking complex object.
    bool failed = false;
    // The failure was an unrecoverable read error, not a predicate: under
    // ErrorPolicy::kSkipObject, waiters are *dropped* instead of aborted.
    bool error_failed = false;
    // Complex objects to notify on completion (ids may repeat if one object
    // references the component through several paths).
    std::vector<uint64_t> waiters;
    // Enclosing shared components to notify on completion.
    std::vector<Oid> parent_entries;
  };

  // A completed row whose pages are still charged to the window until the
  // consumer takes it (the paper's "pages for completed objects" term).
  struct ReadyRow {
    exec::Row row;
    std::vector<PageId> pages;
  };

  // Admits the next input row into the window.  Sets input_exhausted_.
  Status AdmitOne();
  // Pops and resolves one reference from the scheduler.
  Status ResolveOne();
  // Vectored resolution (io_batch_pages > 1): pops a run of references on
  // consecutive pages, faults the whole run with one coalesced transfer and
  // resolves every reference against the pinned pages.
  Status ResolveRun();
  // Resolves one already-popped reference.  When `fix_error` is non-null the
  // reference's page already failed its coalesced read; the error is handled
  // exactly as a failed fetch (no second read — the run's per-page result is
  // authoritative, and refetching would advance the fault schedule).
  Status ResolveRef(const PendingRef& ref, const Status* fix_error);
  // Fetches, swizzles, predicate-checks and expands one object.  On
  // predicate failure *handled* (aborts owner), returns nullptr.
  Result<AssembledObject*> FetchAndExpand(const PendingRef& ref);
  // Links `child` under ref.parent / as the root of ref's complex object.
  void LinkChild(const PendingRef& ref, AssembledObject* child);
  // Bookkeeping after a non-shared-owned reference resolved.
  Status FinishOwnRef(const PendingRef& ref);
  // Bookkeeping after a shared-owned reference resolved.
  void FinishSharedRef(const PendingRef& ref);
  // Marks a shared entry (and enclosing entries) failed; aborts waiters,
  // or drops them when the failure was a read error (`dropped`).
  void FailSharedEntry(Oid entry_oid, bool dropped = false);
  // Completion cascade for a shared entry whose pending hit zero.
  void CompleteSharedEntry(Oid entry_oid);
  void AbortComplex(uint64_t id);
  // Degraded mode: releases a complex object whose assembly hit an
  // unrecoverable read error, counting it in objects_dropped.
  void DropComplex(uint64_t id);
  void MaybeFinishComplex(uint64_t id);
  // Page accounting.
  void ChargePage(InFlight* fl, PageId page);
  void ChargeSharedPage(PageId page);
  void AddCharge(PageId page);
  // An empty page list, reusing the storage of a released one.
  std::vector<PageId> TakePageList();
  // Releases every charge in `pages` and keeps its storage for reuse.
  void ReleasePages(std::vector<PageId>* pages);
  void Notify(AssemblyEvent::Kind kind, uint64_t complex_id, Oid oid,
              PageId page = kInvalidPageId,
              const TemplateNode* node = nullptr);

  std::unique_ptr<exec::Iterator> input_;
  // Row-at-a-time view over input_ (admission granularity; see
  // AssemblyOptions::batch_size).  Engaged in Open().
  std::optional<exec::RowAtATimeAdapter> input_adapter_;
  const AssemblyTemplate* template_;
  ObjectStore* store_;
  AssemblyOptions options_;
  size_t root_column_;
  int prebuilt_column_;

  ComponentIterator components_;
  std::unique_ptr<Scheduler> scheduler_;
  std::shared_ptr<ObjectArena> arena_;
  std::unordered_map<uint64_t, InFlight> in_flight_;
  std::unordered_map<Oid, SharedEntry> shared_map_;
  std::deque<ReadyRow> ready_;
  // The pages backing the window (§6.3.3): the charges each page holds
  // from in-flight and ready complex objects and resident shared
  // components, indexed by PageId (pages come from dense extents starting
  // at 0) and grown to the highest page charged, and the number of pages
  // holding at least one charge.
  std::vector<uint32_t> page_charges_;
  size_t window_pages_ = 0;
  std::vector<std::vector<PageId>> spare_page_lists_;
  // Per-reference scratch, reused by every fetch: the decoded record, its
  // expansion and the child batch handed to the scheduler.
  ObjectData record_;
  std::vector<ComponentRef> expanded_;
  std::vector<PendingRef> batch_;
  uint64_t next_complex_id_ = 1;
  bool input_exhausted_ = false;
  bool template_recursive_ = false;
  bool open_ = false;
  AssemblyObserver* observer_ = nullptr;
  AssemblyStats stats_;
};

}  // namespace cobra

#endif  // COBRA_ASSEMBLY_ASSEMBLY_OPERATOR_H_
