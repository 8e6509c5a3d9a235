// Reference-resolution schedulers (paper §6.2).
//
// At every step the assembly operator holds a pool of unresolved references
// (across the whole window of in-flight complex objects) and must pick one
// to resolve.  The paper compares three policies:
//
//   * depth-first   — LIFO within the most recently expanded object; with
//                     any window size this resolves one complex object at a
//                     time, which is why the paper calls it "equivalent to
//                     object-at-a-time assembly, regardless of window size";
//   * breadth-first — FIFO across the window ("'breadth' refers to the
//                     breadth of the window and not ... a single complex
//                     object");
//   * elevator      — SCAN over physical page numbers: continue in the
//                     current direction from the disk head, reverse at the
//                     end; ties on one page drain together.
//
// References arrive in *batches* (all children discovered by one expansion,
// already priority-ordered by the component iterator); schedulers must keep
// a batch's internal order stable.

#ifndef COBRA_ASSEMBLY_SCHEDULER_H_
#define COBRA_ASSEMBLY_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <memory_resource>
#include <vector>

#include "assembly/template.h"
#include "object/assembled_object.h"
#include "object/oid.h"
#include "storage/disk.h"

namespace cobra {

enum class SchedulerKind { kDepthFirst, kBreadthFirst, kElevator };

const char* SchedulerKindName(SchedulerKind kind);

// One unresolved reference in the scheduler pool.
struct PendingRef {
  // Complex object (window entry) this reference belongs to.
  uint64_t complex_id = 0;
  // Template node of the child to assemble.
  const TemplateNode* node = nullptr;
  // Object to link the child into (nullptr for a root reference).
  AssembledObject* parent = nullptr;
  // Position in parent->children; ref_slot is the on-disk reference field.
  int child_index = 0;
  int ref_slot = 0;
  Oid oid = kInvalidOid;
  // Physical page (from the directory; known without I/O) — what the
  // elevator scheduler orders by.
  PageId page = kInvalidPageId;
  // Slot of the record on `page`.  With `page` this is the RecordId the
  // directory returned when the reference was discovered, so resolving
  // the reference reads the record without a second lookup.
  uint16_t slot = 0;
  // Assembly depth (root = 0); bounds recursive templates.
  int depth = 0;
  // Reference into a shared component's subtree: survives aborts of any one
  // waiting complex object (other complex objects may still need it).
  bool shared_owned = false;
  // OID of the nearest enclosing shared component (kInvalidOid when the
  // reference belongs directly to a complex object).
  Oid shared_owner = kInvalidOid;
};

// One vectored pop: every reference on a span of up to `pages` consecutive
// pages in the current sweep direction, resolved against a single coalesced
// disk transfer (BufferManager::FixRun).  `refs` is in resolution order —
// grouped by page in transfer order, arrival order within a page.  Not
// every page of the span need carry a reference: the elevator bridges small
// gaps (the arm travels over them regardless, so transferring them is free)
// and the buffer pool retains the filler pages for their future fetch.  A
// span always starts and ends on a referenced page.
struct RefRun {
  std::vector<PendingRef> refs;
  PageId first_page = kInvalidPageId;  // lowest page of the span
  size_t pages = 1;                    // span length in pages
  bool ascending = true;               // transfer direction
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  // Adds one expansion batch (order within the batch is meaningful).
  // `is_root` marks window-admission references, which depth-first ordering
  // must keep *behind* all in-progress work.
  virtual void AddBatch(const std::vector<PendingRef>& batch,
                        bool is_root) = 0;

  virtual bool Empty() const = 0;
  virtual size_t Size() const = 0;

  // Removes and returns the next reference to resolve; `head` is the
  // current disk head position.  Must not be called when Empty().
  virtual PendingRef Pop(PageId head) = 0;

  // Vectored pop: the next reference plus everything else waiting on up to
  // `max_run_pages` consecutive pages along the same sweep.  The default —
  // and the only meaningful behavior for position-blind schedulers — is a
  // single-ref run, which keeps them byte-identical to the Pop path.  Must
  // not be called when Empty().
  virtual RefRun PopRun(PageId head, size_t max_run_pages);

  // Drops all non-shared-owned references of complex object `id`
  // (predicate abort).
  virtual void RemoveComplex(uint64_t id) = 0;

  // Up to `k` distinct pages the scheduler expects to visit next, in visit
  // order, without mutating any state.  Feeds the buffer pool's async
  // prefetch.  Only position-aware schedulers can answer; the default
  // (empty) disables prefetching.
  virtual std::vector<PageId> PeekPages(PageId head, size_t k) const {
    (void)head;
    (void)k;
    return {};
  }
};

class DepthFirstScheduler : public Scheduler {
 public:
  void AddBatch(const std::vector<PendingRef>& batch, bool is_root) override;
  bool Empty() const override { return queue_.empty(); }
  size_t Size() const override { return queue_.size(); }
  PendingRef Pop(PageId head) override;
  void RemoveComplex(uint64_t id) override;

 private:
  std::deque<PendingRef> queue_;  // front = next
};

class BreadthFirstScheduler : public Scheduler {
 public:
  void AddBatch(const std::vector<PendingRef>& batch, bool is_root) override;
  bool Empty() const override { return queue_.empty(); }
  size_t Size() const override { return queue_.size(); }
  PendingRef Pop(PageId head) override;
  void RemoveComplex(uint64_t id) override;

 private:
  std::deque<PendingRef> queue_;
};

class ElevatorScheduler : public Scheduler {
 public:
  void AddBatch(const std::vector<PendingRef>& batch, bool is_root) override;
  bool Empty() const override { return by_page_.empty(); }
  size_t Size() const override { return by_page_.size(); }
  PendingRef Pop(PageId head) override;
  RefRun PopRun(PageId head, size_t max_run_pages) override;
  void RemoveComplex(uint64_t id) override;
  std::vector<PageId> PeekPages(PageId head, size_t k) const override;

 private:
  // Node storage for by_page_: freed nodes are reused, so a warm pool
  // allocates nothing per reference.  Declared first, destroyed last.
  std::pmr::unsynchronized_pool_resource node_pool_;
  // Multimap keeps insertion order among equal pages, so same-page
  // references drain in (priority-ordered) arrival order.
  std::pmr::multimap<PageId, PendingRef> by_page_{&node_pool_};
  bool sweeping_up_ = true;
};

std::unique_ptr<Scheduler> MakeScheduler(SchedulerKind kind);

}  // namespace cobra

#endif  // COBRA_ASSEMBLY_SCHEDULER_H_
