#include "assembly/assembly_operator.h"

#include <algorithm>
#include <string>
#include <utility>

namespace cobra {
namespace {

// Errors confined to one unreadable/undecodable component, eligible for
// ErrorPolicy::kSkipObject: a bad page (Corruption, including checksum
// mismatches), a dangling OID (NotFound), or a transient failure the buffer
// manager could not retry away (Unavailable).  Anything else —
// InvalidArgument, Internal, ResourceExhausted — indicts the query or the
// engine, not the object, and always fails the query.
bool IsSkippableDataError(const Status& status) {
  return status.IsCorruption() || status.IsNotFound() ||
         status.IsUnavailable();
}

}  // namespace

const char* ErrorPolicyName(ErrorPolicy policy) {
  switch (policy) {
    case ErrorPolicy::kFailQuery:
      return "fail";
    case ErrorPolicy::kSkipObject:
      return "skip";
  }
  return "unknown";
}

AssemblyOperator::AssemblyOperator(std::unique_ptr<exec::Iterator> input,
                                   const AssemblyTemplate* tmpl,
                                   ObjectStore* store, AssemblyOptions options,
                                   size_t root_column, int prebuilt_column)
    : input_(std::move(input)),
      template_(tmpl),
      store_(store),
      options_(options),
      root_column_(root_column),
      prebuilt_column_(prebuilt_column),
      components_(tmpl) {}

Status AssemblyOperator::Open() {
  if (options_.window_size == 0) {
    return Status::InvalidArgument("window size must be at least 1");
  }
  COBRA_RETURN_IF_ERROR(template_->Validate());
  input_adapter_.emplace(input_.get(),
                         options_.batch_size == 0 ? 1 : options_.batch_size);
  COBRA_RETURN_IF_ERROR(input_adapter_->Open());
  template_recursive_ = template_->IsRecursive();
  scheduler_ = MakeScheduler(options_.scheduler);
  arena_ = std::make_shared<ObjectArena>();
  in_flight_.clear();
  shared_map_.clear();
  ready_.clear();
  page_charges_.clear();
  window_pages_ = 0;
  next_complex_id_ = 1;
  input_exhausted_ = false;
  stats_ = AssemblyStats();
  open_ = true;
  return Status::OK();
}

Status AssemblyOperator::Close() {
  open_ = false;
  in_flight_.clear();
  shared_map_.clear();
  ready_.clear();
  page_charges_.clear();
  window_pages_ = 0;
  scheduler_.reset();
  // arena_ intentionally survives: emitted rows point into it.
  return input_->Close();
}

void AssemblyOperator::ChargePage(InFlight* fl, PageId page) {
  fl->pages.push_back(page);
  AddCharge(page);
}

void AssemblyOperator::ChargeSharedPage(PageId page) {
  // Shared components stay resident for the lifetime of the run ("the
  // shared component remains in memory as long as there is at least one
  // valid reference to it", §5), so their pages are charged once and
  // released only at Close.
  AddCharge(page);
}

void AssemblyOperator::AddCharge(PageId page) {
  if (page >= page_charges_.size()) page_charges_.resize(page + 1);
  if (page_charges_[page]++ == 0) window_pages_++;
  stats_.max_window_pages = std::max(stats_.max_window_pages, window_pages_);
}

void AssemblyOperator::Notify(AssemblyEvent::Kind kind, uint64_t complex_id,
                              Oid oid, PageId page,
                              const TemplateNode* node) {
  if (observer_ == nullptr) return;
  AssemblyEvent event;
  event.kind = kind;
  event.complex_id = complex_id;
  event.oid = oid;
  event.page = page;
  event.node = node;
  event.window_occupancy = in_flight_.size();
  event.pool_size = scheduler_ != nullptr ? scheduler_->Size() : 0;
  observer_->OnEvent(event);
}

std::vector<PageId> AssemblyOperator::TakePageList() {
  if (spare_page_lists_.empty()) return {};
  std::vector<PageId> pages = std::move(spare_page_lists_.back());
  spare_page_lists_.pop_back();
  return pages;
}

void AssemblyOperator::ReleasePages(std::vector<PageId>* pages) {
  for (PageId page : *pages) {
    if (--page_charges_[page] == 0) window_pages_--;
  }
  pages->clear();
  spare_page_lists_.push_back(std::move(*pages));
}

Status AssemblyOperator::AdmitOne() {
  exec::Row row;
  COBRA_ASSIGN_OR_RETURN(bool has, input_adapter_->Next(&row));
  if (!has) {
    input_exhausted_ = true;
    return Status::OK();
  }
  if (root_column_ >= row.size()) {
    return exec::AnnotateError(
        Status::InvalidArgument("assembly root column out of range"),
        "Assembly");
  }
  if (row[root_column_].kind() != exec::ValueKind::kOid) {
    return exec::AnnotateError(
        Status::InvalidArgument("assembly root column must carry an OID, got " +
                                row[root_column_].ToString()),
        "Assembly");
  }
  Oid root_oid = row[root_column_].AsOid();
  uint64_t id = next_complex_id_++;
  InFlight fl;
  fl.id = id;
  fl.pages = TakePageList();
  if (prebuilt_column_ >= 0) {
    size_t col = static_cast<size_t>(prebuilt_column_);
    if (col >= row.size() ||
        row[col].kind() != exec::ValueKind::kPrebuilt) {
      return Status::InvalidArgument(
          "prebuilt column missing or of wrong kind");
    }
    fl.prebuilt = row[col].AsPrebuilt();
  }
  fl.input_row = std::move(row);
  fl.unresolved = 1;  // the root reference

  Result<RecordId> located = store_->Locate(root_oid);
  if (!located.ok()) {
    if (options_.error_policy == ErrorPolicy::kSkipObject &&
        IsSkippableDataError(located.status())) {
      // Admit-then-drop so the admitted == emitted + aborted + dropped
      // invariant holds even for roots the directory cannot resolve.
      in_flight_.emplace(id, std::move(fl));
      stats_.complex_admitted++;
      Notify(AssemblyEvent::Kind::kAdmit, id, root_oid);
      DropComplex(id);
      return Status::OK();
    }
    return exec::AnnotateError(located.status(), "Assembly");
  }
  RecordId location = located.value();
  PendingRef root_ref;
  root_ref.complex_id = id;
  root_ref.node = template_->root();
  root_ref.parent = nullptr;
  root_ref.oid = root_oid;
  root_ref.page = location.page;
  root_ref.slot = location.slot;
  root_ref.depth = 0;
  in_flight_.emplace(id, std::move(fl));
  batch_.assign(1, root_ref);
  scheduler_->AddBatch(batch_, /*is_root=*/true);
  stats_.max_pool_size = std::max(stats_.max_pool_size, scheduler_->Size());
  stats_.complex_admitted++;
  Notify(AssemblyEvent::Kind::kAdmit, id, root_oid);
  return Status::OK();
}

void AssemblyOperator::LinkChild(const PendingRef& ref,
                                 AssembledObject* child) {
  child->ref_count++;
  if (ref.parent == nullptr) {
    auto it = in_flight_.find(ref.complex_id);
    if (it != in_flight_.end()) {
      it->second.root = child;
    }
    return;
  }
  ref.parent->children[ref.child_index] = child;
  ref.parent->child_slots[ref.child_index] = ref.ref_slot;
}

void AssemblyOperator::AbortComplex(uint64_t id) {
  auto it = in_flight_.find(id);
  if (it == in_flight_.end()) return;  // already emitted or aborted
  scheduler_->RemoveComplex(id);
  ReleasePages(&it->second.pages);
  Oid root_oid = it->second.root != nullptr ? it->second.root->oid
                                            : kInvalidOid;
  in_flight_.erase(it);
  stats_.complex_aborted++;
  Notify(AssemblyEvent::Kind::kAbort, id, root_oid);
}

void AssemblyOperator::DropComplex(uint64_t id) {
  auto it = in_flight_.find(id);
  if (it == in_flight_.end()) return;  // already emitted or aborted
  scheduler_->RemoveComplex(id);
  ReleasePages(&it->second.pages);
  // The root may not have been fetched yet; the input row still carries the
  // root OID, so drop events always identify the dropped object.
  Oid root_oid = kInvalidOid;
  const exec::Row& row = it->second.input_row;
  if (root_column_ < row.size() &&
      row[root_column_].kind() == exec::ValueKind::kOid) {
    root_oid = row[root_column_].AsOid();
  }
  in_flight_.erase(it);
  stats_.objects_dropped++;
  Notify(AssemblyEvent::Kind::kDrop, id, root_oid);
}

void AssemblyOperator::MaybeFinishComplex(uint64_t id) {
  auto it = in_flight_.find(id);
  if (it == in_flight_.end()) return;
  InFlight& fl = it->second;
  if (fl.unresolved != 0 || fl.shared_pending != 0) return;
  ReadyRow ready;
  ready.row = std::move(fl.input_row);
  ready.row[root_column_] = exec::Value::Obj(fl.root);
  ready.pages = std::move(fl.pages);
  Oid root_oid = fl.root != nullptr ? fl.root->oid : kInvalidOid;
  ready_.push_back(std::move(ready));
  in_flight_.erase(it);
  stats_.complex_emitted++;
  Notify(AssemblyEvent::Kind::kEmit, id, root_oid);
}

void AssemblyOperator::CompleteSharedEntry(Oid entry_oid) {
  auto it = shared_map_.find(entry_oid);
  if (it == shared_map_.end()) return;
  std::vector<uint64_t> waiters = std::move(it->second.waiters);
  std::vector<Oid> parents = std::move(it->second.parent_entries);
  it->second.waiters.clear();
  it->second.parent_entries.clear();
  for (uint64_t waiter : waiters) {
    auto fit = in_flight_.find(waiter);
    if (fit == in_flight_.end()) continue;
    fit->second.shared_pending--;
    MaybeFinishComplex(waiter);
  }
  for (Oid parent : parents) {
    auto pit = shared_map_.find(parent);
    if (pit == shared_map_.end() || pit->second.failed) continue;
    if (--pit->second.pending == 0) {
      CompleteSharedEntry(parent);
    }
  }
}

void AssemblyOperator::FailSharedEntry(Oid entry_oid, bool dropped) {
  auto it = shared_map_.find(entry_oid);
  if (it == shared_map_.end() || it->second.failed) return;
  it->second.failed = true;
  it->second.error_failed = dropped;
  std::vector<uint64_t> waiters = std::move(it->second.waiters);
  std::vector<Oid> parents = std::move(it->second.parent_entries);
  it->second.waiters.clear();
  it->second.parent_entries.clear();
  for (uint64_t waiter : waiters) {
    if (dropped) {
      DropComplex(waiter);
    } else {
      AbortComplex(waiter);
    }
  }
  for (Oid parent : parents) {
    FailSharedEntry(parent, dropped);
  }
}

Status AssemblyOperator::FinishOwnRef(const PendingRef& ref) {
  auto it = in_flight_.find(ref.complex_id);
  if (it == in_flight_.end()) {
    return Status::Internal("resolved reference for unknown complex object");
  }
  it->second.unresolved--;
  MaybeFinishComplex(ref.complex_id);
  return Status::OK();
}

void AssemblyOperator::FinishSharedRef(const PendingRef& ref) {
  auto it = shared_map_.find(ref.shared_owner);
  if (it == shared_map_.end() || it->second.failed) return;
  if (--it->second.pending == 0) {
    CompleteSharedEntry(ref.shared_owner);
  }
}

Result<AssembledObject*> AssemblyOperator::FetchAndExpand(
    const PendingRef& ref) {
  // The reference carries the location the directory returned when it was
  // discovered, so the fetch reads the record without a second lookup.
  ObjectData& data = record_;
  COBRA_RETURN_IF_ERROR(
      store_->ReadAt(ref.oid, RecordId{ref.page, ref.slot}, &data));
  COBRA_RETURN_IF_ERROR(components_.CheckObject(data, ref.node));
  stats_.objects_fetched++;
  Notify(AssemblyEvent::Kind::kFetch,
         ref.shared_owned ? 0 : ref.complex_id, ref.oid, ref.page, ref.node);
  if (ref.shared_owned) {
    ChargeSharedPage(ref.page);
  } else {
    auto it = in_flight_.find(ref.complex_id);
    if (it != in_flight_.end()) {
      ChargePage(&it->second, ref.page);
    }
  }

  bool this_shared = options_.use_sharing_statistics && ref.node->shared;

  if (ref.node->predicate && !ref.node->predicate(data)) {
    if (this_shared) {
      // Remember the failure so later references to this component abort
      // their complex objects without re-fetching.
      SharedEntry failed_entry;
      failed_entry.obj = arena_->NewFrom(data, ref.node->children.size());
      failed_entry.failed = true;
      shared_map_[ref.oid] = std::move(failed_entry);
    }
    if (ref.shared_owned) {
      FailSharedEntry(ref.shared_owner);
    } else {
      AbortComplex(ref.complex_id);
    }
    return static_cast<AssembledObject*>(nullptr);
  }

  AssembledObject* obj = arena_->NewFrom(data, ref.node->children.size());

  // Recursive templates truncate below max_depth; acyclic ones never do.
  bool expand = !template_recursive_ || ref.depth + 1 < template_->max_depth();
  std::vector<PendingRef>& batch = batch_;
  batch.clear();
  if (expand) {
    COBRA_RETURN_IF_ERROR(components_.ExpandInto(
        data, ref.node, options_.prioritize_predicates, &expanded_));
    for (const ComponentRef& child : expanded_) {
      COBRA_ASSIGN_OR_RETURN(RecordId location, store_->Locate(child.oid));
      PendingRef child_ref;
      child_ref.complex_id = ref.complex_id;
      child_ref.node = child.node;
      child_ref.parent = obj;
      child_ref.child_index = child.child_index;
      child_ref.ref_slot = child.ref_slot;
      child_ref.oid = child.oid;
      child_ref.page = location.page;
      child_ref.slot = location.slot;
      child_ref.depth = ref.depth + 1;
      child_ref.shared_owner = this_shared ? ref.oid : ref.shared_owner;
      child_ref.shared_owned = child_ref.shared_owner != kInvalidOid;
      batch.push_back(child_ref);
    }
  }

  if (this_shared) {
    // Register the resident component before its children are scheduled;
    // the children belong to this entry, and the current resolver (complex
    // object or enclosing shared component) waits for its completion.
    SharedEntry entry;
    entry.obj = obj;
    entry.pending = batch.size();
    if (entry.pending > 0) {
      if (ref.shared_owned) {
        auto outer = shared_map_.find(ref.shared_owner);
        if (outer != shared_map_.end()) {
          outer->second.pending++;
          entry.parent_entries.push_back(ref.shared_owner);
        }
      } else {
        auto fit = in_flight_.find(ref.complex_id);
        if (fit != in_flight_.end()) {
          fit->second.shared_pending++;
          entry.waiters.push_back(ref.complex_id);
        }
      }
    }
    shared_map_[ref.oid] = std::move(entry);
  } else if (!batch.empty()) {
    // Children of an unshared node belong to whatever owns the node.
    if (ref.shared_owned) {
      auto outer = shared_map_.find(ref.shared_owner);
      if (outer != shared_map_.end()) {
        outer->second.pending += batch.size();
      }
    } else {
      auto fit = in_flight_.find(ref.complex_id);
      if (fit != in_flight_.end()) {
        fit->second.unresolved += batch.size();
      }
    }
  }

  if (!batch.empty()) {
    scheduler_->AddBatch(batch, /*is_root=*/false);
    stats_.max_pool_size = std::max(stats_.max_pool_size, scheduler_->Size());
  }
  return obj;
}

Status AssemblyOperator::ResolveOne() {
  PendingRef ref = scheduler_->Pop(store_->buffer()->HeadLogical());
  stats_.refs_resolved++;

  if (options_.prefetch_depth > 0) {
    // Best-effort read-ahead of the pages the scheduler will want next;
    // failures (e.g. every frame pinned) just mean no overlap this round.
    for (PageId page : scheduler_->PeekPages(store_->buffer()->HeadLogical(),
                                             options_.prefetch_depth)) {
      if (page != ref.page && page != kInvalidPageId) {
        (void)store_->buffer()->PrefetchPage(page);
      }
    }
  }
  return ResolveRef(ref, /*fix_error=*/nullptr);
}

Status AssemblyOperator::ResolveRun() {
  RefRun run = scheduler_->PopRun(store_->buffer()->HeadLogical(),
                                  options_.io_batch_pages);
  stats_.refs_resolved += run.refs.size();

  if (options_.prefetch_depth > 0) {
    // Run-granular read-ahead: group the predicted visit order into
    // consecutive stretches and start each as one (coalescible) run.
    std::vector<PageId> peek = scheduler_->PeekPages(
        store_->buffer()->HeadLogical(), options_.prefetch_depth);
    const PageId run_lo = run.first_page;
    const PageId run_hi = run.first_page + (run.pages - 1);
    size_t i = 0;
    while (i < peek.size()) {
      size_t j = i + 1;
      while (j < peek.size() &&
             SeekDistancePages(peek[j], peek[j - 1]) == 1 &&
             (j == i + 1 || (peek[j] > peek[j - 1]) ==
                                (peek[j - 1] > peek[j - 2]))) {
        j++;
      }
      PageId lo = std::min(peek[i], peek[j - 1]);
      PageId hi = std::max(peek[i], peek[j - 1]);
      if (lo != kInvalidPageId && (hi < run_lo || lo > run_hi)) {
        store_->buffer()->PrefetchRun(lo, static_cast<size_t>(hi - lo) + 1);
      }
      i = j;
    }
  }

  if (run.pages == 1 && run.refs.size() == 1) {
    // Nothing to coalesce; take the exact single-page path.
    return ResolveRef(run.refs.front(), /*fix_error=*/nullptr);
  }

  // Pin the whole run with one vectored transfer.  While `fixed` is alive
  // every good page of the run is resident, so the per-reference fetches
  // below are buffer hits; the guards release when it goes out of scope
  // (including on early error returns).
  std::vector<Result<PageGuard>> fixed;
  store_->buffer()->FixRun(run.first_page, run.pages, run.ascending, &fixed);

  std::vector<PendingRef> deferred;
  for (const PendingRef& ref : run.refs) {
    const size_t offset = static_cast<size_t>(ref.page - run.first_page);
    const Result<PageGuard>& slot = fixed[offset];
    if (slot.ok()) {
      COBRA_RETURN_IF_ERROR(ResolveRef(ref, /*fix_error=*/nullptr));
    } else if (slot.status().IsResourceExhausted()) {
      // The shard had no frame for this page while the run held its pins;
      // resolve it alone after they release.
      deferred.push_back(ref);
    } else {
      Status page_error = slot.status();
      COBRA_RETURN_IF_ERROR(ResolveRef(ref, &page_error));
    }
  }
  fixed.clear();
  for (const PendingRef& ref : deferred) {
    COBRA_RETURN_IF_ERROR(ResolveRef(ref, /*fix_error=*/nullptr));
  }
  return Status::OK();
}

Status AssemblyOperator::ResolveRef(const PendingRef& ref,
                                    const Status* fix_error) {
  // References inside an already-failed shared subtree are dead work.
  if (ref.shared_owned) {
    auto owner = shared_map_.find(ref.shared_owner);
    if (owner != shared_map_.end() && owner->second.failed) {
      return Status::OK();
    }
  }

  InFlight* fl = nullptr;
  if (!ref.shared_owned) {
    auto it = in_flight_.find(ref.complex_id);
    if (it == in_flight_.end()) {
      return Status::Internal("pending reference for unknown complex object");
    }
    fl = &it->second;
    // Stacked assembly: components assembled by an upstream operator link
    // without a fetch.
    if (fl->prebuilt != nullptr) {
      auto pre = fl->prebuilt->by_oid.find(ref.oid);
      if (pre != fl->prebuilt->by_oid.end()) {
        stats_.prebuilt_hits++;
        Notify(AssemblyEvent::Kind::kPrebuiltHit, ref.complex_id, ref.oid,
               ref.page, ref.node);
        LinkChild(ref, pre->second);
        return FinishOwnRef(ref);
      }
    }
  }

  if (options_.use_sharing_statistics && ref.node->shared) {
    auto it = shared_map_.find(ref.oid);
    if (it != shared_map_.end()) {
      stats_.shared_hits++;
      Notify(AssemblyEvent::Kind::kSharedHit,
             ref.shared_owned ? 0 : ref.complex_id, ref.oid, ref.page,
             ref.node);
      if (it->second.failed) {
        bool dropped = it->second.error_failed;
        if (ref.shared_owned) {
          FailSharedEntry(ref.shared_owner, dropped);
        } else if (dropped) {
          DropComplex(ref.complex_id);
        } else {
          AbortComplex(ref.complex_id);
        }
        return Status::OK();
      }
      LinkChild(ref, it->second.obj);
      if (it->second.pending > 0) {
        // Incomplete component: whoever links it must wait for it.
        if (ref.shared_owned) {
          auto outer = shared_map_.find(ref.shared_owner);
          if (outer != shared_map_.end()) {
            outer->second.pending++;
            it->second.parent_entries.push_back(ref.shared_owner);
          }
        } else {
          fl->shared_pending++;
          it->second.waiters.push_back(ref.complex_id);
        }
      }
      if (ref.shared_owned) {
        FinishSharedRef(ref);
        return Status::OK();
      }
      return FinishOwnRef(ref);
    }
  }

  Result<AssembledObject*> fetched =
      fix_error != nullptr ? Result<AssembledObject*>(*fix_error)
                           : FetchAndExpand(ref);
  if (!fetched.ok()) {
    if (options_.error_policy != ErrorPolicy::kSkipObject ||
        !IsSkippableDataError(fetched.status())) {
      return fetched.status();
    }
    // Degraded mode: the error stays confined to the owning complex object
    // (or, for a shared component, to every object waiting on it).
    if (options_.use_sharing_statistics && ref.node->shared) {
      // Remember the bad component so later references drop their owners
      // without refetching.  `failed` is checked before any link, so the
      // null obj is never dereferenced.
      SharedEntry bad;
      bad.failed = true;
      bad.error_failed = true;
      shared_map_[ref.oid] = std::move(bad);
    }
    if (ref.shared_owned) {
      FailSharedEntry(ref.shared_owner, /*dropped=*/true);
    } else {
      DropComplex(ref.complex_id);
    }
    return Status::OK();
  }
  AssembledObject* obj = fetched.value();
  if (obj == nullptr) {
    return Status::OK();  // predicate failure, owner already aborted
  }
  LinkChild(ref, obj);
  if (ref.shared_owned) {
    FinishSharedRef(ref);
    return Status::OK();
  }
  return FinishOwnRef(ref);
}

Result<size_t> AssemblyOperator::NextBatch(exec::RowBatch* out) {
  COBRA_RETURN_IF_ERROR(exec::PrepareBatch(out));
  if (!open_) {
    return exec::AnnotateError(Status::Internal("NextBatch() before Open()"),
                               "Assembly");
  }
  for (;;) {
    // Hand over completed complex objects first; their pages stay charged
    // to the window until the consumer takes them.
    while (!ready_.empty() && !out->full()) {
      ReadyRow ready = std::move(ready_.front());
      ready_.pop_front();
      ReleasePages(&ready.pages);
      out->PushRow(std::move(ready.row));
    }
    if (out->full()) return out->size();
    // Sliding window: refill to W in-flight complex objects.
    while (!input_exhausted_ && in_flight_.size() < options_.window_size) {
      COBRA_RETURN_IF_ERROR(AdmitOne());
    }
    if (scheduler_->Empty()) {
      if (!in_flight_.empty()) {
        // Reachable only when shared components form a dependency cycle
        // (cyclic object data under a shared template node): each entry
        // waits for another and none can complete.  Acyclic data never
        // stalls.
        return exec::AnnotateError(
            Status::InvalidArgument(
                "assembly stalled: shared components form a cycle (cyclic "
                "object graph under a shared template node)"),
            "Assembly");
      }
      if (input_exhausted_) {
        return out->size();
      }
      continue;
    }
    if (Status s = options_.io_batch_pages > 1 ? ResolveRun() : ResolveOne();
        !s.ok()) {
      return exec::AnnotateError(s, "Assembly");
    }
  }
}

}  // namespace cobra
