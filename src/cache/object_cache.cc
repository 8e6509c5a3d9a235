#include "cache/object_cache.h"

#include <algorithm>
#include <atomic>

#include "obs/query_context.h"

namespace cobra::cache {
namespace {

std::atomic<uint64_t> g_live_instances{0};

// True if any template node reachable from the root carries a predicate.
// Predicates decide *membership* (selective assembly aborts the complex
// object), so their spaces can only be invalidated, never patched.
bool TemplateHasPredicate(const AssemblyTemplate* tmpl) {
  if (tmpl == nullptr || tmpl->root() == nullptr) return false;
  std::unordered_set<const TemplateNode*> visited;
  std::vector<const TemplateNode*> stack{tmpl->root()};
  while (!stack.empty()) {
    const TemplateNode* node = stack.back();
    stack.pop_back();
    if (!visited.insert(node).second) continue;
    if (node->predicate) return true;
    for (const TemplateNode::ChildEdge& edge : node->children) {
      if (edge.child != nullptr) stack.push_back(edge.child);
    }
  }
  return false;
}

uint64_t EntryKey(uint32_t space_id, Oid root) {
  return (static_cast<uint64_t>(space_id) << 32) |
         (static_cast<uint64_t>(root) & 0xffffffffULL);
}

}  // namespace

ObjectCache::ObjectCache(CacheOptions options)
    : options_(options), schema_version_(options.schema_version) {
  policy_ = MakeCachePolicy(options_.policy == CachePolicyKind::kOff
                                ? CachePolicyKind::kTwoQ
                                : options_.policy,
                            options_.capacity);
  g_live_instances.fetch_add(1, std::memory_order_relaxed);
}

ObjectCache::~ObjectCache() {
  g_live_instances.fetch_sub(1, std::memory_order_relaxed);
}

uint64_t ObjectCache::live_instances() {
  return g_live_instances.load(std::memory_order_relaxed);
}

ObjectCache::Space* ObjectCache::GetSpaceLocked(const AssemblyTemplate* tmpl) {
  auto it = spaces_.find(tmpl);
  if (it != spaces_.end()) {
    Space* space = it->second.get();
    if (space->schema_version == schema_version_) return space;
    // Built under an older schema: everything in it is unreachable.
    DropSpaceLocked(space);
    space->schema_version = schema_version_;
    return space;
  }
  auto space = std::make_unique<Space>();
  space->id = next_space_id_++;
  space->tmpl = tmpl;
  space->schema_version = schema_version_;
  space->patchable = !TemplateHasPredicate(tmpl);
  Space* raw = space.get();
  spaces_.emplace(tmpl, std::move(space));
  return raw;
}

void ObjectCache::DropSpaceLocked(Space* space) {
  std::vector<Entry*> entries;
  entries.reserve(space->entries.size());
  for (auto& [oid, entry] : space->entries) entries.push_back(entry);
  for (Entry* entry : entries) RemoveEntryLocked(entry, /*evict=*/false);
  // Entry teardown derefs segments; anything left is an unreachable cycle.
  space->segments.clear();
}

ObjectCache::Ref ObjectCache::Lookup(const AssemblyTemplate* tmpl, Oid root) {
  std::lock_guard<std::mutex> lock(mu_);
  Space* space = GetSpaceLocked(tmpl);
  auto it = space->entries.find(root);
  if (it == space->entries.end()) {
    stats_.misses++;
    ChargeLookupLocked(root, /*hit=*/false);
    return Ref{};
  }
  Entry* entry = it->second;
  entry->pins++;
  policy_->OnHit(entry->key);
  stats_.hits++;
  ChargeLookupLocked(root, /*hit=*/true);
  return Ref{entry->root, entry};
}

void ObjectCache::Release(const Ref& ref) {
  if (ref.entry == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  Entry* entry = static_cast<Entry*>(ref.entry);
  entry->pins--;
  if (entry->zombie && entry->pins == 0) {
    for (auto it = zombies_.begin(); it != zombies_.end(); ++it) {
      if (it->get() == entry) {
        zombies_.erase(it);
        break;
      }
    }
  }
}

void ObjectCache::ChargeLookupLocked(Oid root, bool hit) {
  if (obs::QueryContext* query = obs::CurrentQuery()) {
    if (hit) {
      query->io.cache_hits.fetch_add(1, std::memory_order_relaxed);
      query->Record({obs::SpanEventKind::kCacheHit, 0, 0, 0,
                     static_cast<uint64_t>(root), 0});
    } else {
      query->io.cache_misses.fetch_add(1, std::memory_order_relaxed);
      query->Record({obs::SpanEventKind::kCacheMiss, 0, 0, 0,
                     static_cast<uint64_t>(root), 0});
    }
  }
}

void ObjectCache::Insert(const AssemblyTemplate* tmpl,
                         const AssembledObject& obj,
                         const ObjectStore& store) {
  if (obj.oid == kInvalidOid) return;
  // Footprint first, outside the cache lock: directory lookups only — the
  // object was just assembled, so every component is registered.
  std::unordered_set<Oid> oids = CollectOids(&obj);
  std::unordered_set<PageId> pages;
  pages.reserve(oids.size());
  for (Oid oid : oids) {
    Result<RecordId> loc = store.Locate(oid);
    if (loc.ok()) pages.insert(loc->page);
  }

  std::lock_guard<std::mutex> lock(mu_);
  Space* space = GetSpaceLocked(tmpl);
  if (space->entries.count(obj.oid) != 0) return;  // raced another reader

  auto owned = std::make_unique<Entry>();
  Entry* entry = owned.get();
  entry->space = space;
  entry->root_oid = obj.oid;
  entry->key = EntryKey(space->id, obj.oid);
  entry->footprint.assign(pages.begin(), pages.end());
  std::sort(entry->footprint.begin(), entry->footprint.end());

  std::unordered_set<SharedSegment*> seen;
  CopyScope scope{space, &entry->segments, &seen};
  std::unordered_map<const AssembledObject*, AssembledObject*> memo;
  entry->root =
      CopyNodeLocked(&obj, tmpl->root(), &entry->arena, &entry->by_oid,
                     &memo, &scope);

  space->entries.emplace(obj.oid, entry);
  for (PageId page : entry->footprint) by_page_[page].insert(entry);
  entries_.emplace(entry->key, std::move(owned));
  policy_->OnInsert(entry->key);
  stats_.insertions++;
  EvictToCapacityLocked();
}

AssembledObject* ObjectCache::CopyNodeLocked(
    const AssembledObject* src, const TemplateNode* tnode,
    ObjectArena* arena,
    std::unordered_map<Oid, std::vector<AssembledObject*>>* by_oid,
    std::unordered_map<const AssembledObject*, AssembledObject*>* memo,
    CopyScope* scope) {
  auto it = memo->find(src);
  if (it != memo->end()) return it->second;
  AssembledObject* copy =
      arena->New(src->oid, src->type_id, src->fields, src->children.size());
  // Memoize before recursing: recursive templates over cyclic data resolve
  // back-references to the placeholder instead of looping.
  (*memo)[src] = copy;
  std::copy(src->child_slots.begin(), src->child_slots.end(),
            copy->child_slots.begin());
  (*by_oid)[src->oid].push_back(copy);
  for (size_t i = 0; i < src->children.size(); ++i) {
    const AssembledObject* child = src->children[i];
    if (child == nullptr) continue;
    // children[i] corresponds positionally to the template's child edge i
    // (assembly allocates one slot per edge, in order).
    const TemplateNode* child_node =
        (tnode != nullptr && i < tnode->children.size())
            ? tnode->children[i].child
            : nullptr;
    AssembledObject* child_copy;
    if (child_node != nullptr && child_node->shared) {
      child_copy = LinkSegmentLocked(child, child_node, scope);
    } else {
      child_copy = CopyNodeLocked(child, child_node, arena, by_oid, memo,
                                  scope);
    }
    copy->children[i] = child_copy;
    if (child_copy != nullptr) child_copy->ref_count++;
  }
  return copy;
}

AssembledObject* ObjectCache::LinkSegmentLocked(const AssembledObject* src,
                                                const TemplateNode* tnode,
                                                CopyScope* scope) {
  Space* space = scope->space;
  SharedSegment* segment;
  auto it = space->segments.find(src->oid);
  if (it != space->segments.end()) {
    segment = it->second.get();
    stats_.shared_reuses++;
  } else {
    auto owned = std::make_unique<SharedSegment>();
    segment = owned.get();
    segment->root_oid = src->oid;
    // Register before copying so a cyclic shared reference finds it.
    space->segments.emplace(src->oid, std::move(owned));
    // Segments reached from inside this one are owned by it, not by the
    // entry, so an entry reusing this segment keeps the whole chain alive.
    std::unordered_set<SharedSegment*> nested_seen;
    CopyScope nested{space, &segment->children, &nested_seen};
    std::unordered_map<const AssembledObject*, AssembledObject*> memo;
    segment->root = CopyNodeLocked(src, tnode, &segment->arena,
                                   &segment->by_oid, &memo, &nested);
    // Each nested child already carries exactly one reference from this
    // segment: the nested scope's link step charged it when it pushed the
    // child onto `children`.  DerefSegmentLocked releases exactly that one.
  }
  if (scope->seg_seen->insert(segment).second) {
    segment->refs++;
    scope->seg_list->push_back(segment);
  }
  return segment->root;
}

void ObjectCache::DerefSegmentLocked(Space* space, SharedSegment* segment) {
  segment->refs--;
  if (segment->refs > 0) return;
  // Detach children first (the erase below frees this segment).
  std::vector<SharedSegment*> children = std::move(segment->children);
  space->segments.erase(segment->root_oid);
  for (SharedSegment* child : children) DerefSegmentLocked(space, child);
}

void ObjectCache::RemoveEntryLocked(Entry* entry, bool evict) {
  if (evict) policy_->OnEvict(entry->key);
  else policy_->OnErase(entry->key);
  entry->space->entries.erase(entry->root_oid);
  for (PageId page : entry->footprint) {
    auto it = by_page_.find(page);
    if (it == by_page_.end()) continue;
    it->second.erase(entry);
    if (it->second.empty()) by_page_.erase(it);
  }
  for (SharedSegment* segment : entry->segments) {
    DerefSegmentLocked(entry->space, segment);
  }
  entry->segments.clear();
  auto it = entries_.find(entry->key);
  std::unique_ptr<Entry> owned = std::move(it->second);
  entries_.erase(it);
  if (entry->pins > 0) {
    // A reader still traverses it; keep the memory until the last Release.
    entry->zombie = true;
    zombies_.push_back(std::move(owned));
  }
}

void ObjectCache::EvictToCapacityLocked() {
  while (entries_.size() > options_.capacity) {
    uint64_t key = policy_->Victim([this](uint64_t candidate) {
      auto it = entries_.find(candidate);
      return it != entries_.end() && it->second->pins == 0;
    });
    if (key == 0) break;  // everything evictable is pinned
    auto it = entries_.find(key);
    if (it == entries_.end()) break;
    RemoveEntryLocked(it->second.get(), /*evict=*/true);
    stats_.evictions++;
  }
}

ObjectCache::PatchResult ObjectCache::PatchEntryLocked(
    Entry* entry, const ObjectData& after) {
  // Every copy of the object the entry reaches: its own, and those in its
  // shared segments, transitively (nested borders hang off their parents).
  std::vector<AssembledObject*> copies;
  auto collect = [&after, &copies](
                     const std::unordered_map<
                         Oid, std::vector<AssembledObject*>>& by_oid) {
    auto it = by_oid.find(after.oid);
    if (it == by_oid.end()) return;
    copies.insert(copies.end(), it->second.begin(), it->second.end());
  };
  collect(entry->by_oid);
  std::unordered_set<SharedSegment*> visited;
  std::vector<SharedSegment*> stack(entry->segments.begin(),
                                    entry->segments.end());
  while (!stack.empty()) {
    SharedSegment* segment = stack.back();
    stack.pop_back();
    if (!visited.insert(segment).second) continue;
    collect(segment->by_oid);
    for (SharedSegment* child : segment->children) stack.push_back(child);
  }
  if (copies.empty()) return PatchResult::kAbsent;
  // The cached fields live in fixed-size arena spans: write the
  // after-image only where it fits exactly, and into no copy otherwise.
  for (const AssembledObject* node : copies) {
    if (node->fields.size() != after.fields.size()) {
      return PatchResult::kReshaped;
    }
  }
  for (AssembledObject* node : copies) {
    std::copy(after.fields.begin(), after.fields.end(), node->fields.begin());
  }
  return PatchResult::kPatched;
}

WriteEffect ObjectCache::ApplyCommittedWrite(
    const std::vector<CommittedWrite>& ops) {
  WriteEffect effect;
  std::lock_guard<std::mutex> lock(mu_);
  for (const CommittedWrite& op : ops) {
    auto it = by_page_.find(op.page);
    if (it == by_page_.end()) continue;
    // Copy: invalidation mutates the index we are iterating.
    std::vector<Entry*> targets(it->second.begin(), it->second.end());
    for (Entry* entry : targets) {
      if (entry->zombie) continue;
      if (op.patch && entry->space->patchable) {
        PatchResult patched = PatchEntryLocked(entry, op.after);
        if (patched == PatchResult::kPatched) effect.patched++;
        // A reshaped object cannot be patched in place; invalidate.
        if (patched != PatchResult::kReshaped) continue;
      }
      RemoveEntryLocked(entry, /*evict=*/false);
      effect.invalidated++;
    }
  }
  stats_.invalidations += effect.invalidated;
  stats_.patches += effect.patched;
  return effect;
}

void ObjectCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [tmpl, space] : spaces_) DropSpaceLocked(space.get());
}

void ObjectCache::BumpSchemaVersion() {
  std::lock_guard<std::mutex> lock(mu_);
  schema_version_++;
  stats_.schema_flushes++;
  // Drop eagerly; lazy per-space checks in GetSpaceLocked cover templates
  // looked up later.
  for (auto& [tmpl, space] : spaces_) {
    DropSpaceLocked(space.get());
    space->schema_version = schema_version_;
  }
}

uint64_t ObjectCache::schema_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return schema_version_;
}

CacheStats ObjectCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t ObjectCache::resident_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

size_t ObjectCache::shared_segment_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t count = 0;
  for (const auto& [tmpl, space] : spaces_) count += space->segments.size();
  return count;
}

uint64_t ObjectCache::total_shared_refs() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t refs = 0;
  for (const auto& [tmpl, space] : spaces_) {
    for (const auto& [oid, segment] : space->segments) {
      refs += static_cast<uint64_t>(segment->refs);
    }
  }
  return refs;
}

size_t ObjectCache::pinned_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t pinned = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry->pins > 0) pinned++;
  }
  return pinned + zombies_.size();
}

const char* ObjectCache::policy_name() const { return policy_->name(); }

}  // namespace cobra::cache
