#include "cache/cached_assembly.h"

#include <memory>
#include <utility>

#include "exec/scan.h"
#include "exec/value.h"

namespace cobra::cache {
namespace {

std::unique_ptr<exec::VectorScan> RootScan(const std::vector<Oid>& roots) {
  std::vector<exec::Row> rows;
  rows.reserve(roots.size());
  for (Oid oid : roots) {
    rows.push_back(exec::Row{exec::Value::Ref(oid)});
  }
  return std::make_unique<exec::VectorScan>(std::move(rows));
}

// Assembles `roots` with one operator and drains it; `per_row` sees every
// emitted object while the operator (and its arena) is still alive.
void DrainAssembly(const AssemblyTemplate* tmpl, ObjectStore* store,
                   const std::vector<Oid>& roots,
                   const AssemblyOptions& options, size_t batch_size,
                   const std::function<void(const AssembledObject&)>& per_row,
                   CachedAssemblyResult* result) {
  AssemblyOperator op(RootScan(roots), tmpl, store, options);
  result->status = op.Open();
  if (!result->status.ok()) return;
  exec::RowBatch batch(batch_size == 0 ? 1 : batch_size);
  for (;;) {
    Result<size_t> n = op.NextBatch(&batch);
    if (!n.ok()) {
      result->status = n.status();
      break;
    }
    if (*n == 0) break;
    result->rows += *n;
    result->batches++;
    if (per_row) {
      for (size_t i = 0; i < batch.size(); ++i) {
        const AssembledObject* obj = batch[i][0].AsObject();
        if (obj != nullptr) per_row(*obj);
      }
    }
  }
  result->assembly = op.stats();
  (void)op.Close();
}

}  // namespace

CachedAssemblyResult AssembleThroughCache(
    ObjectCache* cache, const AssemblyTemplate* tmpl, ObjectStore* store,
    const std::vector<Oid>& roots, const AssemblyOptions& options,
    size_t batch_size, const ObjectCallback& on_object) {
  CachedAssemblyResult result;
  if (cache == nullptr) {
    // The historical path, bit for bit: no lookups, no copies, no extra
    // reads of the emitted batch unless a callback asks for them.
    DrainAssembly(tmpl, store, roots, options, batch_size, on_object,
                  &result);
    return result;
  }

  // Lookup charges each outcome, counter and span, to the current query;
  // charging it here as well would count every lookup twice.
  std::vector<ObjectCache::Ref> hits;
  std::vector<Oid> misses;
  hits.reserve(roots.size());
  for (Oid root : roots) {
    ObjectCache::Ref ref = cache->Lookup(tmpl, root);
    if (ref) {
      hits.push_back(ref);
    } else {
      misses.push_back(root);
    }
  }
  result.cache_hits = hits.size();
  result.cache_misses = misses.size();

  // Hits deliver immediately from the resident copies.
  for (const ObjectCache::Ref& ref : hits) {
    result.rows++;
    if (on_object) on_object(*ref.object);
  }

  if (!misses.empty()) {
    DrainAssembly(tmpl, store, misses, options, batch_size,
                  [&](const AssembledObject& obj) {
                    cache->Insert(tmpl, obj, *store);
                    if (on_object) on_object(obj);
                  },
                  &result);
  }

  for (const ObjectCache::Ref& ref : hits) cache->Release(ref);
  return result;
}

}  // namespace cobra::cache
