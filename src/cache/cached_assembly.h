// AssembleThroughCache: the one drain loop every cached read path shares.
//
// With `cache == nullptr` this is *exactly* the historical uncached loop —
// VectorScan over the roots, one AssemblyOperator, NextBatch until dry —
// same operators, same I/O, same stats; QueryService::Execute and the
// figure benches route through it so `--object-cache off` stays
// bit-identical to every existing golden.
//
// With a cache, each root is looked up first; hits are delivered from the
// resident copy (pinned for the duration of the call, zero disk reads),
// misses are assembled by one operator over the miss set and inserted as
// they emit.  `on_object` (optional) observes every delivered complex
// object — cached or fresh — which is how the stale-read property harness
// cross-checks values against a shadow assembly under the same lock scope.

#ifndef COBRA_CACHE_CACHED_ASSEMBLY_H_
#define COBRA_CACHE_CACHED_ASSEMBLY_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "assembly/assembly_operator.h"
#include "assembly/template.h"
#include "cache/object_cache.h"
#include "common/status.h"
#include "object/object_store.h"
#include "object/oid.h"

namespace cobra::cache {

struct CachedAssemblyResult {
  Status status;
  uint64_t rows = 0;     // complex objects delivered (hits + assembled)
  uint64_t batches = 0;  // NextBatch calls that produced rows
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  AssemblyStats assembly;  // the miss-side operator's stats
};

using ObjectCallback = std::function<void(const AssembledObject&)>;

CachedAssemblyResult AssembleThroughCache(
    ObjectCache* cache, const AssemblyTemplate* tmpl, ObjectStore* store,
    const std::vector<Oid>& roots, const AssemblyOptions& options,
    size_t batch_size, const ObjectCallback& on_object = nullptr);

}  // namespace cobra::cache

#endif  // COBRA_CACHE_CACHED_ASSEMBLY_H_
