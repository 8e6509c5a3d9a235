// JSON exporters for the engine's stat structs and RunMetrics — the bridge
// between the existing text tables and machine-readable bench output
// (BENCH_*.json).  Every exporter returns a JsonValue so callers compose
// run objects freely before writing with WriteJsonFile().

#ifndef COBRA_OBS_EXPORT_H_
#define COBRA_OBS_EXPORT_H_

#include "assembly/assembly_operator.h"
#include "buffer/buffer_manager.h"
#include "cache/object_cache.h"
#include "obs/json.h"
#include "stats/metrics.h"
#include "storage/disk.h"
#include "storage/faulty_disk.h"
#include "wal/wal.h"

namespace cobra::obs {

JsonValue ToJson(const DiskStats& stats);
JsonValue ToJson(const BufferStats& stats);
JsonValue ToJson(const AssemblyStats& stats);
JsonValue ToJson(const FaultStats& stats);
// Append/flush-path and recovery counters of a WalManager.
JsonValue ToJson(const wal::WalStats& stats);
// Assembled-object cache outcomes (the policy name is the caller's).
JsonValue ToJson(const cache::CacheStats& stats);

// Full run export: label, the three stat structs, derived headline metrics
// (avg_seek, avg_write_seek) and — when the run recorded a read trace —
// the seek-distance histogram with p50/p95/p99 quantiles.
JsonValue ToJson(const RunMetrics& metrics);

}  // namespace cobra::obs

#endif  // COBRA_OBS_EXPORT_H_
