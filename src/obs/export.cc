#include "obs/export.h"

#include "obs/snapshot.h"

namespace cobra::obs {

JsonValue ToJson(const DiskStats& stats) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("reads", stats.reads);
  out.Set("writes", stats.writes);
  out.Set("read_seek_pages", stats.read_seek_pages);
  out.Set("write_seek_pages", stats.write_seek_pages);
  out.Set("avg_seek_per_read", stats.AvgSeekPerRead());
  out.Set("avg_seek_per_write", stats.AvgSeekPerWrite());
  out.Set("pages_read", stats.pages_read);
  out.Set("coalesced_runs", stats.coalesced_runs);
  return out;
}

JsonValue ToJson(const BufferStats& stats) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("hits", stats.hits);
  out.Set("faults", stats.faults);
  out.Set("evictions", stats.evictions);
  out.Set("dirty_writebacks", stats.dirty_writebacks);
  out.Set("retries", stats.retries);
  out.Set("retries_exhausted", stats.retries_exhausted);
  out.Set("checksum_failures", stats.checksum_failures);
  out.Set("write_retries", stats.write_retries);
  out.Set("prefetches", stats.prefetches);
  out.Set("max_pinned", stats.max_pinned);
  out.Set("hit_rate", stats.HitRate());
  return out;
}

JsonValue ToJson(const AssemblyStats& stats) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("objects_fetched", stats.objects_fetched);
  out.Set("shared_hits", stats.shared_hits);
  out.Set("prebuilt_hits", stats.prebuilt_hits);
  out.Set("refs_resolved", stats.refs_resolved);
  out.Set("complex_admitted", stats.complex_admitted);
  out.Set("complex_emitted", stats.complex_emitted);
  out.Set("complex_aborted", stats.complex_aborted);
  out.Set("objects_dropped", stats.objects_dropped);
  out.Set("max_window_pages", stats.max_window_pages);
  out.Set("max_pool_size", stats.max_pool_size);
  return out;
}

JsonValue ToJson(const FaultStats& stats) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("transient_failures", stats.transient_failures);
  out.Set("permanent_failures", stats.permanent_failures);
  out.Set("bit_flips", stats.bit_flips);
  out.Set("torn_pages", stats.torn_pages);
  out.Set("latency_injections", stats.latency_injections);
  out.Set("transient_write_failures", stats.transient_write_failures);
  out.Set("torn_writes", stats.torn_writes);
  out.Set("degraded_reads", stats.degraded_reads);
  out.Set("total", stats.total());
  return out;
}

JsonValue ToJson(const wal::WalStats& stats) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("records_appended", stats.records_appended);
  out.Set("begins", stats.begins);
  out.Set("commits", stats.commits);
  out.Set("aborts", stats.aborts);
  out.Set("images_logged", stats.images_logged);
  out.Set("batches_flushed", stats.batches_flushed);
  out.Set("log_pages_written", stats.log_pages_written);
  out.Set("bytes_flushed", stats.bytes_flushed);
  out.Set("flush_retries", stats.flush_retries);
  out.Set("checkpoints", stats.checkpoints);
  out.Set("recovered_records", stats.recovered_records);
  out.Set("recovered_commits", stats.recovered_commits);
  out.Set("discarded_txns", stats.discarded_txns);
  out.Set("moves_logged", stats.moves_logged);
  out.Set("redo_moves", stats.redo_moves);
  out.Set("redo_applied", stats.redo_applied);
  out.Set("redo_images", stats.redo_images);
  out.Set("redo_formats", stats.redo_formats);
  out.Set("redo_skipped_uncommitted", stats.redo_skipped_uncommitted);
  out.Set("redo_skipped_stale", stats.redo_skipped_stale);
  out.Set("redo_deferred", stats.redo_deferred);
  out.Set("pages_repaired", stats.pages_repaired);
  out.Set("torn_tail_events", stats.torn_tail_events);
  return out;
}

JsonValue ToJson(const cache::CacheStats& stats) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("hits", stats.hits);
  out.Set("misses", stats.misses);
  out.Set("insertions", stats.insertions);
  out.Set("evictions", stats.evictions);
  out.Set("invalidations", stats.invalidations);
  out.Set("patches", stats.patches);
  out.Set("shared_reuses", stats.shared_reuses);
  out.Set("schema_flushes", stats.schema_flushes);
  return out;
}

JsonValue ToJson(const RunMetrics& metrics) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("label", metrics.label);
  out.Set("avg_seek", metrics.avg_seek());
  out.Set("avg_write_seek", metrics.avg_write_seek());
  out.Set("disk", ToJson(metrics.disk));
  out.Set("buffer", ToJson(metrics.buffer));
  out.Set("assembly", ToJson(metrics.assembly));
  if (metrics.read_seeks.count() > 0) {
    out.Set("seek_histogram", HistogramToJson(metrics.read_seeks));
  }
  return out;
}

}  // namespace cobra::obs
