#include "obs/telemetry.h"

#include <string>

namespace cobra::obs {

RegistryPublisher::RegistryPublisher(Registry* registry, const Clock* clock)
    : registry_(registry),
      clock_(OrDefault(clock)),
      disk_reads_(registry->GetCounter("disk.reads")),
      disk_writes_(registry->GetCounter("disk.writes")),
      seek_distance_(registry->GetHistogram("disk.seek_distance")),
      write_seek_distance_(registry->GetHistogram("disk.write_seek_distance")),
      io_coalesced_runs_(registry->GetCounter("io.coalesced_runs")),
      io_run_length_(registry->GetHistogram("io.run_length")),
      io_pages_per_read_(registry->GetHistogram("io.pages_per_read")),
      buffer_hits_(registry->GetCounter("buffer.hits")),
      buffer_faults_(registry->GetCounter("buffer.faults")),
      buffer_evictions_(registry->GetCounter("buffer.evictions")),
      buffer_dirty_evictions_(registry->GetCounter("buffer.dirty_evictions")),
      buffer_retries_(registry->GetCounter("buffer.retries")),
      buffer_checksum_failures_(
          registry->GetCounter("buffer.checksum_failures")),
      admitted_(registry->GetCounter("assembly.admitted")),
      emitted_(registry->GetCounter("assembly.emitted")),
      aborted_(registry->GetCounter("assembly.aborted")),
      dropped_(registry->GetCounter("assembly.objects_dropped")),
      fetches_(registry->GetCounter("assembly.fetches")),
      shared_hits_(registry->GetCounter("assembly.shared_hits")),
      prebuilt_hits_(registry->GetCounter("assembly.prebuilt_hits")),
      window_occupancy_(registry->GetGauge("assembly.window_occupancy")),
      pool_size_(registry->GetGauge("assembly.pool_size")),
      window_occupancy_dist_(
          registry->GetHistogram("assembly.window_occupancy.dist")),
      pool_size_dist_(registry->GetHistogram("assembly.pool_size.dist")),
      fetch_latency_ns_(registry->GetHistogram("assembly.fetch_latency_ns")),
      wal_flushes_(registry->GetCounter("wal.flushes")),
      wal_records_(registry->GetCounter("wal.records")),
      wal_pages_(registry->GetCounter("wal.pages")),
      wal_bytes_(registry->GetCounter("wal.bytes")),
      wal_batch_records_(registry->GetHistogram("wal.batch_records")) {
  for (int i = 0; i < kNumFaultKinds; ++i) {
    disk_faults_[i] =
        registry->GetCounter(std::string("disk.faults.") +
                             FaultKindName(static_cast<FaultKind>(i)));
  }
}

void RegistryPublisher::OnEvent(const AssemblyEvent& event) {
  switch (event.kind) {
    case AssemblyEvent::Kind::kAdmit:
      admitted_->Inc();
      break;
    case AssemblyEvent::Kind::kFetch: {
      fetches_->Inc();
      uint64_t now = clock_->NowNanos();
      if (saw_assembly_event_ && now >= last_assembly_ns_) {
        fetch_latency_ns_->Add(now - last_assembly_ns_);
      }
      break;
    }
    case AssemblyEvent::Kind::kSharedHit:
      shared_hits_->Inc();
      break;
    case AssemblyEvent::Kind::kPrebuiltHit:
      prebuilt_hits_->Inc();
      break;
    case AssemblyEvent::Kind::kAbort:
      aborted_->Inc();
      break;
    case AssemblyEvent::Kind::kEmit:
      emitted_->Inc();
      break;
    case AssemblyEvent::Kind::kDrop:
      dropped_->Inc();
      break;
  }
  window_occupancy_->Set(static_cast<int64_t>(event.window_occupancy));
  pool_size_->Set(static_cast<int64_t>(event.pool_size));
  window_occupancy_dist_->Add(event.window_occupancy);
  pool_size_dist_->Add(event.pool_size);
  saw_assembly_event_ = true;
  last_assembly_ns_ = clock_->NowNanos();
}

void RegistryPublisher::OnDiskRead(PageId page, uint64_t seek_pages) {
  OnDiskReadRunAt(0, page, 1, seek_pages);
}

void RegistryPublisher::OnDiskReadRun(PageId first_page, size_t pages,
                                      uint64_t seek_pages) {
  OnDiskReadRunAt(0, first_page, pages, seek_pages);
}

void RegistryPublisher::OnDiskWrite(PageId page, uint64_t seek_pages) {
  OnDiskWriteAt(0, page, seek_pages);
}

RegistryPublisher::SpindleCounters& RegistryPublisher::Spindle(
    uint32_t spindle) {
  if (spindle >= spindles_.size()) spindles_.resize(spindle + 1);
  SpindleCounters& counters = spindles_[spindle];
  if (counters.reads == nullptr) {
    const std::string prefix = "disk.s" + std::to_string(spindle) + ".";
    counters.reads = registry_->GetCounter(prefix + "reads");
    counters.writes = registry_->GetCounter(prefix + "writes");
    counters.read_seek_pages =
        registry_->GetCounter(prefix + "read_seek_pages");
    counters.write_seek_pages =
        registry_->GetCounter(prefix + "write_seek_pages");
  }
  return counters;
}

void RegistryPublisher::OnDiskReadAt(uint32_t spindle, PageId page,
                                     uint64_t seek_pages) {
  OnDiskReadRunAt(spindle, page, 1, seek_pages);
}

void RegistryPublisher::OnDiskWriteAt(uint32_t spindle, PageId,
                                      uint64_t seek_pages) {
  disk_writes_->Inc();
  write_seek_distance_->Add(seek_pages);
  SpindleCounters& counters = Spindle(spindle);
  counters.writes->Inc();
  counters.write_seek_pages->Inc(seek_pages);
}

void RegistryPublisher::OnDiskReadRunAt(uint32_t spindle, PageId,
                                        size_t pages, uint64_t seek_pages) {
  disk_reads_->Inc();
  seek_distance_->Add(seek_pages);
  io_pages_per_read_->Add(static_cast<uint64_t>(pages));
  if (pages >= 2) {
    io_coalesced_runs_->Inc();
    io_run_length_->Add(static_cast<uint64_t>(pages));
  }
  SpindleCounters& counters = Spindle(spindle);
  counters.reads->Inc();
  counters.read_seek_pages->Inc(seek_pages);
}

void RegistryPublisher::OnDiskFault(PageId, FaultKind kind) {
  disk_faults_[static_cast<int>(kind)]->Inc();
}

void RegistryPublisher::OnBufferHit(PageId) { buffer_hits_->Inc(); }

void RegistryPublisher::OnBufferFault(PageId) { buffer_faults_->Inc(); }

void RegistryPublisher::OnBufferEviction(PageId, bool dirty) {
  buffer_evictions_->Inc();
  if (dirty) buffer_dirty_evictions_->Inc();
}

void RegistryPublisher::OnBufferRetry(PageId, int) { buffer_retries_->Inc(); }

void RegistryPublisher::OnBufferChecksumFailure(PageId) {
  buffer_checksum_failures_->Inc();
}

void RegistryPublisher::OnWalFlush(wal::Lsn, size_t pages, size_t bytes,
                                   size_t records) {
  wal_flushes_->Inc();
  wal_records_->Inc(records);
  wal_pages_->Inc(pages);
  wal_bytes_->Inc(bytes);
  wal_batch_records_->Add(records);
}

}  // namespace cobra::obs
