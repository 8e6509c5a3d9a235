// Registry publisher and listener fan-out: how engine components publish
// into an obs::Registry.
//
// The engine exposes three narrow hook interfaces (AssemblyObserver,
// DiskEventListener, BufferEventListener) that cost one null-checked
// pointer test per event when nothing is attached.  RegistryPublisher
// implements all three and turns the event stream into named registry
// instruments, so SimulatedDisk, BufferManager and AssemblyOperator publish
// metrics without depending on the obs layer themselves:
//
//   counters    disk.reads, disk.writes, disk.faults.<kind>,
//               disk.s<k>.{reads,writes,read_seek_pages,write_seek_pages},
//               io.coalesced_runs,
//               buffer.hits, buffer.faults, buffer.evictions,
//               buffer.dirty_evictions, buffer.retries,
//               buffer.checksum_failures,
//               assembly.admitted, assembly.emitted, assembly.aborted,
//               assembly.objects_dropped, assembly.fetches,
//               assembly.shared_hits, assembly.prebuilt_hits,
//               wal.flushes, wal.records, wal.pages, wal.bytes
//   gauges      assembly.window_occupancy, assembly.pool_size (+ max)
//   histograms  disk.seek_distance, disk.write_seek_distance,
//               io.run_length, io.pages_per_read,
//               assembly.window_occupancy.dist, assembly.pool_size.dist,
//               assembly.fetch_latency_ns, wal.batch_records
//
// TelemetryHub fans one hook slot out to any number of sinks, so a bench
// can attach a RegistryPublisher *and* a TraceRecorder to the same disk.

#ifndef COBRA_OBS_TELEMETRY_H_
#define COBRA_OBS_TELEMETRY_H_

#include <vector>

#include "assembly/assembly_operator.h"
#include "buffer/buffer_manager.h"
#include "obs/clock.h"
#include "obs/registry.h"
#include "storage/disk.h"
#include "wal/wal_events.h"

namespace cobra::obs {

class RegistryPublisher : public AssemblyObserver,
                          public DiskEventListener,
                          public BufferEventListener,
                          public wal::WalEventListener {
 public:
  // Binds every instrument but the per-spindle counters, which appear on
  // each spindle's first event; `registry` must outlive the publisher.
  // The clock feeds the per-fetch latency histogram.
  explicit RegistryPublisher(Registry* registry,
                             const Clock* clock = nullptr);

  void OnEvent(const AssemblyEvent& event) override;
  // The plain disk hooks are the spindle-0 forms of the ...At hooks.
  void OnDiskRead(PageId page, uint64_t seek_pages) override;
  void OnDiskReadRun(PageId first_page, size_t pages,
                     uint64_t seek_pages) override;
  void OnDiskWrite(PageId page, uint64_t seek_pages) override;
  // Every read transfer, single page or vectored run, counts once in
  // disk.reads and disk.seek_distance and adds its page count to
  // io.pages_per_read (so that histogram's count equals disk.reads and its
  // total equals DiskStats::pages_read); a run of two or more pages also
  // counts in io.coalesced_runs and io.run_length.  The serving spindle k
  // is charged in disk.s<k>.{reads,writes,read_seek_pages,
  // write_seek_pages}, created on that spindle's first event, so the
  // per-spindle sums equal the global counters.  A run is charged once,
  // to its entry spindle.
  void OnDiskReadAt(uint32_t spindle, PageId page,
                    uint64_t seek_pages) override;
  void OnDiskWriteAt(uint32_t spindle, PageId page,
                     uint64_t seek_pages) override;
  void OnDiskReadRunAt(uint32_t spindle, PageId first_page, size_t pages,
                       uint64_t seek_pages) override;
  void OnDiskFault(PageId page, FaultKind kind) override;
  void OnBufferHit(PageId page) override;
  void OnBufferFault(PageId page) override;
  void OnBufferEviction(PageId page, bool dirty) override;
  void OnBufferRetry(PageId page, int attempt) override;
  void OnBufferChecksumFailure(PageId page) override;
  // Publishes wal.flushes / wal.records / wal.pages / wal.bytes and the
  // wal.batch_records distribution.  Fired by the group-commit daemon
  // thread: like every publisher hook, calls must be externally serialized
  // against other registry users (see service::LockedTelemetry).
  void OnWalFlush(wal::Lsn durable_lsn, size_t pages, size_t bytes,
                  size_t records) override;

 private:
  struct SpindleCounters {
    Counter* reads = nullptr;
    Counter* writes = nullptr;
    Counter* read_seek_pages = nullptr;
    Counter* write_seek_pages = nullptr;
  };
  // Spindle `spindle`'s disk.s<k>.* counters, created on first use.
  SpindleCounters& Spindle(uint32_t spindle);

  Registry* registry_;
  const Clock* clock_;

  Counter* disk_reads_;
  Counter* disk_writes_;
  Histogram* seek_distance_;
  Histogram* write_seek_distance_;
  // One counter per FaultKind, indexed by the enum value.
  Counter* disk_faults_[kNumFaultKinds];
  Counter* io_coalesced_runs_;
  Histogram* io_run_length_;
  Histogram* io_pages_per_read_;
  std::vector<SpindleCounters> spindles_;

  Counter* buffer_hits_;
  Counter* buffer_faults_;
  Counter* buffer_evictions_;
  Counter* buffer_dirty_evictions_;
  Counter* buffer_retries_;
  Counter* buffer_checksum_failures_;

  Counter* admitted_;
  Counter* emitted_;
  Counter* aborted_;
  Counter* dropped_;
  Counter* fetches_;
  Counter* shared_hits_;
  Counter* prebuilt_hits_;
  Gauge* window_occupancy_;
  Gauge* pool_size_;
  Histogram* window_occupancy_dist_;
  Histogram* pool_size_dist_;
  Histogram* fetch_latency_ns_;

  Counter* wal_flushes_;
  Counter* wal_records_;
  Counter* wal_pages_;
  Counter* wal_bytes_;
  Histogram* wal_batch_records_;

  uint64_t last_assembly_ns_ = 0;
  bool saw_assembly_event_ = false;
};

// Forwards each event to every registered sink, in registration order.
class TelemetryHub : public AssemblyObserver,
                     public DiskEventListener,
                     public BufferEventListener,
                     public wal::WalEventListener {
 public:
  void AddAssemblyObserver(AssemblyObserver* observer) {
    assembly_.push_back(observer);
  }
  void AddDiskListener(DiskEventListener* listener) {
    disk_.push_back(listener);
  }
  void AddBufferListener(BufferEventListener* listener) {
    buffer_.push_back(listener);
  }
  void AddWalListener(wal::WalEventListener* listener) {
    wal_.push_back(listener);
  }
  // Registers a sink with every interface it implements.
  void Add(RegistryPublisher* publisher) {
    AddAssemblyObserver(publisher);
    AddDiskListener(publisher);
    AddBufferListener(publisher);
    AddWalListener(publisher);
  }

  void OnEvent(const AssemblyEvent& event) override {
    for (AssemblyObserver* observer : assembly_) observer->OnEvent(event);
  }
  void OnDiskRead(PageId page, uint64_t seek_pages) override {
    for (DiskEventListener* listener : disk_) {
      listener->OnDiskRead(page, seek_pages);
    }
  }
  void OnDiskReadRun(PageId first_page, size_t pages,
                     uint64_t seek_pages) override {
    for (DiskEventListener* listener : disk_) {
      listener->OnDiskReadRun(first_page, pages, seek_pages);
    }
  }
  void OnDiskWrite(PageId page, uint64_t seek_pages) override {
    for (DiskEventListener* listener : disk_) {
      listener->OnDiskWrite(page, seek_pages);
    }
  }
  // The At-forms forward as At-forms so spindle-aware sinks see the spindle
  // and spindle-unaware ones fall through their own defaults.
  void OnDiskReadAt(uint32_t spindle, PageId page,
                    uint64_t seek_pages) override {
    for (DiskEventListener* listener : disk_) {
      listener->OnDiskReadAt(spindle, page, seek_pages);
    }
  }
  void OnDiskReadRunAt(uint32_t spindle, PageId first_page, size_t pages,
                       uint64_t seek_pages) override {
    for (DiskEventListener* listener : disk_) {
      listener->OnDiskReadRunAt(spindle, first_page, pages, seek_pages);
    }
  }
  void OnDiskWriteAt(uint32_t spindle, PageId page,
                     uint64_t seek_pages) override {
    for (DiskEventListener* listener : disk_) {
      listener->OnDiskWriteAt(spindle, page, seek_pages);
    }
  }
  void OnDiskFault(PageId page, FaultKind kind) override {
    for (DiskEventListener* listener : disk_) {
      listener->OnDiskFault(page, kind);
    }
  }
  void OnBufferHit(PageId page) override {
    for (BufferEventListener* listener : buffer_) listener->OnBufferHit(page);
  }
  void OnBufferFault(PageId page) override {
    for (BufferEventListener* listener : buffer_) {
      listener->OnBufferFault(page);
    }
  }
  void OnBufferEviction(PageId page, bool dirty) override {
    for (BufferEventListener* listener : buffer_) {
      listener->OnBufferEviction(page, dirty);
    }
  }
  void OnBufferRetry(PageId page, int attempt) override {
    for (BufferEventListener* listener : buffer_) {
      listener->OnBufferRetry(page, attempt);
    }
  }
  void OnBufferChecksumFailure(PageId page) override {
    for (BufferEventListener* listener : buffer_) {
      listener->OnBufferChecksumFailure(page);
    }
  }
  void OnWalFlush(wal::Lsn durable_lsn, size_t pages, size_t bytes,
                  size_t records) override {
    for (wal::WalEventListener* listener : wal_) {
      listener->OnWalFlush(durable_lsn, pages, bytes, records);
    }
  }

 private:
  std::vector<AssemblyObserver*> assembly_;
  std::vector<DiskEventListener*> disk_;
  std::vector<BufferEventListener*> buffer_;
  std::vector<wal::WalEventListener*> wal_;
};

}  // namespace cobra::obs

#endif  // COBRA_OBS_TELEMETRY_H_
