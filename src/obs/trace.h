// TraceRecorder: bounded event recorder + Chrome trace_event exporter.
//
// The recorder plugs into the engine hooks — AssemblyObserver,
// DiskEventListener, BufferEventListener, WalEventListener — stamps every
// event with an injectable clock, and keeps the last `capacity` events in a
// ring buffer (overflow drops the *oldest* events and counts them, so a long
// run always retains its tail).  It is the one event sink and is attached
// directly to the components it listens to, from any number of threads: one
// leaf mutex guards the ring and the lane state.
//
// Export renders Chrome's trace_event JSON (the `{"traceEvents": [...]}`
// object form), loadable in about:tracing or https://ui.perfetto.dev:
//
//   * one lane (tid) per assembly *window slot*, so W concurrent complex
//     objects appear as W horizontal tracks: an "assemble #id" span from
//     admit to emit/abort, with nested fetch / shared-hit / prebuilt-hit
//     spans showing where the slot's time went;
//   * a "disk" lane of read/write instants (args: page, seek distance,
//     query, spindle);
//   * a "buffer" lane of hit/fault/eviction instants;
//   * a "wal" lane of group-commit flush slices.
//
// Durations: an assembly operator runs on one thread, so the work attributed
// to an assembly event is the wall time since the *previous* assembly event;
// a fetch span therefore covers its disk I/O and swizzling.

#ifndef COBRA_OBS_TRACE_H_
#define COBRA_OBS_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "assembly/assembly_operator.h"
#include "buffer/buffer_manager.h"
#include "obs/bounded_ring.h"
#include "obs/clock.h"
#include "obs/json.h"
#include "storage/disk.h"
#include "wal/wal_events.h"

namespace cobra::obs {

struct TraceEvent {
  enum class Kind {
    kAdmit,
    kFetch,
    kSharedHit,
    kPrebuiltHit,
    kAbort,
    kEmit,
    kDrop,
    kDiskRead,
    kDiskWrite,
    kBufferHit,
    kBufferFault,
    kBufferEviction,
    // A group-commit batch became durable.  Field reuse: complex_id is the
    // durable LSN, run_pages the log pages written, seek_pages the record
    // count, page the byte count.
    kWalFlush,
  };

  Kind kind;
  uint64_t ts_ns = 0;   // completion time
  uint64_t dur_ns = 0;  // attributed work (0 for instants)
  uint64_t complex_id = 0;
  Oid oid = kInvalidOid;
  PageId page = kInvalidPageId;
  uint64_t seek_pages = 0;
  // Pages transferred by a kDiskRead (> 1 for a coalesced vectored run;
  // the exporter renders those as run-sized slices instead of instants).
  uint64_t run_pages = 1;
  // Originating query for disk events (obs::CurrentQueryId() at record
  // time); 0 when no query context was established.
  uint64_t query_id = 0;
  // Serving spindle for disk events (always 0 on a single-spindle device).
  uint32_t spindle = 0;
  int lane = -1;  // window-slot index for assembly events, else -1
};

const char* TraceEventKindName(TraceEvent::Kind kind);

class TraceRecorder : public AssemblyObserver,
                      public DiskEventListener,
                      public BufferEventListener,
                      public wal::WalEventListener {
 public:
  explicit TraceRecorder(const Clock* clock = nullptr,
                         size_t capacity = 65536);

  // AssemblyObserver.
  void OnEvent(const AssemblyEvent& event) override;
  // DiskEventListener.  Every disk slice carries its serving spindle; the
  // plain hooks are the spindle-0 forms of the At-hooks.
  void OnDiskRead(PageId page, uint64_t seek_pages) override;
  void OnDiskReadRun(PageId first_page, size_t pages,
                     uint64_t seek_pages) override;
  void OnDiskWrite(PageId page, uint64_t seek_pages) override;
  void OnDiskReadAt(uint32_t spindle, PageId page,
                    uint64_t seek_pages) override;
  void OnDiskReadRunAt(uint32_t spindle, PageId first_page, size_t pages,
                       uint64_t seek_pages) override;
  void OnDiskWriteAt(uint32_t spindle, PageId page,
                     uint64_t seek_pages) override;
  // BufferEventListener.
  void OnBufferHit(PageId page) override;
  void OnBufferFault(PageId page) override;
  void OnBufferEviction(PageId page, bool dirty) override;
  // wal::WalEventListener.  Renders as a "wal-flush" slice in its own lane
  // (one microsecond per log page, like disk-read-run).
  void OnWalFlush(wal::Lsn durable_lsn, size_t pages, size_t bytes,
                  size_t records) override;

  size_t capacity() const { return ring_.capacity(); }
  size_t size() const;
  // Events that fell off the front of the ring.
  uint64_t dropped() const;
  // Highest window-slot lane ever used + 1.
  int num_lanes() const;

  // Retained events, oldest first.
  std::vector<TraceEvent> Events() const;

  void Clear();

  // Chrome trace_event export.
  JsonValue ToChromeTrace() const;
  std::string ToChromeTraceJson() const { return ToChromeTrace().Dump(2); }
  Status WriteTo(const std::string& path) const {
    return WriteJsonFile(path, ToChromeTrace());
  }

 private:
  struct LiveComplex {
    int lane = 0;
    uint64_t admit_ns = 0;
  };

  // Stamps one disk, buffer or wal event and appends it under mu_, so the
  // ring stays in time order across threads.
  void Push(TraceEvent event);
  // Lowest free lane; lanes are recycled so W slots yield W lanes.  Caller
  // holds mu_.
  int AcquireLane();

  const Clock* clock_;
  // Leaf lock over everything below: taken where an event is pushed (and by
  // the readers), never while calling out.
  mutable std::mutex mu_;
  BoundedRing<TraceEvent> ring_;

  std::unordered_map<uint64_t, LiveComplex> live_;
  std::vector<bool> lane_in_use_;
  int num_lanes_ = 0;
  uint64_t last_assembly_ns_ = 0;
  bool saw_assembly_event_ = false;
};

}  // namespace cobra::obs

#endif  // COBRA_OBS_TRACE_H_
