#include "obs/trace.h"

#include <algorithm>

#include "obs/query_context.h"

namespace cobra::obs {
namespace {

// Fixed tids for the non-window lanes; window slots start at kFirstSlotTid.
constexpr int kDiskTid = 1;
constexpr int kBufferTid = 2;
constexpr int kWalTid = 3;
constexpr int kFirstSlotTid = 10;

}  // namespace

const char* TraceEventKindName(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::kAdmit: return "admit";
    case TraceEvent::Kind::kFetch: return "fetch";
    case TraceEvent::Kind::kSharedHit: return "shared-hit";
    case TraceEvent::Kind::kPrebuiltHit: return "prebuilt-hit";
    case TraceEvent::Kind::kAbort: return "abort";
    case TraceEvent::Kind::kEmit: return "emit";
    case TraceEvent::Kind::kDrop: return "drop";
    case TraceEvent::Kind::kDiskRead: return "disk-read";
    case TraceEvent::Kind::kDiskWrite: return "disk-write";
    case TraceEvent::Kind::kBufferHit: return "buffer-hit";
    case TraceEvent::Kind::kBufferFault: return "buffer-fault";
    case TraceEvent::Kind::kBufferEviction: return "buffer-eviction";
    case TraceEvent::Kind::kWalFlush: return "wal-flush";
  }
  return "?";
}

TraceRecorder::TraceRecorder(const Clock* clock, size_t capacity)
    : clock_(OrDefault(clock)), ring_(capacity, /*reserve=*/4096) {}

void TraceRecorder::Push(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  event.ts_ns = clock_->NowNanos();
  ring_.Push(event);
}

int TraceRecorder::AcquireLane() {
  for (size_t i = 0; i < lane_in_use_.size(); ++i) {
    if (!lane_in_use_[i]) {
      lane_in_use_[i] = true;
      return static_cast<int>(i);
    }
  }
  lane_in_use_.push_back(true);
  num_lanes_ = std::max(num_lanes_, static_cast<int>(lane_in_use_.size()));
  return static_cast<int>(lane_in_use_.size()) - 1;
}

void TraceRecorder::OnEvent(const AssemblyEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t now = clock_->NowNanos();
  uint64_t worked =
      saw_assembly_event_ && now > last_assembly_ns_ ? now - last_assembly_ns_
                                                     : 0;
  saw_assembly_event_ = true;
  last_assembly_ns_ = now;

  TraceEvent out;
  out.ts_ns = now;
  out.complex_id = event.complex_id;
  out.oid = event.oid;
  out.page = event.page;

  switch (event.kind) {
    case AssemblyEvent::Kind::kAdmit: {
      out.kind = TraceEvent::Kind::kAdmit;
      LiveComplex live{AcquireLane(), now};
      out.lane = live.lane;
      live_[event.complex_id] = live;
      break;
    }
    case AssemblyEvent::Kind::kFetch:
    case AssemblyEvent::Kind::kSharedHit:
    case AssemblyEvent::Kind::kPrebuiltHit: {
      out.kind = event.kind == AssemblyEvent::Kind::kFetch
                     ? TraceEvent::Kind::kFetch
                     : event.kind == AssemblyEvent::Kind::kSharedHit
                           ? TraceEvent::Kind::kSharedHit
                           : TraceEvent::Kind::kPrebuiltHit;
      out.dur_ns = worked;
      auto it = live_.find(event.complex_id);
      // Shared-owned fetches carry complex_id 0; they draw on lane -1 and
      // the exporter files them under the disk lane's sibling track.
      out.lane = it != live_.end() ? it->second.lane : -1;
      break;
    }
    case AssemblyEvent::Kind::kAbort:
    case AssemblyEvent::Kind::kEmit:
    case AssemblyEvent::Kind::kDrop: {
      out.kind = event.kind == AssemblyEvent::Kind::kAbort
                     ? TraceEvent::Kind::kAbort
                     : event.kind == AssemblyEvent::Kind::kEmit
                           ? TraceEvent::Kind::kEmit
                           : TraceEvent::Kind::kDrop;
      auto it = live_.find(event.complex_id);
      if (it != live_.end()) {
        out.lane = it->second.lane;
        out.dur_ns = now > it->second.admit_ns ? now - it->second.admit_ns : 0;
        lane_in_use_[static_cast<size_t>(it->second.lane)] = false;
        live_.erase(it);
      }
      break;
    }
  }
  ring_.Push(out);
}

void TraceRecorder::OnDiskRead(PageId page, uint64_t seek_pages) {
  OnDiskReadAt(0, page, seek_pages);
}

void TraceRecorder::OnDiskReadRun(PageId first_page, size_t pages,
                                  uint64_t seek_pages) {
  OnDiskReadRunAt(0, first_page, pages, seek_pages);
}

void TraceRecorder::OnDiskWrite(PageId page, uint64_t seek_pages) {
  OnDiskWriteAt(0, page, seek_pages);
}

void TraceRecorder::OnDiskReadAt(uint32_t spindle, PageId page,
                                 uint64_t seek_pages) {
  OnDiskReadRunAt(spindle, page, 1, seek_pages);
}

void TraceRecorder::OnDiskReadRunAt(uint32_t spindle, PageId first_page,
                                    size_t pages, uint64_t seek_pages) {
  TraceEvent out;
  out.kind = TraceEvent::Kind::kDiskRead;
  out.page = first_page;
  out.seek_pages = seek_pages;
  out.run_pages = pages == 0 ? 1 : pages;
  out.query_id = CurrentQueryId();
  out.spindle = spindle;
  Push(out);
}

void TraceRecorder::OnDiskWriteAt(uint32_t spindle, PageId page,
                                  uint64_t seek_pages) {
  TraceEvent out;
  out.kind = TraceEvent::Kind::kDiskWrite;
  out.page = page;
  out.seek_pages = seek_pages;
  out.query_id = CurrentQueryId();
  out.spindle = spindle;
  Push(out);
}

void TraceRecorder::OnBufferHit(PageId page) {
  TraceEvent out;
  out.kind = TraceEvent::Kind::kBufferHit;
  out.page = page;
  Push(out);
}

void TraceRecorder::OnBufferFault(PageId page) {
  TraceEvent out;
  out.kind = TraceEvent::Kind::kBufferFault;
  out.page = page;
  Push(out);
}

void TraceRecorder::OnBufferEviction(PageId page, bool dirty) {
  TraceEvent out;
  out.kind = TraceEvent::Kind::kBufferEviction;
  out.page = page;
  out.seek_pages = dirty ? 1 : 0;  // reuse the field: 1 = dirty write-back
  Push(out);
}

void TraceRecorder::OnWalFlush(wal::Lsn durable_lsn, size_t pages,
                               size_t bytes, size_t records) {
  TraceEvent out;
  out.kind = TraceEvent::Kind::kWalFlush;
  out.complex_id = durable_lsn;
  out.run_pages = pages == 0 ? 1 : pages;
  out.seek_pages = records;
  out.page = bytes;
  Push(out);
}

size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

uint64_t TraceRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.dropped();
}

int TraceRecorder::num_lanes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return num_lanes_;
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.Items();
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.Clear();
  live_.clear();
  lane_in_use_.clear();
  num_lanes_ = 0;
  saw_assembly_event_ = false;
}

JsonValue TraceRecorder::ToChromeTrace() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonValue events = JsonValue::MakeArray();

  auto meta = [&](int tid, const std::string& name) {
    JsonValue m = JsonValue::MakeObject();
    m.Set("ph", "M");
    m.Set("pid", 1);
    m.Set("tid", tid);
    m.Set("name", "thread_name");
    JsonValue args = JsonValue::MakeObject();
    args.Set("name", name);
    m.Set("args", std::move(args));
    events.Append(std::move(m));
  };
  meta(kDiskTid, "disk");
  meta(kBufferTid, "buffer");
  meta(kWalTid, "wal");
  for (int lane = 0; lane < num_lanes_; ++lane) {
    meta(kFirstSlotTid + lane, "window slot " + std::to_string(lane));
  }

  auto micros = [](uint64_t ns) { return static_cast<double>(ns) / 1000.0; };

  ring_.ForEach([&](const TraceEvent& event) {
    JsonValue e = JsonValue::MakeObject();
    e.Set("pid", 1);
    JsonValue args = JsonValue::MakeObject();
    switch (event.kind) {
      case TraceEvent::Kind::kAdmit:
        e.Set("name", "admit");
        e.Set("ph", "i");
        e.Set("s", "t");  // thread-scoped instant
        e.Set("tid", kFirstSlotTid + std::max(event.lane, 0));
        e.Set("ts", micros(event.ts_ns));
        args.Set("complex", event.complex_id);
        args.Set("oid", event.oid);
        break;
      case TraceEvent::Kind::kFetch:
      case TraceEvent::Kind::kSharedHit:
      case TraceEvent::Kind::kPrebuiltHit:
        e.Set("name", TraceEventKindName(event.kind));
        e.Set("ph", "X");
        // Shared-owned work (lane -1) gets its own track next to the slots.
        e.Set("tid", event.lane >= 0 ? kFirstSlotTid + event.lane
                                     : kFirstSlotTid - 1);
        e.Set("ts", micros(event.ts_ns - event.dur_ns));
        e.Set("dur", micros(event.dur_ns));
        args.Set("complex", event.complex_id);
        args.Set("oid", event.oid);
        if (event.page != kInvalidPageId) args.Set("page", event.page);
        break;
      case TraceEvent::Kind::kAbort:
      case TraceEvent::Kind::kEmit:
      case TraceEvent::Kind::kDrop:
        // The whole slot occupancy as one span, admit -> completion.
        e.Set("name", event.kind == TraceEvent::Kind::kEmit
                          ? "assemble"
                          : event.kind == TraceEvent::Kind::kAbort
                                ? "assemble (aborted)"
                                : "assemble (dropped: read error)");
        e.Set("ph", "X");
        e.Set("tid", kFirstSlotTid + std::max(event.lane, 0));
        e.Set("ts", micros(event.ts_ns - event.dur_ns));
        e.Set("dur", micros(event.dur_ns));
        args.Set("complex", event.complex_id);
        args.Set("oid", event.oid);
        break;
      case TraceEvent::Kind::kDiskRead:
      case TraceEvent::Kind::kDiskWrite:
        e.Set("tid", kDiskTid);
        if (event.kind == TraceEvent::Kind::kDiskRead &&
            event.run_pages > 1) {
          // Coalesced runs render as slices sized by their page count (one
          // microsecond per page — the simulated disk has no wall-clock
          // transfer time) so vectored transfers are visually distinct from
          // the single-page instants around them.
          e.Set("name", "disk-read-run");
          e.Set("ph", "X");
          e.Set("ts", micros(event.ts_ns));
          e.Set("dur", static_cast<double>(event.run_pages));
          args.Set("pages", event.run_pages);
        } else {
          e.Set("name", TraceEventKindName(event.kind));
          e.Set("ph", "i");
          e.Set("s", "t");
          e.Set("ts", micros(event.ts_ns));
        }
        args.Set("page", event.page);
        args.Set("seek_pages", event.seek_pages);
        args.Set("query", event.query_id);
        args.Set("spindle", event.spindle);
        break;
      case TraceEvent::Kind::kBufferHit:
      case TraceEvent::Kind::kBufferFault:
      case TraceEvent::Kind::kBufferEviction:
        e.Set("name", TraceEventKindName(event.kind));
        e.Set("ph", "i");
        e.Set("s", "t");
        e.Set("tid", kBufferTid);
        e.Set("ts", micros(event.ts_ns));
        args.Set("page", event.page);
        if (event.kind == TraceEvent::Kind::kBufferEviction) {
          args.Set("dirty", event.seek_pages != 0);
        }
        break;
      case TraceEvent::Kind::kWalFlush:
        // One slice per group-commit batch, sized by its log pages (one
        // microsecond per page, as for disk-read-run: the simulated disk
        // has no wall-clock transfer time).
        e.Set("name", "wal-flush");
        e.Set("ph", "X");
        e.Set("tid", kWalTid);
        e.Set("ts", micros(event.ts_ns));
        e.Set("dur", static_cast<double>(event.run_pages));
        args.Set("durable_lsn", event.complex_id);
        args.Set("pages", event.run_pages);
        args.Set("records", event.seek_pages);
        args.Set("bytes", event.page);
        break;
    }
    e.Set("args", std::move(args));
    events.Append(std::move(e));
  });

  JsonValue trace = JsonValue::MakeObject();
  trace.Set("traceEvents", std::move(events));
  trace.Set("displayTimeUnit", "ms");
  JsonValue other = JsonValue::MakeObject();
  other.Set("dropped_events", ring_.dropped());
  trace.Set("otherData", std::move(other));
  return trace;
}

}  // namespace cobra::obs
