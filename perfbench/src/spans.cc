#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "obs/query_context.h"

namespace perfbench {
namespace {

std::atomic<uint64_t> g_next_generation{1};

// The calling thread's state in the recorder of generation tls_generation.
thread_local uint64_t tls_generation = 0;
thread_local void* tls_state = nullptr;

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kPass: return "workload.pass";
    case SpanName::kSubmit: return "service.submit";
    case SpanName::kExecuteWrite: return "service.execute_write";
    case SpanName::kPoolRead: return "disk.pool_side.read";
    case SpanName::kPoolWrite: return "disk.pool_side.write";
    case SpanName::kDiskRead: return "disk.device_side.read";
    case SpanName::kDiskWrite: return "disk.device_side.write";
    case SpanName::kLogWrite: return "disk.device_side.log_write";
    case SpanName::kLearner: return "recluster.learner";
    case SpanName::kPlanLayout: return "recluster.plan_layout";
    case SpanName::kMoverBatch: return "recluster.mover_batch";
    case SpanName::kOpProject: return "exec.project";
    case SpanName::kOpFilter: return "exec.filter";
    case SpanName::kOpAssembly: return "assembly.operator";
    case SpanName::kCount: break;
  }
  return "?";
}

SpanRecorder::SpanRecorder()
    : generation_(g_next_generation.fetch_add(1)) {}

SpanRecorder::~SpanRecorder() = default;

void SpanRecorder::Start() {
  start_ns_ = NowNs();
  active_.store(true, std::memory_order_relaxed);
}

void SpanRecorder::Stop() { active_.store(false, std::memory_order_relaxed); }

SpanRecorder::ThreadState* SpanRecorder::ThisThread() {
  if (tls_generation == generation_) {
    return static_cast<ThreadState*>(tls_state);
  }
  auto state = std::make_unique<ThreadState>();
  ThreadState* raw = state.get();
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    raw->index = static_cast<uint32_t>(threads_.size());
    threads_.push_back(std::move(state));
  }
  tls_generation = generation_;
  tls_state = raw;
  return raw;
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, SpanName name,
                           const HandoffKey* claim) {
  if (recorder == nullptr || !recorder->active()) return;
  ThreadState* state = recorder->ThisThread();
  if (state->depth == kMaxDepth) return;
  recorder_ = recorder;
  state_ = state;
  Frame& frame = state->frames[state->depth++];
  frame.id = (static_cast<uint64_t>(state->index + 1) << 40) |
             ++state->next_seq;
  frame.name = name;
  frame.request = cobra::obs::CurrentQueryId();
  frame.child_ns = 0;
  frame.remote_child_ns.store(0, std::memory_order_relaxed);
  frame.remote_parent = nullptr;
  frame.parent = 0;
  if (state->depth >= 2) {
    frame.parent = state->frames[state->depth - 2].id;
  } else if (claim != nullptr) {
    std::lock_guard<std::mutex> lock(recorder->handoff_mu_);
    auto it = recorder->handoff_.find(*claim);
    if (it != recorder->handoff_.end()) {
      frame.parent = it->second->id;
      frame.remote_parent = it->second;
    }
  }
  frame.start_ns = NowNs();
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  if (offered_) {
    std::lock_guard<std::mutex> lock(recorder_->handoff_mu_);
    recorder_->handoff_.erase(offer_key_);
  }
  recorder_->Close(state_);
}

void SpanRecorder::Scope::set_request(uint64_t request) {
  if (recorder_ == nullptr) return;
  state_->frames[state_->depth - 1].request = request;
}

void SpanRecorder::Scope::Offer(const HandoffKey& key) {
  if (recorder_ == nullptr) return;
  std::lock_guard<std::mutex> lock(recorder_->handoff_mu_);
  // A key already offered (same query, page and direction in flight twice)
  // keeps its first owner; the second device-side span stays parentless.
  if (recorder_->handoff_.emplace(key, &state_->frames[state_->depth - 1])
          .second) {
    offered_ = true;
    offer_key_ = key;
  }
}

void SpanRecorder::Close(ThreadState* state) {
  const uint64_t end = NowNs();
  Frame& frame = state->frames[--state->depth];
  const uint64_t duration = end - frame.start_ns;
  const uint64_t covered =
      frame.child_ns + frame.remote_child_ns.load(std::memory_order_acquire);
  SpanTotals& totals = state->totals[static_cast<size_t>(frame.name)];
  totals.count++;
  totals.total_ns += duration;
  totals.self_ns += duration - std::min(covered, duration);
  if (state->depth > 0) {
    state->frames[state->depth - 1].child_ns += duration;
  } else if (frame.remote_parent != nullptr) {
    frame.remote_parent->remote_child_ns.fetch_add(duration,
                                                   std::memory_order_release);
  }
  if (kept_total_.fetch_add(1, std::memory_order_relaxed) < kKeptSpans) {
    state->kept.push_back(SpanRecord{frame.id, frame.parent, frame.request,
                                     frame.start_ns, end, state->index,
                                     frame.name});
  } else {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

SpanTable SpanRecorder::Totals() const {
  SpanTable out{};
  std::lock_guard<std::mutex> lock(threads_mu_);
  for (const auto& state : threads_) {
    for (size_t i = 0; i < kNumSpanNames; ++i) {
      out[i].count += state->totals[i].count;
      out[i].total_ns += state->totals[i].total_ns;
      out[i].self_ns += state->totals[i].self_ns;
    }
  }
  return out;
}

cobra::Status SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return cobra::Status::Internal("cannot open " + path);
  std::lock_guard<std::mutex> lock(threads_mu_);
  for (const auto& state : threads_) {
    for (const SpanRecord& s : state->kept) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                   "\"request\":%llu,\"thread\":%u,\"start_ns\":%lld,"
                   "\"end_ns\":%lld}\n",
                   SpanNameString(s.name),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.thread,
                   static_cast<long long>(s.start_ns - start_ns_),
                   static_cast<long long>(s.end_ns - start_ns_));
    }
  }
  return std::fclose(f) == 0 ? cobra::Status::OK()
                             : cobra::Status::Internal("cannot write " + path);
}

}  // namespace perfbench
