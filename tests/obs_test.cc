// Telemetry subsystem: trace-recorder invariants, Chrome trace export,
// and EXPLAIN ANALYZE profiling.

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "assembly/assembly_operator.h"
#include "buffer/buffer_manager.h"
#include "exec/iterator.h"
#include "exec/plan.h"
#include "exec/scan.h"
#include "file/heap_file.h"
#include "object/directory.h"
#include "object/object_store.h"
#include "obs/clock.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/profile.h"
#include "obs/query_context.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "storage/disk.h"

namespace cobra {
namespace {

using exec::Row;
using exec::Value;
using exec::VectorScan;

// Advances a manual clock on every assembly event, then forwards the event
// to `next`, so the recorder sees strictly increasing timestamps (execution
// itself is instantaneous in tests).
class ClockTicker : public AssemblyObserver {
 public:
  ClockTicker(obs::ManualClock* clock, AssemblyObserver* next)
      : clock_(clock), next_(next) {}
  void OnEvent(const AssemblyEvent& event) override {
    clock_->Advance(1000);
    next_->OnEvent(event);
  }

 private:
  obs::ManualClock* clock_;
  AssemblyObserver* next_;
};

class ObsTest : public ::testing::Test {
 protected:
  ObsTest()
      : buffer_(&disk_, BufferOptions{.num_frames = 256}),
        store_(&buffer_, &directory_),
        file_(&buffer_, 0, 64) {}

  Oid Put(TypeId type, std::vector<int32_t> fields, std::vector<Oid> refs,
          size_t page) {
    ObjectData obj;
    obj.oid = store_.AllocateOid();
    obj.type_id = type;
    obj.fields = std::move(fields);
    obj.refs = std::move(refs);
    obj.refs.resize(8, kInvalidOid);
    EXPECT_TRUE(store_.InsertAtPage(obj, &file_, page).ok());
    return obj.oid;
  }

  // root -> leaf template plus `n` chains; returns the root OIDs.
  std::vector<Oid> BuildChains(AssemblyTemplate* tmpl, size_t n) {
    TemplateNode* root = tmpl->AddNode("root");
    TemplateNode* leaf = tmpl->AddNode("leaf");
    root->children.push_back({0, leaf});
    tmpl->SetRoot(root);
    std::vector<Oid> roots;
    for (size_t i = 0; i < n; ++i) {
      Oid l = Put(0, {static_cast<int32_t>(i)}, {}, 2 * i + 1);
      roots.push_back(
          Put(0, {static_cast<int32_t>(i)}, {l}, 2 * i));
    }
    return roots;
  }

  void Drain(AssemblyOperator* op) {
    auto rows = exec::DrainAll(op);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  }

  SimulatedDisk disk_;
  BufferManager buffer_;
  HashDirectory directory_;
  ObjectStore store_;
  HeapFile file_;
};

TEST_F(ObsTest, TraceEventOrderingPerComplexObject) {
  AssemblyTemplate tmpl;
  std::vector<Oid> roots = BuildChains(&tmpl, 3);

  obs::ManualClock clock(1);
  obs::TraceRecorder recorder(&clock);
  ClockTicker ticker(&clock, &recorder);  // tick first, then record

  std::vector<Row> rows;
  for (Oid oid : roots) rows.push_back(Row{Value::Ref(oid)});
  AssemblyOperator op(std::make_unique<VectorScan>(rows), &tmpl, &store_,
                      AssemblyOptions{.window_size = 2});
  op.set_observer(&ticker);
  Drain(&op);

  // Per complex id: admit strictly precedes every fetch, which strictly
  // precede the emit — both in sequence and in timestamp.
  struct Times {
    uint64_t admit = 0;
    std::vector<uint64_t> fetches;
    uint64_t emit = 0;
  };
  std::map<uint64_t, Times> per_complex;
  for (const obs::TraceEvent& event : recorder.Events()) {
    switch (event.kind) {
      case obs::TraceEvent::Kind::kAdmit:
        per_complex[event.complex_id].admit = event.ts_ns;
        break;
      case obs::TraceEvent::Kind::kFetch:
        per_complex[event.complex_id].fetches.push_back(event.ts_ns);
        break;
      case obs::TraceEvent::Kind::kEmit:
        per_complex[event.complex_id].emit = event.ts_ns;
        break;
      default:
        break;
    }
  }
  ASSERT_EQ(per_complex.size(), 3u);
  for (const auto& [id, times] : per_complex) {
    ASSERT_EQ(times.fetches.size(), 2u) << "complex " << id;
    EXPECT_GT(times.admit, 0u);
    for (uint64_t fetch_ts : times.fetches) {
      EXPECT_LT(times.admit, fetch_ts) << "complex " << id;
      EXPECT_LT(fetch_ts, times.emit) << "complex " << id;
    }
  }
}

TEST_F(ObsTest, TraceLanesBoundedByWindow) {
  AssemblyTemplate tmpl;
  std::vector<Oid> roots = BuildChains(&tmpl, 6);
  obs::ManualClock clock(1);
  obs::TraceRecorder recorder(&clock);
  ClockTicker ticker(&clock, &recorder);
  std::vector<Row> rows;
  for (Oid oid : roots) rows.push_back(Row{Value::Ref(oid)});
  AssemblyOperator op(std::make_unique<VectorScan>(rows), &tmpl, &store_,
                      AssemblyOptions{.window_size = 2});
  op.set_observer(&ticker);
  Drain(&op);
  // 6 complex objects flowed through, but only W=2 were ever live at once:
  // lanes are recycled.
  EXPECT_LE(recorder.num_lanes(), 2);
  EXPECT_GE(recorder.num_lanes(), 1);
}

TEST_F(ObsTest, RingBufferOverflowKeepsTail) {
  obs::ManualClock clock(0);
  obs::TraceRecorder recorder(&clock, /*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    clock.Advance(10);
    recorder.OnBufferHit(static_cast<PageId>(i));
  }
  EXPECT_EQ(recorder.capacity(), 4u);
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.dropped(), 6u);
  std::vector<obs::TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first, and the retained tail is pages 6..9.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].page, static_cast<PageId>(6 + i));
    EXPECT_EQ(events[i].kind, obs::TraceEvent::Kind::kBufferHit);
    if (i > 0) {
      EXPECT_GT(events[i].ts_ns, events[i - 1].ts_ns);
    }
  }

  recorder.Clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST_F(ObsTest, ChromeTraceExportIsValid) {
  AssemblyTemplate tmpl;
  std::vector<Oid> roots = BuildChains(&tmpl, 3);
  obs::ManualClock clock(1);
  obs::TraceRecorder recorder(&clock);
  ClockTicker ticker(&clock, &recorder);
  disk_.set_listener(&recorder);
  buffer_.set_listener(&recorder);
  std::vector<Row> rows;
  for (Oid oid : roots) rows.push_back(Row{Value::Ref(oid)});
  AssemblyOperator op(std::make_unique<VectorScan>(rows), &tmpl, &store_,
                      AssemblyOptions{.window_size = 2});
  op.set_observer(&ticker);
  Drain(&op);
  disk_.set_listener(nullptr);
  buffer_.set_listener(nullptr);

  // Round-trip through a file, like a real trace capture.
  std::string path = ::testing::TempDir() + "/cobra_trace.json";
  ASSERT_TRUE(recorder.WriteTo(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream contents;
  contents << in.rdbuf();
  auto parsed = obs::JsonValue::Parse(contents.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::remove(path.c_str());

  // Chrome trace_event object form: {"traceEvents": [...], ...}.
  const obs::JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GT(events->size(), 0u);
  bool saw_complete = false;
  bool saw_instant = false;
  bool saw_assemble_span = false;
  std::vector<std::string> thread_names;
  for (const obs::JsonValue& event : events->AsArray()) {
    ASSERT_TRUE(event.is_object());
    const obs::JsonValue* name = event.Find("name");
    const obs::JsonValue* ph = event.Find("ph");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ph, nullptr);
    EXPECT_TRUE(name->is_string());
    ASSERT_TRUE(ph->is_string());
    ASSERT_NE(event.Find("pid"), nullptr);
    ASSERT_NE(event.Find("tid"), nullptr);
    const std::string& phase = ph->AsString();
    if (phase == "X") {
      saw_complete = true;
      // Complete events require ts + dur.
      ASSERT_NE(event.Find("ts"), nullptr);
      ASSERT_NE(event.Find("dur"), nullptr);
      EXPECT_TRUE(event.Find("ts")->is_number());
      EXPECT_TRUE(event.Find("dur")->is_number());
      if (name->AsString().rfind("assemble", 0) == 0) {
        saw_assemble_span = true;
      }
    } else if (phase == "i") {
      saw_instant = true;
      ASSERT_NE(event.Find("ts"), nullptr);
    } else if (phase == "M") {
      const obs::JsonValue* args = event.Find("args");
      ASSERT_NE(args, nullptr);
      thread_names.push_back(args->Find("name")->AsString());
    }
  }
  EXPECT_TRUE(saw_complete);
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_assemble_span);
  // Lane metadata: disk, buffer, and at least one window slot.
  EXPECT_NE(std::find(thread_names.begin(), thread_names.end(), "disk"),
            thread_names.end());
  EXPECT_NE(std::find(thread_names.begin(), thread_names.end(), "buffer"),
            thread_names.end());
  EXPECT_NE(std::find(thread_names.begin(), thread_names.end(),
                      "window slot 0"),
            thread_names.end());
}

TEST_F(ObsTest, ExplainAnalyzeRowCountsMatchDrainAll) {
  // Stacked assembly: rows carry two root refs; each Assemble resolves one
  // column, so the plan nests two assembly operators over the scan.
  AssemblyTemplate tmpl;
  TemplateNode* root = tmpl.AddNode("root");
  TemplateNode* leaf = tmpl.AddNode("leaf");
  root->children.push_back({0, leaf});
  tmpl.SetRoot(root);
  std::vector<Row> rows;
  for (size_t i = 0; i < 4; ++i) {
    Oid l1 = Put(0, {static_cast<int32_t>(i)}, {}, 4 * i);
    Oid r1 = Put(0, {static_cast<int32_t>(i)}, {l1}, 4 * i + 1);
    Oid l2 = Put(0, {static_cast<int32_t>(i)}, {}, 4 * i + 2);
    Oid r2 = Put(0, {static_cast<int32_t>(i)}, {l2}, 4 * i + 3);
    rows.push_back(Row{Value::Ref(r1), Value::Ref(r2)});
  }

  obs::ManualClock clock(0);
  auto plan = exec::PlanBuilder::FromRows(rows)
                  .Profile(&clock)
                  .Assemble(&tmpl, &store_, AssemblyOptions{.window_size = 2},
                            /*root_column=*/0)
                  .Assemble(&tmpl, &store_, AssemblyOptions{.window_size = 2},
                            /*root_column=*/1);
  auto iter = std::move(plan).Build();
  auto drained = exec::DrainAll(iter.get());
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained->size(), 4u);

  std::string analyzed = exec::Explain(plan);
  std::istringstream lines(analyzed);
  std::string line;
  size_t annotated = 0;
  while (std::getline(lines, line)) {
    EXPECT_NE(line.find("(next="), std::string::npos) << line;
    // Every operator in this pipeline passes all 4 rows through.
    EXPECT_NE(line.find("rows=4"), std::string::npos) << line;
    ++annotated;
  }
  EXPECT_EQ(annotated, 3u);  // Assembly, Assembly, VectorScan
  EXPECT_NE(analyzed.find("Assembly"), std::string::npos);
  EXPECT_NE(analyzed.find("VectorScan"), std::string::npos);
}

TEST_F(ObsTest, UnprofiledExplainHasNoAnnotations) {
  AssemblyTemplate tmpl;
  std::vector<Oid> roots = BuildChains(&tmpl, 2);
  auto plan = exec::PlanBuilder::FromOids(roots).Assemble(
      &tmpl, &store_, AssemblyOptions{.window_size = 2});
  auto iter = std::move(plan).Build();
  auto drained = exec::DrainAll(iter.get());
  ASSERT_TRUE(drained.ok());
  // No Profile() call: ExplainAnalyze degenerates to the plain tree — the
  // plan contains zero profiling decorators (the disabled-overhead
  // guarantee).
  std::string analyzed = exec::Explain(plan);
  EXPECT_EQ(analyzed, plan.Explain());
  EXPECT_EQ(analyzed.find("next="), std::string::npos);
}

TEST_F(ObsTest, ProfiledIteratorCountsWithManualClock) {
  std::vector<Row> rows;
  for (int i = 0; i < 5; ++i) rows.push_back(Row{Value::Int(i)});
  obs::ManualClock clock(0);
  obs::ProfiledIterator profiled(std::make_unique<VectorScan>(rows), &clock);
  ASSERT_TRUE(profiled.Open().ok());
  exec::RowBatch batch;
  batch.set_capacity(1);  // row-at-a-time pulls: one NextBatch call per row
  for (;;) {
    auto n = profiled.NextBatch(&batch);
    ASSERT_TRUE(n.ok());
    if (*n == 0) break;
    clock.Advance(500);  // pretend each row costs 500ns downstream
  }
  ASSERT_TRUE(profiled.Close().ok());
  EXPECT_EQ(profiled.rows(), 5u);
  EXPECT_EQ(profiled.next_calls(), 6u);  // 5 single-row batches + EOS
  // The clock only moved outside NextBatch(), so no time is attributed.
  EXPECT_EQ(profiled.total_nanos(), 0u);
  EXPECT_NE(profiled.Summary().find("next=6"), std::string::npos);
  EXPECT_NE(profiled.Summary().find("rows=5"), std::string::npos);
}

// A value whose one-decimal rounding would print 1000 in its unit moves up
// to the next unit.
TEST(FormatNanosTest, SwitchesUnitBeforeRoundingReaches1000) {
  EXPECT_EQ(obs::FormatNanos(999), "999ns");
  EXPECT_EQ(obs::FormatNanos(1000), "1.0us");
  EXPECT_EQ(obs::FormatNanos(999'949), "999.9us");
  EXPECT_EQ(obs::FormatNanos(999'999), "1.0ms");
  EXPECT_EQ(obs::FormatNanos(999'949'999), "999.9ms");
  EXPECT_EQ(obs::FormatNanos(999'999'999), "1.00s");
}

TEST_F(ObsTest, DiskTraceEventsCarryQueryId) {
  AssemblyTemplate tmpl;
  std::vector<Oid> roots = BuildChains(&tmpl, 3);
  obs::ManualClock clock(1);
  obs::TraceRecorder recorder(&clock);
  ClockTicker ticker(&clock, &recorder);

  // Cold pool over the same disk so the assembly actually reads pages;
  // flush *before* attaching the disk listener so the write-back noise is
  // not recorded.
  ASSERT_TRUE(buffer_.FlushAll().ok());
  disk_.set_listener(&recorder);
  BufferManager cold(&disk_, BufferOptions{.num_frames = 256});
  ObjectStore cold_store(&cold, &directory_);

  auto ctx = std::make_shared<obs::QueryContext>(42, "tagged");
  {
    obs::ScopedQueryContext scope(ctx);
    std::vector<Row> rows;
    for (Oid oid : roots) rows.push_back(Row{Value::Ref(oid)});
    AssemblyOperator op(std::make_unique<VectorScan>(rows), &tmpl,
                        &cold_store, AssemblyOptions{.window_size = 2});
    op.set_observer(&ticker);
    Drain(&op);
  }
  disk_.set_listener(nullptr);

  // Every disk event recorded while query 42 was current carries its id.
  size_t disk_events = 0;
  for (const obs::TraceEvent& event : recorder.Events()) {
    if (event.kind == obs::TraceEvent::Kind::kDiskRead ||
        event.kind == obs::TraceEvent::Kind::kDiskWrite) {
      disk_events++;
      EXPECT_EQ(event.query_id, 42u);
    }
  }
  ASSERT_GT(disk_events, 0u);

  // The Chrome export surfaces the id as args.query on disk slices.
  std::string path = ::testing::TempDir() + "/cobra_tagged_trace.json";
  ASSERT_TRUE(recorder.WriteTo(path).ok());
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  auto parsed = obs::JsonValue::Parse(contents.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::remove(path.c_str());
  size_t tagged = 0;
  for (const obs::JsonValue& event : parsed->Find("traceEvents")->AsArray()) {
    const obs::JsonValue* name = event.Find("name");
    if (name == nullptr || !name->is_string()) continue;
    const std::string& n = name->AsString();
    if (n != "disk-read" && n != "disk-read-run" && n != "disk-write") {
      continue;
    }
    const obs::JsonValue* args = event.Find("args");
    ASSERT_NE(args, nullptr) << n;
    const obs::JsonValue* query = args->Find("query");
    ASSERT_NE(query, nullptr) << n;
    EXPECT_EQ(query->AsInt(), 42);
    // Every disk slice also names its spindle, on one spindle too.
    const obs::JsonValue* spindle = args->Find("spindle");
    ASSERT_NE(spindle, nullptr) << n;
    EXPECT_EQ(spindle->AsInt(), 0);
    tagged++;
  }
  EXPECT_EQ(tagged, disk_events);
}

TEST_F(ObsTest, ChromeTraceInstantsMonotonePerThread) {
  AssemblyTemplate tmpl;
  std::vector<Oid> roots = BuildChains(&tmpl, 4);
  obs::ManualClock clock(1);
  obs::TraceRecorder recorder(&clock);
  ClockTicker ticker(&clock, &recorder);
  disk_.set_listener(&recorder);
  buffer_.set_listener(&recorder);
  std::vector<Row> rows;
  for (Oid oid : roots) rows.push_back(Row{Value::Ref(oid)});
  AssemblyOperator op(std::make_unique<VectorScan>(rows), &tmpl, &store_,
                      AssemblyOptions{.window_size = 2});
  op.set_observer(&ticker);
  Drain(&op);
  disk_.set_listener(nullptr);
  buffer_.set_listener(nullptr);

  std::string path = ::testing::TempDir() + "/cobra_monotone_trace.json";
  ASSERT_TRUE(recorder.WriteTo(path).ok());
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  auto parsed = obs::JsonValue::Parse(contents.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::remove(path.c_str());

  // Within each lane (tid), instants and span *ends* must appear in
  // non-decreasing timestamp order — the viewer relies on it.
  std::map<int64_t, double> last_ts;
  size_t checked = 0;
  for (const obs::JsonValue& event : parsed->Find("traceEvents")->AsArray()) {
    const obs::JsonValue* ph = event.Find("ph");
    if (ph == nullptr || !ph->is_string()) continue;
    const std::string& phase = ph->AsString();
    double ts = 0;
    if (phase == "i") {
      ts = event.Find("ts")->AsDouble();
    } else if (phase == "X") {
      ts = event.Find("ts")->AsDouble() + event.Find("dur")->AsDouble();
    } else {
      continue;
    }
    int64_t tid = event.Find("tid")->AsInt();
    auto [it, inserted] = last_ts.try_emplace(tid, ts);
    if (!inserted) {
      EXPECT_LE(it->second, ts) << "tid " << tid;
      it->second = ts;
    }
    checked++;
  }
  EXPECT_GT(checked, 0u);
  EXPECT_GE(last_ts.size(), 2u);  // at least a window lane and the disk lane
}

TEST_F(ObsTest, HistogramJsonIncludesTailQuantiles) {
  LogHistogram histogram;
  for (int i = 0; i < 1000; ++i) histogram.Add(i);
  obs::JsonValue json = obs::HistogramToJson(histogram);
  ASSERT_NE(json.Find("count"), nullptr);
  EXPECT_EQ(json.Find("count")->AsInt(), 1000);
  ASSERT_NE(json.Find("p50"), nullptr);
  ASSERT_NE(json.Find("p99"), nullptr);
  ASSERT_NE(json.Find("p999"), nullptr);
  EXPECT_LE(json.Find("p50")->AsInt(), json.Find("p99")->AsInt());
  EXPECT_LE(json.Find("p99")->AsInt(), json.Find("p999")->AsInt());
}

TEST_F(ObsTest, SpanEventJsonShape) {
  obs::SpanEvent event;
  event.kind = obs::SpanEventKind::kDiskReadRun;
  event.ts_ns = 12345;
  event.query_id = 9;
  event.page = 77;
  event.a = 3;
  event.b = 8;
  obs::JsonValue json = obs::SpanEventToJson(event);
  EXPECT_EQ(json.Find("kind")->AsString(),
            obs::SpanEventKindName(obs::SpanEventKind::kDiskReadRun));
  EXPECT_EQ(json.Find("ts_ns")->AsInt(), 12345);
  EXPECT_EQ(json.Find("query")->AsInt(), 9);
  EXPECT_EQ(json.Find("page")->AsInt(), 77);
  EXPECT_EQ(json.Find("a")->AsInt(), 3);
  EXPECT_EQ(json.Find("b")->AsInt(), 8);
}

TEST_F(ObsTest, FlightRecorderJsonShape) {
  obs::FlightRecorder recorder(/*capacity=*/16);
  obs::SpanEvent event;
  event.kind = obs::SpanEventKind::kDiskRead;
  event.ts_ns = 1;
  event.query_id = 2;
  recorder.Record(event);
  obs::JsonValue json = recorder.ToJson();
  EXPECT_EQ(json.Find("capacity")->AsInt(), 16);
  EXPECT_EQ(json.Find("dropped")->AsInt(), 0);
  ASSERT_NE(json.Find("events"), nullptr);
  ASSERT_EQ(json.Find("events")->size(), 1u);
  // The document round-trips through the parser.
  auto parsed = obs::JsonValue::Parse(json.Dump(2));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
}

}  // namespace
}  // namespace cobra
