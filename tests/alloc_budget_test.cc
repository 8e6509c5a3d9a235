// Allocation budget of the assembly fetch path.
//
// Counts global operator new calls from Open to Close of the benchmark's
// cold_fig13 plan (perfbench/src/fig13.cc):
//
//   FromOids(all roots) -> Assemble(elevator, W = 50)
//                       -> Filter(child0.field0 < 5000)
//                       -> Project(child0.child1.field3, child1.field2)
//
// over the ACOB database of §6 (N = 4,000, inter-object clustering,
// database seed 42) and a fresh 32,768-frame pool, with the head parked at
// page 0.  The pass fetches 28,000 components; the budget allows about 0.7
// allocations per component.  Assembled objects live in arena blocks and the
// directory, page table and window are flat tables, so most of what remains
// is buffer frame creation: each of the pass's 3,115 faults creates a frame
// and its page buffer on first use.  The count is exact and repeatable, so a
// change that puts an allocation back on the per-reference path fails here.
//
// Replacing the global operator new affects the whole executable, which is
// why this test has a binary of its own (ctest label perf).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "assembly/assembly_operator.h"
#include "exec/expr.h"
#include "exec/filter_project.h"
#include "exec/scan.h"
#include "workload/acob.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

void CountAllocation() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void* operator new(std::size_t size) {
  CountAllocation();
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

// Memory resources (std::pmr) allocate through the aligned form.
void* operator new(std::size_t size, std::align_val_t align) {
  CountAllocation();
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc takes a size that is a nonzero multiple of the alignment.
  if (void* p = std::aligned_alloc(a, size == 0 ? a : (size + a - 1) / a * a)) {
    return p;
  }
  throw std::bad_alloc();
}

// GCC reports free() inside a replacement operator delete as a new/free
// mismatch; the matching operator new above allocates with malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace cobra {
namespace {

constexpr uint64_t kBudget = 20'000;

TEST(AllocationBudgetTest, ColdFig13PassStaysUnderBudgetSeed42) {
  AcobOptions options;
  options.num_complex_objects = 4000;
  options.clustering = Clustering::kInterObject;
  options.seed = 42;
  options.buffer_frames = 32768;
  auto built = BuildAcobDatabase(options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  AcobDatabase* db = built->get();

  db->disk->ResetStats();
  db->disk->ParkHead(0);
  BufferManager pool(db->disk.get(),
                     BufferOptions{options.buffer_frames, options.replacement,
                                   options.retry, 1});
  ObjectStore store(&pool, db->directory.get());
  std::vector<exec::Row> rows;
  rows.reserve(db->roots.size());
  for (Oid oid : db->roots) {
    rows.push_back(exec::Row{exec::Value::Ref(oid)});
  }
  AssemblyOptions assembly;
  assembly.window_size = 50;
  assembly.scheduler = SchedulerKind::kElevator;
  std::unique_ptr<exec::Iterator> plan = std::make_unique<AssemblyOperator>(
      std::make_unique<exec::VectorScan>(std::move(rows)), &db->tmpl, &store,
      assembly);
  plan = std::make_unique<exec::Filter>(
      std::move(plan),
      exec::Cmp(exec::CmpOp::kLt,
                exec::ObjField(exec::ObjChild(exec::Col(0), 0), 0),
                exec::LitInt(5000)));
  std::vector<exec::ExprPtr> projection;
  projection.push_back(exec::ObjField(
      exec::ObjChild(exec::ObjChild(exec::Col(0), 0), 1), 3));
  projection.push_back(exec::ObjField(exec::ObjChild(exec::Col(0), 1), 2));
  plan = std::make_unique<exec::Project>(std::move(plan),
                                         std::move(projection));

  // Same drain as the benchmark: the output batch is made after Open.
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  Status status = plan->Open();
  size_t out_rows = 0;
  {
    exec::RowBatch batch(exec::RowBatch::kDefaultCapacity);
    while (status.ok()) {
      Result<size_t> n = plan->NextBatch(&batch);
      if (!n.ok()) {
        status = n.status();
        break;
      }
      if (*n == 0) break;
      out_rows += *n;
    }
  }
  Status closed = plan->Close();
  g_counting.store(false, std::memory_order_relaxed);
  const uint64_t allocations = g_allocations.load(std::memory_order_relaxed);

  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_TRUE(closed.ok()) << closed.ToString();
  // The plan is the benchmark's: the fig13 golden's I/O and the filter's
  // output for this database.
  EXPECT_EQ(db->disk->stats().reads, 3115u);
  EXPECT_EQ(db->disk->stats().read_seek_pages, 301822u);
  EXPECT_EQ(out_rows, 2015u);

  std::printf("allocations from Open to Close: %llu (budget %llu)\n",
              static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(kBudget));
  RecordProperty("allocations", std::to_string(allocations));
  EXPECT_LE(allocations, kBudget);
}

}  // namespace
}  // namespace cobra
