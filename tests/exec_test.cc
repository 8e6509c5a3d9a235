#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "buffer/buffer_manager.h"
#include "exec/expr.h"
#include "exec/filter_project.h"
#include "exec/iterator.h"
#include "exec/join.h"
#include "exec/pointer_join.h"
#include "exec/scan.h"
#include "exec/sort_limit.h"
#include "exec/value.h"
#include "file/heap_file.h"
#include "index/btree.h"
#include "object/directory.h"
#include "object/object_store.h"
#include "storage/disk.h"

namespace cobra::exec {
namespace {

Row IntRow(std::initializer_list<int64_t> values) {
  Row row;
  for (int64_t v : values) row.push_back(Value::Int(v));
  return row;
}

// ---------------------------------------------------------------- Value

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_EQ(Value::Null().kind(), ValueKind::kNull);
  EXPECT_EQ(Value::Int(3).AsInt(), 3);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::Str("hi").AsStr(), "hi");
  EXPECT_EQ(Value::Ref(42).AsOid(), 42u);
  AssembledObject obj;
  EXPECT_EQ(Value::Obj(&obj).AsObject(), &obj);
}

TEST(ValueTest, CompareIntsAndDoubles) {
  EXPECT_EQ(*Value::Int(1).Compare(Value::Int(2)), -1);
  EXPECT_EQ(*Value::Int(2).Compare(Value::Int(2)), 0);
  EXPECT_EQ(*Value::Int(3).Compare(Value::Int(2)), 1);
  EXPECT_EQ(*Value::Int(1).Compare(Value::Double(1.0)), 0);
  EXPECT_EQ(*Value::Double(0.5).Compare(Value::Int(1)), -1);
}

TEST(ValueTest, CompareStringsAndOids) {
  EXPECT_EQ(*Value::Str("a").Compare(Value::Str("b")), -1);
  EXPECT_EQ(*Value::Ref(10).Compare(Value::Ref(10)), 0);
}

TEST(ValueTest, IncomparableKindsError) {
  EXPECT_FALSE(Value::Int(1).Compare(Value::Str("x")).ok());
}

TEST(ValueTest, NullsSortFirst) {
  EXPECT_EQ(*Value::Null().Compare(Value::Int(0)), -1);
  EXPECT_EQ(*Value::Int(0).Compare(Value::Null()), 1);
  EXPECT_EQ(*Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, JoinEqualityNeverMatchesNull) {
  EXPECT_FALSE(Value::Null().EqualsForJoin(Value::Null()));
  EXPECT_FALSE(Value::Null().EqualsForJoin(Value::Int(0)));
  EXPECT_TRUE(Value::Int(5).EqualsForJoin(Value::Int(5)));
  EXPECT_FALSE(Value::Int(5).EqualsForJoin(Value::Str("5")));
}

TEST(ValueTest, HashConsistentWithJoinEquality) {
  EXPECT_EQ(Value::Int(7).Hash(), Value::Int(7).Hash());
  // Int/double that compare equal hash equal (hash-join correctness).
  EXPECT_EQ(Value::Int(7).Hash(), Value::Double(7.0).Hash());
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Null().ToString(), "null");
  EXPECT_EQ(Value::Int(-3).ToString(), "-3");
  EXPECT_EQ(Value::Str("x").ToString(), "\"x\"");
  EXPECT_EQ(Value::Ref(9).ToString(), "oid:9");
}

TEST(ValueTest, ConcatRows) {
  Row joined = ConcatRows(IntRow({1, 2}), IntRow({3}));
  ASSERT_EQ(joined.size(), 3u);
  EXPECT_EQ(joined[2].AsInt(), 3);
}

// ---------------------------------------------------------------- Expr

TEST(ExprTest, ColAndLit) {
  Row row = IntRow({10, 20});
  EXPECT_EQ(Col(1)->Eval(row)->AsInt(), 20);
  EXPECT_EQ(LitInt(5)->Eval(row)->AsInt(), 5);
  EXPECT_TRUE(Col(9)->Eval(row).status().IsOutOfRange());
}

TEST(ExprTest, Comparisons) {
  Row row = IntRow({10, 20});
  EXPECT_EQ(Cmp(CmpOp::kLt, Col(0), Col(1))->Eval(row)->AsInt(), 1);
  EXPECT_EQ(Cmp(CmpOp::kGe, Col(0), Col(1))->Eval(row)->AsInt(), 0);
  EXPECT_EQ(Cmp(CmpOp::kEq, Col(0), LitInt(10))->Eval(row)->AsInt(), 1);
  EXPECT_EQ(Cmp(CmpOp::kNe, Col(0), LitInt(10))->Eval(row)->AsInt(), 0);
}

TEST(ExprTest, NullComparisonIsUnknown) {
  Row row = {Value::Null(), Value::Int(1)};
  auto v = Cmp(CmpOp::kEq, Col(0), Col(1))->Eval(row);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());
  // And a null predicate is false.
  auto pred = Cmp(CmpOp::kEq, Col(0), Col(1));
  EXPECT_FALSE(*EvalPredicate(*pred, row));
}

TEST(ExprTest, Arithmetic) {
  Row row = IntRow({7, 2});
  EXPECT_EQ(Arith(ArithOp::kAdd, Col(0), Col(1))->Eval(row)->AsInt(), 9);
  EXPECT_EQ(Arith(ArithOp::kSub, Col(0), Col(1))->Eval(row)->AsInt(), 5);
  EXPECT_EQ(Arith(ArithOp::kMul, Col(0), Col(1))->Eval(row)->AsInt(), 14);
  EXPECT_EQ(Arith(ArithOp::kDiv, Col(0), Col(1))->Eval(row)->AsInt(), 3);
  EXPECT_EQ(Arith(ArithOp::kMod, Col(0), Col(1))->Eval(row)->AsInt(), 1);
  EXPECT_TRUE(Arith(ArithOp::kDiv, Col(0), LitInt(0))
                  ->Eval(row)
                  .status()
                  .IsInvalidArgument());
}

TEST(ExprTest, MixedArithmeticPromotesToDouble) {
  Row row = {Value::Int(3), Value::Double(0.5)};
  auto v = Arith(ArithOp::kMul, Col(0), Col(1))->Eval(row);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->AsDouble(), 1.5);
}

TEST(ExprTest, BooleanShortCircuit) {
  Row row = IntRow({1, 0});
  EXPECT_EQ(And(Col(0), Col(1))->Eval(row)->AsInt(), 0);
  EXPECT_EQ(Or(Col(1), Col(0))->Eval(row)->AsInt(), 1);
  EXPECT_EQ(Not(Col(1))->Eval(row)->AsInt(), 1);
  // Short circuit: the erroring right side is never evaluated.
  auto guarded = And(LitInt(0), Col(99));
  EXPECT_EQ(guarded->Eval(row)->AsInt(), 0);
}

TEST(ExprTest, ObjFieldAndChild) {
  ObjectArena arena;
  AssembledObject* root = arena.New(1, kAnyTypeId, std::vector<int32_t>{5, 6},
                                    /*child_count=*/2);
  AssembledObject* child =
      arena.New(2, kAnyTypeId, std::vector<int32_t>{70}, /*child_count=*/0);
  root->children[0] = child;  // children[1] stays null
  Row row = {Value::Obj(root)};
  EXPECT_EQ(ObjField(Col(0), 1)->Eval(row)->AsInt(), 6);
  EXPECT_EQ(ObjField(ObjChild(Col(0), 0), 0)->Eval(row)->AsInt(), 70);
  // Null child propagates to null, not an error.
  EXPECT_TRUE(ObjField(ObjChild(Col(0), 1), 0)->Eval(row)->is_null());
  EXPECT_TRUE(ObjField(Col(0), 9)->Eval(row).status().IsOutOfRange());
}

TEST(ExprTest, FnEscapeHatch) {
  auto fn = Fn([](const Row& row) -> Result<Value> {
    return Value::Int(row[0].AsInt() * row[0].AsInt());
  });
  Row row = IntRow({12});
  EXPECT_EQ(fn->Eval(row)->AsInt(), 144);
}

// ---------------------------------------------------------------- Operators

TEST(ScanTest, VectorScanReplaysRows) {
  VectorScan scan({IntRow({1}), IntRow({2}), IntRow({3})});
  auto rows = DrainAll(&scan);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[2][0].AsInt(), 3);
  // Re-open replays from the start.
  auto again = DrainAll(&scan);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->size(), 3u);
}

TEST(FilterTest, KeepsMatchingRows) {
  auto scan = std::make_unique<VectorScan>(
      std::vector<Row>{IntRow({1}), IntRow({5}), IntRow({10}), IntRow({2})});
  Filter filter(std::move(scan), Cmp(CmpOp::kGe, Col(0), LitInt(5)));
  auto rows = DrainAll(&filter);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ(filter.rows_in(), 4u);
  EXPECT_EQ(filter.rows_out(), 2u);
}

TEST(ProjectTest, ComputesExpressions) {
  auto scan = std::make_unique<VectorScan>(
      std::vector<Row>{IntRow({3, 4})});
  std::vector<ExprPtr> exprs;
  exprs.push_back(Arith(ArithOp::kAdd, Col(0), Col(1)));
  exprs.push_back(Col(0));
  Project project(std::move(scan), std::move(exprs));
  auto rows = DrainAll(&project);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0].AsInt(), 7);
  EXPECT_EQ((*rows)[0][1].AsInt(), 3);
}

TEST(LimitTest, StopsEarly) {
  auto scan = std::make_unique<VectorScan>(
      std::vector<Row>{IntRow({1}), IntRow({2}), IntRow({3})});
  Limit limit(std::move(scan), 2);
  auto rows = DrainAll(&limit);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

TEST(SortTest, SortsByKeys) {
  auto scan = std::make_unique<VectorScan>(std::vector<Row>{
      IntRow({3, 1}), IntRow({1, 2}), IntRow({2, 3}), IntRow({1, 1})});
  std::vector<SortKey> keys;
  keys.push_back({Col(0), true});
  keys.push_back({Col(1), false});
  Sort sort(std::move(scan), std::move(keys));
  auto rows = DrainAll(&sort);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 4u);
  EXPECT_EQ((*rows)[0][0].AsInt(), 1);
  EXPECT_EQ((*rows)[0][1].AsInt(), 2);  // descending second key
  EXPECT_EQ((*rows)[1][1].AsInt(), 1);
  EXPECT_EQ((*rows)[3][0].AsInt(), 3);
}

TEST(HashJoinTest, EquiJoin) {
  auto left = std::make_unique<VectorScan>(std::vector<Row>{
      IntRow({1, 100}), IntRow({2, 200}), IntRow({2, 201}), IntRow({3, 300})});
  auto right = std::make_unique<VectorScan>(
      std::vector<Row>{IntRow({2, 7}), IntRow({3, 8}), IntRow({4, 9})});
  std::vector<ExprPtr> lk;
  lk.push_back(Col(0));
  std::vector<ExprPtr> rk;
  rk.push_back(Col(0));
  HashJoin join(std::move(left), std::move(right), std::move(lk),
                std::move(rk));
  auto rows = DrainAll(&join);
  ASSERT_TRUE(rows.ok());
  // key 2 matches twice, key 3 once.
  EXPECT_EQ(rows->size(), 3u);
  for (const Row& row : *rows) {
    EXPECT_EQ(row.size(), 4u);
    EXPECT_EQ(row[0].AsInt(), row[2].AsInt());
  }
}

TEST(HashJoinTest, EmptyInputs) {
  {
    auto left = std::make_unique<VectorScan>(std::vector<Row>{});
    auto right = std::make_unique<VectorScan>(
        std::vector<Row>{IntRow({1})});
    std::vector<ExprPtr> lk;
    lk.push_back(Col(0));
    std::vector<ExprPtr> rk;
    rk.push_back(Col(0));
    HashJoin join(std::move(left), std::move(right), std::move(lk),
                  std::move(rk));
    auto rows = DrainAll(&join);
    ASSERT_TRUE(rows.ok());
    EXPECT_TRUE(rows->empty());
  }
}

TEST(HashJoinTest, RequiresKeys) {
  auto left = std::make_unique<VectorScan>(std::vector<Row>{});
  auto right = std::make_unique<VectorScan>(std::vector<Row>{});
  HashJoin join(std::move(left), std::move(right), {}, {});
  EXPECT_TRUE(join.Open().IsInvalidArgument());
}

TEST(NestedLoopJoinTest, ArbitraryPredicate) {
  auto left = std::make_unique<VectorScan>(
      std::vector<Row>{IntRow({1}), IntRow({5})});
  auto right = std::make_unique<VectorScan>(
      std::vector<Row>{IntRow({2}), IntRow({6})});
  // left < right
  NestedLoopJoin join(std::move(left), std::move(right),
                      Cmp(CmpOp::kLt, Col(0), Col(1)));
  auto rows = DrainAll(&join);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);  // (1,2) (1,6) (5,6)
}

class StorageBackedExecTest : public ::testing::Test {
 protected:
  StorageBackedExecTest()
      : buffer_(&disk_, BufferOptions{.num_frames = 256}),
        store_(&buffer_, &directory_),
        file_(&buffer_, 0, 64) {}

  void Seed(int count) {
    for (int i = 0; i < count; ++i) {
      ObjectData obj;
      obj.oid = kInvalidOid;
      obj.type_id = 9;
      obj.fields = {i, i * 10, 0, 0};
      obj.refs.assign(8, kInvalidOid);
      auto oid = store_.Insert(obj, &file_);
      ASSERT_TRUE(oid.ok());
      oids_.push_back(*oid);
    }
  }

  SimulatedDisk disk_;
  BufferManager buffer_;
  HashDirectory directory_;
  ObjectStore store_;
  HeapFile file_;
  std::vector<Oid> oids_;
};

TEST_F(StorageBackedExecTest, OidScanEmitsAllOids) {
  Seed(25);
  OidScan scan(&file_);
  auto rows = DrainAll(&scan);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 25u);
  EXPECT_EQ((*rows)[0][0].kind(), ValueKind::kOid);
}

TEST_F(StorageBackedExecTest, ObjectFieldScanFlattens) {
  Seed(5);
  ObjectFieldScan scan(&file_, 2);
  auto rows = DrainAll(&scan);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 5u);
  const Row& row = (*rows)[0];
  ASSERT_EQ(row.size(), 4u);  // oid, type, field0, field1
  EXPECT_EQ(row[1].AsInt(), 9);
  EXPECT_EQ(row[2].AsInt(), 0);
  EXPECT_EQ(row[3].AsInt(), 0);
}

TEST_F(StorageBackedExecTest, BTreeScanRange) {
  PageAllocator allocator(1000);
  auto tree = BTree::Create(&buffer_, &allocator);
  ASSERT_TRUE(tree.ok());
  for (uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(tree->Put(k, k * 2).ok());
  }
  BTreeScan scan(&tree.value(), 10, 20);
  auto rows = DrainAll(&scan);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 10u);
  EXPECT_EQ((*rows)[0][0].AsInt(), 10);
  EXPECT_EQ((*rows)[9][0].AsInt(), 19);
}

TEST_F(StorageBackedExecTest, PointerJoinResolvesReferences) {
  Seed(3);
  // Rows referencing the seeded objects.
  std::vector<Row> inputs;
  for (Oid oid : oids_) {
    inputs.push_back({Value::Ref(oid), Value::Int(7)});
  }
  inputs.push_back({Value::Ref(kInvalidOid), Value::Int(8)});  // dangling
  auto scan = std::make_unique<VectorScan>(std::move(inputs));
  PointerJoin join(std::move(scan), 0, 2, &store_);
  auto rows = DrainAll(&join);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);  // dangling dropped
  const Row& row = (*rows)[1];
  ASSERT_EQ(row.size(), 5u);  // input(2) + oid + 2 fields
  EXPECT_EQ(row[3].AsInt(), 1);
  EXPECT_EQ(row[4].AsInt(), 10);
}

TEST_F(StorageBackedExecTest, PointerJoinOuterKeepsUnmatched) {
  Seed(1);
  std::vector<Row> inputs = {{Value::Ref(kInvalidOid)}};
  auto scan = std::make_unique<VectorScan>(std::move(inputs));
  PointerJoin join(std::move(scan), 0, 2, &store_, /*keep_unmatched=*/true);
  auto rows = DrainAll(&join);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_TRUE((*rows)[0][1].is_null());
}

}  // namespace
}  // namespace cobra::exec
