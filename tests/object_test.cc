#include <vector>

#include <gtest/gtest.h>

#include "buffer/buffer_manager.h"
#include "file/heap_file.h"
#include "index/btree.h"
#include "object/assembled_object.h"
#include "object/directory.h"
#include "object/object.h"
#include "object/object_store.h"
#include "storage/disk.h"

namespace cobra {
namespace {

ObjectData PaperObject(Oid oid) {
  // The paper's shape: 4 integer fields + 8 reference fields.
  ObjectData obj;
  obj.oid = oid;
  obj.type_id = 3;
  obj.fields = {10, 20, 30, 40};
  obj.refs.assign(8, kInvalidOid);
  obj.refs[0] = 99;
  return obj;
}

TEST(ObjectCodecTest, PaperObjectIs96Bytes) {
  // "4 integer and 8 object reference fields equaling 96 bytes" (§6).
  EXPECT_EQ(PaperObject(1).SerializedSize(), 96u);
}

TEST(ObjectCodecTest, RoundTrip) {
  ObjectData obj = PaperObject(7);
  auto bytes = obj.Serialize();
  auto back = ObjectData::Deserialize(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, obj);
}

TEST(ObjectCodecTest, RoundTripVariableShape) {
  ObjectData obj;
  obj.oid = 12345;
  obj.type_id = 77;
  obj.fields = {1, -2, 3, -4, 5, -6, 7};
  obj.refs = {kInvalidOid, 2, 3};
  auto back = ObjectData::Deserialize(obj.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, obj);
}

TEST(ObjectCodecTest, EmptyFieldsAndRefs) {
  ObjectData obj;
  obj.oid = 1;
  obj.type_id = 2;
  auto back = ObjectData::Deserialize(obj.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, obj);
  EXPECT_EQ(obj.SerializedSize(), 16u);
}

TEST(ObjectCodecTest, TruncatedBufferIsCorruption) {
  auto bytes = PaperObject(1).Serialize();
  bytes.resize(20);
  EXPECT_TRUE(ObjectData::Deserialize(bytes).status().IsCorruption());
  bytes.resize(5);
  EXPECT_TRUE(ObjectData::Deserialize(bytes).status().IsCorruption());
}

TEST(ObjectCodecTest, TrailingGarbageIsCorruption) {
  auto bytes = PaperObject(1).Serialize();
  bytes.push_back(std::byte{0});
  EXPECT_TRUE(ObjectData::Deserialize(bytes).status().IsCorruption());
}

TEST(HashDirectoryTest, PutLookupRemove) {
  HashDirectory dir;
  ASSERT_TRUE(dir.Put(5, RecordId{10, 3}).ok());
  auto loc = dir.Lookup(5);
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(loc->page, 10u);
  EXPECT_EQ(loc->slot, 3u);
  EXPECT_EQ(dir.size(), 1u);
  ASSERT_TRUE(dir.Remove(5).ok());
  EXPECT_TRUE(dir.Lookup(5).status().IsNotFound());
  EXPECT_TRUE(dir.Remove(5).IsNotFound());
}

TEST(HashDirectoryTest, InvalidOidRejected) {
  HashDirectory dir;
  EXPECT_TRUE(dir.Put(kInvalidOid, RecordId{1, 1}).IsInvalidArgument());
}

TEST(HashDirectoryTest, PutMovesObject) {
  HashDirectory dir;
  ASSERT_TRUE(dir.Put(5, RecordId{10, 3}).ok());
  ASSERT_TRUE(dir.Put(5, RecordId{20, 1}).ok());
  EXPECT_EQ(dir.Lookup(5)->page, 20u);
  EXPECT_EQ(dir.size(), 1u);
}

TEST(RecordIdPackingTest, RoundTrip) {
  RecordId id{123456789, 4321};
  EXPECT_EQ(UnpackRecordId(PackRecordId(id)), id);
  RecordId zero{0, 0};
  EXPECT_EQ(UnpackRecordId(PackRecordId(zero)), zero);
}

class BTreeDirectoryTest : public ::testing::Test {
 protected:
  BTreeDirectoryTest()
      : buffer_(&disk_, BufferOptions{.num_frames = 256}), allocator_(0) {}
  SimulatedDisk disk_;
  BufferManager buffer_;
  PageAllocator allocator_;
};

TEST_F(BTreeDirectoryTest, PersistentMapping) {
  auto tree = BTree::Create(&buffer_, &allocator_);
  ASSERT_TRUE(tree.ok());
  BTreeDirectory dir(&tree.value());
  for (Oid oid = 1; oid <= 500; ++oid) {
    ASSERT_TRUE(dir.Put(oid, RecordId{oid * 7, static_cast<uint16_t>(
                                                   oid % 9)}).ok());
  }
  EXPECT_EQ(dir.size(), 500u);
  for (Oid oid = 1; oid <= 500; ++oid) {
    auto loc = dir.Lookup(oid);
    ASSERT_TRUE(loc.ok());
    EXPECT_EQ(loc->page, oid * 7);
    EXPECT_EQ(loc->slot, oid % 9);
  }
  ASSERT_TRUE(dir.Remove(250).ok());
  EXPECT_TRUE(dir.Lookup(250).status().IsNotFound());
}

class ObjectStoreTest : public ::testing::Test {
 protected:
  ObjectStoreTest()
      : buffer_(&disk_, BufferOptions{.num_frames = 256}),
        store_(&buffer_, &directory_),
        file_(&buffer_, 0, 64) {}
  SimulatedDisk disk_;
  BufferManager buffer_;
  HashDirectory directory_;
  ObjectStore store_;
  HeapFile file_;
};

TEST_F(ObjectStoreTest, InsertAssignsFreshOid) {
  ObjectData obj = PaperObject(kInvalidOid);
  auto oid = store_.Insert(obj, &file_);
  ASSERT_TRUE(oid.ok());
  EXPECT_NE(*oid, kInvalidOid);
  auto got = store_.Get(*oid);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->fields, obj.fields);
  EXPECT_EQ(got->oid, *oid);
}

TEST_F(ObjectStoreTest, InsertHonorsExplicitOid) {
  auto oid = store_.Insert(PaperObject(777), &file_);
  ASSERT_TRUE(oid.ok());
  EXPECT_EQ(*oid, 777u);
  // The allocator skips past explicit OIDs.
  EXPECT_GT(store_.AllocateOid(), 777u);
}

TEST_F(ObjectStoreTest, DuplicateOidRejected) {
  ASSERT_TRUE(store_.Insert(PaperObject(5), &file_).ok());
  EXPECT_TRUE(store_.Insert(PaperObject(5), &file_)
                  .status()
                  .IsAlreadyExists());
}

TEST_F(ObjectStoreTest, GetUnknownOidIsNotFound) {
  EXPECT_TRUE(store_.Get(404).status().IsNotFound());
}

TEST_F(ObjectStoreTest, LocateReturnsPhysicalAddressWithoutIo) {
  auto oid = store_.InsertAtPage(PaperObject(kInvalidOid), &file_, 5);
  ASSERT_TRUE(oid.ok());
  disk_.ResetStats();
  auto loc = store_.Locate(*oid);
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(loc->page, 5u);
  EXPECT_EQ(disk_.stats().reads, 0u);
}

TEST_F(ObjectStoreTest, UpdateInPlace) {
  auto oid = store_.Insert(PaperObject(kInvalidOid), &file_);
  ASSERT_TRUE(oid.ok());
  auto obj = store_.Get(*oid);
  ASSERT_TRUE(obj.ok());
  obj->fields[0] = 999;
  ASSERT_TRUE(store_.Update(*obj).ok());
  EXPECT_EQ(store_.Get(*oid)->fields[0], 999);
}

TEST_F(ObjectStoreTest, RemoveDeletesRecordAndMapping) {
  auto oid = store_.Insert(PaperObject(kInvalidOid), &file_);
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(store_.Remove(*oid).ok());
  EXPECT_TRUE(store_.Get(*oid).status().IsNotFound());
  EXPECT_TRUE(store_.Locate(*oid).status().IsNotFound());
}

TEST_F(ObjectStoreTest, StatsCountReadsAndWrites) {
  auto oid = store_.Insert(PaperObject(kInvalidOid), &file_);
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(store_.Get(*oid).ok());
  ASSERT_TRUE(store_.Get(*oid).ok());
  EXPECT_EQ(store_.stats().objects_written, 1u);
  EXPECT_EQ(store_.stats().objects_read, 2u);
}

TEST_F(ObjectStoreTest, NinePaperObjectsPerPage) {
  // With explicit placement the generator packs the paper's 9 objects into
  // each 1 KB page.
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(store_.InsertAtPage(PaperObject(kInvalidOid), &file_, 0).ok());
  }
  EXPECT_EQ(file_.record_count(), 9u);
  EXPECT_EQ(file_.pages_used(), 1u);
}

TEST(ObjectArenaTest, NewFromCopiesScalarsAndSizesChildren) {
  ObjectArena arena;
  ObjectData data = PaperObject(11);
  AssembledObject* obj = arena.NewFrom(data, 3);
  EXPECT_EQ(obj->oid, 11u);
  EXPECT_EQ(obj->type_id, 3u);
  EXPECT_EQ(std::vector<int32_t>(obj->fields.begin(), obj->fields.end()),
            data.fields);
  EXPECT_NE(obj->fields.data(), data.fields.data());  // a copy
  EXPECT_EQ(obj->children.size(), 3u);
  EXPECT_EQ(obj->children[0], nullptr);
  EXPECT_EQ(arena.size(), 1u);
}

TEST(ObjectArenaTest, SizedNewStartsUnlinked) {
  // Spans are sized to the template's child count; every child starts null
  // and every slot at -1 until assembly links it.
  ObjectArena arena;
  const std::vector<int32_t> fields = {4, -5, 6};
  for (size_t child_count : {0u, 1u, 2u, 7u}) {
    AssembledObject* obj = arena.New(9, 2, fields, child_count);
    EXPECT_EQ(obj->oid, 9u);
    EXPECT_EQ(obj->type_id, 2u);
    EXPECT_EQ(obj->ref_count, 0);
    EXPECT_EQ(std::vector<int32_t>(obj->fields.begin(), obj->fields.end()),
              fields);
    ASSERT_EQ(obj->children.size(), child_count);
    ASSERT_EQ(obj->child_slots.size(), child_count);
    for (size_t i = 0; i < child_count; ++i) {
      EXPECT_EQ(obj->children[i], nullptr);
      EXPECT_EQ(obj->child_slots[i], -1);
    }
  }
  AssembledObject* bare = arena.New(10, kAnyTypeId, {}, 0);
  EXPECT_TRUE(bare->fields.empty());
  EXPECT_EQ(arena.size(), 5u);
}

TEST(ObjectArenaTest, AddressesStableAcrossGrowth) {
  ObjectArena arena;
  AssembledObject* first =
      arena.New(1, 7, std::vector<int32_t>{1, 2, 3}, /*child_count=*/2);
  AssembledObject* second = arena.New(2, 7, {}, 0);
  first->children[1] = second;
  first->child_slots[1] = 5;
  const int32_t* first_fields = first->fields.data();
  for (int i = 0; i < 10000; ++i) {
    arena.New(static_cast<Oid>(i + 3), 7, std::vector<int32_t>{i}, 1);
  }
  // No relocation: the node, its spans and what they hold are untouched by
  // the blocks added since.
  EXPECT_EQ(first->oid, 1u);
  EXPECT_EQ(first->fields.data(), first_fields);
  EXPECT_EQ(std::vector<int32_t>(first->fields.begin(), first->fields.end()),
            (std::vector<int32_t>{1, 2, 3}));
  EXPECT_EQ(first->children[0], nullptr);
  EXPECT_EQ(first->children[1], second);
  EXPECT_EQ(first->child_slots[0], -1);
  EXPECT_EQ(first->child_slots[1], 5);
  EXPECT_EQ(arena.size(), 10002u);
}

TEST(ObjectArenaTest, BlocksStartSmallAndGrow) {
  ObjectArena arena;
  arena.New(1, 1, std::vector<int32_t>{1, 2, 3, 4}, 2);
  const size_t first_block = arena.bytes_reserved();
  EXPECT_GT(first_block, 0u);
  EXPECT_LE(first_block, 1024u);  // a one-object arena stays small
  // A pass-sized arena grows by doubling, so blocks stay a small share of
  // the nodes' own bytes.
  for (int i = 0; i < 20000; ++i) {
    arena.New(static_cast<Oid>(i + 2), 1, std::vector<int32_t>{1, 2, 3, 4}, 2);
  }
  EXPECT_LT(arena.bytes_reserved(), 20001u * 200u);
  // A node bigger than any block gets a block of its own, intact.
  std::vector<int32_t> wide(100'000);
  for (size_t i = 0; i < wide.size(); ++i) wide[i] = static_cast<int32_t>(i);
  AssembledObject* big = arena.New(99, 1, wide, 3);
  EXPECT_EQ(std::vector<int32_t>(big->fields.begin(), big->fields.end()), wide);
  EXPECT_EQ(big->children.size(), 3u);
  EXPECT_EQ(big->child_slots[2], -1);
}

TEST(AssembledTraversalTest, VisitCountAndSharing) {
  ObjectArena arena;
  // Diamond: root -> {a, b}, both -> shared leaf.
  AssembledObject* root = arena.New(1, kAnyTypeId, std::vector<int32_t>{1}, 2);
  AssembledObject* a = arena.New(2, kAnyTypeId, std::vector<int32_t>{10}, 1);
  AssembledObject* b = arena.New(3, kAnyTypeId, std::vector<int32_t>{20}, 1);
  AssembledObject* leaf =
      arena.New(4, kAnyTypeId, std::vector<int32_t>{100}, 0);
  root->children[0] = a;
  root->children[1] = b;
  a->children[0] = leaf;
  b->children[0] = leaf;
  EXPECT_EQ(CountAssembled(root), 4u);  // leaf counted once
  auto oids = CollectOids(root);
  EXPECT_EQ(oids.size(), 4u);
  EXPECT_TRUE(oids.contains(4));
  // SumField counts the shared leaf once.
  EXPECT_EQ(SumField(root, 0), 1 + 10 + 20 + 100);
}

TEST(AssembledTraversalTest, FindByType) {
  ObjectArena arena;
  AssembledObject* root = arena.New(kInvalidOid, 1, {}, 1);
  AssembledObject* child = arena.New(9, 2, {}, 0);
  root->children[0] = child;
  EXPECT_EQ(FindByType(root, 2), child);
  EXPECT_EQ(FindByType(root, 99), nullptr);
}

TEST(AssembledTraversalTest, NullSafe) {
  EXPECT_EQ(CountAssembled(nullptr), 0u);
  ObjectArena arena;
  AssembledObject* root = arena.New(kInvalidOid, kAnyTypeId, {}, 2);
  EXPECT_EQ(CountAssembled(root), 1u);
}

}  // namespace
}  // namespace cobra
