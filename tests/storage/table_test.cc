#include "storage/table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "storage/database.h"

namespace crimson {
namespace {

Schema SpeciesSchema() {
  return Schema({{"id", ColumnType::kInt64},
                 {"name", ColumnType::kString},
                 {"weight", ColumnType::kDouble},
                 {"seq", ColumnType::kBytes}});
}

TEST(SchemaTest, EncodeDecodeRoundTrip) {
  Schema s = SpeciesSchema();
  std::string buf;
  s.EncodeTo(&buf);
  Slice in(buf);
  auto decoded = Schema::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(*decoded == s);
  EXPECT_TRUE(in.empty());
}

TEST(SchemaTest, FindColumn) {
  Schema s = SpeciesSchema();
  EXPECT_EQ(s.FindColumn("name"), 1);
  EXPECT_EQ(s.FindColumn("seq"), 3);
  EXPECT_EQ(s.FindColumn("nope"), -1);
}

TEST(RowCodecTest, RoundTrip) {
  Schema s = SpeciesSchema();
  Row row = {int64_t{-12345}, std::string("Bha"), 2.25,
             std::string("ACGT")};
  std::string buf;
  ASSERT_TRUE(EncodeRow(s, row, &buf).ok());
  Row out;
  ASSERT_TRUE(DecodeRow(s, Slice(buf), &out).ok());
  EXPECT_EQ(std::get<int64_t>(out[0]), -12345);
  EXPECT_EQ(std::get<std::string>(out[1]), "Bha");
  EXPECT_DOUBLE_EQ(std::get<double>(out[2]), 2.25);
  EXPECT_EQ(std::get<std::string>(out[3]), "ACGT");
}

TEST(RowCodecTest, ArityAndTypeMismatchRejected) {
  Schema s = SpeciesSchema();
  std::string buf;
  EXPECT_TRUE(EncodeRow(s, {int64_t{1}}, &buf).IsInvalidArgument());
  Row wrong_type = {std::string("x"), std::string("Bha"), 2.25,
                    std::string("A")};
  EXPECT_TRUE(EncodeRow(s, wrong_type, &buf).IsInvalidArgument());
}

TEST(RowCodecTest, TrailingBytesDetected) {
  Schema s({{"a", ColumnType::kInt64}});
  std::string buf;
  ASSERT_TRUE(EncodeRow(s, {int64_t{1}}, &buf).ok());
  buf += "junk";
  Row out;
  EXPECT_TRUE(DecodeRow(s, Slice(buf), &out).IsCorruption());
}

class TableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::OpenInMemory();
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    auto t = db_->CreateTable(
        "species", SpeciesSchema(),
        {{"by_id", "id", /*unique=*/true}, {"by_name", "name", false},
         {"by_weight", "weight", false}});
    ASSERT_TRUE(t.ok()) << t.status();
    table_ = std::make_unique<Table>(std::move(t).value());
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Table> table_;
};

TEST_F(TableTest, InsertGetRoundTrip) {
  auto rid = table_->Insert({int64_t{1}, std::string("Bha"), 2.25,
                             std::string("ACGT")});
  ASSERT_TRUE(rid.ok());
  Row row;
  ASSERT_TRUE(table_->Get(*rid, &row).ok());
  EXPECT_EQ(std::get<std::string>(row[1]), "Bha");
}

TEST_F(TableTest, UniqueIndexViolationLeavesTableClean) {
  ASSERT_TRUE(
      table_->Insert({int64_t{1}, std::string("A"), 0.0, std::string("")})
          .ok());
  auto dup =
      table_->Insert({int64_t{1}, std::string("B"), 0.0, std::string("")});
  EXPECT_TRUE(dup.status().IsAlreadyExists());
  EXPECT_EQ(table_->row_count(), 1u);
  // The non-unique name index must not have picked up the failed row.
  auto hits = table_->IndexLookup("by_name", std::string("B"));
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
}

TEST_F(TableTest, IndexLookupFindsAllDuplicates) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(table_
                    ->Insert({int64_t{i}, std::string("same"),
                              static_cast<double>(i), std::string("")})
                    .ok());
  }
  auto hits = table_->IndexLookup("by_name", std::string("same"));
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 10u);
}

TEST_F(TableTest, IndexRangeScanOverDoubles) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(table_
                    ->Insert({int64_t{i}, std::string("s"),
                              static_cast<double>(i) * 0.5, std::string("")})
                    .ok());
  }
  std::string lo, hi;
  ASSERT_TRUE(table_->EncodeKeyFor("by_weight", 10.0, &lo).ok());
  ASSERT_TRUE(table_->EncodeKeyFor("by_weight", 20.0, &hi).ok());
  int count = 0;
  ASSERT_TRUE(table_
                  ->IndexRangeScan("by_weight", lo, hi,
                                   [&](const Slice&, RecordId) {
                                     ++count;
                                     return true;
                                   })
                  .ok());
  EXPECT_EQ(count, 20);  // weights 10.0, 10.5, ..., 19.5
}

TEST_F(TableTest, DeleteRemovesIndexEntries) {
  auto rid = table_->Insert({int64_t{7}, std::string("doomed"), 1.0,
                             std::string("")});
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(table_->Delete(*rid).ok());
  auto hits = table_->IndexLookup("by_name", std::string("doomed"));
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
  // The unique id becomes available again.
  EXPECT_TRUE(
      table_->Insert({int64_t{7}, std::string("again"), 1.0, std::string("")})
          .ok());
}

TEST_F(TableTest, ScanSeesEveryRow) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(table_
                    ->Insert({int64_t{i}, std::string("n"), 0.0,
                              std::string("")})
                    .ok());
  }
  int64_t sum = 0;
  ASSERT_TRUE(table_
                  ->Scan([&](const RecordId&, const Row& row) {
                    sum += std::get<int64_t>(row[0]);
                    return true;
                  })
                  .ok());
  EXPECT_EQ(sum, 49 * 50 / 2);
}

TEST_F(TableTest, UnknownIndexRejected) {
  EXPECT_TRUE(
      table_->IndexLookup("no_such", std::string("x")).status().IsNotFound());
}

TEST(DatabaseTest, CatalogListsAndReopens) {
  std::string path = testing::TempDir() + "/crimson_db_test.db";
  RemoveFile(path);
  {
    auto db = Database::Open(path);
    ASSERT_TRUE(db.ok());
    Schema s({{"k", ColumnType::kString}, {"v", ColumnType::kInt64}});
    auto t = (*db)->CreateTable("kv", s, {{"by_k", "k", true}});
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(t->Insert({std::string("alpha"), int64_t{1}}).ok());
    ASSERT_TRUE(t->Insert({std::string("beta"), int64_t{2}}).ok());
    ASSERT_TRUE((*db)->Flush().ok());
  }
  {
    auto db = Database::Open(path);
    ASSERT_TRUE(db.ok());
    auto names = (*db)->ListTables();
    ASSERT_TRUE(names.ok());
    ASSERT_EQ(names->size(), 1u);
    EXPECT_EQ((*names)[0], "kv");
    auto t = (*db)->OpenTable("kv");
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t->row_count(), 2u);
    auto hits = t->IndexLookup("by_k", std::string("beta"));
    ASSERT_TRUE(hits.ok());
    ASSERT_EQ(hits->size(), 1u);
    Row row;
    ASSERT_TRUE(t->Get((*hits)[0], &row).ok());
    EXPECT_EQ(std::get<int64_t>(row[1]), 2);
  }
  RemoveFile(path);
}

TEST(DatabaseTest, DuplicateTableRejected) {
  auto db = Database::OpenInMemory();
  ASSERT_TRUE(db.ok());
  Schema s({{"a", ColumnType::kInt64}});
  ASSERT_TRUE((*db)->CreateTable("t", s).ok());
  EXPECT_TRUE((*db)->CreateTable("t", s).status().IsAlreadyExists());
  EXPECT_TRUE(*(*db)->HasTable("t"));
  EXPECT_FALSE(*(*db)->HasTable("u"));
  EXPECT_TRUE((*db)->OpenTable("u").status().IsNotFound());
}

TEST(DatabaseTest, IndexOnUnknownColumnRejected) {
  auto db = Database::OpenInMemory();
  ASSERT_TRUE(db.ok());
  Schema s({{"a", ColumnType::kInt64}});
  auto t = (*db)->CreateTable("t", s, {{"bad", "missing", false}});
  EXPECT_TRUE(t.status().IsInvalidArgument());
}

// ---- Table snapshots -------------------------------------------------------

// Heap records (stored bytes, in scan order) and every index's entries
// in scan order as (key, scan position of the row it points at).
std::vector<std::string> Snapshot(const Table& table) {
  std::vector<std::string> out;
  std::map<uint64_t, size_t> position;
  EXPECT_TRUE(table
                  .Scan([&](const RecordId& id, const Row& row) {
                    std::string bytes;
                    EXPECT_TRUE(EncodeRow(table.schema(), row, &bytes).ok());
                    position[id.Pack()] = out.size();
                    out.push_back("heap " + bytes);
                    return true;
                  })
                  .ok());
  for (const IndexDef& idx : table.def().indexes) {
    EXPECT_TRUE(table
                    .IndexRangeScan(idx.name, "", "",
                                    [&](const Slice& key, RecordId id) {
                                      EXPECT_EQ(position.count(id.Pack()), 1u);
                                      out.push_back(
                                          idx.name + " " + key.ToString() +
                                          " -> " +
                                          std::to_string(position[id.Pack()]));
                                      return true;
                                    })
                    .ok());
  }
  return out;
}

// Reports the first differing entry rather than both dumps.
void ExpectSameSnapshot(const Table& got, const Table& want) {
  std::vector<std::string> a = Snapshot(got), b = Snapshot(want);
  EXPECT_EQ(a.size(), b.size());
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i] != b[i]) {
      ADD_FAILURE() << "entry " << i << " differs:\n  got  " << a[i]
                    << "\n  want " << b[i];
      return;
    }
  }
}

// ---- DeleteWhere / DeleteRange: one-pass delete == per-row Delete ---------

Schema TreeRowSchema() {
  return Schema({{"id", ColumnType::kInt64},
                 {"tree", ColumnType::kInt64},
                 {"name", ColumnType::kString},
                 {"seq", ColumnType::kBytes}});
}

std::unique_ptr<Table> MakeTreeRowTable(Database* db) {
  auto t = db->CreateTable("tree_rows", TreeRowSchema(),
                           {{"by_id", "id", /*unique=*/true},
                            {"by_tree", "tree", false},
                            {"by_name", "name", false}});
  EXPECT_TRUE(t.ok()) << t.status();
  return std::make_unique<Table>(std::move(t).value());
}

// `n` rows of one tree. Names repeat across trees ("sp<i % 400>"), so
// each tree's rows share keys with other trees' runs on by_name.
std::vector<Row> TreeRows(int64_t tree, int64_t first_id, size_t n) {
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({first_id + static_cast<int64_t>(i), tree,
                    "sp" + std::to_string(i % 400),
                    std::string(i % 7 == 0 ? 300 : 12, 'A')});
  }
  return rows;
}

class DeleteWhereTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto a = Database::OpenInMemory();
    auto b = Database::OpenInMemory();
    ASSERT_TRUE(a.ok() && b.ok());
    where_db_ = std::move(a).value();
    per_row_db_ = std::move(b).value();
    by_where_ = MakeTreeRowTable(where_db_.get());
    by_row_ = MakeTreeRowTable(per_row_db_.get());
  }

  // The same per-row inserts into both tables, so record ids match.
  void InsertBoth(const std::vector<Row>& rows) {
    for (const Row& row : rows) {
      ASSERT_TRUE(by_where_->Insert(row).ok());
      ASSERT_TRUE(by_row_->Insert(row).ok());
    }
    all_rows_.insert(all_rows_.end(), rows.begin(), rows.end());
  }

  // DeleteWhere on one table, IndexLookup + per-row Delete on the other;
  // both must remove the same rows, then agree everywhere.
  void DeleteBoth(const std::string& index, const Value& key) {
    auto rids = by_row_->IndexLookup(index, key);
    ASSERT_TRUE(rids.ok()) << rids.status();
    for (const RecordId& rid : *rids) ASSERT_TRUE(by_row_->Delete(rid).ok());
    auto removed = by_where_->DeleteWhere(index, key);
    ASSERT_TRUE(removed.ok()) << removed.status();
    EXPECT_EQ(*removed, rids->size());
    ExpectTablesAgree();
  }

  // Heap scans and index scans match, and so does a lookup of every key
  // ever inserted, on every index (record ids included).
  void ExpectTablesAgree() {
    EXPECT_EQ(by_where_->row_count(), by_row_->row_count());
    ExpectSameSnapshot(*by_where_, *by_row_);
    for (const IndexDef& idx : by_where_->def().indexes) {
      std::set<Value> keys;
      for (const Row& row : all_rows_) keys.insert(row[idx.column]);
      for (const Value& key : keys) {
        auto a = by_where_->IndexLookup(idx.name, key);
        auto b = by_row_->IndexLookup(idx.name, key);
        ASSERT_TRUE(a.ok() && b.ok());
        ASSERT_EQ(a->size(), b->size()) << idx.name;
        for (size_t i = 0; i < a->size(); ++i) {
          ASSERT_EQ((*a)[i].Pack(), (*b)[i].Pack()) << idx.name;
        }
      }
    }
  }

  std::unique_ptr<Database> where_db_, per_row_db_;
  std::unique_ptr<Table> by_where_, by_row_;
  std::vector<Row> all_rows_;
};

TEST_F(DeleteWhereTest, DuplicateRunSpanningManyLeaves) {
  InsertBoth(TreeRows(1, 0, 200));
  InsertBoth(TreeRows(2, 1000, 4000));  // ~20 by_tree leaves
  InsertBoth(TreeRows(3, 9000, 200));
  DeleteBoth("by_tree", int64_t{2});
  EXPECT_EQ(by_where_->row_count(), 400u);
  auto gone = by_where_->IndexLookup("by_tree", int64_t{2});
  ASSERT_TRUE(gone.ok());
  EXPECT_TRUE(gone->empty());
}

TEST_F(DeleteWhereTest, RunNextToLeavesEmptiedByAnEarlierRun) {
  for (int64_t tree = 1; tree <= 4; ++tree) {
    InsertBoth(TreeRows(tree, tree * 10000, 1500));
  }
  DeleteBoth("by_tree", int64_t{2});
  DeleteBoth("by_tree", int64_t{3});  // starts beside tree 2's empty leaves
  // The id comes back (tree ids are reused) and goes again.
  InsertBoth(TreeRows(2, 50000, 1500));
  DeleteBoth("by_tree", int64_t{2});
  DeleteBoth("by_tree", int64_t{1});
  EXPECT_EQ(by_where_->row_count(), 1500u);
}

TEST_F(DeleteWhereTest, KeysSharedWithOtherRunsOnASecondIndex) {
  InsertBoth(TreeRows(1, 0, 800));
  InsertBoth(TreeRows(2, 1000, 800));
  InsertBoth(TreeRows(3, 2000, 800));
  // Every by_name key of tree 2 is also a key of trees 1 and 3.
  DeleteBoth("by_tree", int64_t{2});
  // A run on the name index whose rows span several trees.
  DeleteBoth("by_name", std::string("sp7"));
  EXPECT_EQ(by_where_->row_count(), 1600u - 4u);
}

TEST_F(DeleteWhereTest, EmptyRunRemovesNothing) {
  auto none = by_where_->DeleteWhere("by_tree", int64_t{1});  // empty table
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_EQ(*none, 0u);
  InsertBoth(TreeRows(1, 0, 300));
  InsertBoth(TreeRows(3, 1000, 300));
  DeleteBoth("by_tree", int64_t{2});  // between two runs
  DeleteBoth("by_tree", int64_t{9});  // past the last key
  DeleteBoth("by_name", std::string("absent"));
  EXPECT_EQ(by_where_->row_count(), 600u);
}

TEST_F(DeleteWhereTest, KeyRangeAcrossRunsOfOtherIndexes) {
  InsertBoth(TreeRows(1, 0, 900));
  InsertBoth(TreeRows(2, 1000, 900));
  // ids [500, 1400): the tail of tree 1 and the head of tree 2, with
  // their by_tree and by_name entries.
  std::string lower, upper;
  ASSERT_TRUE(by_where_->EncodeKeyFor("by_id", int64_t{500}, &lower).ok());
  ASSERT_TRUE(by_where_->EncodeKeyFor("by_id", int64_t{1400}, &upper).ok());
  for (int64_t id = 500; id < 1400; ++id) {
    auto rids = by_row_->IndexLookup("by_id", id);
    ASSERT_TRUE(rids.ok());
    for (const RecordId& rid : *rids) ASSERT_TRUE(by_row_->Delete(rid).ok());
  }
  auto removed = by_where_->DeleteRange("by_id", lower, upper);
  ASSERT_TRUE(removed.ok()) << removed.status();
  EXPECT_EQ(*removed, 400u + 400u);
  ExpectTablesAgree();
  // An empty upper runs to the end of the index.
  removed = by_where_->DeleteRange("by_id", upper, "");
  ASSERT_TRUE(removed.ok()) << removed.status();
  EXPECT_EQ(*removed, 500u);
  EXPECT_EQ(by_where_->row_count(), 500u);
}

TEST_F(DeleteWhereTest, UniqueIndex) {
  InsertBoth(TreeRows(1, 0, 500));
  DeleteBoth("by_id", int64_t{17});
  DeleteBoth("by_id", int64_t{17});  // already gone
  DeleteBoth("by_id", int64_t{499});
  EXPECT_EQ(by_where_->row_count(), 498u);
  // The unique key is free again.
  EXPECT_TRUE(by_where_->Insert(TreeRows(5, 17, 1)[0]).ok());
}

TEST_F(DeleteWhereTest, BadIndexOrKeyRejected) {
  InsertBoth(TreeRows(1, 0, 10));
  EXPECT_TRUE(by_where_->DeleteWhere("by_nothing", int64_t{1})
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(by_where_->DeleteWhere("by_tree", std::string("1"))
                  .status()
                  .IsInvalidArgument());
  EXPECT_EQ(by_where_->row_count(), 10u);
}

}  // namespace
}  // namespace crimson
