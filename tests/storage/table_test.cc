#include "storage/table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/random.h"
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

// ---- BulkAppend: row-source bulk == per-row Insert -------------------------

std::unique_ptr<Table> MakeSpeciesTable(Database* db) {
  auto t = db->CreateTable(
      "species", SpeciesSchema(),
      {{"by_id", "id", /*unique=*/true}, {"by_name", "name", false},
       {"by_weight", "weight", false}});
  EXPECT_TRUE(t.ok()) << t.status();
  return std::make_unique<Table>(std::move(t).value());
}

// Rows with unique ids, heavily duplicated names and weights (so tie
// order matters on two indexes) and sequences of mixed lengths, some
// long enough to fill several heap pages.
std::vector<Row> SpeciesRows(int64_t first_id, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    std::string seq(rng.Uniform(4) == 0 ? 200 + rng.Uniform(300)
                                        : rng.Uniform(20),
                    'A');
    for (char& c : seq) c = "ACGT"[rng.Uniform(4)];
    rows.push_back({first_id + static_cast<int64_t>(i),
                    "sp" + std::to_string(rng.Uniform(n / 8 + 1)),
                    static_cast<double>(rng.Uniform(16)) * 0.25,
                    std::move(seq)});
  }
  // Ids out of order, so the unique index's bulk run is really sorted.
  rng.Shuffle(&rows);
  return rows;
}

// Heap records (stored bytes, in scan order) and every index's entries
// in scan order as (key, scan position of the row it points at). Record
// ids themselves may differ: per-row Insert interleaves index page
// splits with heap page allocations, a bulk append does not.
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

Status BulkAppendRows(Table* table, const std::vector<Row>& rows) {
  return table->BulkAppend(rows.size(),
                           [&](size_t i, Row* row) { *row = rows[i]; });
}

class BulkAppendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto a = Database::OpenInMemory();
    auto b = Database::OpenInMemory();
    ASSERT_TRUE(a.ok() && b.ok());
    insert_db_ = std::move(a).value();
    bulk_db_ = std::move(b).value();
    by_insert_ = MakeSpeciesTable(insert_db_.get());
    by_bulk_ = MakeSpeciesTable(bulk_db_.get());
  }

  // Feeds the same rows per row to one table and in bulk to the other.
  void AppendBoth(const std::vector<Row>& rows) {
    for (const Row& row : rows) ASSERT_TRUE(by_insert_->Insert(row).ok());
    ASSERT_TRUE(BulkAppendRows(by_bulk_.get(), rows).ok());
  }

  std::unique_ptr<Database> insert_db_, bulk_db_;
  std::unique_ptr<Table> by_insert_, by_bulk_;
};

TEST_F(BulkAppendTest, EmptyTableMatchesPerRowInsert) {
  AppendBoth(SpeciesRows(0, 3000, 1));
  EXPECT_EQ(by_bulk_->row_count(), 3000u);
  ExpectSameSnapshot(*by_bulk_, *by_insert_);
}

TEST_F(BulkAppendTest, NonEmptyTableMatchesPerRowInsert) {
  // Rows stored one by one in both tables first, then a batch whose
  // names and weights collide with the stored ones.
  for (const Row& row : SpeciesRows(0, 500, 2)) {
    ASSERT_TRUE(by_insert_->Insert(row).ok());
    ASSERT_TRUE(by_bulk_->Insert(row).ok());
  }
  AppendBoth(SpeciesRows(500, 2000, 3));
  AppendBoth(SpeciesRows(2500, 700, 4));
  EXPECT_EQ(by_bulk_->row_count(), 3200u);
  ExpectSameSnapshot(*by_bulk_, *by_insert_);
}

TEST_F(BulkAppendTest, ConsecutiveBatchesMatchPerRowInsert) {
  AppendBoth(SpeciesRows(0, 1000, 5));
  AppendBoth({});
  AppendBoth(SpeciesRows(1000, 1000, 6));
  ExpectSameSnapshot(*by_bulk_, *by_insert_);
}

TEST_F(BulkAppendTest, DuplicateKeyWithinBatchFailsBeforeMutation) {
  AppendBoth(SpeciesRows(0, 100, 7));
  std::vector<std::string> before = Snapshot(*by_bulk_);
  std::vector<Row> batch = SpeciesRows(100, 300, 8);
  batch[250][0] = batch[10][0];
  Status s = BulkAppendRows(by_bulk_.get(), batch);
  EXPECT_TRUE(s.IsAlreadyExists()) << s;
  EXPECT_EQ(by_bulk_->row_count(), 100u);
  EXPECT_EQ(Snapshot(*by_bulk_), before);
}

TEST_F(BulkAppendTest, DuplicateOfStoredKeyFailsBeforeMutation) {
  AppendBoth(SpeciesRows(0, 100, 9));
  std::vector<std::string> before = Snapshot(*by_bulk_);
  std::vector<Row> batch = SpeciesRows(100, 300, 10);
  batch[299][0] = int64_t{42};
  Status s = BulkAppendRows(by_bulk_.get(), batch);
  EXPECT_TRUE(s.IsAlreadyExists()) << s;
  EXPECT_EQ(by_bulk_->row_count(), 100u);
  EXPECT_EQ(Snapshot(*by_bulk_), before);
}

TEST_F(BulkAppendTest, BadRowFailsBeforeMutation) {
  AppendBoth(SpeciesRows(0, 100, 11));
  std::vector<std::string> before = Snapshot(*by_bulk_);
  std::vector<Row> batch = SpeciesRows(100, 300, 12);
  batch[150][2] = std::string("not a weight");
  Status s = BulkAppendRows(by_bulk_.get(), batch);
  EXPECT_TRUE(s.IsInvalidArgument()) << s;
  EXPECT_EQ(Snapshot(*by_bulk_), before);
}

TEST_F(BulkAppendTest, RowSourceVisitsEachRowOnceInOrder) {
  std::vector<Row> rows = SpeciesRows(0, 50, 13);
  std::vector<size_t> visited;
  ASSERT_TRUE(by_bulk_
                  ->BulkAppend(rows.size(),
                               [&](size_t i, Row* row) {
                                 visited.push_back(i);
                                 *row = rows[i];
                               })
                  .ok());
  ASSERT_EQ(visited.size(), rows.size());
  for (size_t i = 0; i < visited.size(); ++i) EXPECT_EQ(visited[i], i);
}

}  // namespace
}  // namespace crimson
