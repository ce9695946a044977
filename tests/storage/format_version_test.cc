// The database file's format version: header page 0 carries it at
// bytes [24..28), a fresh file is stamped with kFormatVersion, and a
// file of any other version fails to open with FailedPrecondition --
// before WAL replay, leaving the file and its WAL byte-for-byte intact.

#include <gtest/gtest.h>

#include <string>

#include "common/coding.h"
#include "crimson/crimson.h"
#include "fault_injection.h"
#include "storage/database.h"
#include "storage/pager.h"
#include "storage/wal.h"

namespace crimson {
namespace {

constexpr const char* kDbPath = "format.db";

DatabaseOptions Options(test::FaultInjectionEnv* env, Durability durability) {
  DatabaseOptions opts;
  opts.durability = durability;
  opts.env = env->env();
  return opts;
}

std::string WalSegment() {
  return WalSegmentPath(std::string(kDbPath) + "-wal", 1);
}

/// Creates and checkpoints a database holding one table of rows. With
/// Durability::kCommit a second committed transaction follows and the
/// database is dropped without a checkpoint, leaving that transaction
/// in the WAL for the next open to replay.
void CreateDatabase(test::FaultInjectionEnv* env, Durability durability) {
  auto db = Database::Open(kDbPath, Options(env, durability));
  ASSERT_TRUE(db.ok()) << db.status();
  for (int64_t batch = 0; batch < 2; ++batch) {
    auto txn = (*db)->Begin();
    ASSERT_TRUE(txn.ok());
    auto table =
        batch == 0
            ? (*db)->CreateTable("kv", Schema({{"id", ColumnType::kInt64},
                                               {"v", ColumnType::kString}}))
            : (*db)->OpenTable("kv");
    ASSERT_TRUE(table.ok()) << table.status();
    for (int64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(table->Insert({batch * 10 + i, std::string(50, 'v')}).ok());
    }
    ASSERT_TRUE(txn->Commit().ok());
    if (batch == 0) {
      ASSERT_TRUE((*db)->Flush().ok());
    }
    if (durability == Durability::kOff) return;
  }
}

/// Earlier format versions: 0 is what every file written before the
/// field existed holds; 1 still had the per-node `nodes` table; 2
/// stored one `species` row per species; 3 logged freed pages as full
/// images and had no kFreePage WAL record.
constexpr uint32_t kOlderVersions[] = {0, 1, 2, 3};

/// Overwrites the header's format-version field.
void WriteFormatVersion(test::FaultInjectionEnv* env, uint32_t version) {
  auto file = env->env().open_file(kDbPath);
  ASSERT_TRUE(file.ok()) << file.status();
  char bytes[4];
  EncodeFixed32(bytes, version);
  ASSERT_TRUE((*file)->Write(kHeaderFormatVersionOffset, bytes, 4).ok());
  ASSERT_TRUE((*file)->Sync().ok());
}

void ExpectVersionMismatch(const Status& status, uint32_t file_version) {
  EXPECT_TRUE(status.IsFailedPrecondition()) << status;
  const std::string message = status.ToString();
  EXPECT_NE(message.find("file has format version " +
                         std::to_string(file_version)),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("reads format version " +
                         std::to_string(kFormatVersion)),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("load the trees into a new database"),
            std::string::npos)
      << message;
}

TEST(FormatVersionTest, FreshHeaderMatchesGoldenLayout) {
  test::FaultInjectionEnv env;
  {
    auto db = Database::Open(kDbPath, Options(&env, Durability::kOff));
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE((*db)->Flush().ok());
  }
  const std::string file = env.FileContents(kDbPath);
  ASSERT_GE(file.size(), kPageSize);
  // magic, page size 8192, 3 pages (header + the catalog's root leaf
  // and anchor), empty freelist, catalog anchor page 2, format version 4.
  const std::string golden(
      "CRIMSON1"
      "\x00\x20\x00\x00"
      "\x03\x00\x00\x00"
      "\x00\x00\x00\x00"
      "\x02\x00\x00\x00"
      "\x04\x00\x00\x00",
      kHeaderBytes);
  EXPECT_EQ(file.substr(0, kHeaderBytes), golden);
  EXPECT_EQ(file.substr(kHeaderBytes, kPageSize - kHeaderBytes),
            std::string(kPageSize - kHeaderBytes, '\0'));

  // The one codec lays out exactly these bytes and reads them back.
  DbHeader header;
  header.page_count = 3;
  header.catalog_root = 2;
  EXPECT_EQ(EncodeDbHeader(header), file.substr(0, kPageSize));
  auto decoded = DecodeDbHeader(Slice(golden));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->format_version, kFormatVersion);
  EXPECT_EQ(decoded->page_count, 3u);
  EXPECT_EQ(decoded->freelist_head, kInvalidPageId);
  EXPECT_EQ(decoded->catalog_root, 2u);
}

TEST(FormatVersionTest, OlderVersionFileFailsToOpenAndStaysUntouched) {
  for (uint32_t version : kOlderVersions) {
    SCOPED_TRACE(version);
    test::FaultInjectionEnv env;
    CreateDatabase(&env, Durability::kOff);
    WriteFormatVersion(&env, version);
    const std::string before = env.FileContents(kDbPath);

    for (Durability durability : {Durability::kOff, Durability::kCommit}) {
      auto db = Database::Open(kDbPath, Options(&env, durability));
      ASSERT_FALSE(db.ok());
      ExpectVersionMismatch(db.status(), version);
      EXPECT_EQ(env.FileContents(kDbPath), before);
    }

    CrimsonOptions opts;
    opts.db_path = kDbPath;
    opts.storage_env = env.env();
    auto session = Crimson::Open(opts);
    ASSERT_FALSE(session.ok());
    ExpectVersionMismatch(session.status(), version);
    EXPECT_EQ(env.FileContents(kDbPath), before);
    EXPECT_TRUE(env.FileContents(WalSegment()).empty());
  }
}

TEST(FormatVersionTest, OlderVersionFileWithCommittedWalIsNotReplayed) {
  for (uint32_t version : kOlderVersions) {
    SCOPED_TRACE(version);
    test::FaultInjectionEnv env;
    CreateDatabase(&env, Durability::kCommit);
    env.CrashToDurable();
    const std::string wal_before = env.FileContents(WalSegment());
    ASSERT_GT(wal_before.size(), kWalSegmentHeaderSize);
    WriteFormatVersion(&env, version);
    const std::string db_before = env.FileContents(kDbPath);

    // Durable opens would replay and then reset the log; non-durable ones
    // would replay and then remove it. Neither may happen.
    for (Durability durability : {Durability::kCommit, Durability::kOff}) {
      auto db = Database::Open(kDbPath, Options(&env, durability));
      ASSERT_FALSE(db.ok());
      ExpectVersionMismatch(db.status(), version);
      EXPECT_EQ(env.FileContents(kDbPath), db_before);
      EXPECT_EQ(env.FileContents(WalSegment()), wal_before);
    }

    CrimsonOptions opts;
    opts.db_path = kDbPath;
    opts.storage_env = env.env();
    opts.durability = Durability::kCommit;
    auto session = Crimson::Open(opts);
    ASSERT_FALSE(session.ok());
    ExpectVersionMismatch(session.status(), version);
    EXPECT_EQ(env.FileContents(kDbPath), db_before);
    EXPECT_EQ(env.FileContents(WalSegment()), wal_before);
  }
}

}  // namespace
}  // namespace crimson
