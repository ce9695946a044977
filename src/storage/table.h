// Table: schema-typed rows in a heap file plus optional B+Tree
// secondary indexes. The Crimson repositories (tree, species, query
// history) are tables of this kind.

#ifndef CRIMSON_STORAGE_TABLE_H_
#define CRIMSON_STORAGE_TABLE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/btree.h"
#include "storage/heap_file.h"
#include "storage/schema.h"

namespace crimson {

/// Persistent description of one secondary index.
struct IndexDef {
  std::string name;
  int column = 0;       // indexed column ordinal
  bool unique = false;
  PageId anchor = kInvalidPageId;  // B+Tree handle
};

/// Persistent description of a table (stored in the catalog).
struct TableDef {
  std::string name;
  Schema schema;
  PageId heap_first_page = kInvalidPageId;
  std::vector<IndexDef> indexes;

  void EncodeTo(std::string* dst) const;
  static Result<TableDef> DecodeFrom(Slice input);
};

/// Open handle to a table. Point/range lookups and scans are safe
/// from any number of threads under the buffer pool's shared frame
/// latches; mutations belong to the single writer (Database writer
/// epoch), which also owns the handle's in-memory hints (heap tail,
/// record count).
class Table {
 public:
  /// Materializes a handle from a definition (heap and indexes must
  /// already exist; Database handles creation).
  static Result<Table> Open(BufferPool* pool, TableDef def);

  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  const TableDef& def() const { return def_; }
  const Schema& schema() const { return def_.schema; }
  uint64_t row_count() const { return heap_->record_count(); }

  /// Inserts a row, maintaining every index. Unique-index violations
  /// fail with AlreadyExists before any mutation of the indexes.
  Result<RecordId> Insert(const Row& row);

  /// Reads one row by id.
  Status Get(const RecordId& id, Row* row) const;

  /// Deletes a row and its index entries.
  Status Delete(const RecordId& id);

  /// Deletes every row whose `index_name` column equals `key` (the
  /// DeleteRange of that key's encoding).
  Result<uint64_t> DeleteWhere(std::string_view index_name, const Value& key);

  /// Deletes every row whose encoded `index_name` key is in
  /// [lower_key, upper_key) (empty upper = unbounded): reads the
  /// range's record ids once, deletes each row's heap record and its
  /// exact (key, record id) entries in the other indexes, then removes
  /// the range from `index_name` in one pass (BTree::DeleteRange). A
  /// table with no other index never reads the rows. Returns the
  /// number of rows deleted. Corruption when the entries removed are
  /// not the ones looked up.
  Result<uint64_t> DeleteRange(std::string_view index_name,
                               const std::string& lower_key,
                               const std::string& upper_key);

  /// Looks up record ids by exact value on a named index.
  Result<std::vector<RecordId>> IndexLookup(std::string_view index_name,
                                            const Value& key) const;

  /// Range scan over a named index: calls fn(key, record id) for entries
  /// with encoded key in [lower, upper); empty upper = unbounded. Stops
  /// early when fn returns false.
  Status IndexRangeScan(
      std::string_view index_name, const std::string& lower_key,
      const std::string& upper_key,
      const std::function<bool(const Slice&, RecordId)>& fn) const;

  /// Full scan: fn(id, row); stops early when fn returns false.
  Status Scan(const std::function<bool(const RecordId&, const Row&)>& fn) const;

  /// Encodes an index key for this table's column type (for range scans).
  Status EncodeKeyFor(std::string_view index_name, const Value& v,
                      std::string* key) const;

 private:
  Table(BufferPool* pool, TableDef def)
      : pool_(pool), def_(std::move(def)) {}

  const IndexDef* FindIndexDef(std::string_view name, size_t* pos) const;

  /// Deletes a row's heap record and its entries in every index but
  /// `skip_index` (pass def_.indexes.size() to skip none). The row is
  /// read only when some index entry must go.
  Status DeleteRow(const RecordId& id, size_t skip_index);

  BufferPool* pool_;
  TableDef def_;
  std::unique_ptr<HeapFile> heap_;
  std::vector<std::unique_ptr<BTree>> index_trees_;  // parallel to def_.indexes
};

}  // namespace crimson

#endif  // CRIMSON_STORAGE_TABLE_H_
