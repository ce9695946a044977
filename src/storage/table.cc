#include "storage/table.h"

#include "common/coding.h"
#include "common/string_util.h"
#include "storage/key_codec.h"

namespace crimson {

void TableDef::EncodeTo(std::string* dst) const {
  PutLengthPrefixedSlice(dst, Slice(name));
  schema.EncodeTo(dst);
  PutFixed32(dst, heap_first_page);
  PutVarint32(dst, static_cast<uint32_t>(indexes.size()));
  for (const IndexDef& idx : indexes) {
    PutLengthPrefixedSlice(dst, Slice(idx.name));
    PutVarint32(dst, static_cast<uint32_t>(idx.column));
    dst->push_back(idx.unique ? 1 : 0);
    PutFixed32(dst, idx.anchor);
  }
}

Result<TableDef> TableDef::DecodeFrom(Slice input) {
  TableDef def;
  Slice name;
  if (!GetLengthPrefixedSlice(&input, &name)) {
    return Status::Corruption("table def: bad name");
  }
  def.name = name.ToString();
  CRIMSON_ASSIGN_OR_RETURN(def.schema, Schema::DecodeFrom(&input));
  uint32_t heap_page;
  if (!GetFixed32(&input, &heap_page)) {
    return Status::Corruption("table def: bad heap page");
  }
  def.heap_first_page = heap_page;
  uint32_t n_idx = 0;
  if (!GetVarint32(&input, &n_idx)) {
    return Status::Corruption("table def: bad index count");
  }
  for (uint32_t i = 0; i < n_idx; ++i) {
    IndexDef idx;
    Slice idx_name;
    uint32_t column;
    if (!GetLengthPrefixedSlice(&input, &idx_name) ||
        !GetVarint32(&input, &column) || input.empty()) {
      return Status::Corruption("table def: bad index");
    }
    idx.name = idx_name.ToString();
    idx.column = static_cast<int>(column);
    idx.unique = input[0] != 0;
    input.remove_prefix(1);
    uint32_t anchor;
    if (!GetFixed32(&input, &anchor)) {
      return Status::Corruption("table def: bad index anchor");
    }
    idx.anchor = anchor;
    def.indexes.push_back(std::move(idx));
  }
  return def;
}

Result<Table> Table::Open(BufferPool* pool, TableDef def) {
  Table t(pool, std::move(def));
  CRIMSON_ASSIGN_OR_RETURN(HeapFile heap,
                           HeapFile::Open(pool, t.def_.heap_first_page));
  t.heap_ = std::make_unique<HeapFile>(std::move(heap));
  for (const IndexDef& idx : t.def_.indexes) {
    if (idx.column < 0 ||
        idx.column >= static_cast<int>(t.def_.schema.num_columns())) {
      return Status::Corruption(
          StrFormat("index %s: column %d out of range", idx.name.c_str(),
                    idx.column));
    }
    CRIMSON_ASSIGN_OR_RETURN(BTree tree, BTree::Open(pool, idx.anchor));
    t.index_trees_.push_back(std::make_unique<BTree>(std::move(tree)));
  }
  return t;
}

const IndexDef* Table::FindIndexDef(std::string_view name,
                                    size_t* pos) const {
  for (size_t i = 0; i < def_.indexes.size(); ++i) {
    if (def_.indexes[i].name == name) {
      if (pos) *pos = i;
      return &def_.indexes[i];
    }
  }
  return nullptr;
}

Result<RecordId> Table::Insert(const Row& row) {
  CRIMSON_RETURN_IF_ERROR(pool_->RequireWritable());
  std::string encoded;
  CRIMSON_RETURN_IF_ERROR(EncodeRow(def_.schema, row, &encoded));

  // Check unique constraints before mutating anything.
  std::vector<std::string> keys(def_.indexes.size());
  for (size_t i = 0; i < def_.indexes.size(); ++i) {
    const IndexDef& idx = def_.indexes[i];
    CRIMSON_RETURN_IF_ERROR(EncodeValueKey(
        def_.schema.column(idx.column).type, row[idx.column], &keys[i]));
    if (idx.unique) {
      std::string ignored;
      Status s = index_trees_[i]->Get(Slice(keys[i]), &ignored);
      if (s.ok()) {
        return Status::AlreadyExists(
            StrFormat("unique index %s violated", idx.name.c_str()));
      }
      if (!s.IsNotFound()) return s;
    }
  }

  CRIMSON_ASSIGN_OR_RETURN(RecordId rid, heap_->Insert(Slice(encoded)));
  std::string rid_value = U64Key(rid.Pack());
  for (size_t i = 0; i < def_.indexes.size(); ++i) {
    CRIMSON_RETURN_IF_ERROR(
        index_trees_[i]->Insert(Slice(keys[i]), Slice(rid_value)));
  }
  return rid;
}

Status Table::Get(const RecordId& id, Row* row) const {
  std::string raw;
  CRIMSON_RETURN_IF_ERROR(heap_->Get(id, &raw));
  return DecodeRow(def_.schema, Slice(raw), row);
}

Status Table::DeleteRow(const RecordId& id, size_t skip_index) {
  // The row is read only for the keys of the indexes it must leave.
  const size_t n = def_.indexes.size();
  if (n > (skip_index < n ? 1u : 0u)) {
    Row row;
    CRIMSON_RETURN_IF_ERROR(Get(id, &row));
    std::string rid_value = U64Key(id.Pack());
    const Slice value(rid_value);
    std::string key;
    for (size_t i = 0; i < n; ++i) {
      if (i == skip_index) continue;
      const IndexDef& idx = def_.indexes[i];
      key.clear();
      CRIMSON_RETURN_IF_ERROR(EncodeValueKey(
          def_.schema.column(idx.column).type, row[idx.column], &key));
      CRIMSON_RETURN_IF_ERROR(index_trees_[i]->Delete(Slice(key), &value));
    }
  }
  return heap_->Delete(id);
}

Status Table::Delete(const RecordId& id) {
  CRIMSON_RETURN_IF_ERROR(pool_->RequireWritable());
  return DeleteRow(id, def_.indexes.size());
}

Result<uint64_t> Table::DeleteWhere(std::string_view index_name,
                                    const Value& key) {
  std::string encoded;
  CRIMSON_RETURN_IF_ERROR(EncodeKeyFor(index_name, key, &encoded));
  return DeleteRange(index_name, encoded, encoded + '\0');
}

Result<uint64_t> Table::DeleteRange(std::string_view index_name,
                                    const std::string& lower_key,
                                    const std::string& upper_key) {
  CRIMSON_RETURN_IF_ERROR(pool_->RequireWritable());
  std::vector<RecordId> rids;
  CRIMSON_RETURN_IF_ERROR(IndexRangeScan(index_name, lower_key, upper_key,
                                         [&](const Slice&, RecordId rid) {
                                           rids.push_back(rid);
                                           return true;
                                         }));
  size_t pos = 0;
  const IndexDef* idx = FindIndexDef(index_name, &pos);
  for (const RecordId& rid : rids) {
    CRIMSON_RETURN_IF_ERROR(DeleteRow(rid, pos));
  }
  CRIMSON_ASSIGN_OR_RETURN(
      uint64_t removed,
      index_trees_[pos]->DeleteRange(Slice(lower_key), Slice(upper_key)));
  if (removed != rids.size()) {
    return Status::Corruption(StrFormat(
        "index %s: removed %llu entries of a %zu-entry range",
        idx->name.c_str(), static_cast<unsigned long long>(removed),
        rids.size()));
  }
  return removed;
}

Result<std::vector<RecordId>> Table::IndexLookup(std::string_view index_name,
                                                 const Value& key) const {
  size_t pos;
  const IndexDef* idx = FindIndexDef(index_name, &pos);
  if (idx == nullptr) {
    return Status::NotFound(StrFormat("no index named %.*s",
                                      static_cast<int>(index_name.size()),
                                      index_name.data()));
  }
  std::string encoded;
  CRIMSON_RETURN_IF_ERROR(
      EncodeValueKey(def_.schema.column(idx->column).type, key, &encoded));
  std::vector<RecordId> out;
  BTree::Iterator it = index_trees_[pos]->NewIterator();
  CRIMSON_RETURN_IF_ERROR(it.Seek(Slice(encoded)));
  while (it.Valid() && it.key() == Slice(encoded)) {
    if (it.value().size() != 8) return Status::Corruption("bad index value");
    out.push_back(RecordId::Unpack(DecodeU64Key(it.value().data())));
    CRIMSON_RETURN_IF_ERROR(it.Next());
  }
  return out;
}

Status Table::IndexRangeScan(
    std::string_view index_name, const std::string& lower_key,
    const std::string& upper_key,
    const std::function<bool(const Slice&, RecordId)>& fn) const {
  size_t pos;
  const IndexDef* idx = FindIndexDef(index_name, &pos);
  if (idx == nullptr) {
    return Status::NotFound(StrFormat("no index named %.*s",
                                      static_cast<int>(index_name.size()),
                                      index_name.data()));
  }
  BTree::Iterator it = index_trees_[pos]->NewIterator();
  CRIMSON_RETURN_IF_ERROR(it.Seek(Slice(lower_key)));
  while (it.Valid()) {
    if (!upper_key.empty() && it.key().compare(Slice(upper_key)) >= 0) break;
    if (it.value().size() != 8) return Status::Corruption("bad index value");
    if (!fn(it.key(), RecordId::Unpack(DecodeU64Key(it.value().data())))) {
      break;
    }
    CRIMSON_RETURN_IF_ERROR(it.Next());
  }
  return Status::OK();
}

Status Table::Scan(
    const std::function<bool(const RecordId&, const Row&)>& fn) const {
  Status decode_status;
  Status s = heap_->Scan([&](const RecordId& id, const Slice& raw) {
    Row row;
    decode_status = DecodeRow(def_.schema, raw, &row);
    if (!decode_status.ok()) return false;
    return fn(id, row);
  });
  CRIMSON_RETURN_IF_ERROR(decode_status);
  return s;
}

Status Table::EncodeKeyFor(std::string_view index_name, const Value& v,
                           std::string* key) const {
  size_t pos;
  const IndexDef* idx = FindIndexDef(index_name, &pos);
  if (idx == nullptr) return Status::NotFound("no such index");
  return EncodeValueKey(def_.schema.column(idx->column).type, v, key);
}

}  // namespace crimson
