#include "crimson/repositories.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>

#include "common/coding.h"
#include "common/string_util.h"
#include "storage/key_codec.h"
#include "tree/name_index.h"

namespace crimson {

namespace {

/// run_key / cell_key: (experiment_id << 32) | ordinal.
int64_t PackKey(int64_t experiment_id, uint32_t ordinal) {
  return (experiment_id << 32) | static_cast<int64_t>(ordinal);
}

Result<Table> OpenOrCreate(Database* db, const std::string& name,
                           const Schema& schema,
                           const std::vector<IndexSpec>& indexes) {
  CRIMSON_ASSIGN_OR_RETURN(bool exists, db->HasTable(name));
  if (exists) return db->OpenTable(name);
  return db->CreateTable(name, schema, indexes);
}

TreeInfo TreeInfoFromRow(const Row& row) {
  TreeInfo info;
  info.tree_id = std::get<int64_t>(row[0]);
  info.name = std::get<std::string>(row[1]);
  info.n_nodes = std::get<int64_t>(row[2]);
  info.n_leaves = std::get<int64_t>(row[3]);
  info.f = std::get<int64_t>(row[4]);
  info.max_depth = std::get<int64_t>(row[5]);
  return info;
}

}  // namespace

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// TreeRepository
// ---------------------------------------------------------------------------

Result<std::unique_ptr<TreeRepository>> TreeRepository::Open(Database* db) {
  auto repo = std::unique_ptr<TreeRepository>(new TreeRepository(db));

  Schema trees_schema({{"tree_id", ColumnType::kInt64},
                       {"name", ColumnType::kString},
                       {"n_nodes", ColumnType::kInt64},
                       {"n_leaves", ColumnType::kInt64},
                       {"f", ColumnType::kInt64},
                       {"max_depth", ColumnType::kInt64}});
  CRIMSON_ASSIGN_OR_RETURN(
      Table trees,
      OpenOrCreate(db, "trees", trees_schema,
                   {{"trees_by_id", "tree_id", /*unique=*/true},
                    {"trees_by_name", "name", /*unique=*/true}}));
  repo->trees_ = std::make_unique<Table>(std::move(trees));

  Schema labels_schema({{"tree_id", ColumnType::kInt64},
                        {"scheme_blob", ColumnType::kBytes}});
  CRIMSON_ASSIGN_OR_RETURN(
      Table labels,
      OpenOrCreate(db, "labels", labels_schema,
                   {{"labels_by_tree", "tree_id", /*unique=*/true}}));
  repo->labels_ = std::make_unique<Table>(std::move(labels));

  Schema tree_blobs_schema({{"tree_id", ColumnType::kInt64},
                            {"tree_blob", ColumnType::kBytes}});
  CRIMSON_ASSIGN_OR_RETURN(
      Table tree_blobs,
      OpenOrCreate(db, "tree_blobs", tree_blobs_schema,
                   {{"tree_blobs_by_tree", "tree_id", /*unique=*/true}}));
  repo->tree_blobs_ = std::make_unique<Table>(std::move(tree_blobs));

  CRIMSON_ASSIGN_OR_RETURN(
      Table tree_ids,
      OpenOrCreate(db, "tree_ids", Schema({{"next_tree_id", ColumnType::kInt64}}),
                   {}));
  repo->tree_ids_ = std::make_unique<Table>(std::move(tree_ids));
  // The next id is past both the stored counter and every stored tree
  // (a file written before the counter existed has only the latter).
  CRIMSON_RETURN_IF_ERROR(
      repo->tree_ids_->Scan([&](const RecordId& rid, const Row& row) {
        repo->next_id_row_ = rid;
        repo->next_id_ = std::max(repo->next_id_, std::get<int64_t>(row[0]));
        return true;
      }));
  CRIMSON_RETURN_IF_ERROR(
      repo->trees_->Scan([&](const RecordId&, const Row& row) {
        repo->next_id_ =
            std::max(repo->next_id_, std::get<int64_t>(row[0]) + 1);
        return true;
      }));
  return repo;
}

Status TreeRepository::CheckStorable(const std::string& name,
                                     const PhyloTree& tree) {
  if (tree.empty()) {
    return Status::InvalidArgument("cannot store an empty tree");
  }
  NameIndex names = NameIndex::Build(tree);
  if (names.has_duplicate_leaf_names()) {
    std::vector<std::string> dups = names.DuplicateLeafNames(tree);
    return Status::InvalidArgument(StrFormat(
        "tree '%s' has %zu duplicate leaf name%s (e.g. '%s'); leaf names "
        "must be unique for name-addressed queries",
        name.c_str(), dups.size(), dups.size() == 1 ? "" : "s",
        dups[0].c_str()));
  }
  return Status::OK();
}

Result<int64_t> TreeRepository::StoreTree(const std::string& name,
                                          const PhyloTree& tree,
                                          const LayeredDeweyScheme& scheme) {
  CRIMSON_RETURN_IF_ERROR(CheckStorable(name, tree));
  // Take the next id and persist its successor first: the id is spent
  // even if a later insert fails, so it is never handed out twice.
  const int64_t tree_id = next_id_;
  if (next_id_row_) CRIMSON_RETURN_IF_ERROR(tree_ids_->Delete(*next_id_row_));
  next_id_row_.reset();
  CRIMSON_ASSIGN_OR_RETURN(next_id_row_, tree_ids_->Insert({tree_id + 1}));
  next_id_ = tree_id + 1;

  Row meta = {tree_id,
              name,
              static_cast<int64_t>(tree.size()),
              static_cast<int64_t>(tree.LeafCount()),
              static_cast<int64_t>(scheme.f()),
              static_cast<int64_t>(tree.MaxDepth())};
  CRIMSON_RETURN_IF_ERROR(trees_->Insert(meta).status());

  {
    std::string blob;
    scheme.EncodeTo(&blob);
    Row row = {tree_id, std::move(blob)};
    CRIMSON_RETURN_IF_ERROR(labels_->Insert(row).status());
  }
  {
    // Packed tree image: LoadTree decodes this in two memcpy-ish
    // passes instead of re-interning every name.
    std::string blob;
    EncodePackedTree(tree, &blob);
    Row row = {tree_id, std::move(blob)};
    CRIMSON_RETURN_IF_ERROR(tree_blobs_->Insert(row).status());
  }
  return tree_id;
}

Status TreeRepository::CorruptTree(int64_t tree_id,
                                   const std::string& problem) const {
  CRIMSON_ASSIGN_OR_RETURN(TreeInfo info, GetTreeInfo(tree_id));
  return Status::Corruption(StrFormat("tree '%s' (id %lld): %s",
                                      info.name.c_str(),
                                      static_cast<long long>(tree_id),
                                      problem.c_str()));
}

Result<std::string> TreeRepository::LoadBlob(const Table& table,
                                             std::string_view index,
                                             int64_t tree_id) const {
  CRIMSON_ASSIGN_OR_RETURN(std::vector<RecordId> rids,
                           table.IndexLookup(index, tree_id));
  if (rids.empty()) {
    return CorruptTree(tree_id,
                       StrFormat("no %s row", table.def().name.c_str()));
  }
  Row row;
  CRIMSON_RETURN_IF_ERROR(table.Get(rids[0], &row));
  return std::move(std::get<std::string>(row[1]));
}

Result<std::string> TreeRepository::LoadSchemeBlob(int64_t tree_id) const {
  return LoadBlob(*labels_, "labels_by_tree", tree_id);
}

Result<LayeredDeweyScheme> TreeRepository::LoadScheme(int64_t tree_id) const {
  CRIMSON_ASSIGN_OR_RETURN(std::string blob, LoadSchemeBlob(tree_id));
  LayeredDeweyScheme scheme;
  CRIMSON_RETURN_IF_ERROR(scheme.DecodeFrom(Slice(blob)));
  return scheme;
}

Result<TreeInfo> TreeRepository::GetTreeInfo(int64_t tree_id) const {
  CRIMSON_ASSIGN_OR_RETURN(std::vector<RecordId> rids,
                           trees_->IndexLookup("trees_by_id", tree_id));
  if (rids.empty()) {
    return Status::NotFound(StrFormat("no tree with id %lld",
                                      static_cast<long long>(tree_id)));
  }
  Row row;
  CRIMSON_RETURN_IF_ERROR(trees_->Get(rids[0], &row));
  return TreeInfoFromRow(row);
}

Result<std::vector<TreeInfo>> TreeRepository::ListTrees() const {
  std::vector<TreeInfo> out;
  CRIMSON_RETURN_IF_ERROR(trees_->Scan([&](const RecordId&, const Row& row) {
    out.push_back(TreeInfoFromRow(row));
    return true;
  }));
  std::sort(out.begin(), out.end(),
            [](const TreeInfo& a, const TreeInfo& b) {
              return a.tree_id < b.tree_id;
            });
  return out;
}

Result<PhyloTree> TreeRepository::LoadTree(int64_t tree_id) const {
  // Name bytes land in the arena via one append; no per-node string
  // construction.
  CRIMSON_ASSIGN_OR_RETURN(
      std::string blob, LoadBlob(*tree_blobs_, "tree_blobs_by_tree", tree_id));
  Slice in(blob);
  Result<PhyloTree> tree = DecodePackedTree(&in);
  if (!tree.ok()) return CorruptTree(tree_id, tree.status().ToString());
  if (!in.empty()) return CorruptTree(tree_id, "tree blob has trailing bytes");
  return tree;
}

Status TreeRepository::DropTree(int64_t tree_id) {
  CRIMSON_RETURN_IF_ERROR(trees_->DeleteWhere("trees_by_id", tree_id).status());
  CRIMSON_RETURN_IF_ERROR(
      labels_->DeleteWhere("labels_by_tree", tree_id).status());
  return tree_blobs_->DeleteWhere("tree_blobs_by_tree", tree_id).status();
}

// ---------------------------------------------------------------------------
// SpeciesRepository
// ---------------------------------------------------------------------------

namespace {

constexpr const char* kChunksByKey = "species_chunks_by_key";

std::atomic<uint64_t> ordinal_builds{0};

// A chunk covering ordinals [first, first + count) is
//   count (fixed32) | end offsets (fixed32 x count) | entry bytes
// where entry i spans bytes [end[i-1], end[i]) with the high bit
// masked off, and a set high bit marks an ordinal with no species. A
// present entry is its length-prefixed name, then its sequence.
constexpr uint32_t kNoSpecies = 0x80000000u;

/// Chunk-row bytes besides the entries: at most 15 for the chunk_key
/// column and the chunk's length prefix, plus the count field.
constexpr size_t kChunkRowOverhead = 20;

size_t EntryBytes(const SpeciesRepository::Entry& e) {
  return static_cast<size_t>(VarintLength(e.name.size())) + e.name.size() +
         e.sequence.size();
}

/// Packs entries [begin, end), sorted by ordinal, as one chunk. The
/// trailing chunk's species share one ordinal and take a slot each.
std::string EncodeChunk(const SpeciesRepository::Entry* begin,
                        const SpeciesRepository::Entry* end) {
  std::string out(4, '\0');  // the count, filled in below
  std::string bytes;
  uint32_t ordinal = begin->ordinal;
  for (const SpeciesRepository::Entry* e = begin; e != end; ++e) {
    for (; ordinal < e->ordinal; ++ordinal) {
      PutFixed32(&out, static_cast<uint32_t>(bytes.size()) | kNoSpecies);
    }
    PutLengthPrefixedSlice(&bytes, Slice(e->name));
    bytes.append(e->sequence);
    PutFixed32(&out, static_cast<uint32_t>(bytes.size()));
    ordinal = e->ordinal + 1;
  }
  EncodeFixed32(&out[0], static_cast<uint32_t>(out.size() / 4 - 1));
  out.append(bytes);
  return out;
}

/// A chunk's parts: its entry count, its end offsets and its entry
/// bytes.
struct ChunkView {
  uint32_t count = 0;
  const char* ends = nullptr;
  Slice bytes;
};

Status ParseChunk(Slice chunk, ChunkView* view) {
  if (!GetFixed32(&chunk, &view->count) || chunk.size() / 4 < view->count) {
    return Status::Corruption("species chunk: bad count");
  }
  const size_t table = 4 * size_t{view->count};
  view->ends = chunk.data();
  view->bytes = Slice(chunk.data() + table, chunk.size() - table);
  return Status::OK();
}

/// Entry i (< count) of a chunk: sets *present, and the entry's name
/// and sequence when it is.
Status ChunkEntry(const ChunkView& view, uint32_t i, bool* present,
                  Slice* name, Slice* sequence) {
  const uint32_t begin =
      i == 0 ? 0 : DecodeFixed32(view.ends + 4 * size_t{i - 1}) & ~kNoSpecies;
  const uint32_t raw = DecodeFixed32(view.ends + 4 * size_t{i});
  const uint32_t end = raw & ~kNoSpecies;
  if (end < begin || end > view.bytes.size()) {
    return Status::Corruption("species chunk: bad end offset");
  }
  *present = (raw & kNoSpecies) == 0;
  if (!*present) return Status::OK();
  *sequence = Slice(view.bytes.data() + begin, end - begin);
  if (!GetLengthPrefixedSlice(sequence, name)) {
    return Status::Corruption("species chunk: bad name");
  }
  return Status::OK();
}

/// Calls fn(ordinal, name, sequence) for each species of a chunk whose
/// first ordinal is `first`.
template <typename Fn>
Status DecodeChunk(Slice chunk, uint32_t first, Fn&& fn) {
  ChunkView view;
  CRIMSON_RETURN_IF_ERROR(ParseChunk(chunk, &view));
  for (uint32_t i = 0; i < view.count; ++i) {
    bool present = false;
    Slice name, sequence;
    CRIMSON_RETURN_IF_ERROR(ChunkEntry(view, i, &present, &name, &sequence));
    if (present) fn(first + i, name, sequence);
  }
  return Status::OK();
}

/// Cuts entries (sorted by ordinal) into chunks, calling emit(begin,
/// end) per chunk. A chunk takes as many species as fit in the pages
/// its first one needs -- one overflow page's worth for short
/// sequences -- so its row fills those pages; a species longer than a
/// page starts a chunk of whole pages. Species sharing an ordinal (the
/// internal-node ones past the domain) are never cut apart.
template <typename Fn>
Status CutChunks(const std::vector<SpeciesRepository::Entry>& entries,
                 Fn&& emit) {
  constexpr size_t kPage = HeapFile::kOverflowCapacity;
  size_t begin = 0;
  while (begin < entries.size()) {
    size_t size = kChunkRowOverhead + 4 + EntryBytes(entries[begin]);
    const size_t budget = (size + kPage - 1) / kPage * kPage;
    size_t last = begin;
    for (; last + 1 < entries.size(); ++last) {
      const SpeciesRepository::Entry& next = entries[last + 1];
      const uint32_t gap = next.ordinal - entries[last].ordinal;
      const size_t grow = 4 * size_t{gap} + EntryBytes(next);
      if (gap > 0 && size + grow > budget) break;
      size += grow;
    }
    CRIMSON_RETURN_IF_ERROR(emit(&entries[begin], &entries[last] + 1));
    begin = last + 1;
  }
  return Status::OK();
}

}  // namespace

SpeciesOrdinals::SpeciesOrdinals(const PhyloTree& tree,
                                 const Sampler* sampler)
    : sampler_(sampler) {
  ordinal_builds.fetch_add(1, std::memory_order_relaxed);
  // Leaf positions sorted by name (one comparison per step: ties need
  // no order); equal names take one rank, and "" sorts first.
  const std::vector<NodeId>& leaves = sampler->leaves();
  std::vector<std::pair<std::string_view, uint32_t>> by_name;
  by_name.reserve(leaves.size());
  for (size_t i = 0; i < leaves.size(); ++i) {
    by_name.emplace_back(tree.name(leaves[i]), static_cast<uint32_t>(i));
  }
  std::sort(by_name.begin(), by_name.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  ranks_.resize(by_name.size());
  for (size_t i = 0; i < by_name.size(); ++i) {
    if (i > 0 && by_name[i].first != by_name[i - 1].first) ++domain_size_;
    ranks_[by_name[i].second] = domain_size_;
  }
  if (!by_name.empty()) ++domain_size_;
}

uint64_t SpeciesOrdinals::builds() {
  return ordinal_builds.load(std::memory_order_relaxed);
}

Result<std::unique_ptr<SpeciesRepository>> SpeciesRepository::Open(
    Database* db) {
  auto repo = std::unique_ptr<SpeciesRepository>(new SpeciesRepository(db));
  Schema schema({{"chunk_key", ColumnType::kInt64},
                 {"chunk", ColumnType::kBytes}});
  CRIMSON_ASSIGN_OR_RETURN(
      Table t, OpenOrCreate(db, "species_chunks", schema,
                            {{kChunksByKey, "chunk_key", /*unique=*/true}}));
  repo->chunks_ = std::make_unique<Table>(std::move(t));
  return repo;
}

Result<std::vector<SpeciesRepository::ChunkRef>>
SpeciesRepository::ChunksBelow(int64_t tree_id, uint64_t end,
                               size_t limit) const {
  std::string lower, upper;
  CRIMSON_RETURN_IF_ERROR(ChunkKeyRange(tree_id, end, &lower, &upper));
  std::vector<ChunkRef> out;
  Status bad_key;
  CRIMSON_RETURN_IF_ERROR(chunks_->IndexRangeScan(
      kChunksByKey, lower, upper, [&](const Slice& key, RecordId rid) {
        if (key.size() != 8) {
          bad_key = Status::Corruption("species chunk: bad key");
          return false;
        }
        // The low 32 bits of the biased key are the first ordinal.
        out.push_back({static_cast<uint32_t>(DecodeU64Key(key.data())), rid});
        return out.size() < limit;
      }));
  CRIMSON_RETURN_IF_ERROR(bad_key);
  return out;
}

Status SpeciesRepository::ChunkKeyRange(int64_t tree_id, uint64_t end,
                                        std::string* lower,
                                        std::string* upper) const {
  CRIMSON_RETURN_IF_ERROR(
      chunks_->EncodeKeyFor(kChunksByKey, PackKey(tree_id, 0), lower));
  return chunks_->EncodeKeyFor(
      kChunksByKey, PackKey(tree_id, 0) + static_cast<int64_t>(end), upper);
}

Status SpeciesRepository::LoadChunk(const ChunkRef& chunk,
                                     std::string* bytes) const {
  Row row;
  CRIMSON_RETURN_IF_ERROR(chunks_->Get(chunk.rid, &row));
  *bytes = std::move(std::get<std::string>(row[1]));
  return Status::OK();
}

Status SpeciesRepository::Append(int64_t tree_id, uint32_t domain_size,
                                 std::vector<Entry> entries) {
  // The batch meets the stored chunks region by region: a region runs
  // from one chunk's first ordinal to the next one's, and the
  // internal-node species past the domain are a region of their own.
  CRIMSON_ASSIGN_OR_RETURN(
      std::vector<ChunkRef> starts,
      ChunksBelow(tree_id, uint64_t{domain_size} + 1));
  if (starts.empty() || starts.back().first != domain_size) {
    starts.push_back({domain_size, RecordId()});  // no trailing chunk yet
  }
  auto emit = [&](const Entry* begin, const Entry* end) {
    const int64_t key = PackKey(tree_id, begin->ordinal);
    return chunks_->Insert(Row{key, EncodeChunk(begin, end)}).status();
  };
  // Merges batch entries [begin, end) into the stored chunk (null when
  // there is none yet) and re-cuts the result; stored species win, and
  // a chunk the batch adds nothing to stays as it is.
  auto place = [&](const ChunkRef* stored, size_t begin,
                   size_t end) -> Status {
    auto batch_begin = entries.begin() + begin;
    auto batch_end = entries.begin() + end;
    std::vector<Entry> merged;
    std::string chunk;  // the stored entries' bytes
    if (stored == nullptr) {
      merged.assign(batch_begin, batch_end);
    } else {
      CRIMSON_RETURN_IF_ERROR(LoadChunk(*stored, &chunk));
      std::vector<Entry> old;
      CRIMSON_RETURN_IF_ERROR(DecodeChunk(
          chunk, stored->first,
          [&](uint32_t ordinal, Slice name, Slice sequence) {
            old.push_back({std::min(ordinal, domain_size),
                           std::string_view(name.data(), name.size()),
                           std::string_view(sequence.data(), sequence.size())});
          }));
      std::set_union(old.begin(), old.end(), batch_begin, batch_end,
                     std::back_inserter(merged),
                     [](const Entry& a, const Entry& b) {
                       return a.ordinal != b.ordinal ? a.ordinal < b.ordinal
                                                     : a.name < b.name;
                     });
      if (merged.size() == old.size()) return Status::OK();
      CRIMSON_RETURN_IF_ERROR(chunks_->Delete(stored->rid));
    }
    return CutChunks(merged, emit);
  };
  size_t next = 0;
  for (size_t c = 0; c <= starts.size() && next < entries.size(); ++c) {
    size_t stop = next;
    while (stop < entries.size() &&
           (c == starts.size() || entries[stop].ordinal < starts[c].first)) {
      ++stop;
    }
    const bool stored = c > 0 && starts[c - 1].rid.valid();
    if (stop > next) {
      CRIMSON_RETURN_IF_ERROR(
          place(stored ? &starts[c - 1] : nullptr, next, stop));
    }
    next = stop;
  }
  return Status::OK();
}

Result<std::map<std::string, std::string>>
SpeciesRepository::SequencesForTree(int64_t tree_id) const {
  CRIMSON_ASSIGN_OR_RETURN(std::vector<ChunkRef> chunks,
                           ChunksBelow(tree_id, kAllChunks));
  std::map<std::string, std::string> out;
  std::string chunk;
  for (const ChunkRef& ref : chunks) {
    CRIMSON_RETURN_IF_ERROR(LoadChunk(ref, &chunk));
    CRIMSON_RETURN_IF_ERROR(
        DecodeChunk(chunk, ref.first, [&](uint32_t, Slice name, Slice sequence) {
          out.emplace(name.ToString(), sequence.ToString());
        }));
  }
  return out;
}

Status SpeciesRepository::ForEachOrdinal(
    int64_t tree_id, const std::vector<uint32_t>& ordinals,
    const std::function<void(uint32_t, Slice, Slice)>& fn) const {
  if (ordinals.empty()) return Status::OK();
  // A wanted ordinal lies in the last chunk that starts at or before
  // it, so the chunk keys up to the last one wanted cover them all.
  CRIMSON_ASSIGN_OR_RETURN(
      std::vector<ChunkRef> chunks,
      ChunksBelow(tree_id, uint64_t{ordinals.back()} + 1));
  std::string chunk;
  size_t w = 0;
  for (size_t c = 0; c < chunks.size(); ++c) {
    const uint64_t next =
        c + 1 < chunks.size() ? chunks[c + 1].first : kAllChunks;
    while (w < ordinals.size() && ordinals[w] < chunks[c].first) ++w;
    if (w == ordinals.size()) break;
    if (ordinals[w] >= next) continue;
    CRIMSON_RETURN_IF_ERROR(LoadChunk(chunks[c], &chunk));
    ChunkView view;
    CRIMSON_RETURN_IF_ERROR(ParseChunk(chunk, &view));
    for (; w < ordinals.size() && ordinals[w] < next; ++w) {
      const uint32_t i = ordinals[w] - chunks[c].first;
      if (i >= view.count) continue;
      bool present = false;
      Slice name, sequence;
      CRIMSON_RETURN_IF_ERROR(
          ChunkEntry(view, i, &present, &name, &sequence));
      if (present) fn(ordinals[w], name, sequence);
    }
  }
  return Status::OK();
}

Result<bool> SpeciesRepository::HasSpecies(int64_t tree_id) const {
  CRIMSON_ASSIGN_OR_RETURN(std::vector<ChunkRef> first,
                           ChunksBelow(tree_id, kAllChunks, /*limit=*/1));
  return !first.empty();
}

Status SpeciesRepository::DropForTree(int64_t tree_id) {
  std::string lower, upper;
  CRIMSON_RETURN_IF_ERROR(ChunkKeyRange(tree_id, kAllChunks, &lower, &upper));
  return chunks_->DeleteRange(kChunksByKey, lower, upper).status();
}

// ---------------------------------------------------------------------------
// ExperimentRepository
// ---------------------------------------------------------------------------

Result<std::unique_ptr<ExperimentRepository>> ExperimentRepository::Open(
    Database* db) {
  auto repo =
      std::unique_ptr<ExperimentRepository>(new ExperimentRepository(db));

  Schema experiments_schema({{"experiment_id", ColumnType::kInt64},
                             {"created", ColumnType::kInt64},
                             {"tree_name", ColumnType::kString},
                             {"spec", ColumnType::kString},
                             {"seed", ColumnType::kInt64},
                             {"base_ticket", ColumnType::kInt64}});
  CRIMSON_ASSIGN_OR_RETURN(
      Table experiments,
      OpenOrCreate(db, "experiments", experiments_schema,
                   {{"experiments_by_id", "experiment_id",
                     /*unique=*/true}}));
  repo->experiments_ = std::make_unique<Table>(std::move(experiments));

  Schema runs_schema({{"run_key", ColumnType::kInt64},
                      {"experiment_id", ColumnType::kInt64},
                      {"ordinal", ColumnType::kInt64},
                      {"algorithm", ColumnType::kString},
                      {"selection_index", ColumnType::kInt64},
                      {"replicate", ColumnType::kInt64},
                      {"sample_size", ColumnType::kInt64},
                      {"rf_distance", ColumnType::kInt64},
                      {"rf_splits_a", ColumnType::kInt64},
                      {"rf_splits_b", ColumnType::kInt64},
                      {"rf_normalized", ColumnType::kDouble},
                      {"triplet_total", ColumnType::kInt64},
                      {"triplet_differing", ColumnType::kInt64},
                      {"triplet_fraction", ColumnType::kDouble},
                      {"seconds", ColumnType::kDouble}});
  CRIMSON_ASSIGN_OR_RETURN(
      Table runs,
      OpenOrCreate(db, "experiment_runs", runs_schema,
                   {{"experiment_runs_by_key", "run_key", /*unique=*/true},
                    {"experiment_runs_by_experiment", "experiment_id",
                     /*unique=*/false}}));
  repo->runs_ = std::make_unique<Table>(std::move(runs));

  Schema cells_schema({{"cell_key", ColumnType::kInt64},
                       {"experiment_id", ColumnType::kInt64},
                       {"ordinal", ColumnType::kInt64},
                       {"algorithm", ColumnType::kString},
                       {"selection_index", ColumnType::kInt64},
                       {"replicates", ColumnType::kInt64},
                       {"mean_rf_normalized", ColumnType::kDouble},
                       {"min_rf_normalized", ColumnType::kDouble},
                       {"max_rf_normalized", ColumnType::kDouble},
                       {"mean_triplet_fraction", ColumnType::kDouble},
                       {"total_seconds", ColumnType::kDouble}});
  CRIMSON_ASSIGN_OR_RETURN(
      Table cells,
      OpenOrCreate(db, "experiment_cells", cells_schema,
                   {{"experiment_cells_by_key", "cell_key", /*unique=*/true},
                    {"experiment_cells_by_experiment", "experiment_id",
                     /*unique=*/false}}));
  repo->cells_ = std::make_unique<Table>(std::move(cells));

  CRIMSON_RETURN_IF_ERROR(
      repo->experiments_->Scan([&](const RecordId&, const Row& row) {
        repo->next_id_ =
            std::max(repo->next_id_, std::get<int64_t>(row[0]) + 1);
        return true;
      }));
  return repo;
}

Result<int64_t> ExperimentRepository::PutExperiment(
    const std::string& tree_name, const std::string& spec, uint64_t seed,
    uint64_t base_ticket) {
  int64_t id = next_id_++;
  Row row = {id,
             NowMicros(),
             tree_name,
             spec,
             static_cast<int64_t>(seed),
             static_cast<int64_t>(base_ticket)};
  CRIMSON_RETURN_IF_ERROR(experiments_->Insert(row).status());
  return id;
}

Status ExperimentRepository::PutRuns(const std::vector<RunRow>& rows) {
  for (const RunRow& r : rows) {
    CRIMSON_RETURN_IF_ERROR(
        runs_
            ->Insert({PackKey(r.experiment_id,
                              static_cast<uint32_t>(r.ordinal)),
                      r.experiment_id, r.ordinal, r.algorithm,
                      r.selection_index, r.replicate, r.sample_size,
                      r.rf_distance, r.rf_splits_a, r.rf_splits_b,
                      r.rf_normalized, r.triplet_total, r.triplet_differing,
                      r.triplet_fraction, r.seconds})
            .status());
  }
  return Status::OK();
}

Status ExperimentRepository::PutCells(const std::vector<CellRow>& rows) {
  for (const CellRow& c : rows) {
    CRIMSON_RETURN_IF_ERROR(
        cells_
            ->Insert({PackKey(c.experiment_id,
                              static_cast<uint32_t>(c.ordinal)),
                      c.experiment_id, c.ordinal, c.algorithm,
                      c.selection_index, c.replicates, c.mean_rf_normalized,
                      c.min_rf_normalized, c.max_rf_normalized,
                      c.mean_triplet_fraction, c.total_seconds})
            .status());
  }
  return Status::OK();
}

Result<ExperimentRepository::ExperimentRow>
ExperimentRepository::GetExperiment(int64_t experiment_id) const {
  CRIMSON_ASSIGN_OR_RETURN(
      std::vector<RecordId> rids,
      experiments_->IndexLookup("experiments_by_id", experiment_id));
  if (rids.empty()) {
    return Status::NotFound(StrFormat(
        "no experiment %lld", static_cast<long long>(experiment_id)));
  }
  Row row;
  CRIMSON_RETURN_IF_ERROR(experiments_->Get(rids[0], &row));
  ExperimentRow out;
  out.experiment_id = std::get<int64_t>(row[0]);
  out.created_micros = std::get<int64_t>(row[1]);
  out.tree_name = std::get<std::string>(row[2]);
  out.spec = std::get<std::string>(row[3]);
  out.seed = static_cast<uint64_t>(std::get<int64_t>(row[4]));
  out.base_ticket = static_cast<uint64_t>(std::get<int64_t>(row[5]));
  return out;
}

Result<std::vector<ExperimentRepository::ExperimentRow>>
ExperimentRepository::ListExperiments() const {
  std::vector<ExperimentRow> out;
  CRIMSON_RETURN_IF_ERROR(
      experiments_->Scan([&](const RecordId&, const Row& row) {
        ExperimentRow e;
        e.experiment_id = std::get<int64_t>(row[0]);
        e.created_micros = std::get<int64_t>(row[1]);
        e.tree_name = std::get<std::string>(row[2]);
        e.spec = std::get<std::string>(row[3]);
        e.seed = static_cast<uint64_t>(std::get<int64_t>(row[4]));
        e.base_ticket = static_cast<uint64_t>(std::get<int64_t>(row[5]));
        out.push_back(std::move(e));
        return true;
      }));
  std::sort(out.begin(), out.end(),
            [](const ExperimentRow& a, const ExperimentRow& b) {
              return a.experiment_id < b.experiment_id;
            });
  return out;
}

Result<std::vector<ExperimentRepository::RunRow>>
ExperimentRepository::RunsFor(int64_t experiment_id) const {
  CRIMSON_ASSIGN_OR_RETURN(
      std::vector<RecordId> rids,
      runs_->IndexLookup("experiment_runs_by_experiment", experiment_id));
  std::vector<RunRow> out;
  out.reserve(rids.size());
  for (const RecordId& rid : rids) {
    Row row;
    CRIMSON_RETURN_IF_ERROR(runs_->Get(rid, &row));
    RunRow r;
    r.experiment_id = std::get<int64_t>(row[1]);
    r.ordinal = std::get<int64_t>(row[2]);
    r.algorithm = std::get<std::string>(row[3]);
    r.selection_index = std::get<int64_t>(row[4]);
    r.replicate = std::get<int64_t>(row[5]);
    r.sample_size = std::get<int64_t>(row[6]);
    r.rf_distance = std::get<int64_t>(row[7]);
    r.rf_splits_a = std::get<int64_t>(row[8]);
    r.rf_splits_b = std::get<int64_t>(row[9]);
    r.rf_normalized = std::get<double>(row[10]);
    r.triplet_total = std::get<int64_t>(row[11]);
    r.triplet_differing = std::get<int64_t>(row[12]);
    r.triplet_fraction = std::get<double>(row[13]);
    r.seconds = std::get<double>(row[14]);
    out.push_back(std::move(r));
  }
  std::sort(out.begin(), out.end(), [](const RunRow& a, const RunRow& b) {
    return a.ordinal < b.ordinal;
  });
  return out;
}

Result<std::vector<ExperimentRepository::CellRow>>
ExperimentRepository::CellsFor(int64_t experiment_id) const {
  CRIMSON_ASSIGN_OR_RETURN(
      std::vector<RecordId> rids,
      cells_->IndexLookup("experiment_cells_by_experiment", experiment_id));
  std::vector<CellRow> out;
  out.reserve(rids.size());
  for (const RecordId& rid : rids) {
    Row row;
    CRIMSON_RETURN_IF_ERROR(cells_->Get(rid, &row));
    CellRow c;
    c.experiment_id = std::get<int64_t>(row[1]);
    c.ordinal = std::get<int64_t>(row[2]);
    c.algorithm = std::get<std::string>(row[3]);
    c.selection_index = std::get<int64_t>(row[4]);
    c.replicates = std::get<int64_t>(row[5]);
    c.mean_rf_normalized = std::get<double>(row[6]);
    c.min_rf_normalized = std::get<double>(row[7]);
    c.max_rf_normalized = std::get<double>(row[8]);
    c.mean_triplet_fraction = std::get<double>(row[9]);
    c.total_seconds = std::get<double>(row[10]);
    out.push_back(std::move(c));
  }
  std::sort(out.begin(), out.end(), [](const CellRow& a, const CellRow& b) {
    return a.ordinal < b.ordinal;
  });
  return out;
}

// ---------------------------------------------------------------------------
// QueryRepository
// ---------------------------------------------------------------------------

Result<std::unique_ptr<QueryRepository>> QueryRepository::Open(Database* db) {
  auto repo = std::unique_ptr<QueryRepository>(new QueryRepository(db));
  Schema schema({{"query_id", ColumnType::kInt64},
                 {"timestamp", ColumnType::kInt64},
                 {"kind", ColumnType::kString},
                 {"params", ColumnType::kString},
                 {"summary", ColumnType::kString}});
  CRIMSON_ASSIGN_OR_RETURN(
      Table t, OpenOrCreate(db, "queries", schema,
                            {{"queries_by_id", "query_id", /*unique=*/true}}));
  repo->queries_ = std::make_unique<Table>(std::move(t));
  CRIMSON_RETURN_IF_ERROR(
      repo->queries_->Scan([&](const RecordId&, const Row& row) {
        repo->next_id_ =
            std::max(repo->next_id_, std::get<int64_t>(row[0]) + 1);
        return true;
      }));
  return repo;
}

Result<int64_t> QueryRepository::Record(const std::string& kind,
                                        const std::string& params,
                                        const std::string& summary) {
  int64_t id = next_id_++;
  Row row = {id, NowMicros(), kind, params, summary};
  CRIMSON_RETURN_IF_ERROR(queries_->Insert(row).status());
  return id;
}

Status QueryRepository::RecordBatch(const std::vector<Entry>& entries) {
  for (const Entry& e : entries) {
    Row row = {e.query_id, e.timestamp_micros, e.kind, e.params, e.summary};
    Status s = queries_->Insert(row).status();
    // Ids are globally unique, so AlreadyExists can only mean this
    // entry reached storage on an earlier, partially-surviving drain
    // (e.g. an abort without a WAL to roll it back) -- skipping it
    // makes re-drains idempotent.
    if (!s.ok() && !s.IsAlreadyExists()) return s;
    next_id_ = std::max(next_id_, e.query_id + 1);
  }
  return Status::OK();
}

Result<std::vector<QueryRepository::Entry>> QueryRepository::History(
    size_t limit) const {
  std::vector<Entry> out;
  CRIMSON_RETURN_IF_ERROR(
      queries_->Scan([&](const RecordId&, const Row& row) {
        Entry e;
        e.query_id = std::get<int64_t>(row[0]);
        e.timestamp_micros = std::get<int64_t>(row[1]);
        e.kind = std::get<std::string>(row[2]);
        e.params = std::get<std::string>(row[3]);
        e.summary = std::get<std::string>(row[4]);
        out.push_back(std::move(e));
        return true;
      }));
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    return a.query_id > b.query_id;
  });
  if (out.size() > limit) out.resize(limit);
  return out;
}

Result<QueryRepository::Entry> QueryRepository::Get(int64_t query_id) const {
  CRIMSON_ASSIGN_OR_RETURN(
      std::vector<RecordId> rids,
      queries_->IndexLookup("queries_by_id", query_id));
  if (rids.empty()) {
    return Status::NotFound(StrFormat("no query %lld",
                                      static_cast<long long>(query_id)));
  }
  Row row;
  CRIMSON_RETURN_IF_ERROR(queries_->Get(rids[0], &row));
  Entry e;
  e.query_id = std::get<int64_t>(row[0]);
  e.timestamp_micros = std::get<int64_t>(row[1]);
  e.kind = std::get<std::string>(row[2]);
  e.params = std::get<std::string>(row[3]);
  e.summary = std::get<std::string>(row[4]);
  return e;
}

}  // namespace crimson
