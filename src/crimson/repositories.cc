#include "crimson/repositories.h"

#include <algorithm>
#include <chrono>

#include "common/coding.h"
#include "common/string_util.h"
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
  return repo;
}

Result<int64_t> TreeRepository::StoreTree(const std::string& name,
                                          const PhyloTree& tree,
                                          const LayeredDeweyScheme& scheme) {
  if (tree.empty()) {
    return Status::InvalidArgument("cannot store an empty tree");
  }
  // Duplicate leaf names would make every name-addressed query resolve
  // silently to one arbitrary occurrence; no stored tree has them.
  {
    NameIndex names = NameIndex::Build(tree);
    if (names.has_duplicate_leaf_names()) {
      std::vector<std::string> dups = names.DuplicateLeafNames(tree);
      return Status::InvalidArgument(StrFormat(
          "tree '%s' has %zu duplicate leaf name%s (e.g. '%s'); leaf names "
          "must be unique for name-addressed queries",
          name.c_str(), dups.size(), dups.size() == 1 ? "" : "s",
          dups[0].c_str()));
    }
  }
  // Allocate the next tree id (small table scan).
  int64_t tree_id = 1;
  CRIMSON_RETURN_IF_ERROR(
      trees_->Scan([&](const RecordId&, const Row& row) {
        tree_id = std::max(tree_id, std::get<int64_t>(row[0]) + 1);
        return true;
      }));

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
  CRIMSON_ASSIGN_OR_RETURN(std::vector<RecordId> rids,
                           trees_->IndexLookup("trees_by_id", tree_id));
  if (rids.empty()) {
    return Status::NotFound(StrFormat("no tree with id %lld",
                                      static_cast<long long>(tree_id)));
  }
  Row row;
  CRIMSON_RETURN_IF_ERROR(trees_->Get(rids[0], &row));
  return Status::Corruption(
      StrFormat("tree '%s' (id %lld): %s",
                std::get<std::string>(row[1]).c_str(),
                static_cast<long long>(tree_id), problem.c_str()));
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

Result<TreeInfo> TreeRepository::GetTreeInfo(const std::string& name) const {
  CRIMSON_ASSIGN_OR_RETURN(std::vector<RecordId> rids,
                           trees_->IndexLookup("trees_by_name", name));
  if (rids.empty()) {
    return Status::NotFound(StrFormat("no tree named '%s'", name.c_str()));
  }
  Row row;
  CRIMSON_RETURN_IF_ERROR(trees_->Get(rids[0], &row));
  TreeInfo info;
  info.tree_id = std::get<int64_t>(row[0]);
  info.name = std::get<std::string>(row[1]);
  info.n_nodes = std::get<int64_t>(row[2]);
  info.n_leaves = std::get<int64_t>(row[3]);
  info.f = std::get<int64_t>(row[4]);
  info.max_depth = std::get<int64_t>(row[5]);
  return info;
}

Result<std::vector<TreeInfo>> TreeRepository::ListTrees() const {
  std::vector<TreeInfo> out;
  CRIMSON_RETURN_IF_ERROR(trees_->Scan([&](const RecordId&, const Row& row) {
    TreeInfo info;
    info.tree_id = std::get<int64_t>(row[0]);
    info.name = std::get<std::string>(row[1]);
    info.n_nodes = std::get<int64_t>(row[2]);
    info.n_leaves = std::get<int64_t>(row[3]);
    info.f = std::get<int64_t>(row[4]);
    info.max_depth = std::get<int64_t>(row[5]);
    out.push_back(std::move(info));
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

Result<std::unique_ptr<SpeciesRepository>> SpeciesRepository::Open(
    Database* db) {
  auto repo = std::unique_ptr<SpeciesRepository>(new SpeciesRepository(db));
  Schema schema({{"tree_id", ColumnType::kInt64},
                 {"species", ColumnType::kString},
                 {"node", ColumnType::kInt64},
                 {"sequence", ColumnType::kBytes}});
  CRIMSON_ASSIGN_OR_RETURN(
      Table t,
      OpenOrCreate(db, "species", schema,
                   {{"species_by_name", "species", /*unique=*/false},
                    {"species_by_tree", "tree_id", /*unique=*/false}}));
  repo->species_ = std::make_unique<Table>(std::move(t));
  return repo;
}

Status SpeciesRepository::Put(int64_t tree_id, const std::string& species,
                              NodeId node, const std::string& sequence) {
  Row row = {tree_id, species,
             static_cast<int64_t>(node == kNoNode
                                      ? -1
                                      : static_cast<int64_t>(node)),
             sequence};
  return species_->Insert(row).status();
}

Status SpeciesRepository::PutBatch(int64_t tree_id,
                                   std::vector<SpeciesEntry> entries) {
  return species_->BulkAppend(entries.size(), [&](size_t i, Row* row) {
    SpeciesEntry& e = entries[i];
    *row = {tree_id, std::move(e.species),
            static_cast<int64_t>(
                e.node == kNoNode ? -1 : static_cast<int64_t>(e.node)),
            std::move(e.sequence)};
  });
}

Result<std::string> SpeciesRepository::GetSequence(
    const std::string& species) const {
  CRIMSON_ASSIGN_OR_RETURN(
      std::vector<RecordId> rids,
      species_->IndexLookup("species_by_name", species));
  if (rids.empty()) {
    return Status::NotFound(
        StrFormat("no sequence for species '%s'", species.c_str()));
  }
  Row row;
  CRIMSON_RETURN_IF_ERROR(species_->Get(rids[0], &row));
  return std::get<std::string>(row[3]);
}

Result<std::map<std::string, std::string>>
SpeciesRepository::SequencesForTree(int64_t tree_id) const {
  CRIMSON_ASSIGN_OR_RETURN(
      std::vector<RecordId> rids,
      species_->IndexLookup("species_by_tree", tree_id));
  std::map<std::string, std::string> out;
  for (const RecordId& rid : rids) {
    Row row;
    CRIMSON_RETURN_IF_ERROR(species_->Get(rid, &row));
    out[std::get<std::string>(row[1])] = std::get<std::string>(row[3]);
  }
  return out;
}

Result<std::map<std::string, std::string>> SpeciesRepository::SequencesFor(
    const std::vector<std::string>& species) const {
  std::map<std::string, std::string> out;
  for (const std::string& s : species) {
    CRIMSON_ASSIGN_OR_RETURN(std::string seq, GetSequence(s));
    out[s] = std::move(seq);
  }
  return out;
}

Result<std::map<std::string, std::string>>
SpeciesRepository::SequencesForTreeSubset(
    int64_t tree_id, const std::vector<std::string>& names) const {
  // Name-index probes filtered by tree: GetSequence's "first match"
  // would be wrong here when the same species name exists under
  // several trees. Names with no row for this tree are simply absent
  // from the result (the cracked store records them as missing).
  std::map<std::string, std::string> out;
  for (const std::string& name : names) {
    CRIMSON_ASSIGN_OR_RETURN(
        std::vector<RecordId> rids,
        species_->IndexLookup("species_by_name", name));
    for (const RecordId& rid : rids) {
      Row row;
      CRIMSON_RETURN_IF_ERROR(species_->Get(rid, &row));
      if (std::get<int64_t>(row[0]) != tree_id) continue;
      // Last match wins, matching SequencesForTree's overwrite order.
      out[name] = std::get<std::string>(row[3]);
    }
  }
  return out;
}

Result<uint64_t> SpeciesRepository::CountForTree(int64_t tree_id) const {
  CRIMSON_ASSIGN_OR_RETURN(
      std::vector<RecordId> rids,
      species_->IndexLookup("species_by_tree", tree_id));
  return static_cast<uint64_t>(rids.size());
}

Status SpeciesRepository::DropForTree(int64_t tree_id) {
  return species_->DeleteWhere("species_by_tree", tree_id).status();
}

Result<uint64_t> SpeciesRepository::Count() const {
  return species_->row_count();
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
  return runs_->BulkAppend(rows.size(), [&](size_t i, Row* row) {
    const RunRow& r = rows[i];
    *row = {PackKey(r.experiment_id, static_cast<uint32_t>(r.ordinal)),
            r.experiment_id, r.ordinal, r.algorithm,
            r.selection_index, r.replicate, r.sample_size,
            r.rf_distance, r.rf_splits_a, r.rf_splits_b,
            r.rf_normalized, r.triplet_total, r.triplet_differing,
            r.triplet_fraction, r.seconds};
  });
}

Status ExperimentRepository::PutCells(const std::vector<CellRow>& rows) {
  return cells_->BulkAppend(rows.size(), [&](size_t i, Row* row) {
    const CellRow& c = rows[i];
    *row = {PackKey(c.experiment_id, static_cast<uint32_t>(c.ordinal)),
            c.experiment_id, c.ordinal, c.algorithm,
            c.selection_index, c.replicates, c.mean_rf_normalized,
            c.min_rf_normalized, c.max_rf_normalized,
            c.mean_triplet_fraction, c.total_seconds};
  });
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
