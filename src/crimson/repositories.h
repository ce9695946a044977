// The Repository Manager (paper §2.1, Fig. 3): tree structure and
// species data are stored separately -- queries are structure-based, so
// the Tree Repository holds topology plus the layered-Dewey index in
// relational form, while the Species Repository holds the (large)
// sequence data. The Query Repository records user queries for recall
// and re-run.
//
// Relational layout (all tables live in one storage/Database):
//   trees(tree_id*, name*, n_nodes, n_leaves, f, max_depth)
//   tree_ids(next_tree_id)
//     - one row: the id the next StoreTree takes. Ids only grow, so a
//       dropped tree's id is never handed out again and (tree id,
//       request) names one answer forever. Created on open when absent
//       (files written before it existed start from max(tree_id) + 1).
//   labels(tree_id*, scheme_blob)
//     - the serialized layered-Dewey scheme (all layers, with every
//       layer's subtree sources and roots); required for every tree
//   tree_blobs(tree_id*, tree_blob)
//     - the packed tree image (tree/phylo_tree.h EncodePackedTree);
//       required for every tree, so OpenTree deserializes without
//       re-interning names
//   A stored tree is exactly these three rows: name and time access go
//   through the bound handle's NameIndex and Sampler, not per-node rows.
//   species_chunks(chunk_key*, chunk)
//     - chunk_key packs (tree_id << 32 | first ordinal), so a tree's
//       chunks are one key range (read, and dropped, by range); the chunk
//       packs the species (name + sequence) of a run of the tree's
//       leaf-name ordinals behind their end offsets, cut so the row
//       fills its pages (one overflow page for short sequences).
//       Species naming only internal nodes share one trailing chunk
//       at the ordinal past the domain. A tree's species data is a
//       few rows per page of sequence, not one row per species.
//   queries(query_id*, timestamp, kind, params, summary)
//   experiments(experiment_id*, created, tree_name, spec, seed,
//               base_ticket)
//     - the serialized ExperimentSpec plus its RNG provenance, so
//       RerunExperiment replays stored workloads byte-identically
//   experiment_runs(run_key*, experiment_id*, ordinal, algorithm,
//                   selection_index, replicate, sample_size, rf_*,
//                   triplet_*, seconds)
//     - run_key packs (experiment_id << 32 | ordinal)
//   experiment_cells(cell_key*, experiment_id*, algorithm,
//                    selection_index, replicates, rf aggregates,
//                    mean_triplet, seconds)
//   (* = indexed column)
// A missing or undecodable labels / tree_blobs row is Corruption. The
// layout is part of the file's format version (storage/page.h
// kFormatVersion): a database of another version does not open.
//
// Thread safety: the repositories inherit the storage engine's
// single-writer / multi-reader semantics. The Crimson session holds
// its storage lock exclusive (plus a Database writer epoch) around
// every repository *write*, and only a Database read snapshot around
// repository *reads* -- so reads from any number of threads proceed
// in parallel through the latched buffer pool (see crimson.h and
// DESIGN.md "Concurrency").

#ifndef CRIMSON_CRIMSON_REPOSITORIES_H_
#define CRIMSON_CRIMSON_REPOSITORIES_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "labeling/layered_dewey.h"
#include "storage/database.h"
#include "tree/phylo_tree.h"

namespace crimson {

/// Wall-clock microseconds since the epoch (the repositories' row
/// timestamp source; the session's history buffer stamps entries with
/// it at enqueue time so deferred flushes keep the original times).
int64_t NowMicros();

/// Metadata row for a stored tree.
struct TreeInfo {
  int64_t tree_id = 0;
  std::string name;
  int64_t n_nodes = 0;
  int64_t n_leaves = 0;
  int64_t f = 0;          // layered-Dewey parameter used at load time
  int64_t max_depth = 0;
};

/// Stores phylogenetic tree structure plus its layered-Dewey
/// decomposition. One instance per open Database.
class TreeRepository {
 public:
  /// Creates/opens the repository tables inside db.
  static Result<std::unique_ptr<TreeRepository>> Open(Database* db);

  /// Persists a tree (structure + labeling) under a unique name as
  /// three rows: trees metadata, the labels blob and the packed tree
  /// blob. Returns the assigned tree id, taken from the tree_ids
  /// counter (never one a dropped tree had). InvalidArgument for an
  /// empty tree or duplicate leaf names (CheckStorable).
  Result<int64_t> StoreTree(const std::string& name, const PhyloTree& tree,
                            const LayeredDeweyScheme& scheme);

  /// The refusals StoreTree makes from the tree alone, without storage:
  /// InvalidArgument for an empty tree or duplicate leaf names. Duplicate
  /// leaf names would make every name-addressed query resolve silently
  /// to one arbitrary occurrence; no stored tree has them.
  static Status CheckStorable(const std::string& name, const PhyloTree& tree);

  /// The serialized labeling persisted by StoreTree, decoded.
  /// Corruption when the tree's labels row is missing.
  Result<LayeredDeweyScheme> LoadScheme(int64_t tree_id) const;

  /// The raw persisted label blob (callers that hold the storage lock
  /// can fetch here and run the O(n) decode outside it).
  Result<std::string> LoadSchemeBlob(int64_t tree_id) const;

  /// Tree metadata by id; NotFound once the tree is dropped.
  Result<TreeInfo> GetTreeInfo(int64_t tree_id) const;

  /// All stored trees.
  Result<std::vector<TreeInfo>> ListTrees() const;

  /// Reconstructs the full in-memory tree from the packed blob written
  /// by StoreTree (no per-name re-interning). Corruption, naming the
  /// tree, when the blob is missing or does not decode.
  Result<PhyloTree> LoadTree(int64_t tree_id) const;

  /// Deletes a tree's trees, labels and tree_blobs rows, each by one
  /// Table::DeleteWhere pass. Species rows are SpeciesRepository's.
  Status DropTree(int64_t tree_id);

 private:
  explicit TreeRepository(Database* db) : db_(db) {}

  /// Corruption naming the stored tree, or NotFound when no tree has
  /// this id (it was dropped).
  Status CorruptTree(int64_t tree_id, const std::string& problem) const;

  /// The blob column of the tree's row in a per-tree blob table.
  Result<std::string> LoadBlob(const Table& table, std::string_view index,
                               int64_t tree_id) const;

  Database* db_;
  std::unique_ptr<Table> trees_;
  std::unique_ptr<Table> labels_;
  std::unique_ptr<Table> tree_blobs_;
  std::unique_ptr<Table> tree_ids_;
  /// The tree_ids row and the id it holds (writer-only hints, re-read
  /// when the session reopens the repositories after an abort).
  std::optional<RecordId> next_id_row_;
  int64_t next_id_ = 1;
};

/// Stores a tree's species data (gene sequences) as chunk rows. A
/// species is addressed by its tree's ordinal domain
/// (NameIndex::SortedLeafNames): the sorted leaf names, "" first when
/// a leaf is unnamed. A chunk row holds the species of a run of
/// consecutive ordinals, packed with end offsets and cut so the row
/// fills the pages it takes; species that name only internal nodes
/// share one trailing chunk at ordinal domain_size. A species stored
/// once keeps its sequence: a later append of it changes nothing.
class SpeciesRepository {
 public:
  static Result<std::unique_ptr<SpeciesRepository>> Open(Database* db);

  /// One species to store: its ordinal in the tree's domain
  /// (domain_size for a species that names only internal nodes). The
  /// views must stay valid for the Append call.
  struct Entry {
    uint32_t ordinal = 0;
    std::string_view name;
    std::string_view sequence;
  };

  /// Stores `entries`, sorted by (ordinal, name) with no species twice,
  /// in the tree whose domain has `domain_size` names. Reads and
  /// rewrites only the chunks whose ordinal range the batch reaches;
  /// species already stored keep their sequence.
  Status Append(int64_t tree_id, uint32_t domain_size,
                std::vector<Entry> entries);

  /// All sequences for a tree, keyed by species name.
  Result<std::map<std::string, std::string>> SequencesForTree(
      int64_t tree_id) const;

  /// Calls fn(ordinal, sequence) for each species of the tree whose
  /// ordinal is in [lo, hi), in ordinal order, reading only the chunks
  /// that cover the range (the cracked store's fetch path).
  Status ForEachInRange(int64_t tree_id, uint32_t lo, uint32_t hi,
                        const std::function<void(size_t, Slice)>& fn) const;

  /// True if the tree has any species data (reads no chunk).
  Result<bool> HasSpecies(int64_t tree_id) const;

  /// Deletes every chunk row of a tree as one chunk_key range
  /// (Table::DeleteRange), freeing the chunks' pages without reading
  /// them (the session DropTree path, beside TreeRepository::DropTree).
  Status DropForTree(int64_t tree_id);

 private:
  explicit SpeciesRepository(Database* db) : db_(db) {}

  /// One chunk row: the first ordinal it covers and its record id.
  struct ChunkRef {
    uint32_t first = 0;
    RecordId rid;
  };

  /// `end` covering every chunk of a tree, the trailing one included.
  static constexpr uint64_t kAllChunks = uint64_t{1} << 32;

  /// The tree's first `limit` chunks with first ordinal in [0, end), in
  /// ordinal order, from index keys alone.
  Result<std::vector<ChunkRef>> ChunksBelow(
      int64_t tree_id, uint64_t end, size_t limit = SIZE_MAX) const;

  /// The encoded chunk_key range [lower, upper) of the tree's chunks
  /// with first ordinal below `end`.
  Status ChunkKeyRange(int64_t tree_id, uint64_t end, std::string* lower,
                       std::string* upper) const;

  /// The chunk column of a chunk row.
  Result<std::string> LoadChunk(const ChunkRef& chunk) const;

  Database* db_;
  std::unique_ptr<Table> chunks_;
};

/// Persisted evaluation workloads (the Experiment API's storage side):
/// the serialized ExperimentSpec, every per-run BenchmarkRun score
/// row, and the per-cell aggregates. Specs carry their RNG provenance
/// (seed + base ticket) so a stored experiment replays
/// byte-identically on any session over the same database.
class ExperimentRepository {
 public:
  static Result<std::unique_ptr<ExperimentRepository>> Open(Database* db);

  struct ExperimentRow {
    int64_t experiment_id = 0;
    int64_t created_micros = 0;
    std::string tree_name;
    std::string spec;  // EncodeExperimentSpec output
    uint64_t seed = 0;
    uint64_t base_ticket = 0;
  };

  /// One BenchmarkRun's persisted scores. `ordinal` is the job index
  /// in spec order (algorithm-major, selection, replicate innermost).
  struct RunRow {
    int64_t experiment_id = 0;
    int64_t ordinal = 0;
    std::string algorithm;  // the algorithm's self-reported name()
    int64_t selection_index = 0;
    int64_t replicate = 0;
    int64_t sample_size = 0;
    int64_t rf_distance = 0;
    int64_t rf_splits_a = 0;
    int64_t rf_splits_b = 0;
    double rf_normalized = 0;
    int64_t triplet_total = 0;
    int64_t triplet_differing = 0;
    double triplet_fraction = 0;
    double seconds = 0;
  };

  /// Aggregate row per (algorithm, selection) grid cell.
  struct CellRow {
    int64_t experiment_id = 0;
    int64_t ordinal = 0;       // cell index in spec order
    std::string algorithm;     // registry name from the spec
    int64_t selection_index = 0;
    int64_t replicates = 0;
    double mean_rf_normalized = 0;
    double min_rf_normalized = 0;
    double max_rf_normalized = 0;
    double mean_triplet_fraction = 0;
    double total_seconds = 0;
  };

  /// Allocates the next experiment id and stores the spec row.
  Result<int64_t> PutExperiment(const std::string& tree_name,
                                const std::string& spec, uint64_t seed,
                                uint64_t base_ticket);

  /// Stores all run rows of one experiment (bulk append).
  Status PutRuns(const std::vector<RunRow>& rows);

  /// Stores all cell aggregates of one experiment (bulk append).
  Status PutCells(const std::vector<CellRow>& rows);

  Result<ExperimentRow> GetExperiment(int64_t experiment_id) const;

  /// All stored experiments, oldest first.
  Result<std::vector<ExperimentRow>> ListExperiments() const;

  /// Run rows of one experiment in ordinal order.
  Result<std::vector<RunRow>> RunsFor(int64_t experiment_id) const;

  /// Cell rows of one experiment in ordinal order.
  Result<std::vector<CellRow>> CellsFor(int64_t experiment_id) const;

 private:
  explicit ExperimentRepository(Database* db) : db_(db) {}

  Database* db_;
  std::unique_ptr<Table> experiments_;
  std::unique_ptr<Table> runs_;
  std::unique_ptr<Table> cells_;
  int64_t next_id_ = 1;
};

/// Query history: every user-visible query is recorded and can be
/// recalled (paper §2.1: "makes it convenient for users to recall and
/// rerun historical queries").
class QueryRepository {
 public:
  static Result<std::unique_ptr<QueryRepository>> Open(Database* db);

  struct Entry {
    int64_t query_id = 0;
    int64_t timestamp_micros = 0;
    std::string kind;     // "lca", "project", "sample_time", ...
    std::string params;   // human-readable parameter string
    std::string summary;  // result summary
  };

  /// Appends an entry; returns its id.
  Result<int64_t> Record(const std::string& kind, const std::string& params,
                         const std::string& summary);

  /// Appends pre-built entries (ids and timestamps already assigned by
  /// the session's history buffer) in one pass. Idempotent per id:
  /// entries whose id is already stored are skipped, so a drain that
  /// partially survived an unlogged abort can safely re-run. Advances
  /// next_id_ past the largest id seen.
  Status RecordBatch(const std::vector<Entry>& entries);

  /// Most recent `limit` entries, newest first.
  Result<std::vector<Entry>> History(size_t limit = 50) const;

  /// One entry by id.
  Result<Entry> Get(int64_t query_id) const;

  /// The id the next Record call would assign (seeded from a full scan
  /// at Open; the session's history buffer continues the sequence).
  int64_t next_id() const { return next_id_; }

 private:
  explicit QueryRepository(Database* db) : db_(db) {}

  Database* db_;
  std::unique_ptr<Table> queries_;
  int64_t next_id_ = 1;
};

}  // namespace crimson

#endif  // CRIMSON_CRIMSON_REPOSITORIES_H_
