// Data Loader (paper Fig. 3 and §3 "Loading Data"): loads phylogenetic
// trees (Newick or NEXUS) into the repositories, with the three demo
// modes -- tree with species data, tree structure only, and appending
// species data to an existing tree -- and reports errors as it goes.
//
// The loader never looks a tree up by name. Appending species data to
// a stored tree takes the tree as the caller already holds it: the
// session passes its bound handle's tree and name index
// (Crimson::AppendSpeciesData), and a NEXUS load with species passes
// the tree it just parsed and stored.

#ifndef CRIMSON_CRIMSON_DATA_LOADER_H_
#define CRIMSON_CRIMSON_DATA_LOADER_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/result.h"
#include "crimson/repositories.h"
#include "labeling/layered_dewey.h"
#include "tree/name_index.h"
#include "tree/nexus.h"

namespace crimson {

enum class LoadMode {
  /// Tree topology + any sequences present in the input.
  kTreeWithSpeciesData,
  /// Topology only; sequences in the input are ignored.
  kTreeStructureOnly,
  /// Sequences only, attached to an already-loaded tree. The session
  /// handles this mode (Crimson::LoadNexus); the loader's document
  /// loads reject it.
  kAppendSpeciesData,
};

struct LoadReport {
  int64_t tree_id = -1;
  std::string tree_name;
  uint64_t nodes_loaded = 0;
  uint64_t species_loaded = 0;
  double seconds = 0;
};

class DataLoader {
 public:
  /// f is the layered-Dewey bound used when indexing loaded trees.
  DataLoader(TreeRepository* trees, SpeciesRepository* species,
             uint32_t f = 8)
      : trees_(trees), species_(species), f_(f) {}

  /// Loads a Newick string as tree `name`.
  Result<LoadReport> LoadNewick(const std::string& name,
                                const std::string& newick_text,
                                LoadMode mode = LoadMode::kTreeStructureOnly);

  /// Loads a NEXUS document: first TREES-block tree (named `name` if
  /// the block has none) and, depending on mode, its CHARACTERS data.
  Result<LoadReport> LoadNexus(const std::string& name,
                               const std::string& nexus_text,
                               LoadMode mode = LoadMode::kTreeWithSpeciesData);
  /// The same from an already-parsed document whose first tree is
  /// already labeled: the session parses and labels before it takes
  /// its writer lock.
  Result<LoadReport> LoadNexus(const std::string& name,
                               const NexusDocument& doc, LoadMode mode,
                               const LayeredDeweyScheme& labels);

  /// Loads an already-parsed tree (used by simulators / examples).
  Result<LoadReport> LoadTree(const std::string& name, const PhyloTree& tree);
  /// The same with its labeling already built (by the session, before
  /// it takes its writer lock).
  Result<LoadReport> LoadTree(const std::string& name, const PhyloTree& tree,
                              const LayeredDeweyScheme& labels);

  /// Appends sequences to stored tree `tree_id`, whose structure is
  /// `tree` with name index `names`. Every species must name a node of
  /// that tree (NotFound before any write otherwise); a species
  /// already stored keeps its first sequence. The report's tree_name
  /// is left empty: the caller knows it.
  Result<LoadReport> AppendSpecies(
      int64_t tree_id, const PhyloTree& tree, const NameIndex& names,
      const std::map<std::string, std::string>& sequences);

 private:
  TreeRepository* trees_;
  SpeciesRepository* species_;
  uint32_t f_;
};

}  // namespace crimson

#endif  // CRIMSON_CRIMSON_DATA_LOADER_H_
