// Data Loader (paper Fig. 3 and §3 "Loading Data"): loads phylogenetic
// trees (Newick or NEXUS) into the repositories, with the three demo
// modes -- tree with species data, tree structure only, and appending
// species data to an existing tree -- plus dynamically reported
// progress/errors.

#ifndef CRIMSON_CRIMSON_DATA_LOADER_H_
#define CRIMSON_CRIMSON_DATA_LOADER_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/result.h"
#include "crimson/repositories.h"
#include "tree/nexus.h"

namespace crimson {

enum class LoadMode {
  /// Tree topology + any sequences present in the input.
  kTreeWithSpeciesData,
  /// Topology only; sequences in the input are ignored.
  kTreeStructureOnly,
  /// Sequences only, attached to an already-loaded tree.
  kAppendSpeciesData,
};

struct LoadReport {
  int64_t tree_id = -1;
  std::string tree_name;
  uint64_t nodes_loaded = 0;
  uint64_t species_loaded = 0;
  double seconds = 0;
};

/// Progress callback: (phase, items done). Called at a coarse rate.
using LoadProgressFn = std::function<void(const std::string&, uint64_t)>;

class DataLoader {
 public:
  /// f is the layered-Dewey bound used when indexing loaded trees.
  DataLoader(TreeRepository* trees, SpeciesRepository* species,
             uint32_t f = 8)
      : trees_(trees), species_(species), f_(f) {}

  /// Loads a Newick string as tree `name`.
  Result<LoadReport> LoadNewick(const std::string& name,
                                const std::string& newick_text,
                                LoadMode mode = LoadMode::kTreeStructureOnly,
                                LoadProgressFn progress = nullptr);

  /// Loads a NEXUS document: first TREES-block tree (named `name` if
  /// the block has none) and, depending on mode, its CHARACTERS data.
  Result<LoadReport> LoadNexus(const std::string& name,
                               const std::string& nexus_text,
                               LoadMode mode = LoadMode::kTreeWithSpeciesData,
                               LoadProgressFn progress = nullptr);

  /// Loads an already-parsed tree (used by simulators / examples).
  Result<LoadReport> LoadTree(const std::string& name, const PhyloTree& tree,
                              LoadProgressFn progress = nullptr);

  /// Appends sequences to an existing tree. Every species must name a
  /// node of that tree (NotFound before any write otherwise); a species
  /// already stored keeps its first sequence.
  Result<LoadReport> AppendSpecies(
      const std::string& tree_name,
      const std::map<std::string, std::string>& sequences,
      LoadProgressFn progress = nullptr);

 private:
  TreeRepository* trees_;
  SpeciesRepository* species_;
  uint32_t f_;
};

}  // namespace crimson

#endif  // CRIMSON_CRIMSON_DATA_LOADER_H_
