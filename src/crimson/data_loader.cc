#include "crimson/data_loader.h"

#include "common/log.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "labeling/layered_dewey.h"
#include "tree/newick.h"

namespace crimson {

Result<LoadReport> DataLoader::LoadTree(const std::string& name,
                                        const PhyloTree& tree) {
  WallTimer timer;
  LayeredDeweyScheme labels(f_);
  CRIMSON_RETURN_IF_ERROR(labels.Build(tree));
  Result<LoadReport> report = LoadTree(name, tree, labels);
  if (report.ok()) report->seconds = timer.ElapsedSeconds();
  return report;
}

Result<LoadReport> DataLoader::LoadTree(const std::string& name,
                                        const PhyloTree& tree,
                                        const LayeredDeweyScheme& labels) {
  WallTimer timer;
  Result<int64_t> stored = trees_->StoreTree(name, tree, labels);
  if (!stored.ok()) {
    CRIMSON_LOG(kError) << "loading tree '" << name
                        << "' failed: " << stored.status();
    return stored.status();
  }
  LoadReport report;
  report.tree_id = *stored;
  report.tree_name = name;
  report.nodes_loaded = tree.size();
  report.seconds = timer.ElapsedSeconds();
  CRIMSON_LOG(kInfo) << "loaded tree '" << name << "' (" << tree.size()
                     << " nodes) in " << report.seconds << "s";
  return report;
}

Result<LoadReport> DataLoader::LoadNewick(const std::string& name,
                                          const std::string& newick_text,
                                          LoadMode mode) {
  if (mode == LoadMode::kAppendSpeciesData) {
    return Status::InvalidArgument(
        "Newick input carries no species data to append");
  }
  Result<PhyloTree> parsed = ParseNewick(newick_text);
  if (!parsed.ok()) {
    CRIMSON_LOG(kError) << "newick parse error: " << parsed.status();
    return parsed.status();
  }
  return LoadTree(name, *parsed);
}

Result<LoadReport> DataLoader::LoadNexus(const std::string& name,
                                         const std::string& nexus_text,
                                         LoadMode mode) {
  Result<NexusDocument> parsed = ParseNexus(nexus_text);
  if (!parsed.ok()) {
    CRIMSON_LOG(kError) << "nexus parse error: " << parsed.status();
    return parsed.status();
  }
  LayeredDeweyScheme labels(f_);
  if (!parsed->trees.empty()) {
    CRIMSON_RETURN_IF_ERROR(labels.Build(parsed->trees[0].tree));
  }
  return LoadNexus(name, *parsed, mode, labels);
}

Result<LoadReport> DataLoader::LoadNexus(const std::string& name,
                                         const NexusDocument& doc,
                                         LoadMode mode,
                                         const LayeredDeweyScheme& labels) {
  if (mode == LoadMode::kAppendSpeciesData) {
    return Status::InvalidArgument(
        "appending species data needs a bound tree (Crimson::LoadNexus)");
  }
  if (doc.trees.empty()) {
    return Status::InvalidArgument("NEXUS input has no TREES block");
  }
  const PhyloTree& tree = doc.trees[0].tree;
  CRIMSON_ASSIGN_OR_RETURN(LoadReport report, LoadTree(name, tree, labels));
  if (mode == LoadMode::kTreeWithSpeciesData && !doc.sequences.empty()) {
    // The tree just stored is the one parsed: resolve against it
    // rather than reading it back.
    const Sampler sampler(&tree);
    CRIMSON_ASSIGN_OR_RETURN(
        LoadReport append,
        AppendSpecies(report.tree_id, tree, NameIndex::Build(tree),
                      SpeciesOrdinals(tree, &sampler), doc.sequences));
    report.species_loaded = append.species_loaded;
  }
  return report;
}

Result<LoadReport> DataLoader::AppendSpecies(
    int64_t tree_id, const PhyloTree& tree, const NameIndex& names,
    const SpeciesOrdinals& ordinals,
    const std::map<std::string, std::string>& sequences) {
  WallTimer timer;
  // Resolve every species against the tree first (errors surface
  // before any write), then store the whole batch. A leaf name is
  // addressed by its ordinal, which grows with the name, so the sorted
  // input yields sorted ordinals; a name found only on internal nodes
  // goes past the domain.
  const uint32_t domain_size = ordinals.domain_size();
  std::vector<SpeciesRepository::Entry> leaves, internal;
  leaves.reserve(sequences.size());
  for (const auto& [species, seq] : sequences) {
    const NodeId leaf = names.FindLeaf(tree, species);
    if (leaf != kNoNode) {
      leaves.push_back({ordinals.Of(leaf), species, seq});
    } else if (names.Find(tree, species) != kNoNode) {
      internal.push_back({domain_size, species, seq});
    } else {
      CRIMSON_LOG(kError) << "append species: '" << species
                          << "' not found in tree " << tree_id;
      return Status::NotFound(
          StrFormat("species '%s' not in tree %lld", species.c_str(),
                    static_cast<long long>(tree_id)));
    }
  }
  leaves.insert(leaves.end(), internal.begin(), internal.end());
  CRIMSON_RETURN_IF_ERROR(
      species_->Append(tree_id, domain_size, std::move(leaves)));
  LoadReport report;
  report.tree_id = tree_id;
  report.species_loaded = sequences.size();
  report.seconds = timer.ElapsedSeconds();
  CRIMSON_LOG(kInfo) << "appended " << report.species_loaded
                     << " sequences to tree " << tree_id << " in "
                     << report.seconds << "s";
  return report;
}

}  // namespace crimson
