#include "crimson/data_loader.h"

#include "common/log.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "labeling/layered_dewey.h"
#include "tree/name_index.h"
#include "tree/newick.h"

namespace crimson {

Result<LoadReport> DataLoader::LoadTree(const std::string& name,
                                        const PhyloTree& tree,
                                        LoadProgressFn progress) {
  WallTimer timer;
  if (progress) progress("indexing", 0);
  LayeredDeweyScheme scheme(f_);
  CRIMSON_RETURN_IF_ERROR(scheme.Build(tree));
  if (progress) progress("storing", 0);
  Result<int64_t> stored = trees_->StoreTree(name, tree, scheme);
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
  if (progress) progress("done", tree.size());
  return report;
}

Result<LoadReport> DataLoader::LoadNewick(const std::string& name,
                                          const std::string& newick_text,
                                          LoadMode mode,
                                          LoadProgressFn progress) {
  if (mode == LoadMode::kAppendSpeciesData) {
    return Status::InvalidArgument(
        "Newick input carries no species data to append");
  }
  if (progress) progress("parsing", 0);
  Result<PhyloTree> parsed = ParseNewick(newick_text);
  if (!parsed.ok()) {
    CRIMSON_LOG(kError) << "newick parse error: " << parsed.status();
    return parsed.status();
  }
  return LoadTree(name, *parsed, std::move(progress));
}

Result<LoadReport> DataLoader::LoadNexus(const std::string& name,
                                         const std::string& nexus_text,
                                         LoadMode mode,
                                         LoadProgressFn progress) {
  if (progress) progress("parsing", 0);
  Result<NexusDocument> parsed = ParseNexus(nexus_text);
  if (!parsed.ok()) {
    CRIMSON_LOG(kError) << "nexus parse error: " << parsed.status();
    return parsed.status();
  }
  const NexusDocument& doc = *parsed;

  if (mode == LoadMode::kAppendSpeciesData) {
    if (doc.sequences.empty()) {
      return Status::InvalidArgument("NEXUS input has no CHARACTERS data");
    }
    return AppendSpecies(name, doc.sequences, std::move(progress));
  }

  if (doc.trees.empty()) {
    return Status::InvalidArgument("NEXUS input has no TREES block");
  }
  CRIMSON_ASSIGN_OR_RETURN(LoadReport report,
                           LoadTree(name, doc.trees[0].tree, progress));
  if (mode == LoadMode::kTreeWithSpeciesData && !doc.sequences.empty()) {
    CRIMSON_ASSIGN_OR_RETURN(LoadReport append,
                             AppendSpecies(name, doc.sequences, progress));
    report.species_loaded = append.species_loaded;
  }
  return report;
}

Result<LoadReport> DataLoader::AppendSpecies(
    const std::string& tree_name,
    const std::map<std::string, std::string>& sequences,
    LoadProgressFn progress) {
  WallTimer timer;
  CRIMSON_ASSIGN_OR_RETURN(TreeInfo info, trees_->GetTreeInfo(tree_name));
  LoadReport report;
  report.tree_id = info.tree_id;
  report.tree_name = tree_name;
  // Resolve every species against the decoded tree first (errors
  // surface before any write), then store the whole batch. A leaf name
  // is addressed by its ordinal in the tree's sorted leaf-name domain,
  // which the sorted input walks in step; a name found only on
  // internal nodes goes past the domain.
  CRIMSON_ASSIGN_OR_RETURN(PhyloTree tree, trees_->LoadTree(info.tree_id));
  const NameIndex names = NameIndex::Build(tree);
  const std::vector<std::string> domain = names.SortedLeafNames(tree);
  const auto domain_size = static_cast<uint32_t>(domain.size());
  std::vector<SpeciesRepository::Entry> leaves, internal;
  leaves.reserve(sequences.size());
  size_t ordinal = 0;
  uint64_t resolved = 0;
  for (const auto& [species, seq] : sequences) {
    while (ordinal < domain.size() && domain[ordinal] < species) ++ordinal;
    if (ordinal < domain.size() && domain[ordinal] == species) {
      leaves.push_back({static_cast<uint32_t>(ordinal), species, seq});
    } else if (names.Find(tree, species) != kNoNode) {
      internal.push_back({domain_size, species, seq});
    } else {
      CRIMSON_LOG(kError) << "append species: '" << species
                          << "' not found in tree '" << tree_name << "'";
      return Status::NotFound(
          StrFormat("species '%s' not in tree %lld", species.c_str(),
                    static_cast<long long>(info.tree_id)));
    }
    ++resolved;
    if (progress && resolved % 1024 == 0) progress("resolving", resolved);
  }
  const uint64_t done = resolved;
  leaves.insert(leaves.end(), internal.begin(), internal.end());
  CRIMSON_RETURN_IF_ERROR(
      species_->Append(info.tree_id, domain_size, std::move(leaves)));
  if (progress) progress("species", done);
  report.species_loaded = done;
  report.seconds = timer.ElapsedSeconds();
  CRIMSON_LOG(kInfo) << "appended " << done << " sequences to '" << tree_name
                     << "' in " << report.seconds << "s";
  if (progress) progress("done", done);
  return report;
}

}  // namespace crimson
