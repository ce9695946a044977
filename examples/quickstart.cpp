// Quickstart: the paper's worked examples, end to end.
//
//   * load the Figure 1 sample tree into Crimson,
//   * show its Dewey labels (Lla = 2.1.1, Spy = 2.1.2),
//   * answer the LCA queries of §2.1,
//   * project {Bha, Lla, Syn} (Figure 2),
//   * sample four species with respect to evolutionary time 1 (§2.2),
//   * match the Figure 2 pattern against the tree,
//   * show the query history.
//
// Run:  ./quickstart

#include <cstdio>

#include "crimson/crimson.h"
#include "labeling/dewey_scheme.h"
#include "tree/newick.h"
#include "tree/tree_builders.h"

namespace {

void Check(const crimson::Status& s, const char* what) {
  if (!s.ok()) {
    fprintf(stderr, "%s failed: %s\n", what, s.ToString().c_str());
    exit(1);
  }
}

template <typename T>
T Unwrap(crimson::Result<T> r, const char* what) {
  if (!r.ok()) {
    fprintf(stderr, "%s failed: %s\n", what, r.status().ToString().c_str());
    exit(1);
  }
  return std::move(r).value();
}

}  // namespace

int main() {
  using namespace crimson;

  // ---- the Figure 1 sample tree --------------------------------------
  PhyloTree fig1 = MakePaperFigure1Tree();
  printf("Figure 1 tree: %s\n\n", WriteNewick(fig1).c_str());

  // ---- plain Dewey labels (paper §2.1) --------------------------------
  DeweyScheme dewey;
  Check(dewey.Build(fig1), "dewey build");
  for (const char* name : {"Lla", "Spy", "Syn", "Bha", "Bsu"}) {
    NodeId n = fig1.FindByName(name);
    printf("Dewey label of %-3s = %s\n", name,
           dewey.label(n).ToString().c_str());
  }

  // ---- open Crimson (in-memory) and bind the tree to a handle ---------
  CrimsonOptions options;
  options.f = 3;  // the paper's Figure 4 uses f = 3
  auto crimson = Unwrap(Crimson::Open(options), "open");
  TreeRef tree = Unwrap(crimson->LoadTree("fig1", fig1), "load").ref;

  // ---- LCA queries (typed requests through the one Execute path) -------
  auto lca1 = std::get<LcaAnswer>(
      Unwrap(crimson->Execute(tree, LcaQuery{"Lla", "Spy"}), "lca"));
  printf("\nLCA(Lla, Spy) = node %u  (the interior node '2.1')\n",
         lca1.node);
  auto lca2 = std::get<LcaAnswer>(
      Unwrap(crimson->Execute(tree, LcaQuery{"Lla", "Syn"}), "lca"));
  printf("LCA(Lla, Syn) = node %u '%s'  (paper: node 1, the root)\n",
         lca2.node, lca2.name.c_str());

  // ---- Figure 2: tree projection ---------------------------------------
  auto projection = std::get<ProjectAnswer>(
      Unwrap(crimson->Execute(tree, ProjectQuery{{"Bha", "Lla", "Syn"}}),
             "project"));
  printf("\nProjection over {Bha, Lla, Syn} (Figure 2):\n  %s\n",
         WriteNewick(projection.projection).c_str());
  printf("  (note Lla's merged edge 0.5 + 1.0 = 1.5)\n");

  // ---- §2.2: sampling with respect to time -----------------------------
  auto sample = std::get<SampleAnswer>(
      Unwrap(crimson->Execute(tree, SampleTimeQuery{4, 1.0}), "sample"));
  printf("\nSample of 4 species at evolutionary distance 1: {");
  for (size_t i = 0; i < sample.species.size(); ++i) {
    printf("%s%s", i ? ", " : "", sample.species[i].c_str());
  }
  printf("}\n  (paper: {Bha, Lla, Syn, Bsu} or {Bha, Spy, Syn, Bsu})\n");

  // ---- tree pattern match ----------------------------------------------
  auto hit = std::get<PatternAnswer>(Unwrap(
      crimson->Execute(
          tree, PatternQuery{"((Bha:1.5,Lla:1.5):0.75,Syn:2.5);",
                             /*match_weights=*/true}),
      "pattern"));
  printf("\nFigure 2 pattern matches Figure 1 tree: %s\n",
         hit.exact ? "YES" : "no");
  auto miss = std::get<PatternAnswer>(Unwrap(
      crimson->Execute(tree, PatternQuery{"((Bha:1,Syn:1):1,Lla:1);",
                                          /*match_weights=*/false}),
      "pattern"));
  printf("Swapped pattern (Lla <-> Syn) matches:      %s\n",
         miss.exact ? "yes" : "NO");

  // ---- batched execution ------------------------------------------------
  std::vector<QueryRequest> batch = {
      LcaQuery{"Bha", "Bsu"},
      CladeQuery{{"Lla", "Spy"}},
      SampleUniformQuery{3},
  };
  auto batch_results = crimson->ExecuteBatch(tree, batch);
  printf("\nExecuteBatch over %zu mixed queries:\n", batch.size());
  for (size_t i = 0; i < batch_results.size(); ++i) {
    printf("  [%zu] %-14s -> %s\n", i,
           std::string(QueryKindName(batch[i])).c_str(),
           batch_results[i].ok()
               ? SummarizeResult(*batch_results[i]).c_str()
               : batch_results[i].status().ToString().c_str());
  }

  // ---- Tree Viewer (Fig. 3): ASCII dendrogram of the projection --------
  auto art = Unwrap(crimson->RenderTree(tree), "render");
  printf("\nTree Viewer (ASCII dendrogram of the loaded tree):\n%s",
         art.c_str());

  // ---- query history (Query Repository) --------------------------------
  auto history = Unwrap(crimson->QueryHistory(10), "history");
  printf("\nQuery history (%zu entries, newest first):\n", history.size());
  for (const auto& e : history) {
    printf("  #%lld %-14s %s\n", static_cast<long long>(e.query_id),
           e.kind.c_str(), e.summary.c_str());
  }
  return 0;
}
