// Bulk-loaded ingest vs. the per-row Insert path: StoreTree + first
// bind on a >= 50k-node simulated Yule tree. The bulk path batch-encodes
// rows, feeds each B+tree index one sorted run built bottom-up
// (BTree::BulkLoad, no page splits), and persists the layered-Dewey
// labels so the first OpenTree bind deserializes the scheme instead of
// relabeling.
//
// Ships its own main: before benchmarking it asserts that a
// bulk-loaded tree answers all six query kinds byte-identically to an
// insert-loaded one (exits non-zero otherwise), then writes results to
// BENCH_bulk_load.json unless --benchmark_out= is given.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "crimson/crimson.h"
#include "tree/newick.h"

namespace crimson {
namespace {

CrimsonOptions PerRowOptions() {
  CrimsonOptions options;
  options.bulk_load_threshold = std::numeric_limits<size_t>::max();
  options.persist_labels = false;
  return options;
}

CrimsonOptions BulkOptions() {
  CrimsonOptions options;
  options.bulk_load_threshold = 0;
  options.persist_labels = true;
  return options;
}

/// StoreTree + first bind through the session: LoadTree runs the
/// labeling, the store path under test, and the OpenTree bind.
void RunStoreAndBind(benchmark::State& state, const CrimsonOptions& options) {
  const PhyloTree& gold =
      bench::CachedYule(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    auto session = std::move(Crimson::Open(options)).value();
    auto report = session->LoadTree("yule", gold);
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(gold.size()));
  state.counters["nodes"] = static_cast<double>(gold.size());
}

void BM_StoreAndFirstBind_PerRow(benchmark::State& state) {
  RunStoreAndBind(state, PerRowOptions());
}

void BM_StoreAndFirstBind_Bulk(benchmark::State& state) {
  RunStoreAndBind(state, BulkOptions());
}

BENCHMARK(BM_StoreAndFirstBind_PerRow)
    ->Arg(30000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StoreAndFirstBind_Bulk)
    ->Arg(30000)
    ->Unit(benchmark::kMillisecond);

/// Executes all six query kinds and renders each result.
std::vector<std::string> RunSixKinds(Crimson* session, TreeRef tree,
                                     const PhyloTree& gold) {
  std::vector<NodeId> leaves = gold.Leaves();
  std::vector<std::string> set;
  for (size_t i = 0; i < leaves.size(); i += leaves.size() / 5 + 1) {
    set.emplace_back(gold.name(leaves[i]));
  }
  PhyloTree pattern = std::get<ProjectAnswer>(
                          session->Execute(tree, ProjectQuery{set}).value())
                          .projection;
  std::vector<QueryRequest> requests = {
      LcaQuery{set[0], set[1]},
      ProjectQuery{set},
      SampleUniformQuery{16},
      SampleTimeQuery{16, 1.0},
      CladeQuery{{set[0], set[2]}},
      PatternQuery{WriteNewick(pattern), false},
  };
  std::vector<std::string> rendered;
  for (const QueryRequest& request : requests) {
    auto result = session->Execute(tree, request);
    rendered.push_back(result.ok() ? RenderResult(*result)
                                   : result.status().ToString());
  }
  return rendered;
}

/// Six-query-kind identity between an insert-loaded and a bulk-loaded
/// tree (same session seed => same sampling tickets). Returns false and
/// prints the first divergence on mismatch.
bool VerifyBulkMatchesPerRow() {
  const PhyloTree& gold = bench::CachedYule(30000);
  auto per_row = std::move(Crimson::Open(PerRowOptions())).value();
  auto bulk = std::move(Crimson::Open(BulkOptions())).value();
  TreeRef ref_a = per_row->LoadTree("yule", gold).value().ref;
  TreeRef ref_b = bulk->LoadTree("yule", gold).value().ref;
  // The projection for the pattern query consumes one ticket in each
  // session before the six-kind run; both sessions stay in lockstep.
  std::vector<std::string> a = RunSixKinds(per_row.get(), ref_a, gold);
  std::vector<std::string> b = RunSixKinds(bulk.get(), ref_b, gold);
  static const char* kKinds[] = {"lca",         "project", "sample_uniform",
                                 "sample_time", "clade",   "pattern_match"};
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      std::fprintf(stderr,
                   "FAIL: %s diverges between per-row and bulk load:\n"
                   "--- per-row ---\n%s\n--- bulk ---\n%s\n",
                   kKinds[i], a[i].c_str(), b[i].c_str());
      return false;
    }
  }
  std::fprintf(stderr,
               "verified: all 6 query kinds byte-identical between "
               "per-row and bulk-loaded trees (%zu nodes)\n",
               gold.size());
  return true;
}

}  // namespace
}  // namespace crimson

int main(int argc, char** argv) {
  if (!crimson::VerifyBulkMatchesPerRow()) return 1;
  std::vector<char*> args(argv, argv + argc);
  std::string out = "--benchmark_out=BENCH_bulk_load.json";
  std::string fmt = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out.data());
    args.push_back(fmt.data());
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
