// Experiment API throughput: a repeated NJ-vs-UPGMA evaluation sweep
// through Crimson::RunExperiment (the bound handle's sampler and
// projector, one read of the sampled species' sequences per
// experiment, replicates fanned out on the worker pool) versus the
// pre-Experiment-API per-call path (full sequence fetch +
// BenchmarkManager rebuild on every evaluation). Before any timing,
// the gate verifies that a parallel run is byte-identical to a
// single-worker run of the same spec -- the determinism contract the
// Experiment API shares with ExecuteBatch -- and refuses to run
// otherwise.
//
// Ships its own main: results are written to BENCH_experiments.json
// (benchmark's JSON format) unless --benchmark_out=... overrides.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "crimson/crimson.h"
#include "sim/seq_evolve.h"
#include "tree/newick.h"

namespace crimson {
namespace {

constexpr uint32_t kLeaves = 2000;
constexpr size_t kSeqLen = 200;

const std::map<std::string, std::string>& CachedSequences() {
  static auto* seqs = [] {
    SeqEvolveOptions opts;
    opts.seq_length = kSeqLen;
    auto evolver = SequenceEvolver::Create(opts);
    Rng rng(0xDA7A);
    return new std::map<std::string, std::string>(
        std::move(evolver->EvolveLeaves(bench::CachedYule(kLeaves), &rng))
            .value());
  }();
  return *seqs;
}

ExperimentSpec SweepSpec() {
  ExperimentSpec spec;
  spec.algorithms = {"nj", "upgma"};
  SelectionSpec sel;
  sel.kind = SelectionSpec::Kind::kUniform;
  sel.k = 16;
  spec.selections = {sel};
  spec.replicates = 4;
  return spec;
}

struct Fixture {
  std::unique_ptr<Crimson> session;
  TreeRef tree;
};

Fixture MakeFixture(size_t workers, uint64_t seed = 0xBE7C) {
  Fixture fx;
  CrimsonOptions options;
  options.batch_workers = workers;
  options.seed = seed;
  fx.session = std::move(Crimson::Open(options)).value();
  fx.tree =
      fx.session->LoadTree("gold", bench::CachedYule(kLeaves)).value().ref;
  auto loaded = fx.session->AppendSpeciesData("gold", CachedSequences());
  if (!loaded.ok()) {
    fprintf(stderr, "species load failed: %s\n",
            loaded.status().ToString().c_str());
    exit(1);
  }
  return fx;
}

/// The determinism gate: a parallel run of the sweep must be
/// byte-identical to a single-worker run with the same session seed.
bool VerifyParallelMatchesSequential() {
  Fixture sequential = MakeFixture(/*workers=*/1);
  Fixture parallel = MakeFixture(/*workers=*/8);
  auto spec = SweepSpec();
  auto a = sequential.session->RunExperiment(sequential.tree, spec);
  auto b = parallel.session->RunExperiment(parallel.tree, spec);
  if (!a.ok() || !b.ok()) {
    fprintf(stderr, "gate experiment failed: %s / %s\n",
            a.status().ToString().c_str(), b.status().ToString().c_str());
    return false;
  }
  if (a->runs.size() != b->runs.size()) return false;
  for (size_t i = 0; i < a->runs.size(); ++i) {
    const BenchmarkRun& x = a->runs[i];
    const BenchmarkRun& y = b->runs[i];
    if (x.algorithm != y.algorithm || x.sample_size != y.sample_size ||
        x.rf.distance != y.rf.distance ||
        x.rf.normalized != y.rf.normalized ||
        WriteNewick(x.reference) != WriteNewick(y.reference) ||
        WriteNewick(x.reconstructed) != WriteNewick(y.reconstructed)) {
      fprintf(stderr,
              "DETERMINISM VIOLATION: parallel run %zu differs from "
              "sequential\n",
              i);
      return false;
    }
  }
  return true;
}

/// The Experiment API path: every iteration reruns the whole sweep
/// through the session, which reads only the sampled species.
void BM_ExperimentSweep_Session(benchmark::State& state) {
  Fixture fx = MakeFixture(static_cast<size_t>(state.range(0)));
  auto spec = SweepSpec();
  // Warm the cache so the loop measures steady-state repeated
  // evaluation (the first call pays the one-time build).
  if (!fx.session->RunExperiment(fx.tree, spec).ok()) {
    state.SkipWithError("warmup experiment failed");
    return;
  }
  for (auto _ : state) {
    auto report = fx.session->RunExperiment(fx.tree, spec);
    if (!report.ok()) {
      state.SkipWithError("experiment failed");
      return;
    }
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(SweepSpec().job_count()));
  state.counters["workers"] = static_cast<double>(state.range(0));
}

/// The pre-Experiment-API path: every evaluation refetches the
/// sequence map from storage and rebuilds the BenchmarkManager
/// (relabel + sampler init), one replicate at a time on one thread --
/// the per-call cost before the Experiment API.
void BM_ExperimentSweep_RebuildPerCall(benchmark::State& state) {
  Fixture fx = MakeFixture(/*workers=*/1);
  auto spec = SweepSpec();
  auto info = fx.session->GetTreeInfo(fx.tree);
  auto tree = fx.session->GetTree(fx.tree);
  if (!info.ok() || !tree.ok()) {
    state.SkipWithError("fixture broken");
    return;
  }
  auto nj = MakeNjAlgorithm();
  auto upgma = MakeUpgmaAlgorithm();
  std::vector<const ReconstructionAlgorithm*> instances = {nj.get(),
                                                           upgma.get()};
  uint64_t ticket = 0;
  for (auto _ : state) {
    for (const ReconstructionAlgorithm* algorithm : instances) {
      for (const SelectionSpec& sel : spec.selections) {
        for (size_t rep = 0; rep < spec.replicates; ++rep) {
          auto seqs = fx.session->species_repository()->SequencesForTree(
              info->tree_id);
          if (!seqs.ok()) {
            state.SkipWithError("sequence fetch failed");
            return;
          }
          BenchmarkManager manager(*tree, &*seqs,
                                   static_cast<uint32_t>(info->f));
          if (!manager.Init().ok()) {
            state.SkipWithError("manager init failed");
            return;
          }
          Rng rng(0xBE7C + ticket++);
          auto run = manager.Evaluate(*algorithm, sel, &rng,
                                      spec.compute_triplets);
          if (!run.ok()) {
            state.SkipWithError("evaluate failed");
            return;
          }
          benchmark::DoNotOptimize(run);
        }
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(spec.job_count()));
}

BENCHMARK(BM_ExperimentSweep_Session)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ExperimentSweep_RebuildPerCall)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace crimson

int main(int argc, char** argv) {
  if (!crimson::VerifyParallelMatchesSequential()) {
    fprintf(stderr,
            "refusing to benchmark: parallel experiment is not "
            "byte-identical to sequential\n");
    return 1;
  }
  std::vector<char*> args(argv, argv + argc);
  std::string out = "--benchmark_out=BENCH_experiments.json";
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
