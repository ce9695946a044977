// E6 -- sampling queries (paper §2.2): uniform species sampling and
// sampling with respect to evolutionary time, over gold-standard trees
// of increasing size and sample sizes matching reconstruction input
// scales (hundreds to thousands of species).
//
// Shape expectation: uniform sampling is O(k) after O(n) setup. Time
// sampling pays O(n log n) once per Sampler, on its first time query
// (BM_TimeIndexBuild), and then O(log n + n/32 + n/64 + k) per call:
// a binary search, at most n/32 events from the nearest checkpoint, a
// popcount pass over the frontier bitmap and k draws -- so it grows
// with the tree, not with the frontier, and a 90%-height call with
// |F| in the thousands costs about what a mid-height one does.
// BM_TimeFrontier also lists the frontier, so it grows with |F|.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench_util.h"
#include "query/sampling.h"

namespace crimson {
namespace {

const Sampler& CachedSampler(uint32_t n_leaves) {
  static auto* cache =
      new std::map<uint32_t, std::unique_ptr<Sampler>>();
  auto it = cache->find(n_leaves);
  if (it == cache->end()) {
    it = cache->emplace(n_leaves, std::make_unique<Sampler>(
                                      &bench::CachedYule(n_leaves))).first;
  }
  return *it->second;
}

double MaxRootPathWeight(const PhyloTree& tree) {
  double max_w = 0;
  for (double w : tree.RootPathWeights()) max_w = std::max(max_w, w);
  return max_w;
}

void BM_SampleUniform(benchmark::State& state) {
  const Sampler& sampler =
      CachedSampler(static_cast<uint32_t>(state.range(0)));
  size_t k = static_cast<size_t>(state.range(1));
  Rng rng(4);
  for (auto _ : state) {
    auto s = sampler.SampleUniform(k, &rng);
    if (!s.ok()) state.SkipWithError(s.status().ToString().c_str());
    benchmark::DoNotOptimize(s);
  }
  state.counters["leaves"] = static_cast<double>(state.range(0));
  state.counters["k"] = static_cast<double>(k);
}

void BM_SampleWithRespectToTime(benchmark::State& state) {
  uint32_t n = static_cast<uint32_t>(state.range(0));
  const Sampler& sampler = CachedSampler(n);
  const PhyloTree& tree = bench::CachedYule(n);
  // The frontier sits at range(2) percent of the max root-path weight.
  double time = MaxRootPathWeight(tree) *
                static_cast<double>(state.range(2)) / 100.0;
  size_t k = static_cast<size_t>(state.range(1));
  const size_t frontier_size = sampler.TimeFrontier(time).size();
  Rng rng(5);
  for (auto _ : state) {
    auto s = sampler.SampleWithRespectToTime(k, time, &rng);
    if (!s.ok()) state.SkipWithError(s.status().ToString().c_str());
    benchmark::DoNotOptimize(s);
  }
  state.counters["leaves"] = static_cast<double>(n);
  state.counters["k"] = static_cast<double>(k);
  state.counters["frontier"] = static_cast<double>(frontier_size);
}

void BM_TimeFrontier(benchmark::State& state) {
  uint32_t n = static_cast<uint32_t>(state.range(0));
  const Sampler& sampler = CachedSampler(n);
  const PhyloTree& tree = bench::CachedYule(n);
  double time = MaxRootPathWeight(tree) *
                static_cast<double>(state.range(1)) / 100.0;
  size_t frontier_size = 0;
  for (auto _ : state) {
    auto frontier = sampler.TimeFrontier(time);
    frontier_size = frontier.size();
    benchmark::DoNotOptimize(frontier);
  }
  state.counters["frontier"] = static_cast<double>(frontier_size);
}

void BM_TimeIndexBuild(benchmark::State& state) {
  // The first time query on a fresh Sampler: it builds the time index.
  uint32_t n = static_cast<uint32_t>(state.range(0));
  const PhyloTree& tree = bench::CachedYule(n);
  const double time = MaxRootPathWeight(tree) * 0.5;
  for (auto _ : state) {
    state.PauseTiming();
    auto sampler = std::make_unique<Sampler>(&tree);
    state.ResumeTiming();
    auto frontier = sampler->TimeFrontier(time);
    benchmark::DoNotOptimize(frontier);
    state.PauseTiming();
    sampler.reset();
    state.ResumeTiming();
  }
  state.counters["leaves"] = static_cast<double>(n);
}

// Args: {tree leaves, k}.
BENCHMARK(BM_SampleUniform)
    ->Args({10000, 100})->Args({10000, 1000})
    ->Args({100000, 100})->Args({100000, 1000})->Args({100000, 4096})
    ->Args({500000, 1000});
// Args: {tree leaves, k, time as % of height}. At 90% the frontier
// holds thousands of nodes, as perfbench's sample_time queries do.
BENCHMARK(BM_SampleWithRespectToTime)
    ->Args({10000, 100, 50})->Args({10000, 1000, 50})
    ->Args({100000, 100, 50})->Args({100000, 1000, 50})
    ->Args({30000, 32, 90})->Args({100000, 64, 90})
    ->Args({100000, 1000, 90})
    ->Unit(benchmark::kMicrosecond);
// Args: {tree leaves, time as % of height}.
BENCHMARK(BM_TimeFrontier)
    ->Args({100000, 25})->Args({100000, 50})->Args({100000, 75})
    ->Args({100000, 90})
    ->Unit(benchmark::kMicrosecond);
// Args: {tree leaves}.
BENCHMARK(BM_TimeIndexBuild)
    ->Arg(30000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace crimson
