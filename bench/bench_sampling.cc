// E6 -- sampling queries (paper §2.2): uniform species sampling and
// sampling with respect to evolutionary time, over gold-standard trees
// of increasing size and sample sizes matching reconstruction input
// scales (hundreds to thousands of species).
//
// Shape expectation: uniform sampling is O(k) after O(n) setup; time
// sampling is O(|nodes above the frontier| + |F| + k) after O(n) setup
// (leaf ranges per node), independent of the tree size below the
// frontier.

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
  // Aim the frontier mid-tree: half the max root-path weight.
  double max_w = 0;
  for (double w : tree.RootPathWeights()) max_w = std::max(max_w, w);
  double time = max_w * 0.5;
  size_t k = static_cast<size_t>(state.range(1));
  Rng rng(5);
  for (auto _ : state) {
    auto s = sampler.SampleWithRespectToTime(k, time, &rng);
    if (!s.ok()) state.SkipWithError(s.status().ToString().c_str());
    benchmark::DoNotOptimize(s);
  }
  state.counters["leaves"] = static_cast<double>(n);
  state.counters["k"] = static_cast<double>(k);
}

void BM_TimeFrontier(benchmark::State& state) {
  uint32_t n = static_cast<uint32_t>(state.range(0));
  const Sampler& sampler = CachedSampler(n);
  const PhyloTree& tree = bench::CachedYule(n);
  double max_w = 0;
  for (double w : tree.RootPathWeights()) max_w = std::max(max_w, w);
  double time = max_w * static_cast<double>(state.range(1)) / 100.0;
  size_t frontier_size = 0;
  for (auto _ : state) {
    auto frontier = sampler.TimeFrontier(time);
    frontier_size = frontier.size();
    benchmark::DoNotOptimize(frontier);
  }
  state.counters["frontier"] = static_cast<double>(frontier_size);
}

// Args: {tree leaves, k}.
BENCHMARK(BM_SampleUniform)
    ->Args({10000, 100})->Args({10000, 1000})
    ->Args({100000, 100})->Args({100000, 1000})->Args({100000, 4096})
    ->Args({500000, 1000});
BENCHMARK(BM_SampleWithRespectToTime)
    ->Args({10000, 100})->Args({10000, 1000})
    ->Args({100000, 100})->Args({100000, 1000})
    ->Unit(benchmark::kMillisecond);
// Args: {tree leaves, time as % of height}.
BENCHMARK(BM_TimeFrontier)
    ->Args({100000, 25})->Args({100000, 50})->Args({100000, 75})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace crimson
