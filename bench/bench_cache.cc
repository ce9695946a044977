// bench_cache: the adaptive query cache under a Zipfian hot-query
// workload, against the same session with the cache disabled.
//
// A database of gold trees with sequences is built once. The timed
// phase replays one precomputed Zipfian schedule of cacheable queries
// (LCA, projection, clade, pattern match) twice on fresh sessions:
//
//   cached   -- the default CrimsonOptions::query_cache_bytes budget;
//              the skewed schedule concentrates on a hot set, so most
//              executions become result-cache hits;
//   uncached -- query_cache_bytes = 0: every query executes in full,
//              the pre-cache behavior.
//
// Byte identity: after the timed phase both sessions run all six
// query kinds per tree in one fixed order. Tickets advance identically
// in both modes (cache hits consume tickets too), so every rendering
// -- sampling draws included -- must match byte for byte.
//
// Invalidation: a final phase flips one tree name between two
// topologies with DropTree + re-store, querying after every flip; an
// answer matching the *previous* topology is a stale read. The cache
// must serve zero of them.
//
// Writes BENCH_cache.json. With --gate, exits non-zero unless the
// cached schedule sustains >= 1.5x the uncached throughput (the CI
// smoke contract) with identity intact and zero stale reads. The bar
// was 3x before the packed-tree / NameIndex refactor made the uncached
// path itself ~2.3x faster (name resolution stopped being O(n)); the
// gate guards the cache's usefulness, not the baseline's slowness.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "crimson/crimson.h"
#include "sim/seq_evolve.h"
#include "sim/tree_sim.h"

namespace crimson {
namespace {

std::string TreeName(int i) { return StrFormat("gold%d", i); }

/// All six query kinds against an n-leaf Yule tree (leaves S0..).
std::vector<QueryRequest> SixKinds(uint32_t n_leaves) {
  const std::string a = StrFormat("S%u", n_leaves / 5);
  const std::string b = StrFormat("S%u", n_leaves - 2);
  return {
      QueryRequest(LcaQuery{a, b}),
      QueryRequest(ProjectQuery{{"S0", "S1", a, b}}),
      QueryRequest(SampleUniformQuery{10}),
      QueryRequest(SampleTimeQuery{8, 0.5}),
      QueryRequest(CladeQuery{{"S2", "S3", a}}),
      QueryRequest(PatternQuery{"(S1,S2);", false}),
  };
}

/// The cacheable query pool for one tree: distinct projections,
/// pattern matches, LCAs, and clades, weighted toward the projection /
/// pattern kinds whose execution cost the cache actually hides.
std::vector<QueryRequest> CacheablePool(uint32_t n_leaves) {
  std::vector<QueryRequest> pool;
  // Projections dominate the pool: each species name is resolved by a
  // linear scan over the tree, so the execution cost the cache hides
  // grows with tree size while the hit path stays O(result).
  for (int v = 0; v < 4; ++v) {
    std::vector<std::string> species;
    for (uint32_t s = static_cast<uint32_t>(v); s < n_leaves;
         s += n_leaves / 16) {
      species.push_back(StrFormat("S%u", s));
    }
    pool.emplace_back(ProjectQuery{species});
  }
  pool.emplace_back(PatternQuery{"(S1,S2);", true});
  pool.emplace_back(
      PatternQuery{StrFormat("(S3,S%u);", n_leaves / 2), true});
  pool.emplace_back(LcaQuery{"S1", StrFormat("S%u", n_leaves - 1)});
  pool.emplace_back(LcaQuery{"S4", StrFormat("S%u", n_leaves / 3)});
  pool.emplace_back(
      CladeQuery{{"S5", "S6", StrFormat("S%u", n_leaves / 4)}});
  return pool;
}

bool BuildDatabase(const std::string& path, int n_trees, uint32_t n_leaves) {
  std::remove(path.c_str());
  CrimsonOptions opts;
  opts.db_path = path;
  auto session_or = Crimson::Open(opts);
  if (!session_or.ok()) return false;
  auto session = std::move(session_or).value();
  for (int i = 0; i < n_trees; ++i) {
    Rng rng(0xC01D + i);
    YuleOptions yule;
    yule.n_leaves = n_leaves;
    auto tree = SimulateYule(yule, &rng);
    if (!tree.ok()) return false;
    SeqEvolveOptions seq;
    seq.seq_length = 120;
    auto sequences = SequenceEvolver::Create(seq)->EvolveLeaves(*tree, &rng);
    if (!sequences.ok()) return false;
    if (!session->LoadTree(TreeName(i), *tree).ok()) return false;
    if (!session->AppendSpeciesData(TreeName(i), *sequences).ok()) {
      return false;
    }
  }
  return session->Flush().ok();
}

/// One (tree, query) draw of the replayed schedule.
struct Op {
  int tree = 0;
  int query = 0;
};

/// A Zipf(s=1.1) schedule over the flattened (tree x query) pool --
/// the classic skew: a few hot queries dominate, a long tail keeps
/// the cache honest about misses and evictions.
std::vector<Op> ZipfSchedule(int n_trees, int pool_size, int ops,
                             uint64_t seed) {
  const int universe = n_trees * pool_size;
  std::vector<double> cdf(universe);
  double total = 0;
  for (int i = 0; i < universe; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
    cdf[i] = total;
  }
  // Decorrelate rank from (tree, query) position so the hot set spans
  // trees and kinds.
  std::vector<int> slot(universe);
  for (int i = 0; i < universe; ++i) slot[i] = i;
  Rng shuffle_rng(seed ^ 0x5A5A);
  for (int i = universe - 1; i > 0; --i) {
    std::swap(slot[i],
              slot[static_cast<int>(shuffle_rng.Uniform(
                  static_cast<uint64_t>(i + 1)))]);
  }
  Rng rng(seed);
  std::vector<Op> schedule;
  schedule.reserve(ops);
  for (int i = 0; i < ops; ++i) {
    const double u =
        static_cast<double>(rng.Next() >> 11) / 9007199254740992.0 * total;
    const int rank = static_cast<int>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const int flat = slot[std::min(rank, universe - 1)];
    schedule.push_back(Op{flat / pool_size, flat % pool_size});
  }
  return schedule;
}

struct PhaseResult {
  double seconds = 0;
  double ops_per_sec = 0;
  uint64_t hits = 0;
  std::vector<std::string> renders;      // timed schedule, per op
  std::vector<std::vector<std::string>> six;  // per tree, per kind
  bool ok = false;
};

/// Replays the schedule on a fresh session with the given cache
/// budget (timed), then runs the six-kind identity batches (untimed).
PhaseResult RunPhase(const std::string& path, uint64_t cache_bytes,
                     int n_trees, uint32_t n_leaves,
                     const std::vector<Op>& schedule) {
  PhaseResult out;
  CrimsonOptions opts;
  opts.db_path = path;
  opts.seed = 42;
  opts.query_cache_bytes = cache_bytes;
  auto session_or = Crimson::Open(opts);
  if (!session_or.ok()) {
    fprintf(stderr, "session open failed: %s\n",
            session_or.status().ToString().c_str());
    return out;
  }
  auto session = std::move(session_or).value();

  std::vector<TreeRef> refs(n_trees);
  for (int i = 0; i < n_trees; ++i) {
    auto ref = session->OpenTree(TreeName(i));
    if (!ref.ok()) return out;
    refs[i] = *ref;
  }
  const std::vector<QueryRequest> pool = CacheablePool(n_leaves);

  // Results are kept as values during the timed section and rendered
  // afterwards, so the (mode-independent) rendering cost does not
  // dilute the contrast.
  std::vector<QueryResult> raw;
  raw.reserve(schedule.size());
  auto start = std::chrono::steady_clock::now();
  for (const Op& op : schedule) {
    auto r = session->Execute(refs[op.tree], pool[op.query]);
    if (!r.ok()) {
      fprintf(stderr, "query failed: %s\n", r.status().ToString().c_str());
      return out;
    }
    raw.push_back(std::move(*r));
  }
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  out.ops_per_sec = schedule.size() / out.seconds;
  out.hits = session->SnapshotMetrics().counter("cache.hits");
  out.renders.reserve(raw.size());
  for (const QueryResult& r : raw) out.renders.push_back(RenderResult(r));

  // Identity material: all six kinds per tree in one fixed order.
  // Tickets advanced identically through the schedule above, so the
  // sampling draws here must agree across cache modes too.
  const std::vector<QueryRequest> requests = SixKinds(n_leaves);
  out.six.resize(n_trees);
  for (int i = 0; i < n_trees; ++i) {
    auto results = session->ExecuteBatch(refs[i], requests);
    for (auto& r : results) {
      if (!r.ok()) {
        fprintf(stderr, "identity query failed: %s\n",
                r.status().ToString().c_str());
        return out;
      }
      out.six[i].push_back(RenderResult(*r));
    }
  }
  out.ok = true;
  return out;
}

/// DropTree + re-store flip loop: every post-flip answer must match
/// the topology just stored, never the previous one. Returns the
/// number of stale answers (-1 on infrastructure failure).
int64_t RunInvalidationPhase(const std::string& path, int flips) {
  // Two topologies whose Spy/Bha LCA renders differently.
  const char* kTopoA =
      "(Syn:2.5,((Lla:1,Spy:1):0.5,Bha:1.5):0.75,Bsu:1.25)root;";
  const char* kTopoB =
      "((Syn:1,Bsu:1):0.5,(Lla:2,(Spy:1,Bha:1):0.5):0.25)root;";
  const QueryRequest probe{LcaQuery{"Spy", "Bha"}};

  // Expected renderings from a cache-off throwaway session.
  std::string expected[2];
  {
    CrimsonOptions opts;
    opts.seed = 1;
    opts.query_cache_bytes = 0;
    auto s = Crimson::Open(opts);
    if (!s.ok()) return -1;
    for (int v = 0; v < 2; ++v) {
      auto ref = (*s)->LoadNewick(StrFormat("v%d", v), v ? kTopoB : kTopoA);
      if (!ref.ok()) return -1;
      auto r = (*s)->Execute(ref->ref, probe);
      if (!r.ok()) return -1;
      expected[v] = RenderResult(*r);
    }
    if (expected[0] == expected[1]) return -1;
  }

  CrimsonOptions opts;
  opts.db_path = path;
  opts.seed = 42;
  auto session_or = Crimson::Open(opts);
  if (!session_or.ok()) return -1;
  auto session = std::move(session_or).value();

  int64_t stale = 0;
  for (int flip = 0; flip < flips; ++flip) {
    const int v = flip % 2;
    if (flip > 0 && !session->DropTree("flip").ok()) return -1;
    auto load = session->LoadNewick("flip", v ? kTopoB : kTopoA);
    if (!load.ok()) return -1;
    // Query twice: the first answer populates the cache, the second
    // must hit it -- and both must match the topology just stored.
    for (int q = 0; q < 2; ++q) {
      auto r = session->Execute(load->ref, probe);
      if (!r.ok()) return -1;
      if (RenderResult(*r) != expected[v]) ++stale;
    }
  }
  if (!session->DropTree("flip").ok()) return -1;
  return stale;
}

}  // namespace

int Run(int argc, char** argv) {
  int n_trees = 6;
  uint32_t n_leaves = 480;
  int ops = 6000;
  int flips = 60;
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--gate") == 0) gate = true;
    if (strncmp(argv[i], "--trees=", 8) == 0) n_trees = atoi(argv[i] + 8);
    if (strncmp(argv[i], "--leaves=", 9) == 0) {
      n_leaves = static_cast<uint32_t>(atoi(argv[i] + 9));
    }
    if (strncmp(argv[i], "--ops=", 6) == 0) ops = atoi(argv[i] + 6);
    if (strncmp(argv[i], "--flips=", 8) == 0) flips = atoi(argv[i] + 8);
  }

  const std::string path = "/tmp/crimson_bench_cache.db";
  if (!BuildDatabase(path, n_trees, n_leaves)) {
    fprintf(stderr, "database build failed\n");
    return 1;
  }

  const int pool_size = static_cast<int>(CacheablePool(n_leaves).size());
  const std::vector<Op> schedule =
      ZipfSchedule(n_trees, pool_size, ops, 0x21F);

  PhaseResult uncached =
      RunPhase(path, /*cache_bytes=*/0, n_trees, n_leaves, schedule);
  PhaseResult cached = RunPhase(path, CrimsonOptions().query_cache_bytes,
                                n_trees, n_leaves, schedule);
  if (!uncached.ok || !cached.ok) return 1;

  const double speedup =
      cached.seconds > 0 ? uncached.seconds / cached.seconds : 0;
  const double hit_rate =
      ops > 0 ? static_cast<double>(cached.hits) / ops : 0;
  const bool identical =
      cached.renders == uncached.renders && cached.six == uncached.six;

  const int64_t stale = RunInvalidationPhase(path, flips);
  const bool pass = speedup >= 1.5 && identical && stale == 0;

  printf(
      "zipfian hot-query replay, %d trees x %u leaves, %d ops "
      "(%d-entry pool):\n"
      "  uncached (budget 0)      : %9.0f queries/s  (%.3fs)\n"
      "  cached (default budget)  : %9.0f queries/s  (%.3fs, %.1fx, "
      "%.0f%% hits)\n"
      "schedule + six-kind byte identity across modes: %s\n"
      "stale reads across %d drop/re-store flips: %lld\n"
      "gate (cached >= 1.5x, identity, zero stale): %s\n",
      n_trees, n_leaves, ops, n_trees * pool_size, uncached.ops_per_sec,
      uncached.seconds, cached.ops_per_sec, cached.seconds, speedup,
      hit_rate * 100.0, identical ? "OK" : "MISMATCH", flips,
      static_cast<long long>(stale), pass ? "PASS" : "FAIL");

  FILE* json = fopen("BENCH_cache.json", "w");
  if (json != nullptr) {
    fprintf(json,
            "{\n"
            "  \"trees\": %d,\n"
            "  \"leaves\": %u,\n"
            "  \"ops\": %d,\n"
            "  \"pool_size\": %d,\n"
            "  \"uncached_ops_per_sec\": %.2f,\n"
            "  \"cached_ops_per_sec\": %.2f,\n"
            "  \"speedup\": %.2f,\n"
            "  \"hit_rate\": %.4f,\n"
            "  \"byte_identical\": %s,\n"
            "  \"flips\": %d,\n"
            "  \"stale_reads\": %lld,\n"
            "  \"gate_min_speedup\": 1.5,\n"
            "  \"pass\": %s\n"
            "}\n",
            n_trees, n_leaves, ops, n_trees * pool_size,
            uncached.ops_per_sec, cached.ops_per_sec, speedup, hit_rate,
            identical ? "true" : "false", flips,
            static_cast<long long>(stale), pass ? "true" : "false");
    fclose(json);
  }

  std::remove(path.c_str());
  if (gate && !pass) {
    fprintf(stderr,
            "GATE FAILURE: speedup %.2fx < 1.5x, identity broken, or "
            "%lld stale reads (need 0)\n",
            speedup, static_cast<long long>(stale));
    return 1;
  }
  return 0;
}

}  // namespace crimson

int main(int argc, char** argv) { return crimson::Run(argc, argv); }
