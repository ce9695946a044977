// Seeded input generation. Everything the program receives -- Newick
// documents, species sequences, typed query requests and the order
// they are issued in -- is derived here from the --seed argument, so
// the same seed gives byte-identical inputs on every commit.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "crimson/query_request.h"
#include "tree/phylo_tree.h"

namespace perfbench {

/// Deterministic 64-bit mix of a seed with stream coordinates.
uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b = 0);

/// Newick text of a simulated Yule tree with `leaves` leaves
/// (2 * leaves - 1 nodes).
std::string YuleNewick(uint64_t seed, uint32_t leaves);

/// Aligned leaf sequences (JC69) evolved down the tree in `newick`.
std::map<std::string, std::string> LeafSequences(uint64_t seed,
                                                 const std::string& newick,
                                                 size_t length);

/// The six request kinds, in QueryRequest variant order.
inline constexpr int kKindCount = 6;
const char* KindName(int kind);
inline bool IsSamplingKind(int kind) { return kind == 2 || kind == 3; }

/// `count` distinct requests against the tree; request r has kind
/// r % 6, so every kind gets an equal share and a Zipf draw over r
/// spreads hot requests evenly across kinds.
std::vector<crimson::QueryRequest> MakeRequests(const crimson::PhyloTree& tree,
                                                size_t count, uint64_t seed);

/// Zipf(s) over ranks [0, n): rank i has weight 1 / (i + 1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Draw(crimson::Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// One client's closed-loop request stream: batches of `batch` request
/// indices against one tree. Tree choice is uniform, request choice is
/// Zipf over each tree's request list.
class RequestStream {
 public:
  RequestStream(uint64_t seed, size_t trees, const Zipf* zipf, size_t batch)
      : rng_(seed), trees_(trees), zipf_(zipf), batch_(batch) {}
  /// Fills `requests` with the next batch; returns its tree index.
  size_t Next(std::vector<uint32_t>* requests);

 private:
  crimson::Rng rng_;
  size_t trees_;
  const Zipf* zipf_;
  size_t batch_;
};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
