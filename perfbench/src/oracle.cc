#include "oracle.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_set>

#include "common/overloaded.h"
#include "query/clade.h"
#include "recon/rf_distance.h"
#include "report.h"
#include "tree/newick.h"

namespace perfbench {

using crimson::NodeId;
using crimson::PhyloTree;
using crimson::QueryResult;
using crimson::Result;
using crimson::Status;

std::unique_ptr<Replica> Replica::Build(const std::string& newick) {
  std::unique_ptr<Replica> r(new Replica());
  auto tree = crimson::ParseNewick(newick);
  if (!tree.ok()) {
    fprintf(stderr, "replica parse failed: %s\n",
            tree.status().ToString().c_str());
    exit(2);
  }
  r->tree_ = std::move(*tree);
  Status built = r->scheme_.Build(r->tree_);
  if (!built.ok()) {
    fprintf(stderr, "replica labeling failed: %s\n",
            built.ToString().c_str());
    exit(2);
  }
  r->names_ = crimson::NameIndex::Build(r->tree_);
  r->sampler_ = std::make_unique<crimson::Sampler>(&r->tree_);
  r->projector_ =
      std::make_unique<crimson::TreeProjector>(&r->tree_, &r->scheme_);
  r->matcher_ =
      std::make_unique<crimson::PatternMatcher>(r->projector_.get(), &r->names_);
  return r;
}

Result<QueryResult> Replica::Compute(const crimson::QueryRequest& request,
                                     crimson::Rng* rng) const {
  auto resolve = [&](const std::vector<std::string>& species)
      -> Result<std::vector<NodeId>> {
    std::vector<NodeId> out;
    for (const std::string& s : species) {
      NodeId n = names_.Find(tree_, s);
      if (n == crimson::kNoNode) return Status::NotFound(s);
      out.push_back(n);
    }
    return out;
  };
  auto names_of = [&](const std::vector<NodeId>& nodes) {
    crimson::SampleAnswer answer;
    for (NodeId n : nodes) answer.species.emplace_back(tree_.name(n));
    return QueryResult(std::move(answer));
  };
  return std::visit(
      crimson::Overloaded{
          [&](const crimson::LcaQuery& q) -> Result<QueryResult> {
            CRIMSON_ASSIGN_OR_RETURN(std::vector<NodeId> nodes,
                                     resolve({q.a, q.b}));
            CRIMSON_ASSIGN_OR_RETURN(NodeId lca,
                                     scheme_.Lca(nodes[0], nodes[1]));
            crimson::LcaAnswer answer;
            answer.node = lca;
            answer.name = std::string(tree_.name(lca));
            return QueryResult(std::move(answer));
          },
          [&](const crimson::ProjectQuery& q) -> Result<QueryResult> {
            CRIMSON_ASSIGN_OR_RETURN(std::vector<NodeId> nodes,
                                     resolve(q.species));
            CRIMSON_ASSIGN_OR_RETURN(PhyloTree projection,
                                     projector_->Project(nodes));
            return QueryResult(crimson::ProjectAnswer{std::move(projection)});
          },
          [&](const crimson::SampleUniformQuery& q) -> Result<QueryResult> {
            CRIMSON_ASSIGN_OR_RETURN(std::vector<NodeId> nodes,
                                     sampler_->SampleUniform(q.k, rng));
            return names_of(nodes);
          },
          [&](const crimson::SampleTimeQuery& q) -> Result<QueryResult> {
            CRIMSON_ASSIGN_OR_RETURN(
                std::vector<NodeId> nodes,
                sampler_->SampleWithRespectToTime(q.k, q.time, rng));
            return names_of(nodes);
          },
          [&](const crimson::CladeQuery& q) -> Result<QueryResult> {
            CRIMSON_ASSIGN_OR_RETURN(std::vector<NodeId> nodes,
                                     resolve(q.species));
            CRIMSON_ASSIGN_OR_RETURN(
                crimson::Clade clade,
                crimson::MinimalSpanningClade(tree_, scheme_, nodes));
            crimson::CladeAnswer answer;
            answer.root = clade.root;
            answer.node_count = clade.nodes.size();
            for (NodeId n : clade.nodes) {
              if (tree_.is_leaf(n)) ++answer.leaf_count;
            }
            return QueryResult(std::move(answer));
          },
          [&](const crimson::PatternQuery& q) -> Result<QueryResult> {
            CRIMSON_ASSIGN_OR_RETURN(PhyloTree pattern,
                                     crimson::ParseNewick(q.pattern_newick));
            CRIMSON_ASSIGN_OR_RETURN(
                crimson::PatternMatcher::MatchResult match,
                matcher_->Match(pattern, 1e-9, q.match_weights));
            crimson::PatternAnswer answer;
            answer.exact = match.exact;
            answer.projection = std::move(match.projection);
            if (!answer.exact && pattern.LeafCount() >= 3) {
              Result<crimson::RfResult> rf =
                  crimson::RobinsonFoulds(pattern, answer.projection);
              if (rf.ok()) answer.rf_normalized = rf->normalized;
            }
            return QueryResult(std::move(answer));
          },
      },
      request);
}

bool Replica::ValidSample(const crimson::QueryRequest& request,
                          const QueryResult& answer) const {
  size_t k = 0;
  if (const auto* q = std::get_if<crimson::SampleUniformQuery>(&request)) {
    k = q->k;
  } else if (const auto* q = std::get_if<crimson::SampleTimeQuery>(&request)) {
    k = q->k;
  } else {
    return false;
  }
  const auto* sample = std::get_if<crimson::SampleAnswer>(&answer);
  if (sample == nullptr || sample->species.size() != k) return false;
  std::unordered_set<NodeId> seen;
  for (const std::string& name : sample->species) {
    NodeId n = names_.FindLeaf(tree_, name);
    if (n == crimson::kNoNode || !seen.insert(n).second) return false;
  }
  return true;
}

namespace {

uint64_t HashU64(uint64_t v, uint64_t h) { return HashBytes(&v, sizeof(v), h); }

uint64_t HashDouble(double v, uint64_t h) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return HashU64(bits, h);
}

uint64_t HashString(std::string_view s, uint64_t h) {
  h = HashU64(s.size(), h);
  return HashBytes(s.data(), s.size(), h);
}

uint64_t HashTree(const PhyloTree& t, uint64_t h) {
  h = HashU64(t.size(), h);
  for (NodeId n = 0; n < t.size(); ++n) {
    h = HashU64(t.parent(n), h);
    h = HashDouble(t.edge_length(n), h);
    h = HashString(t.name(n), h);
  }
  return h;
}

}  // namespace

uint64_t AnswerHash(const QueryResult& answer) {
  uint64_t h = HashU64(answer.index(), 0xcbf29ce484222325ULL);
  return std::visit(
      crimson::Overloaded{
          [&](const crimson::LcaAnswer& a) {
            return HashString(a.name, HashU64(a.node, h));
          },
          [&](const crimson::ProjectAnswer& a) {
            return HashTree(a.projection, h);
          },
          [&](const crimson::SampleAnswer& a) {
            for (const std::string& s : a.species) h = HashString(s, h);
            return h;
          },
          [&](const crimson::CladeAnswer& a) {
            h = HashU64(a.root, h);
            h = HashU64(a.node_count, h);
            return HashU64(a.leaf_count, h);
          },
          [&](const crimson::PatternAnswer& a) {
            h = HashU64(a.exact ? 1 : 0, h);
            h = HashDouble(a.rf_normalized, h);
            return HashTree(a.projection, h);
          },
      },
      answer);
}

void ReplayTreeLayers(const std::vector<std::string>& newicks,
                      Metrics* m) {
  double parse_s = 0, build_s = 0, encode_s = 0, decode_s = 0;
  double label_bytes = 0, tree_bytes = 0, nodes = 0;
  auto check = [](const Status& s) {
    if (!s.ok()) {
      fprintf(stderr, "layer replay failed: %s\n", s.ToString().c_str());
      exit(2);
    }
  };
  for (const std::string& newick : newicks) {
    double t0 = NowSeconds();
    auto tree = crimson::ParseNewick(newick);
    parse_s += NowSeconds() - t0;
    check(tree.status());
    crimson::LayeredDeweyScheme scheme(8);
    t0 = NowSeconds();
    check(scheme.Build(*tree));
    build_s += NowSeconds() - t0;
    std::string blob;
    t0 = NowSeconds();
    scheme.EncodeTo(&blob);
    encode_s += NowSeconds() - t0;
    crimson::LayeredDeweyScheme decoded(8);
    t0 = NowSeconds();
    check(decoded.DecodeFrom(crimson::Slice(blob)));
    decode_s += NowSeconds() - t0;
    tree->ShrinkToFit();
    label_bytes += blob.size();
    tree_bytes += tree->MemoryFootprintBytes();
    nodes += tree->size();
  }
  const double n = static_cast<double>(newicks.size());
  m->Set("tree.parse_ms", parse_s * 1e3 / n, "ms");
  m->Set("tree.bytes_per_node", tree_bytes / nodes, "B/node");
  m->Set("labeling.build_ms", build_s * 1e3 / n, "ms");
  m->Set("labeling.encode_ms", encode_s * 1e3 / n, "ms");
  m->Set("labeling.decode_ms", decode_s * 1e3 / n, "ms");
  m->Set("labeling.bytes_per_node", label_bytes / nodes, "B/node");
}

}  // namespace perfbench
