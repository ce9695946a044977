// The typed query layer of the Crimson session API. Every structure
// query is a value in the QueryRequest sum type; the session runs all
// of them through one per-query pipeline (behind Crimson::Execute and
// Crimson::ExecuteBatch), which is also the single place where query
// history is recorded. Because the request itself is stored
// (serialized) in the Query Repository, RerunQuery replays the typed
// value instead of re-parsing per-kind strings.

#ifndef CRIMSON_CRIMSON_QUERY_REQUEST_H_
#define CRIMSON_CRIMSON_QUERY_REQUEST_H_

#include <functional>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"
#include "tree/phylo_tree.h"

namespace crimson {

// -- requests ---------------------------------------------------------------

/// LCA of two species (paper §2.1).
struct LcaQuery {
  std::string a;
  std::string b;
};

/// Projection of the tree induced by the named species (Fig. 2).
struct ProjectQuery {
  std::vector<std::string> species;
};

/// Uniform random species sample.
struct SampleUniformQuery {
  size_t k = 0;
};

/// Sampling with respect to evolutionary time (paper §2.2).
struct SampleTimeQuery {
  size_t k = 0;
  double time = 0;
};

/// Minimal spanning clade of the named species.
struct CladeQuery {
  std::vector<std::string> species;
};

/// Tree pattern match against a Newick pattern (paper §2.2).
struct PatternQuery {
  std::string pattern_newick;
  bool match_weights = false;
};

using QueryRequest =
    std::variant<LcaQuery, ProjectQuery, SampleUniformQuery, SampleTimeQuery,
                 CladeQuery, PatternQuery>;

/// Stable kind tags, indexed by QueryRequest alternative -- the Query
/// Repository key, unchanged from the string-API era so old histories
/// stay replayable, and the <kind> of the query.<kind>.* metrics.
inline constexpr std::string_view kQueryKindNames[] = {
    "lca", "project", "sample_uniform", "sample_time", "clade",
    "pattern_match"};
static_assert(std::size(kQueryKindNames) ==
              std::variant_size_v<QueryRequest>);

/// The request's kind tag (see kQueryKindNames).
std::string_view QueryKindName(const QueryRequest& request);

// -- results ----------------------------------------------------------------

struct LcaAnswer {
  NodeId node = kNoNode;
  std::string name;
};

struct ProjectAnswer {
  PhyloTree projection;
};

struct SampleAnswer {
  std::vector<std::string> species;
};

struct CladeAnswer {
  NodeId root = kNoNode;
  size_t node_count = 0;
  size_t leaf_count = 0;
};

struct PatternAnswer {
  bool exact = false;
  double rf_normalized = 0.0;  // similarity of pattern vs projection
  PhyloTree projection;
};

using QueryResult =
    std::variant<LcaAnswer, ProjectAnswer, SampleAnswer, CladeAnswer,
                 PatternAnswer>;

/// One-line result summary stored in the query history (identical
/// strings to the pre-handle facade).
std::string SummarizeResult(const QueryResult& result);

/// Full textual rendering, used by RerunQuery: Newick for projections,
/// the comma-joined species list for samples, the summary otherwise.
std::string RenderResult(const QueryResult& result);

// -- history (de)serialization ----------------------------------------------
//
// History rows store parameters as "k=v&k=v". Values are percent-
// escaped so every name round-trips: '%' -> %25 and '&' -> %26 in every
// value, plus ',' -> %2C inside species-list elements (the list itself
// is comma-joined; Newick patterns keep their commas). A value without
// these bytes is stored unchanged, so rows and cache keys written
// before escaping existed keep their bytes; decoding turns only these
// three escapes back into bytes and leaves any other '%' literal.

/// Escapes one scalar (non-list) parameter value.
std::string EscapeParam(std::string_view value);

/// Inverse of the escaping above, for scalars and list elements alike.
std::string UnescapeParam(std::string_view value);

/// Splits "k=v&k=v" at '&' and each pair's first '='. Values come back
/// still escaped: unescape scalars with UnescapeParam; split a species
/// list at ',' first.
std::map<std::string, std::string, std::less<>> SplitParams(
    std::string_view params);

/// Encodes a request as the history parameter string:
/// "tree=<escaped name>" followed by EncodeQueryBody. The canonical
/// encoding: it is also the slow-query log's params field, and the
/// result-cache key (after the kind) with the tree id for the name.
std::string EncodeQueryParams(const std::string& tree_name,
                              const QueryRequest& request);

/// The kind-specific part of the encoding ("&a=...&b=..."). The session
/// encodes each request once and prefixes this body for the cache key
/// and the history params.
std::string EncodeQueryBody(const QueryRequest& request);

/// Decodes a history entry back into (tree name, typed request).
Result<std::pair<std::string, QueryRequest>> DecodeQueryRequest(
    const std::string& kind, const std::string& params);

}  // namespace crimson

#endif  // CRIMSON_CRIMSON_QUERY_REQUEST_H_
