#include "crimson/query_request.h"

#include <map>

#include "common/overloaded.h"
#include "common/string_util.h"
#include "tree/newick.h"

namespace crimson {

namespace {

void AppendEscaped(std::string* out, std::string_view value,
                   bool list_element) {
  for (char c : value) {
    if (c == '%') {
      out->append("%25");
    } else if (c == '&') {
      out->append("%26");
    } else if (c == ',' && list_element) {
      out->append("%2C");
    } else {
      out->push_back(c);
    }
  }
}

void AppendSpeciesList(std::string* out,
                       const std::vector<std::string>& species) {
  for (size_t i = 0; i < species.size(); ++i) {
    if (i) out->push_back(',');
    AppendEscaped(out, species[i], /*list_element=*/true);
  }
}

std::vector<std::string> SplitSpecies(std::string_view joined) {
  std::vector<std::string> out;
  for (std::string_view s : StrSplit(joined, ',')) {
    if (!s.empty()) out.push_back(UnescapeParam(s));
  }
  return out;
}

}  // namespace

std::string_view QueryKindName(const QueryRequest& request) {
  return kQueryKindNames[request.index()];
}

std::string SummarizeResult(const QueryResult& result) {
  return std::visit(
      Overloaded{
          [](const LcaAnswer& a) {
            return StrFormat("lca node=%u name=%s", a.node, a.name.c_str());
          },
          [](const ProjectAnswer& a) {
            return StrFormat("projection nodes=%zu", a.projection.size());
          },
          [](const SampleAnswer& a) {
            return StrFormat("sampled %zu species", a.species.size());
          },
          [](const CladeAnswer& a) {
            return StrFormat("clade root=%u nodes=%zu leaves=%zu", a.root,
                             a.node_count, a.leaf_count);
          },
          [](const PatternAnswer& a) {
            return StrFormat("exact=%d rf=%.4f", a.exact ? 1 : 0,
                             a.rf_normalized);
          },
      },
      result);
}

std::string RenderResult(const QueryResult& result) {
  if (const auto* p = std::get_if<ProjectAnswer>(&result)) {
    return WriteNewick(p->projection);
  }
  if (const auto* s = std::get_if<SampleAnswer>(&result)) {
    return StrJoin(s->species, ",");
  }
  if (const auto* c = std::get_if<CladeAnswer>(&result)) {
    return StrFormat("clade root=%u nodes=%zu", c->root, c->node_count);
  }
  return SummarizeResult(result);  // LCA and pattern render as summaries
}

std::string EscapeParam(std::string_view value) {
  std::string out;
  AppendEscaped(&out, value, /*list_element=*/false);
  return out;
}

std::string UnescapeParam(std::string_view value) {
  std::string out;
  for (size_t i = 0; i < value.size(); ++i) {
    const std::string_view next = value.substr(i, 3);
    char c = value[i];
    if (next == "%25" || next == "%26" || next == "%2C") {
      c = next == "%25" ? '%' : next == "%26" ? '&' : ',';
      i += 2;
    }
    out.push_back(c);
  }
  return out;
}

std::map<std::string, std::string, std::less<>> SplitParams(
    std::string_view params) {
  std::map<std::string, std::string, std::less<>> kv;
  for (std::string_view pair : StrSplit(params, '&')) {
    size_t eq = pair.find('=');
    if (eq == std::string_view::npos) continue;
    kv[std::string(pair.substr(0, eq))] = std::string(pair.substr(eq + 1));
  }
  return kv;
}

std::string EncodeQueryParams(const std::string& tree_name,
                              const QueryRequest& request) {
  return "tree=" + EscapeParam(tree_name) + EncodeQueryBody(request);
}

std::string EncodeQueryBody(const QueryRequest& request) {
  std::string out;
  std::visit(
      Overloaded{
          [&](const LcaQuery& q) {
            out += "&a=";
            AppendEscaped(&out, q.a, /*list_element=*/false);
            out += "&b=";
            AppendEscaped(&out, q.b, /*list_element=*/false);
          },
          [&](const ProjectQuery& q) {
            out += "&species=";
            AppendSpeciesList(&out, q.species);
          },
          [&](const SampleUniformQuery& q) {
            out += StrFormat("&k=%zu", q.k);
          },
          [&](const SampleTimeQuery& q) {
            out += StrFormat("&k=%zu&time=%.17g", q.k, q.time);
          },
          [&](const CladeQuery& q) {
            out += "&species=";
            AppendSpeciesList(&out, q.species);
          },
          [&](const PatternQuery& q) {
            out += "&pattern=";
            AppendEscaped(&out, q.pattern_newick, /*list_element=*/false);
            out += q.match_weights ? "&weights=1" : "&weights=0";
          },
      },
      request);
  return out;
}

Result<std::pair<std::string, QueryRequest>> DecodeQueryRequest(
    const std::string& kind, const std::string& params) {
  std::map<std::string, std::string, std::less<>> kv = SplitParams(params);
  auto value = [&](std::string_view key) {
    auto it = kv.find(key);
    return it == kv.end() ? std::string() : UnescapeParam(it->second);
  };
  std::string tree = value("tree");
  if (tree.empty()) {
    return Status::InvalidArgument(
        StrFormat("query params missing tree name: '%s'", params.c_str()));
  }
  QueryRequest request;
  if (kind == "lca") {
    request = LcaQuery{value("a"), value("b")};
  } else if (kind == "project") {
    request = ProjectQuery{SplitSpecies(kv["species"])};
  } else if (kind == "sample_uniform") {
    CRIMSON_ASSIGN_OR_RETURN(int64_t k, ParseInt64(value("k")));
    request = SampleUniformQuery{static_cast<size_t>(k)};
  } else if (kind == "sample_time") {
    CRIMSON_ASSIGN_OR_RETURN(int64_t k, ParseInt64(value("k")));
    CRIMSON_ASSIGN_OR_RETURN(double t, ParseDouble(value("time")));
    request = SampleTimeQuery{static_cast<size_t>(k), t};
  } else if (kind == "clade") {
    request = CladeQuery{SplitSpecies(kv["species"])};
  } else if (kind == "pattern_match") {
    request = PatternQuery{value("pattern"), value("weights") == "1"};
  } else {
    return Status::Unimplemented(
        StrFormat("cannot decode query kind '%s'", kind.c_str()));
  }
  return std::make_pair(std::move(tree), std::move(request));
}

}  // namespace crimson
