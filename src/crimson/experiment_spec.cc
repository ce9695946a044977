#include "crimson/experiment_spec.h"

#include <algorithm>
#include <map>

#include "common/string_util.h"
#include "crimson/query_request.h"

namespace crimson {

namespace {

std::vector<std::string> SplitCsv(std::string_view joined) {
  std::vector<std::string> out;
  for (std::string_view s : StrSplit(joined, ',')) {
    if (!s.empty()) out.emplace_back(s);
  }
  return out;
}

std::string EncodeSelection(const SelectionSpec& sel) {
  switch (sel.kind) {
    case SelectionSpec::Kind::kUniform:
      return StrFormat("u:%zu", sel.k);
    case SelectionSpec::Kind::kWithRespectToTime:
      return StrFormat("t:%zu:%.17g", sel.k, sel.time);
    case SelectionSpec::Kind::kUserList:
      return "l:" + StrJoin(sel.species, ",");
  }
  return "u:0";
}

Result<SelectionSpec> DecodeSelection(std::string_view encoded) {
  SelectionSpec sel;
  size_t colon = encoded.find(':');
  if (colon != 1 || encoded.empty()) {
    return Status::InvalidArgument(
        StrFormat("bad selection '%.*s'", static_cast<int>(encoded.size()),
                  encoded.data()));
  }
  char kind = encoded[0];
  std::string_view rest = encoded.substr(2);
  switch (kind) {
    case 'u': {
      sel.kind = SelectionSpec::Kind::kUniform;
      CRIMSON_ASSIGN_OR_RETURN(int64_t k, ParseInt64(rest));
      sel.k = static_cast<size_t>(k);
      return sel;
    }
    case 't': {
      sel.kind = SelectionSpec::Kind::kWithRespectToTime;
      size_t split = rest.find(':');
      if (split == std::string_view::npos) {
        return Status::InvalidArgument(
            StrFormat("time selection needs k and time: '%.*s'",
                      static_cast<int>(encoded.size()), encoded.data()));
      }
      CRIMSON_ASSIGN_OR_RETURN(int64_t k, ParseInt64(rest.substr(0, split)));
      CRIMSON_ASSIGN_OR_RETURN(double time,
                               ParseDouble(rest.substr(split + 1)));
      sel.k = static_cast<size_t>(k);
      sel.time = time;
      return sel;
    }
    case 'l': {
      sel.kind = SelectionSpec::Kind::kUserList;
      sel.species = SplitCsv(rest);
      if (sel.species.empty()) {
        return Status::InvalidArgument("user-list selection has no species");
      }
      return sel;
    }
    default:
      return Status::InvalidArgument(
          StrFormat("unknown selection kind '%c'", kind));
  }
}

}  // namespace

Status ValidateExperimentSpec(const ExperimentSpec& spec) {
  if (spec.algorithms.empty()) {
    return Status::InvalidArgument("experiment spec needs >= 1 algorithm");
  }
  if (spec.selections.empty()) {
    return Status::InvalidArgument("experiment spec needs >= 1 selection");
  }
  if (spec.replicates == 0) {
    return Status::InvalidArgument("experiment spec needs >= 1 replicate");
  }
  // ',' ';' '|' are spec-grammar separators; '&' would corrupt the
  // k=v&k=v history params the encoded spec is embedded in.
  constexpr char kMetaChars[] = ",;|&";
  for (const std::string& name : spec.algorithms) {
    if (name.empty() || name.find_first_of(kMetaChars) != std::string::npos) {
      return Status::InvalidArgument(
          StrFormat("bad algorithm name '%s'", name.c_str()));
    }
  }
  for (const SelectionSpec& sel : spec.selections) {
    if (sel.kind == SelectionSpec::Kind::kUserList) {
      for (const std::string& s : sel.species) {
        if (s.find_first_of(kMetaChars) != std::string::npos) {
          return Status::InvalidArgument(
              StrFormat("species name '%s' cannot be encoded", s.c_str()));
        }
      }
    }
  }
  return Status::OK();
}

std::string EncodeExperimentSpec(const ExperimentSpec& spec) {
  std::string sels;
  for (size_t i = 0; i < spec.selections.size(); ++i) {
    if (i) sels.push_back('|');
    sels += EncodeSelection(spec.selections[i]);
  }
  return StrFormat("algs=%s;reps=%zu;triplets=%d;sels=%s",
                   StrJoin(spec.algorithms, ",").c_str(), spec.replicates,
                   spec.compute_triplets ? 1 : 0, sels.c_str());
}

Result<ExperimentSpec> DecodeExperimentSpec(std::string_view encoded) {
  ExperimentSpec spec;
  spec.compute_triplets = false;
  bool have_algs = false, have_sels = false;
  for (std::string_view field : StrSplit(encoded, ';')) {
    size_t eq = field.find('=');
    if (eq == std::string_view::npos) continue;
    std::string_view key = field.substr(0, eq);
    std::string_view value = field.substr(eq + 1);
    if (key == "algs") {
      spec.algorithms = SplitCsv(value);
      have_algs = true;
    } else if (key == "reps") {
      CRIMSON_ASSIGN_OR_RETURN(int64_t reps, ParseInt64(value));
      if (reps < 1) {
        return Status::InvalidArgument("replicates must be >= 1");
      }
      spec.replicates = static_cast<size_t>(reps);
    } else if (key == "triplets") {
      spec.compute_triplets = value == "1";
    } else if (key == "sels") {
      for (std::string_view sel : StrSplit(value, '|')) {
        if (sel.empty()) continue;
        CRIMSON_ASSIGN_OR_RETURN(SelectionSpec decoded, DecodeSelection(sel));
        spec.selections.push_back(std::move(decoded));
      }
      have_sels = true;
    }
  }
  if (!have_algs || !have_sels) {
    return Status::InvalidArgument(
        StrFormat("experiment spec missing algs/sels: '%.*s'",
                  static_cast<int>(encoded.size()), encoded.data()));
  }
  CRIMSON_RETURN_IF_ERROR(ValidateExperimentSpec(spec));
  return spec;
}

Result<int64_t> DecodeExperimentId(std::string_view params) {
  std::map<std::string, std::string, std::less<>> kv = SplitParams(params);
  auto it = kv.find("id");
  if (it == kv.end()) {
    return Status::InvalidArgument(
        StrFormat("experiment params missing id: '%.*s'",
                  static_cast<int>(params.size()), params.data()));
  }
  return ParseInt64(it->second);
}

std::vector<ExperimentCell> AggregateCells(
    const ExperimentSpec& spec, const std::vector<BenchmarkRun>& runs) {
  std::vector<ExperimentCell> cells;
  cells.reserve(spec.algorithms.size() * spec.selections.size());
  size_t job = 0;
  for (const std::string& algorithm : spec.algorithms) {
    for (size_t s = 0; s < spec.selections.size(); ++s) {
      ExperimentCell cell;
      cell.algorithm = algorithm;
      cell.selection_index = s;
      cell.min_rf_normalized = 1.0;
      for (size_t rep = 0; rep < spec.replicates; ++rep, ++job) {
        if (job >= runs.size()) break;
        const BenchmarkRun& run = runs[job];
        ++cell.replicates;
        cell.mean_rf_normalized += run.rf.normalized;
        cell.min_rf_normalized =
            std::min(cell.min_rf_normalized, run.rf.normalized);
        cell.max_rf_normalized =
            std::max(cell.max_rf_normalized, run.rf.normalized);
        cell.mean_triplet_fraction += run.triplets.fraction;
        cell.total_seconds += run.sample_seconds + run.project_seconds +
                              run.reconstruct_seconds + run.compare_seconds;
      }
      if (cell.replicates > 0) {
        cell.mean_rf_normalized /= static_cast<double>(cell.replicates);
        cell.mean_triplet_fraction /= static_cast<double>(cell.replicates);
      } else {
        cell.min_rf_normalized = 0;
      }
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

std::string SummarizeExperiment(const ExperimentReport& report) {
  const ExperimentCell* best = nullptr;
  for (const ExperimentCell& cell : report.cells) {
    if (best == nullptr ||
        cell.mean_rf_normalized < best->mean_rf_normalized) {
      best = &cell;
    }
  }
  return StrFormat(
      "algorithms=%zu selections=%zu replicates=%zu runs=%zu best=%s "
      "rf=%.4f",
      report.spec.algorithms.size(), report.spec.selections.size(),
      report.spec.replicates, report.runs.size(),
      best != nullptr ? best->algorithm.c_str() : "-",
      best != nullptr ? best->mean_rf_normalized : 0.0);
}

std::string RenderExperimentReport(const ExperimentReport& report) {
  std::string out = StrFormat(
      "experiment %lld on '%s': %s\n",
      static_cast<long long>(report.experiment_id),
      report.tree_name.c_str(), SummarizeExperiment(report).c_str());
  for (const ExperimentCell& cell : report.cells) {
    const SelectionSpec& sel = report.spec.selections[cell.selection_index];
    out += StrFormat(
        "  %-18s sel#%zu k=%-5zu reps=%zu rf_norm mean=%.4f "
        "[%.4f, %.4f] triplets=%.4f\n",
        cell.algorithm.c_str(), cell.selection_index,
        sel.kind == SelectionSpec::Kind::kUserList ? sel.species.size()
                                                   : sel.k,
        cell.replicates, cell.mean_rf_normalized, cell.min_rf_normalized,
        cell.max_rf_normalized, cell.mean_triplet_fraction);
  }
  return out;
}

}  // namespace crimson
