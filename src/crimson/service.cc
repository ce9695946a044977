#include "crimson/service.h"

#include <utility>

namespace crimson {

Result<TreeInfo> SessionService::OpenTree(const std::string& name) {
  CRIMSON_ASSIGN_OR_RETURN(TreeRef ref, session_->OpenTree(name));
  return session_->GetTreeInfo(ref);
}

Result<TreeInfo> SessionService::StoreNewick(const std::string& name,
                                             const std::string& text,
                                             LoadMode mode) {
  if (mode == LoadMode::kAppendSpeciesData) {
    return Status::InvalidArgument(
        "append-species-data requires a NEXUS document with sequences");
  }
  CRIMSON_ASSIGN_OR_RETURN(SessionLoadReport report,
                           session_->LoadNewick(name, text, mode));
  return session_->GetTreeInfo(report.ref);
}

Result<TreeInfo> SessionService::StoreNexus(const std::string& name,
                                            const std::string& text,
                                            LoadMode mode) {
  if (mode == LoadMode::kAppendSpeciesData) {
    CRIMSON_ASSIGN_OR_RETURN(NexusDocument parsed, ParseNexus(text));
    CRIMSON_RETURN_IF_ERROR(
        session_->AppendSpeciesData(name, parsed.sequences).status());
    return OpenTree(name);
  }
  CRIMSON_ASSIGN_OR_RETURN(SessionLoadReport report,
                           session_->LoadNexus(name, text, mode));
  return session_->GetTreeInfo(report.ref);
}

Result<std::vector<TreeInfo>> SessionService::ListTrees() const {
  return session_->ListTrees();
}

Result<std::vector<QueryRepository::Entry>> SessionService::History(
    size_t limit) const {
  return session_->QueryHistory(limit);
}

std::vector<Result<QueryResult>> SessionService::ExecuteBatch(
    const std::string& tree_name, Span<const QueryRequest> requests) {
  Result<TreeRef> ref = session_->OpenTree(tree_name);
  if (!ref.ok()) {
    return std::vector<Result<QueryResult>>(requests.size(), ref.status());
  }
  return session_->ExecuteBatch(*ref, requests);
}

Status SessionService::DropTree(const std::string& name) {
  return session_->DropTree(name);
}

obs::MetricsSnapshot SessionService::Metrics() const {
  return session_->SnapshotMetrics();
}

Status SessionService::Checkpoint() { return session_->Checkpoint(); }

}  // namespace crimson
