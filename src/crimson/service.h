// SessionService: the server-facing dispatch seam over a Crimson
// session. The network layer (src/net) speaks in tree *names* and
// typed QueryRequest values; this seam resolves names to TreeRef
// handles and forwards to the session's ExecuteBatch, which runs the
// same per-query pipeline as Execute. A remote query therefore takes
// exactly the code path an in-process one does -- same handle cache,
// same ticketing, same history recording -- and wire results are
// byte-identical to local ones.
//
// Keeping the seam in src/crimson (not src/net) means the transport
// can change (another protocol, sharded fan-out, replication) without
// touching the session, and the session API can evolve behind one
// choke point the server calls.

#ifndef CRIMSON_CRIMSON_SERVICE_H_
#define CRIMSON_CRIMSON_SERVICE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/span.h"
#include "crimson/crimson.h"

namespace crimson {

/// Thread-safe (the underlying session is); one instance serves every
/// server connection.
class SessionService {
 public:
  /// Borrows the session; the caller keeps it alive for the service's
  /// lifetime.
  explicit SessionService(Crimson* session) : session_(session) {}

  SessionService(const SessionService&) = delete;
  SessionService& operator=(const SessionService&) = delete;

  /// Binds a stored tree and returns its metadata.
  [[nodiscard]] Result<TreeInfo> OpenTree(const std::string& name);

  /// Parses + stores a tree document, returning the stored tree's
  /// metadata. kAppendSpeciesData attaches sequences to an existing
  /// tree instead of creating one.
  [[nodiscard]] Result<TreeInfo> StoreNewick(const std::string& name,
                                             const std::string& text,
                                             LoadMode mode);
  [[nodiscard]] Result<TreeInfo> StoreNexus(const std::string& name,
                                            const std::string& text,
                                            LoadMode mode);

  [[nodiscard]] Result<std::vector<TreeInfo>> ListTrees() const;

  [[nodiscard]] Result<std::vector<QueryRepository::Entry>> History(
      size_t limit) const;

  /// A pipelined run of queries against one named tree, executed on
  /// the session worker pool. Results are byte-identical to executing
  /// the same list sequentially (the ExecuteBatch contract), which is
  /// what lets the server coalesce pipelined connection traffic.
  std::vector<Result<QueryResult>> ExecuteBatch(
      const std::string& tree_name, Span<const QueryRequest> requests);

  /// Drops a stored tree (rows, bound handle, cached state).
  [[nodiscard]] Status DropTree(const std::string& name);

  /// The session's metrics snapshot, every layer (query, storage,
  /// cache, net): Crimson::SnapshotMetrics, unchanged. The kStats wire
  /// op carries it; crimson_server logs its drain summary from it.
  [[nodiscard]] obs::MetricsSnapshot Metrics() const;

  /// Durable checkpoint; the server's graceful-drain hook.
  Status Checkpoint();

  /// The session's metrics registry; the server front door resolves
  /// its net.* cells here so remote telemetry lands in the same
  /// registry as the layers below it.
  obs::MetricsRegistry* metrics() const { return session_->metrics(); }

 private:
  Crimson* session_;
};

}  // namespace crimson

#endif  // CRIMSON_CRIMSON_SERVICE_H_
