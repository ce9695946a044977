// CrimsonClient: a small, typed C++ client for the Crimson wire
// protocol. One client owns one connection and speaks the same
// QueryRequest/QueryResult values as the in-process session API, so
// code written against Crimson::Execute ports to the remote API by
// swapping the session for a client.
//
// Pipelining: ExecuteBatch writes all requests back-to-back before
// reading any response. The server coalesces such runs into one
// ExecuteBatch dispatch; responses come back in request order and are
// byte-identical to issuing the queries one at a time.
//
// Backpressure: when the server is saturated it answers with
// Status::Unavailable carrying retry_after_ms. The client surfaces
// that status verbatim (it does not retry on its own); callers decide
// whether to back off and retry -- see ExecuteWithRetry for the
// canonical loop. The retry loop sleeps a capped exponential backoff
// with deterministic seeded jitter (ComputeRetryBackoffMs) on top of
// the server's hint, so colliding clients spread out instead of
// re-stampeding the server in lockstep.
//
// Thread safety: none. A client is one connection with one in-order
// response stream; use one client per thread.

#ifndef CRIMSON_NET_CLIENT_H_
#define CRIMSON_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/span.h"
#include "crimson/data_loader.h"
#include "crimson/query_request.h"
#include "crimson/repositories.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace crimson {
namespace net {

struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Frames with larger payloads are treated as stream corruption.
  uint32_t max_frame_payload = kMaxPayloadBytes;
  /// ExecuteWithRetry backoff: first-attempt ceiling in milliseconds.
  /// The ceiling doubles per attempt, clamped to retry_max_ms.
  int64_t retry_base_ms = 10;
  /// ExecuteWithRetry backoff: per-attempt ceiling cap in milliseconds.
  int64_t retry_max_ms = 2000;
  /// Seed for the backoff jitter. 0 (the default) derives a
  /// per-connection seed at Connect so concurrent clients decorrelate;
  /// any other value makes the retry schedule fully deterministic
  /// (tests, replay).
  uint64_t retry_jitter_seed = 0;
};

/// The delay ExecuteWithRetry sleeps after a kUnavailable response on
/// `attempt` (0-based) when the server hinted `server_hint_ms` (<= 0
/// when absent). Pure function of its arguments: the jitter stream is
/// derived from options.retry_jitter_seed and the attempt number, so a
/// fixed seed yields a fixed schedule. The result is
///   max(hint, 0) + equal-jitter(exp)   where
///   exp = min(retry_base_ms << attempt, retry_max_ms)
/// and equal-jitter draws uniformly from [exp/2, exp]. Always >= 1.
int64_t ComputeRetryBackoffMs(const ClientOptions& options, int attempt,
                              int64_t server_hint_ms);

class CrimsonClient {
 public:
  static Result<std::unique_ptr<CrimsonClient>> Connect(
      const ClientOptions& options);

  CrimsonClient(const CrimsonClient&) = delete;
  CrimsonClient& operator=(const CrimsonClient&) = delete;

  /// Round-trips an opaque payload; returns the echo.
  [[nodiscard]] Result<std::string> Ping(const std::string& payload = {});

  /// Binds a stored tree on the server; returns its metadata.
  [[nodiscard]] Result<TreeInfo> OpenTree(const std::string& name);

  /// Parses + stores a tree document on the server.
  [[nodiscard]] Result<TreeInfo> StoreNewick(
      const std::string& name, const std::string& newick,
      LoadMode mode = LoadMode::kTreeStructureOnly);
  [[nodiscard]] Result<TreeInfo> StoreNexus(
      const std::string& name, const std::string& nexus,
      LoadMode mode = LoadMode::kTreeWithSpeciesData);

  [[nodiscard]] Result<std::vector<TreeInfo>> ListTrees();

  /// One typed query against a named tree on the server.
  [[nodiscard]] Result<QueryResult> Execute(const std::string& tree_name,
                                            const QueryRequest& request);

  /// Pipelined queries: all requests are written before any response
  /// is read; results come back in request order. On a transport
  /// failure the remaining entries carry that failure.
  std::vector<Result<QueryResult>> ExecuteBatch(
      const std::string& tree_name, Span<const QueryRequest> requests);

  /// Execute with bounded retry on kUnavailable: between attempts,
  /// sleeps the server's retry_after_ms hint plus capped exponential
  /// backoff with seeded jitter (see ComputeRetryBackoffMs and the
  /// retry_* options). Does not sleep after the final attempt.
  [[nodiscard]] Result<QueryResult> ExecuteWithRetry(
      const std::string& tree_name, const QueryRequest& request,
      int max_attempts = 8);

  /// The server's query history, newest first.
  [[nodiscard]] Result<std::vector<QueryRepository::Entry>> History(
      size_t limit = 50);

  /// The server's metrics snapshot -- every layer (query kinds,
  /// storage, cache, net) with latency histograms: the server
  /// session's Crimson::SnapshotMetrics, key for key.
  [[nodiscard]] Result<obs::MetricsSnapshot> ServerMetrics();

  /// Asks the server for a durable checkpoint.
  Status Checkpoint();

  /// Sticky transport status: OK until the connection breaks.
  const Status& transport_status() const { return transport_; }

 private:
  explicit CrimsonClient(Socket socket) : socket_(std::move(socket)) {}

  /// Writes one frame.
  Status SendRequest(MessageType type, Slice payload);
  /// Reads exactly one frame (blocking).
  Result<Frame> ReadFrame();
  /// Sends `payload` as `type` and expects `ok_type` back; a kError
  /// response decodes into its carried Status.
  Result<Frame> RoundTrip(MessageType type, Slice payload,
                          MessageType ok_type);
  /// Interprets a response frame as `ok_type` or a typed error.
  Result<Frame> ExpectType(Frame frame, MessageType ok_type);

  Socket socket_;
  ClientOptions options_;
  std::string buffer_;  // bytes received but not yet framed
  Status transport_;    // sticky; non-OK poisons every later call
};

}  // namespace net
}  // namespace crimson

#endif  // CRIMSON_NET_CLIENT_H_
