// CrimsonServer: the network front door. Multiplexes many client
// connections onto one Crimson session and calls the session directly.
// The wire speaks in tree *names*; the server resolves a name with
// Crimson::OpenTree and runs the request against the returned TreeRef,
// so a remote query takes exactly the code path an in-process one
// does -- same handles, ticketing and history -- and wire results are
// byte-identical to local ones. A store is Crimson::LoadNewick or
// LoadNexus with the requested LoadMode; an append-mode NEXUS store is
// the session's ref append.
//
// Architecture: an accept loop with a bounded connection pool
// (thread-per-connection; connections beyond the bound are turned away
// with kUnavailable + retry-after before any state is allocated), a
// per-connection decode loop that drains every complete frame the
// socket has buffered, and a coalescing dispatcher that folds
// consecutive pipelined queries against the same tree into one
// ExecuteBatch call on the session worker pool -- so a client that
// pipelines N queries pays one dispatch, yet the response bytes are
// identical to sequential execution (the ExecuteBatch contract).
//
// Admission control: at most `max_exec_concurrency` query batches
// execute at once (a semaphore bounds the compute the server will do
// concurrently) and at most `max_inflight_queries` admitted queries
// may be waiting or executing. Arrivals beyond that are rejected
// immediately with Status::Unavailable carrying `retry_after_ms` --
// bounded queues and a typed retry signal instead of unbounded
// buffering, so p99 stays bounded when the pool saturates. (Clients
// honor the hint: CrimsonClient::ExecuteWithRetry adds it to a
// seeded-jitter capped exponential backoff, so a rejected fleet does
// not stampede back in lockstep.)
//
// Query latency during stores: queries admitted here never queue
// behind a store or an append from another connection. The
// session's read path runs against an MVCC snapshot of the last
// committed state (DESIGN.md "Concurrency"), so a bulk store holds
// the writer lock without stalling concurrent query execution -- and
// recording those queries' history rows is an in-memory buffered
// append drained by the next write transaction, not a write of its
// own.
//
// Shutdown: Shutdown() (the SIGTERM path in crimson_server) stops the
// accept loop, half-closes every connection's read side so in-flight
// requests finish and their responses still flush, joins all
// connection threads, and then checkpoints the session -- a graceful
// drain, not an abort.

#ifndef CRIMSON_NET_SERVER_H_
#define CRIMSON_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "crimson/crimson.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "obs/metrics.h"

namespace crimson {
namespace net {

struct ServerOptions {
  /// Bind address; loopback by default.
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port (read it back via CrimsonServer::port).
  uint16_t port = 0;
  /// Connection pool bound; further connects are rejected with
  /// kUnavailable + retry-after and closed.
  size_t max_connections = 64;
  /// Frames with larger payloads are rejected as corrupt.
  uint32_t max_frame_payload = 16u << 20;
  /// Coalescing cap: at most this many consecutive pipelined queries
  /// fold into one ExecuteBatch dispatch.
  size_t max_pipeline_batch = 64;
  /// Admission bound: maximum queries admitted (waiting + executing)
  /// across all connections before arrivals are rejected.
  size_t max_inflight_queries = 128;
  /// Concurrent query-batch executions (the server-side worker bound).
  size_t max_exec_concurrency = 8;
  /// Backoff hint attached to every kUnavailable rejection.
  int retry_after_ms = 20;
  /// Granularity at which blocked connection reads re-check the stop
  /// flag.
  int poll_interval_ms = 100;
};

class CrimsonServer {
 public:
  /// Binds, starts the accept loop, and returns a running server. The
  /// session must outlive the server; its metrics registry receives
  /// the server's net.* cells.
  static Result<std::unique_ptr<CrimsonServer>> Start(
      Crimson* session, const ServerOptions& options = {});

  /// Shuts down (gracefully) if still running.
  ~CrimsonServer();

  CrimsonServer(const CrimsonServer&) = delete;
  CrimsonServer& operator=(const CrimsonServer&) = delete;

  /// The bound port (useful with ephemeral binds).
  uint16_t port() const { return port_; }

  /// Graceful drain: stop accepting, let in-flight requests finish and
  /// flush, join every connection, checkpoint the session. Idempotent.
  Status Shutdown();

 private:
  CrimsonServer(Crimson* session, ServerOptions options);

  struct Connection;

  void AcceptLoop();
  void ServeConnection(Connection* conn);
  /// Coalesces the run of pipelined kQuery frames starting at `i` and
  /// executes it; returns the index one past the run.
  size_t DispatchQueries(const std::vector<Frame>& frames, size_t i,
                         std::string* out);
  /// Handles one decoded non-query frame, appending response frame(s)
  /// to `out`.
  void HandleFrame(const Frame& frame, std::string* out);
  /// Executes a coalesced run of same-tree pipelined queries: one
  /// OpenTree, then one ExecuteBatch.
  void ExecuteQueryRun(const std::string& tree_name,
                       const std::vector<QueryRequest>& run, std::string* out);
  void AppendError(std::string* out, const Status& status);
  /// Blocks until an execution slot is free (bounded wait: admission
  /// caps how many callers can be queued here).
  void AcquireExecSlot();
  void ReleaseExecSlot();
  /// Reaps finished connection slots; with `all`, joins everything.
  void JoinConnections(bool all);

  Crimson* session_;
  ServerOptions options_;
  Socket listener_;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shut_down_{false};

  mutable std::mutex conns_mu_;
  std::vector<std::unique_ptr<Connection>> conns_;

  /// Admitted queries (waiting for a slot or executing).
  std::atomic<size_t> admitted_{0};
  /// Counting semaphore for execution slots.
  std::mutex exec_mu_;
  std::condition_variable exec_cv_;
  size_t exec_in_use_ = 0;

  /// The per-op kStats.. kCheckpoint latency histogram, or null for
  /// types without one (queries go through query_run_us_ instead).
  obs::Histogram* OpHistogram(MessageType type) const;

  // net.* cells in the session registry, resolved once at
  // construction (relaxed atomics; the kStats frame carries them).
  obs::Counter* connections_accepted_;
  obs::Counter* connections_rejected_;
  obs::Counter* frames_received_;
  obs::Counter* queries_executed_;
  obs::Counter* batches_executed_;
  obs::Counter* queries_rejected_;
  obs::Counter* protocol_errors_;
  obs::Counter* retry_afters_;
  obs::Histogram* admission_wait_us_;  // net.admission_wait_us
  obs::Histogram* query_run_us_;       // net.op.query_run_us (per batch)
  obs::Histogram* op_us_[8];           // net.op.<op>_us, non-query ops
};

}  // namespace net
}  // namespace crimson

#endif  // CRIMSON_NET_SERVER_H_
