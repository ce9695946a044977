#include "net/server.h"

#include <chrono>
#include <utility>

#include "common/coding.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "obs/trace.h"

namespace crimson {
namespace net {

namespace {

/// Appends `result` as one `ok_type` frame whose payload `encode`
/// writes, or its error as a kError frame.
template <typename T, typename Encode>
void AppendResult(std::string* out, MessageType ok_type,
                  const Result<T>& result, Encode encode) {
  std::string payload;
  if (!result.ok()) {
    EncodeStatusPayload(&payload, result.status());
    AppendFrame(out, MessageType::kError, payload);
    return;
  }
  encode(&payload, *result);
  AppendFrame(out, ok_type, payload);
}

}  // namespace

/// One accepted connection: its socket, its serving thread, and a done
/// flag the accept loop uses to reap finished slots.
struct CrimsonServer::Connection {
  Socket socket;
  std::thread thread;
  std::atomic<bool> done{false};
};

CrimsonServer::CrimsonServer(Crimson* session, ServerOptions options)
    : session_(session), options_(std::move(options)) {
  // The server writes into the session's registry, so one kStats frame
  // (or one crimson_stats dump) shows every layer of this process.
  obs::MetricsRegistry* reg = session_->metrics();
  connections_accepted_ = reg->GetCounter("net.connections_accepted");
  connections_rejected_ = reg->GetCounter("net.connections_rejected");
  frames_received_ = reg->GetCounter("net.frames_received");
  queries_executed_ = reg->GetCounter("net.queries_executed");
  batches_executed_ = reg->GetCounter("net.batches_executed");
  queries_rejected_ = reg->GetCounter("net.queries_rejected");
  protocol_errors_ = reg->GetCounter("net.protocol_errors");
  retry_afters_ = reg->GetCounter("net.retry_afters_sent");
  admission_wait_us_ = reg->GetHistogram("net.admission_wait_us");
  query_run_us_ = reg->GetHistogram("net.op.query_run_us");
  static constexpr const char* kOpNames[8] = {
      "ping",    "open_tree",  "store_tree", "list_trees",
      nullptr /* query: query_run_us_ */, "history", "checkpoint", "stats"};
  for (size_t i = 0; i < 8; ++i) {
    op_us_[i] = kOpNames[i] == nullptr
                    ? nullptr
                    : reg->GetHistogram(StrFormat("net.op.%s_us", kOpNames[i]));
  }
}

obs::Histogram* CrimsonServer::OpHistogram(MessageType type) const {
  const size_t idx = static_cast<size_t>(type) - 1;
  return idx < 8 ? op_us_[idx] : nullptr;
}

Result<std::unique_ptr<CrimsonServer>> CrimsonServer::Start(
    Crimson* session, const ServerOptions& options) {
  if (session == nullptr) {
    return Status::InvalidArgument("server requires a session");
  }
  if (options.max_exec_concurrency == 0 || options.max_connections == 0 ||
      options.max_pipeline_batch == 0 || options.max_inflight_queries == 0) {
    return Status::InvalidArgument("server bounds must be >= 1");
  }
  std::unique_ptr<CrimsonServer> server(new CrimsonServer(session, options));
  CRIMSON_ASSIGN_OR_RETURN(server->listener_,
                           ListenTcp(options.host, options.port));
  CRIMSON_ASSIGN_OR_RETURN(server->port_, BoundPort(server->listener_));
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

CrimsonServer::~CrimsonServer() { Shutdown(); }

Status CrimsonServer::Shutdown() {
  if (shut_down_.exchange(true)) return Status::OK();
  stopping_.store(true);
  // Wake the accept loop; further connects fail at the socket layer.
  listener_.ShutdownBoth();
  if (accept_thread_.joinable()) accept_thread_.join();
  // Half-close every connection's read side: blocked reads wake with
  // EOF, already-buffered requests still execute, and their responses
  // still flush before the serving thread exits.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) conn->socket.ShutdownRead();
  }
  JoinConnections(/*all=*/true);
  // Everything in flight has drained; make the session durable.
  return session_->Checkpoint();
}

void CrimsonServer::JoinConnections(bool all) {
  std::vector<std::unique_ptr<Connection>> reaped;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (all) {
      reaped.swap(conns_);
    } else {
      for (size_t i = 0; i < conns_.size();) {
        if (conns_[i]->done.load()) {
          reaped.push_back(std::move(conns_[i]));
          conns_[i] = std::move(conns_.back());
          conns_.pop_back();
        } else {
          ++i;
        }
      }
    }
  }
  // Only a joined slot's socket is closed: until then Shutdown may
  // still half-close it from another thread, and closing earlier would
  // race that call (and could hand it a recycled fd).
  for (auto& conn : reaped) {
    if (conn->thread.joinable()) conn->thread.join();
    conn->socket.Close();
  }
}

void CrimsonServer::AcceptLoop() {
  while (!stopping_.load()) {
    Result<Socket> accepted = AcceptTcp(listener_);
    if (!accepted.ok()) {
      if (stopping_.load()) break;
      // Transient accept failure (e.g. EMFILE): back off briefly
      // instead of spinning.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    JoinConnections(/*all=*/false);
    size_t active = 0;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      active = conns_.size();
    }
    if (active >= options_.max_connections) {
      // Turn the connection away before allocating any serving state.
      connections_rejected_->Increment();
      retry_afters_->Increment();
      std::string out;
      AppendError(&out,
                  Status::Unavailable(
                      StrFormat("connection pool full (%zu active)", active),
                      options_.retry_after_ms));
      SendAll(*accepted, out.data(), out.size());
      continue;  // Socket closes as `accepted` goes out of scope.
    }
    connections_accepted_->Increment();
    auto conn = std::make_unique<Connection>();
    conn->socket = std::move(*accepted);
    // Bounded blocking reads so serving threads notice Shutdown even
    // on idle connections.
    SetRecvTimeout(conn->socket, options_.poll_interval_ms);
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { ServeConnection(raw); });
  }
}

void CrimsonServer::ServeConnection(Connection* conn) {
  std::string buffer;
  char chunk[64 * 1024];
  bool closing = false;
  while (!closing) {
    Result<size_t> got = RecvSome(conn->socket, chunk, sizeof(chunk));
    if (!got.ok()) {
      if (got.status().IsUnavailable()) {
        // Receive timeout: just a stop-flag check point.
        if (!stopping_.load()) continue;
        closing = true;
      } else {
        closing = true;  // Hard socket error.
      }
    } else if (*got == 0) {
      // Clean EOF (client close or drain half-close): fall through to
      // process whatever complete frames are still buffered.
      closing = true;
    } else {
      buffer.append(chunk, *got);
    }

    // Drain every complete frame currently buffered.
    std::vector<Frame> frames;
    Slice in(buffer);
    std::string frame_error;
    bool bad_stream = false;
    for (;;) {
      Frame f;
      FrameDecode d =
          DecodeFrame(&in, &f, &frame_error, options_.max_frame_payload);
      if (d == FrameDecode::kFrame) {
        frames.push_back(std::move(f));
        continue;
      }
      if (d == FrameDecode::kBad) bad_stream = true;
      break;
    }
    buffer.erase(0, buffer.size() - in.size());
    frames_received_->Add(frames.size());

    std::string out;
    size_t i = 0;
    while (i < frames.size()) {
      if (frames[i].type == MessageType::kQuery) {
        i = DispatchQueries(frames, i, &out);
      } else {
        HandleFrame(frames[i], &out);
        ++i;
      }
    }
    if (bad_stream) {
      // Framing has lost sync; a typed error is the last thing this
      // connection can meaningfully carry.
      protocol_errors_->Increment();
      AppendError(&out, Status::Corruption(StrFormat(
                            "protocol error: %s", frame_error.c_str())));
      closing = true;
    }
    if (!out.empty() &&
        !SendAll(conn->socket, out.data(), out.size()).ok()) {
      closing = true;
    }
  }
  // Hang up (the peer sees EOF now) but leave the fd open:
  // JoinConnections closes it after joining this thread.
  conn->socket.ShutdownBoth();
  conn->done.store(true);
}

size_t CrimsonServer::DispatchQueries(const std::vector<Frame>& frames,
                                      size_t i, std::string* out) {
  std::string tree_name;
  std::vector<QueryRequest> run;
  while (i < frames.size() && frames[i].type == MessageType::kQuery &&
         run.size() < options_.max_pipeline_batch) {
    Slice payload(frames[i].payload);
    Result<QueryEnvelope> env = DecodeQueryEnvelope(&payload);
    if (!env.ok() || !payload.empty()) {
      // Flush what we have (order!) then answer this frame with a
      // typed error; the connection stays usable.
      if (!run.empty()) {
        ExecuteQueryRun(tree_name, run, out);
        run.clear();
      }
      protocol_errors_->Increment();
      AppendError(out, env.ok() ? Status::InvalidArgument(
                                      "trailing bytes after query payload")
                                : env.status());
      ++i;
      continue;
    }
    if (run.empty()) {
      tree_name = env->tree_name;
    } else if (env->tree_name != tree_name) {
      break;  // Different tree: flush this run, start a new one.
    }
    run.push_back(std::move(env->request));
    ++i;
  }
  if (!run.empty()) ExecuteQueryRun(tree_name, run, out);
  return i;
}

void CrimsonServer::ExecuteQueryRun(const std::string& tree_name,
                                    const std::vector<QueryRequest>& run,
                                    std::string* out) {
  const size_t n = run.size();
  WallTimer run_timer;
  // Installs this connection thread's trace context before admission,
  // so the slot wait below is attributed to the query this thread ends
  // up running (ExecuteBatch's pool includes the caller); the session
  // resets the context per query.
  obs::ScopedTrace trace;
  // Admission control: bound waiting + executing queries globally.
  size_t admitted = admitted_.fetch_add(n);
  if (admitted + n > options_.max_inflight_queries) {
    admitted_.fetch_sub(n);
    queries_rejected_->Add(n);
    retry_afters_->Add(n);
    Status reject = Status::Unavailable(
        StrFormat("server saturated: %zu queries in flight", admitted),
        options_.retry_after_ms);
    for (size_t k = 0; k < n; ++k) AppendError(out, reject);
    return;
  }
  {
    obs::SpanTimer wait_span(obs::Stage::kAdmissionWait);
    WallTimer wait_timer;
    AcquireExecSlot();
    admission_wait_us_->Observe(
        static_cast<uint64_t>(wait_timer.ElapsedMicros()));
  }
  Result<TreeRef> ref = session_->OpenTree(tree_name);
  std::vector<Result<QueryResult>> results =
      ref.ok() ? session_->ExecuteBatch(
                     *ref, Span<const QueryRequest>(run.data(), run.size()))
               : std::vector<Result<QueryResult>>(n, ref.status());
  ReleaseExecSlot();
  admitted_.fetch_sub(n);
  batches_executed_->Increment();
  queries_executed_->Add(n);
  query_run_us_->Observe(static_cast<uint64_t>(run_timer.ElapsedMicros()));
  for (const Result<QueryResult>& r : results) {
    AppendResult(out, MessageType::kQueryOk, r, EncodeQueryResult);
  }
}

void CrimsonServer::HandleFrame(const Frame& frame, std::string* out) {
  // Per-op wire latency (decode + session call + response encode);
  // observed on every exit path of the switch below.
  struct OpScope {
    obs::Histogram* hist;
    WallTimer timer;
    ~OpScope() {
      if (hist != nullptr) {
        hist->Observe(static_cast<uint64_t>(timer.ElapsedMicros()));
      }
    }
  } op_scope{OpHistogram(frame.type), {}};
  Slice in(frame.payload);
  switch (frame.type) {
    case MessageType::kPing: {
      AppendFrame(out, MessageType::kPong, frame.payload);
      return;
    }
    case MessageType::kOpenTree: {
      Slice name;
      if (!GetLengthPrefixedSlice(&in, &name) || !in.empty()) {
        protocol_errors_->Increment();
        AppendError(out,
                    Status::InvalidArgument("malformed open-tree payload"));
        return;
      }
      Result<TreeRef> ref = session_->OpenTree(name.ToString());
      AppendResult(out, MessageType::kOpenTreeOk,
                   ref.ok() ? session_->GetTreeInfo(*ref)
                            : Result<TreeInfo>(ref.status()),
                   EncodeTreeInfo);
      return;
    }
    case MessageType::kStoreTree: {
      Result<StoreTreeRequest> req = DecodeStoreTreeRequest(&in);
      if (!req.ok() || !in.empty()) {
        protocol_errors_->Increment();
        AppendError(out, req.ok() ? Status::InvalidArgument(
                                        "trailing bytes after store payload")
                                  : req.status());
        return;
      }
      Result<SessionLoadReport> stored =
          req->format == TreeFormat::kNewick
              ? session_->LoadNewick(req->name, req->text, req->mode)
              : session_->LoadNexus(req->name, req->text, req->mode);
      AppendResult(out, MessageType::kStoreTreeOk,
                   stored.ok() ? session_->GetTreeInfo(stored->ref)
                               : Result<TreeInfo>(stored.status()),
                   EncodeTreeInfo);
      return;
    }
    case MessageType::kListTrees: {
      AppendResult(out, MessageType::kListTreesOk, session_->ListTrees(),
                   EncodeTreeInfoList);
      return;
    }
    case MessageType::kHistory: {
      uint64_t limit = 0;
      if (!GetVarint64(&in, &limit) || !in.empty()) {
        protocol_errors_->Increment();
        AppendError(out,
                    Status::InvalidArgument("malformed history payload"));
        return;
      }
      AppendResult(out, MessageType::kHistoryOk,
                   session_->QueryHistory(static_cast<size_t>(limit)),
                   EncodeHistoryEntries);
      return;
    }
    case MessageType::kStats: {
      if (!in.empty()) {
        protocol_errors_->Increment();
        AppendError(out, Status::InvalidArgument("malformed stats payload"));
        return;
      }
      std::string payload;
      EncodeMetricsSnapshot(&payload, session_->SnapshotMetrics());
      AppendFrame(out, MessageType::kStatsOk, payload);
      return;
    }
    case MessageType::kCheckpoint: {
      Status s = session_->Checkpoint();
      if (!s.ok()) {
        AppendError(out, s);
        return;
      }
      AppendFrame(out, MessageType::kCheckpointOk, Slice());
      return;
    }
    default: {
      protocol_errors_->Increment();
      AppendError(out, Status::Unimplemented(StrFormat(
                           "unexpected message type %u",
                           static_cast<unsigned>(frame.type))));
      return;
    }
  }
}

void CrimsonServer::AppendError(std::string* out, const Status& status) {
  std::string payload;
  EncodeStatusPayload(&payload, status);
  AppendFrame(out, MessageType::kError, payload);
}

void CrimsonServer::AcquireExecSlot() {
  std::unique_lock<std::mutex> lock(exec_mu_);
  exec_cv_.wait(lock,
                [this] { return exec_in_use_ < options_.max_exec_concurrency; });
  ++exec_in_use_;
}

void CrimsonServer::ReleaseExecSlot() {
  {
    std::lock_guard<std::mutex> lock(exec_mu_);
    --exec_in_use_;
  }
  exec_cv_.notify_one();
}

}  // namespace net
}  // namespace crimson
