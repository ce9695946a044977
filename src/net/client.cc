#include "net/client.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/coding.h"
#include "common/random.h"
#include "common/string_util.h"

namespace crimson {
namespace net {

int64_t ComputeRetryBackoffMs(const ClientOptions& options, int attempt,
                              int64_t server_hint_ms) {
  const int64_t base = options.retry_base_ms > 1 ? options.retry_base_ms : 1;
  const int64_t cap = options.retry_max_ms > base ? options.retry_max_ms : base;
  int64_t exp = base;
  for (int i = 0; i < attempt && exp < cap; ++i) exp *= 2;
  if (exp > cap) exp = cap;
  // Equal jitter: keep half the ceiling as a floor so backoff still
  // grows with the attempt number, randomize the rest. The stream is a
  // pure function of (seed, attempt) -- no global RNG state -- so a
  // fixed seed replays the exact schedule.
  uint64_t state = options.retry_jitter_seed ^
                   (0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(attempt) + 1));
  const uint64_t r = SplitMix64(&state);
  const int64_t half = exp / 2;
  const int64_t jittered =
      half + static_cast<int64_t>(r % static_cast<uint64_t>(exp - half + 1));
  const int64_t hint = server_hint_ms > 0 ? server_hint_ms : 0;
  const int64_t delay = hint + jittered;
  return delay > 1 ? delay : 1;
}

Result<std::unique_ptr<CrimsonClient>> CrimsonClient::Connect(
    const ClientOptions& options) {
  CRIMSON_ASSIGN_OR_RETURN(Socket sock,
                           ConnectTcp(options.host, options.port));
  std::unique_ptr<CrimsonClient> client(new CrimsonClient(std::move(sock)));
  client->options_ = options;
  if (client->options_.retry_jitter_seed == 0) {
    // Derive a per-connection seed so concurrent clients retrying the
    // same saturated server don't share a jitter stream.
    uint64_t raw = reinterpret_cast<uintptr_t>(client.get()) ^
                   (static_cast<uint64_t>(client->socket_.fd()) << 32) ^
                   options.port;
    client->options_.retry_jitter_seed = SplitMix64(&raw);
  }
  return client;
}

Status CrimsonClient::SendRequest(MessageType type, Slice payload) {
  if (!transport_.ok()) return transport_;
  std::string frame;
  AppendFrame(&frame, type, payload);
  Status s = SendAll(socket_, frame.data(), frame.size());
  if (!s.ok()) transport_ = s;
  return s;
}

Result<Frame> CrimsonClient::ReadFrame() {
  if (!transport_.ok()) return transport_;
  char chunk[64 * 1024];
  for (;;) {
    Slice in(buffer_);
    Frame frame;
    std::string error;
    FrameDecode d =
        DecodeFrame(&in, &frame, &error, options_.max_frame_payload);
    if (d == FrameDecode::kFrame) {
      buffer_.erase(0, buffer_.size() - in.size());
      return frame;
    }
    if (d == FrameDecode::kBad) {
      transport_ = Status::Corruption(
          StrFormat("response stream corrupt: %s", error.c_str()));
      return transport_;
    }
    Result<size_t> got = RecvSome(socket_, chunk, sizeof(chunk));
    if (!got.ok()) {
      transport_ = got.status();
      return transport_;
    }
    if (*got == 0) {
      transport_ = Status::IOError("server closed the connection");
      return transport_;
    }
    buffer_.append(chunk, *got);
  }
}

Result<Frame> CrimsonClient::ExpectType(Frame frame, MessageType ok_type) {
  if (frame.type == ok_type) return frame;
  if (frame.type == MessageType::kError) {
    Slice in(frame.payload);
    Status carried;
    Status decoded = DecodeStatusPayload(&in, &carried);
    if (!decoded.ok()) {
      transport_ = Status::Corruption("undecodable error reply");
      return transport_;
    }
    if (carried.ok()) {
      // An error frame must carry a non-OK status; treat as corruption.
      transport_ = Status::Corruption("error reply carrying OK status");
      return transport_;
    }
    return carried;
  }
  transport_ = Status::Corruption(
      StrFormat("unexpected reply type %u (wanted %u)",
                static_cast<unsigned>(frame.type),
                static_cast<unsigned>(ok_type)));
  return transport_;
}

Result<Frame> CrimsonClient::RoundTrip(MessageType type, Slice payload,
                                       MessageType ok_type) {
  CRIMSON_RETURN_IF_ERROR(SendRequest(type, payload));
  CRIMSON_ASSIGN_OR_RETURN(Frame frame, ReadFrame());
  return ExpectType(std::move(frame), ok_type);
}

Result<std::string> CrimsonClient::Ping(const std::string& payload) {
  CRIMSON_ASSIGN_OR_RETURN(
      Frame frame, RoundTrip(MessageType::kPing, payload, MessageType::kPong));
  return frame.payload;
}

Result<TreeInfo> CrimsonClient::OpenTree(const std::string& name) {
  std::string payload;
  PutLengthPrefixedSlice(&payload, name);
  CRIMSON_ASSIGN_OR_RETURN(
      Frame frame,
      RoundTrip(MessageType::kOpenTree, payload, MessageType::kOpenTreeOk));
  Slice in(frame.payload);
  return DecodeTreeInfo(&in);
}

Result<TreeInfo> CrimsonClient::StoreNewick(const std::string& name,
                                            const std::string& newick,
                                            LoadMode mode) {
  StoreTreeRequest req;
  req.name = name;
  req.format = TreeFormat::kNewick;
  req.mode = mode;
  req.text = newick;
  std::string payload;
  EncodeStoreTreeRequest(&payload, req);
  CRIMSON_ASSIGN_OR_RETURN(
      Frame frame,
      RoundTrip(MessageType::kStoreTree, payload, MessageType::kStoreTreeOk));
  Slice in(frame.payload);
  return DecodeTreeInfo(&in);
}

Result<TreeInfo> CrimsonClient::StoreNexus(const std::string& name,
                                           const std::string& nexus,
                                           LoadMode mode) {
  StoreTreeRequest req;
  req.name = name;
  req.format = TreeFormat::kNexus;
  req.mode = mode;
  req.text = nexus;
  std::string payload;
  EncodeStoreTreeRequest(&payload, req);
  CRIMSON_ASSIGN_OR_RETURN(
      Frame frame,
      RoundTrip(MessageType::kStoreTree, payload, MessageType::kStoreTreeOk));
  Slice in(frame.payload);
  return DecodeTreeInfo(&in);
}

Result<std::vector<TreeInfo>> CrimsonClient::ListTrees() {
  CRIMSON_ASSIGN_OR_RETURN(
      Frame frame,
      RoundTrip(MessageType::kListTrees, Slice(), MessageType::kListTreesOk));
  Slice in(frame.payload);
  return DecodeTreeInfoList(&in);
}

Result<QueryResult> CrimsonClient::Execute(const std::string& tree_name,
                                           const QueryRequest& request) {
  QueryEnvelope env{tree_name, request};
  std::string payload;
  EncodeQueryEnvelope(&payload, env);
  CRIMSON_ASSIGN_OR_RETURN(
      Frame frame,
      RoundTrip(MessageType::kQuery, payload, MessageType::kQueryOk));
  Slice in(frame.payload);
  return DecodeQueryResultWire(&in);
}

std::vector<Result<QueryResult>> CrimsonClient::ExecuteBatch(
    const std::string& tree_name, Span<const QueryRequest> requests) {
  std::vector<Result<QueryResult>> results;
  results.reserve(requests.size());
  // Pipeline: one write carrying every request frame...
  std::string wire;
  for (size_t i = 0; i < requests.size(); ++i) {
    QueryEnvelope env{tree_name, requests[i]};
    std::string payload;
    EncodeQueryEnvelope(&payload, env);
    AppendFrame(&wire, MessageType::kQuery, payload);
  }
  Status sent = transport_.ok()
                    ? SendAll(socket_, wire.data(), wire.size())
                    : transport_;
  if (!sent.ok()) {
    transport_ = sent;
    results.assign(requests.size(), sent);
    return results;
  }
  // ...then the responses, strictly in request order.
  for (size_t i = 0; i < requests.size(); ++i) {
    Result<Frame> frame = ReadFrame();
    if (frame.ok()) {
      frame = ExpectType(std::move(*frame), MessageType::kQueryOk);
    }
    if (!frame.ok()) {
      results.push_back(frame.status());
      continue;
    }
    Slice in(frame->payload);
    results.push_back(DecodeQueryResultWire(&in));
  }
  return results;
}

Result<QueryResult> CrimsonClient::ExecuteWithRetry(
    const std::string& tree_name, const QueryRequest& request,
    int max_attempts) {
  Result<QueryResult> result = Status::Internal("no attempts made");
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    result = Execute(tree_name, request);
    if (result.ok() || !result.status().IsUnavailable()) return result;
    if (attempt + 1 >= max_attempts) break;  // out of attempts: don't sleep
    const int64_t delay_ms = ComputeRetryBackoffMs(
        options_, attempt, result.status().retry_after_ms());
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  return result;
}

Result<std::vector<QueryRepository::Entry>> CrimsonClient::History(
    size_t limit) {
  std::string payload;
  PutVarint64(&payload, limit);
  CRIMSON_ASSIGN_OR_RETURN(
      Frame frame,
      RoundTrip(MessageType::kHistory, payload, MessageType::kHistoryOk));
  Slice in(frame.payload);
  return DecodeHistoryEntries(&in);
}

Result<obs::MetricsSnapshot> CrimsonClient::ServerMetrics() {
  CRIMSON_ASSIGN_OR_RETURN(
      Frame frame,
      RoundTrip(MessageType::kStats, Slice(), MessageType::kStatsOk));
  Slice in(frame.payload);
  return DecodeMetricsSnapshot(&in);
}

Status CrimsonClient::Checkpoint() {
  Result<Frame> frame =
      RoundTrip(MessageType::kCheckpoint, Slice(), MessageType::kCheckpointOk);
  return frame.ok() ? Status::OK() : frame.status();
}

}  // namespace net
}  // namespace crimson
