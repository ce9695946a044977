#include "net/protocol.h"

#include <utility>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/overloaded.h"
#include "common/string_util.h"

namespace crimson {
namespace net {

namespace {

// Variant tags, frozen at protocol version 1.
enum class RequestTag : uint8_t {
  kLca = 0,
  kProject = 1,
  kSampleUniform = 2,
  kSampleTime = 3,
  kClade = 4,
  kPattern = 5,
};

enum class ResultTag : uint8_t {
  kLca = 0,
  kProject = 1,
  kSample = 2,
  kClade = 3,
  kPattern = 4,
};

Status Truncated(const char* what) {
  return Status::InvalidArgument(
      StrFormat("wire decode: truncated or malformed %s", what));
}

bool GetByte(Slice* in, uint8_t* v) {
  if (in->empty()) return false;
  *v = static_cast<uint8_t>((*in)[0]);
  in->remove_prefix(1);
  return true;
}

void PutString(std::string* dst, std::string_view s) {
  PutLengthPrefixedSlice(dst, Slice(s));
}

bool GetString(Slice* in, std::string* out) {
  Slice s;
  if (!GetLengthPrefixedSlice(in, &s)) return false;
  *out = s.ToString();
  return true;
}

/// Species lists: varint count + length-prefixed names. The count is
/// bounded by the remaining payload (>= 1 byte per entry) before any
/// allocation, so a hostile count cannot balloon memory.
void PutStringList(std::string* dst, const std::vector<std::string>& v) {
  PutVarint64(dst, v.size());
  for (const auto& s : v) PutString(dst, s);
}

bool GetStringList(Slice* in, std::vector<std::string>* out) {
  uint64_t n = 0;
  if (!GetVarint64(in, &n)) return false;
  if (n > in->size()) return false;
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    std::string s;
    if (!GetString(in, &s)) return false;
    out->push_back(std::move(s));
  }
  return true;
}

}  // namespace

// -- framing ----------------------------------------------------------------

void AppendFrame(std::string* dst, MessageType type, Slice payload) {
  PutFixed16(dst, kFrameMagic);
  dst->push_back(static_cast<char>(kProtocolVersion));
  dst->push_back(static_cast<char>(type));
  PutFixed32(dst, static_cast<uint32_t>(payload.size()));
  PutFixed32(dst, Crc32(payload.data(), payload.size()));
  dst->append(payload.data(), payload.size());
}

FrameDecode DecodeFrame(Slice* input, Frame* frame, std::string* error,
                        uint32_t max_payload) {
  if (input->size() < kFrameHeaderSize) return FrameDecode::kNeedMore;
  const char* h = input->data();
  const uint16_t magic = DecodeFixed16(h);
  if (magic != kFrameMagic) {
    *error = StrFormat("bad frame magic 0x%04x", magic);
    return FrameDecode::kBad;
  }
  const uint8_t version = static_cast<uint8_t>(h[2]);
  if (version == 0 || version > kProtocolVersion) {
    *error = StrFormat("unsupported protocol version %u", version);
    return FrameDecode::kBad;
  }
  const uint32_t len = DecodeFixed32(h + 4);
  if (len > max_payload) {
    *error = StrFormat("frame payload %u exceeds limit %u", len, max_payload);
    return FrameDecode::kBad;
  }
  if (input->size() < kFrameHeaderSize + len) return FrameDecode::kNeedMore;
  const uint32_t crc = DecodeFixed32(h + 8);
  const char* payload = h + kFrameHeaderSize;
  if (Crc32(payload, len) != crc) {
    *error = "frame CRC mismatch";
    return FrameDecode::kBad;
  }
  frame->type = static_cast<MessageType>(h[3]);
  frame->payload.assign(payload, len);
  input->remove_prefix(kFrameHeaderSize + len);
  return FrameDecode::kFrame;
}

// -- query requests ---------------------------------------------------------

void EncodeQueryRequest(std::string* dst, const QueryRequest& request) {
  std::visit(
      Overloaded{
          [&](const LcaQuery& q) {
            dst->push_back(static_cast<char>(RequestTag::kLca));
            PutString(dst, q.a);
            PutString(dst, q.b);
          },
          [&](const ProjectQuery& q) {
            dst->push_back(static_cast<char>(RequestTag::kProject));
            PutStringList(dst, q.species);
          },
          [&](const SampleUniformQuery& q) {
            dst->push_back(static_cast<char>(RequestTag::kSampleUniform));
            PutVarint64(dst, q.k);
          },
          [&](const SampleTimeQuery& q) {
            dst->push_back(static_cast<char>(RequestTag::kSampleTime));
            PutVarint64(dst, q.k);
            PutDouble(dst, q.time);
          },
          [&](const CladeQuery& q) {
            dst->push_back(static_cast<char>(RequestTag::kClade));
            PutStringList(dst, q.species);
          },
          [&](const PatternQuery& q) {
            dst->push_back(static_cast<char>(RequestTag::kPattern));
            PutString(dst, q.pattern_newick);
            dst->push_back(q.match_weights ? 1 : 0);
          },
      },
      request);
}

Result<QueryRequest> DecodeQueryRequestWire(Slice* in) {
  uint8_t tag = 0;
  if (!GetByte(in, &tag)) return Truncated("query request tag");
  switch (static_cast<RequestTag>(tag)) {
    case RequestTag::kLca: {
      LcaQuery q;
      if (!GetString(in, &q.a) || !GetString(in, &q.b)) {
        return Truncated("lca query");
      }
      return QueryRequest(std::move(q));
    }
    case RequestTag::kProject: {
      ProjectQuery q;
      if (!GetStringList(in, &q.species)) return Truncated("project query");
      return QueryRequest(std::move(q));
    }
    case RequestTag::kSampleUniform: {
      uint64_t k = 0;
      if (!GetVarint64(in, &k)) return Truncated("sample_uniform query");
      return QueryRequest(SampleUniformQuery{static_cast<size_t>(k)});
    }
    case RequestTag::kSampleTime: {
      uint64_t k = 0;
      double time = 0;
      if (!GetVarint64(in, &k) || !GetDouble(in, &time)) {
        return Truncated("sample_time query");
      }
      return QueryRequest(SampleTimeQuery{static_cast<size_t>(k), time});
    }
    case RequestTag::kClade: {
      CladeQuery q;
      if (!GetStringList(in, &q.species)) return Truncated("clade query");
      return QueryRequest(std::move(q));
    }
    case RequestTag::kPattern: {
      PatternQuery q;
      uint8_t weights = 0;
      if (!GetString(in, &q.pattern_newick) || !GetByte(in, &weights)) {
        return Truncated("pattern query");
      }
      q.match_weights = weights != 0;
      return QueryRequest(std::move(q));
    }
  }
  return Status::InvalidArgument(
      StrFormat("wire decode: unknown query request tag %u", tag));
}

void EncodeQueryEnvelope(std::string* dst, const QueryEnvelope& env) {
  PutString(dst, env.tree_name);
  EncodeQueryRequest(dst, env.request);
}

Result<QueryEnvelope> DecodeQueryEnvelope(Slice* in) {
  QueryEnvelope env;
  if (!GetString(in, &env.tree_name)) return Truncated("query tree name");
  CRIMSON_ASSIGN_OR_RETURN(env.request, DecodeQueryRequestWire(in));
  return env;
}

// -- query results ----------------------------------------------------------

void EncodeQueryResult(std::string* dst, const QueryResult& result) {
  std::visit(
      Overloaded{
          [&](const LcaAnswer& a) {
            dst->push_back(static_cast<char>(ResultTag::kLca));
            PutFixed32(dst, a.node);
            PutString(dst, a.name);
          },
          [&](const ProjectAnswer& a) {
            dst->push_back(static_cast<char>(ResultTag::kProject));
            EncodePackedTree(a.projection, dst);
          },
          [&](const SampleAnswer& a) {
            dst->push_back(static_cast<char>(ResultTag::kSample));
            PutStringList(dst, a.species);
          },
          [&](const CladeAnswer& a) {
            dst->push_back(static_cast<char>(ResultTag::kClade));
            PutFixed32(dst, a.root);
            PutVarint64(dst, a.node_count);
            PutVarint64(dst, a.leaf_count);
          },
          [&](const PatternAnswer& a) {
            dst->push_back(static_cast<char>(ResultTag::kPattern));
            dst->push_back(a.exact ? 1 : 0);
            PutDouble(dst, a.rf_normalized);
            EncodePackedTree(a.projection, dst);
          },
      },
      result);
}

Result<QueryResult> DecodeQueryResultWire(Slice* in) {
  uint8_t tag = 0;
  if (!GetByte(in, &tag)) return Truncated("query result tag");
  switch (static_cast<ResultTag>(tag)) {
    case ResultTag::kLca: {
      LcaAnswer a;
      if (!GetFixed32(in, &a.node) || !GetString(in, &a.name)) {
        return Truncated("lca answer");
      }
      return QueryResult(std::move(a));
    }
    case ResultTag::kProject: {
      ProjectAnswer a;
      CRIMSON_ASSIGN_OR_RETURN(a.projection, DecodePackedTree(in));
      return QueryResult(std::move(a));
    }
    case ResultTag::kSample: {
      SampleAnswer a;
      if (!GetStringList(in, &a.species)) return Truncated("sample answer");
      return QueryResult(std::move(a));
    }
    case ResultTag::kClade: {
      CladeAnswer a;
      uint64_t nodes = 0, leaves = 0;
      if (!GetFixed32(in, &a.root) || !GetVarint64(in, &nodes) ||
          !GetVarint64(in, &leaves)) {
        return Truncated("clade answer");
      }
      a.node_count = static_cast<size_t>(nodes);
      a.leaf_count = static_cast<size_t>(leaves);
      return QueryResult(std::move(a));
    }
    case ResultTag::kPattern: {
      PatternAnswer a;
      uint8_t exact = 0;
      if (!GetByte(in, &exact) || !GetDouble(in, &a.rf_normalized)) {
        return Truncated("pattern answer");
      }
      a.exact = exact != 0;
      CRIMSON_ASSIGN_OR_RETURN(a.projection, DecodePackedTree(in));
      return QueryResult(std::move(a));
    }
  }
  return Status::InvalidArgument(
      StrFormat("wire decode: unknown query result tag %u", tag));
}

// -- tree info / store / history --------------------------------------------

void EncodeTreeInfo(std::string* dst, const TreeInfo& info) {
  PutVarint64(dst, static_cast<uint64_t>(info.tree_id));
  PutString(dst, info.name);
  PutVarint64(dst, static_cast<uint64_t>(info.n_nodes));
  PutVarint64(dst, static_cast<uint64_t>(info.n_leaves));
  PutVarint64(dst, static_cast<uint64_t>(info.f));
  PutVarint64(dst, static_cast<uint64_t>(info.max_depth));
}

Result<TreeInfo> DecodeTreeInfo(Slice* in) {
  TreeInfo info;
  uint64_t id = 0, nodes = 0, leaves = 0, f = 0, depth = 0;
  if (!GetVarint64(in, &id) || !GetString(in, &info.name) ||
      !GetVarint64(in, &nodes) || !GetVarint64(in, &leaves) ||
      !GetVarint64(in, &f) || !GetVarint64(in, &depth)) {
    return Truncated("tree info");
  }
  info.tree_id = static_cast<int64_t>(id);
  info.n_nodes = static_cast<int64_t>(nodes);
  info.n_leaves = static_cast<int64_t>(leaves);
  info.f = static_cast<int64_t>(f);
  info.max_depth = static_cast<int64_t>(depth);
  return info;
}

void EncodeTreeInfoList(std::string* dst, const std::vector<TreeInfo>& infos) {
  PutVarint64(dst, infos.size());
  for (const auto& info : infos) EncodeTreeInfo(dst, info);
}

Result<std::vector<TreeInfo>> DecodeTreeInfoList(Slice* in) {
  uint64_t n = 0;
  if (!GetVarint64(in, &n)) return Truncated("tree info count");
  if (n > in->size()) return Truncated("tree info count");
  std::vector<TreeInfo> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    CRIMSON_ASSIGN_OR_RETURN(TreeInfo info, DecodeTreeInfo(in));
    out.push_back(std::move(info));
  }
  return out;
}

void EncodeStoreTreeRequest(std::string* dst, const StoreTreeRequest& req) {
  PutString(dst, req.name);
  dst->push_back(static_cast<char>(req.format));
  dst->push_back(static_cast<char>(req.mode));
  PutString(dst, req.text);
}

Result<StoreTreeRequest> DecodeStoreTreeRequest(Slice* in) {
  StoreTreeRequest req;
  uint8_t format = 0, mode = 0;
  if (!GetString(in, &req.name) || !GetByte(in, &format) ||
      !GetByte(in, &mode) || !GetString(in, &req.text)) {
    return Truncated("store tree request");
  }
  if (format > static_cast<uint8_t>(TreeFormat::kNexus)) {
    return Status::InvalidArgument(
        StrFormat("wire decode: unknown tree format %u", format));
  }
  if (mode > static_cast<uint8_t>(LoadMode::kAppendSpeciesData)) {
    return Status::InvalidArgument(
        StrFormat("wire decode: unknown load mode %u", mode));
  }
  req.format = static_cast<TreeFormat>(format);
  req.mode = static_cast<LoadMode>(mode);
  return req;
}

void EncodeHistoryEntries(std::string* dst,
                          const std::vector<QueryRepository::Entry>& entries) {
  PutVarint64(dst, entries.size());
  for (const auto& e : entries) {
    PutVarint64(dst, static_cast<uint64_t>(e.query_id));
    PutVarint64(dst, static_cast<uint64_t>(e.timestamp_micros));
    PutString(dst, e.kind);
    PutString(dst, e.params);
    PutString(dst, e.summary);
  }
}

Result<std::vector<QueryRepository::Entry>> DecodeHistoryEntries(Slice* in) {
  uint64_t n = 0;
  if (!GetVarint64(in, &n)) return Truncated("history count");
  if (n > in->size()) return Truncated("history count");
  std::vector<QueryRepository::Entry> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    QueryRepository::Entry e;
    uint64_t id = 0, ts = 0;
    if (!GetVarint64(in, &id) || !GetVarint64(in, &ts) ||
        !GetString(in, &e.kind) || !GetString(in, &e.params) ||
        !GetString(in, &e.summary)) {
      return Truncated("history entry");
    }
    e.query_id = static_cast<int64_t>(id);
    e.timestamp_micros = static_cast<int64_t>(ts);
    out.push_back(std::move(e));
  }
  return out;
}

// -- metrics snapshot -------------------------------------------------------

void EncodeMetricsSnapshot(std::string* dst,
                           const obs::MetricsSnapshot& snapshot) {
  // One sorted dictionary carrying every registry counter and gauge.
  // Sorted-map iteration makes the encoding deterministic: a decoded
  // snapshot re-encodes byte-identically.
  PutVarint64(dst, snapshot.counters.size());
  for (const auto& [key, value] : snapshot.counters) {
    PutString(dst, key);
    PutVarint64(dst, value);
  }
  // Histogram section, appended after the dictionary: pre-histogram
  // decoders stop before it, pre-histogram encoders omit it, and this
  // decoder treats its absence as zero histograms -- no version bump.
  // Each histogram is self-describing: its inclusive upper bounds
  // (last one UINT64_MAX, the overflow bucket) travel with the counts.
  PutVarint64(dst, snapshot.histograms.size());
  for (const auto& [key, h] : snapshot.histograms) {
    PutString(dst, key);
    PutVarint64(dst, h.bounds.size());
    for (size_t i = 0; i < h.bounds.size(); ++i) {
      PutVarint64(dst, h.bounds[i]);
      PutVarint64(dst, i < h.counts.size() ? h.counts[i] : 0);
    }
    PutVarint64(dst, h.count);
    PutVarint64(dst, h.sum);
  }
}

Result<obs::MetricsSnapshot> DecodeMetricsSnapshot(Slice* in) {
  uint64_t n = 0;
  if (!GetVarint64(in, &n)) return Truncated("stats counter count");
  if (n > in->size()) return Truncated("stats counter count");
  obs::MetricsSnapshot snapshot;
  for (uint64_t i = 0; i < n; ++i) {
    std::string key;
    uint64_t value = 0;
    if (!GetString(in, &key) || !GetVarint64(in, &value)) {
      return Truncated("stats counter");
    }
    // Every key is retained, unknown names included, so re-encoding
    // reproduces the payload.
    snapshot.counters[std::move(key)] = value;
  }
  if (in->empty()) return snapshot;  // Pre-histogram payload.
  uint64_t hn = 0;
  if (!GetVarint64(in, &hn)) return Truncated("stats histogram count");
  if (hn > in->size()) return Truncated("stats histogram count");
  for (uint64_t i = 0; i < hn; ++i) {
    std::string key;
    uint64_t buckets = 0;
    if (!GetString(in, &key) || !GetVarint64(in, &buckets)) {
      return Truncated("stats histogram");
    }
    if (buckets > in->size()) return Truncated("stats histogram buckets");
    obs::HistogramSnapshot h;
    h.bounds.reserve(buckets);
    h.counts.reserve(buckets);
    for (uint64_t b = 0; b < buckets; ++b) {
      uint64_t bound = 0, count = 0;
      if (!GetVarint64(in, &bound) || !GetVarint64(in, &count)) {
        return Truncated("stats histogram bucket");
      }
      h.bounds.push_back(bound);
      h.counts.push_back(count);
    }
    if (!GetVarint64(in, &h.count) || !GetVarint64(in, &h.sum)) {
      return Truncated("stats histogram totals");
    }
    snapshot.histograms.emplace(std::move(key), std::move(h));
  }
  return snapshot;
}

// -- status -----------------------------------------------------------------

void EncodeStatusPayload(std::string* dst, const Status& status) {
  PutVarint32(dst, static_cast<uint32_t>(status.code()));
  PutString(dst, std::string(status.message()));
  PutVarint64(dst, static_cast<uint64_t>(status.retry_after_ms()));
}

Status DecodeStatusPayload(Slice* in, Status* out) {
  uint32_t code = 0;
  std::string message;
  uint64_t retry_after = 0;
  if (!GetVarint32(in, &code) || !GetString(in, &message) ||
      !GetVarint64(in, &retry_after)) {
    return Truncated("status payload");
  }
  if (code > static_cast<uint32_t>(StatusCode::kUnavailable)) {
    return Status::InvalidArgument(
        StrFormat("wire decode: unknown status code %u", code));
  }
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk:
      *out = Status::OK();
      break;
    case StatusCode::kInvalidArgument:
      *out = Status::InvalidArgument(message);
      break;
    case StatusCode::kNotFound:
      *out = Status::NotFound(message);
      break;
    case StatusCode::kAlreadyExists:
      *out = Status::AlreadyExists(message);
      break;
    case StatusCode::kCorruption:
      *out = Status::Corruption(message);
      break;
    case StatusCode::kIOError:
      *out = Status::IOError(message);
      break;
    case StatusCode::kOutOfRange:
      *out = Status::OutOfRange(message);
      break;
    case StatusCode::kFailedPrecondition:
      *out = Status::FailedPrecondition(message);
      break;
    case StatusCode::kUnimplemented:
      *out = Status::Unimplemented(message);
      break;
    case StatusCode::kInternal:
      *out = Status::Internal(message);
      break;
    case StatusCode::kResourceExhausted:
      *out = Status::ResourceExhausted(message);
      break;
    case StatusCode::kUnavailable:
      *out = Status::Unavailable(message, static_cast<int64_t>(retry_after));
      break;
  }
  return Status::OK();
}

}  // namespace net
}  // namespace crimson
