// The Crimson wire protocol: a length-prefixed, CRC-framed binary
// protocol over which a remote client drives a Crimson session.
//
// Every message is one frame:
//
//   [0..2)   magic 0xC51E (fixed16)
//   [2]      protocol version (u8)
//   [3]      message type (u8)
//   [4..8)   payload length (fixed32)
//   [8..12)  CRC32 of the payload (fixed32)
//   [12..)   payload
//
// Framing reuses the storage engine's little-endian codecs
// (common/coding.h) and CRC (common/crc32.h), so a frame is validated
// the same way a WAL record is: length-bounded first, checksummed
// second, decoded last. Decoders never trust a byte: every read is
// bounds-checked and every failure maps to a typed error, so a
// malformed, truncated, torn, or adversarial stream can produce at
// worst a clean error reply or disconnect -- never a crash.
//
// Versioning rules: the magic and the header layout are frozen.
// `kProtocolVersion` bumps whenever an existing payload encoding
// changes shape; adding a new message type keeps the version (old
// servers answer unknown types with kUnimplemented). A server rejects
// frames whose version is newer than its own with kError /
// kFailedPrecondition, and the error payload encoding itself is
// frozen at version 1 so any client can always decode rejections.
//
// Request/response pairing is strictly one frame in, one frame out, in
// order -- which is what lets clients pipeline: N requests written
// back-to-back yield N responses in the same order (the server may
// coalesce consecutive pipelined queries into one ExecuteBatch; the
// response bytes are identical to sequential execution either way).

#ifndef CRIMSON_NET_PROTOCOL_H_
#define CRIMSON_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "crimson/data_loader.h"
#include "crimson/query_request.h"
#include "crimson/repositories.h"
#include "obs/metrics.h"
#include "tree/phylo_tree.h"

namespace crimson {
namespace net {

inline constexpr uint16_t kFrameMagic = 0xC51E;
/// Version 2 made projection trees in kQueryOk payloads packed tree
/// images.
inline constexpr uint8_t kProtocolVersion = 2;
inline constexpr size_t kFrameHeaderSize = 12;
/// Hard ceiling on payload bytes; oversized frames are rejected before
/// any allocation happens. Servers may configure a lower limit.
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;

enum class MessageType : uint8_t {
  // Requests.
  kPing = 1,
  kOpenTree = 2,
  kStoreTree = 3,
  kListTrees = 4,
  kQuery = 5,
  kHistory = 6,
  kCheckpoint = 7,
  kStats = 8,
  // Responses.
  kPong = 64,
  kOpenTreeOk = 65,
  kStoreTreeOk = 66,
  kListTreesOk = 67,
  kQueryOk = 68,
  kHistoryOk = 69,
  kCheckpointOk = 70,
  kError = 71,
  kStatsOk = 72,
};

/// One decoded frame: the type byte plus its (CRC-verified) payload.
struct Frame {
  MessageType type = MessageType::kError;
  std::string payload;
};

/// Appends one whole frame (header + payload) to `dst`.
void AppendFrame(std::string* dst, MessageType type, Slice payload);

enum class FrameDecode {
  kFrame,     // one frame decoded and consumed from the input
  kNeedMore,  // input is a valid frame prefix; read more bytes
  kBad,       // stream corrupt (bad magic/version/length/CRC)
};

/// Attempts to decode one frame from the front of `input`. kFrame
/// consumes the frame's bytes and fills `*frame`; kNeedMore consumes
/// nothing; kBad consumes nothing and describes the damage in `*error`
/// (the connection is unrecoverable: framing has lost sync).
FrameDecode DecodeFrame(Slice* input, Frame* frame, std::string* error,
                        uint32_t max_payload = kMaxPayloadBytes);

// -- typed payload codecs ---------------------------------------------------
//
// Encoders are infallible; decoders take a Slice cursor, advance it
// past the decoded value, and return InvalidArgument on any
// truncated/malformed byte without crashing. Decoders do not check for
// trailing garbage -- callers that require a fully-consumed payload
// check `in->empty()` afterwards.

/// Tree document format carried by a kStoreTree request.
enum class TreeFormat : uint8_t { kNewick = 0, kNexus = 1 };

/// kQuery request payload: tree name + typed request.
struct QueryEnvelope {
  std::string tree_name;
  QueryRequest request;
};

/// kStoreTree request payload.
struct StoreTreeRequest {
  std::string name;
  TreeFormat format = TreeFormat::kNewick;
  LoadMode mode = LoadMode::kTreeStructureOnly;
  std::string text;
};

void EncodeQueryRequest(std::string* dst, const QueryRequest& request);
Result<QueryRequest> DecodeQueryRequestWire(Slice* in);

void EncodeQueryEnvelope(std::string* dst, const QueryEnvelope& env);
Result<QueryEnvelope> DecodeQueryEnvelope(Slice* in);

/// Projection trees (ProjectAnswer, PatternAnswer) travel as packed
/// tree images (tree/phylo_tree.h EncodePackedTree), the codec the
/// tree_blobs table stores.
void EncodeQueryResult(std::string* dst, const QueryResult& result);
Result<QueryResult> DecodeQueryResultWire(Slice* in);

void EncodeTreeInfo(std::string* dst, const TreeInfo& info);
Result<TreeInfo> DecodeTreeInfo(Slice* in);

void EncodeTreeInfoList(std::string* dst, const std::vector<TreeInfo>& infos);
Result<std::vector<TreeInfo>> DecodeTreeInfoList(Slice* in);

void EncodeStoreTreeRequest(std::string* dst, const StoreTreeRequest& req);
Result<StoreTreeRequest> DecodeStoreTreeRequest(Slice* in);

void EncodeHistoryEntries(std::string* dst,
                          const std::vector<QueryRepository::Entry>& entries);
Result<std::vector<QueryRepository::Entry>> DecodeHistoryEntries(Slice* in);

/// kStatsOk payload: a self-describing counter dictionary (varint
/// count, then per counter a length-prefixed dotted key and a varint
/// value; gauges ride here too) followed by a histogram section
/// (varint count, then per histogram a length-prefixed key, varint
/// bucket count, (bound, count) varint pairs -- the last bound is
/// UINT64_MAX, the overflow bucket -- and varint total count and sum).
/// Decoders retain every key (unknown names included, so a decoded
/// snapshot re-encodes byte-identically) and treat a missing histogram
/// section as empty -- so either side can gain counters or histograms
/// without a version bump.
void EncodeMetricsSnapshot(std::string* dst,
                           const obs::MetricsSnapshot& snapshot);
Result<obs::MetricsSnapshot> DecodeMetricsSnapshot(Slice* in);

/// kError payload: status code + message + retry-after hint. The
/// decoded Status reproduces code, message, and (for kUnavailable)
/// retry_after_ms. The return value reports decode success; the
/// decoded status itself lands in `*out`.
void EncodeStatusPayload(std::string* dst, const Status& status);
Status DecodeStatusPayload(Slice* in, Status* out);

}  // namespace net
}  // namespace crimson

#endif  // CRIMSON_NET_PROTOCOL_H_
