// Wire protocol tests: frame encode/decode (including incremental
// feeds and torn frames), hostile-input robustness (bad magic, bad
// version, oversized, CRC mismatch, truncation, random fuzz), and
// byte-identical round-trips for every typed payload codec -- all six
// QueryRequest kinds, all five QueryResult kinds, packed trees, metadata,
// history entries, and the error payload across every status code.

#include "net/protocol.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "common/status.h"
#include "sim/tree_sim.h"
#include "tree/newick.h"

namespace crimson {
namespace net {
namespace {

std::string EncodeFrameBytes(MessageType type, const std::string& payload) {
  std::string out;
  AppendFrame(&out, type, payload);
  return out;
}

// -- framing ----------------------------------------------------------------

TEST(FrameTest, RoundTripsTypeAndPayload) {
  std::string wire = EncodeFrameBytes(MessageType::kPing, "hello frame");
  EXPECT_EQ(wire.size(), kFrameHeaderSize + 11);

  Slice in(wire);
  Frame frame;
  std::string error;
  ASSERT_EQ(DecodeFrame(&in, &frame, &error), FrameDecode::kFrame) << error;
  EXPECT_EQ(frame.type, MessageType::kPing);
  EXPECT_EQ(frame.payload, "hello frame");
  EXPECT_TRUE(in.empty());
}

TEST(FrameTest, EmptyPayloadRoundTrips) {
  std::string wire = EncodeFrameBytes(MessageType::kCheckpoint, "");
  Slice in(wire);
  Frame frame;
  std::string error;
  ASSERT_EQ(DecodeFrame(&in, &frame, &error), FrameDecode::kFrame);
  EXPECT_EQ(frame.type, MessageType::kCheckpoint);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(FrameTest, IncrementalFeedNeedsMoreUntilComplete) {
  std::string wire = EncodeFrameBytes(MessageType::kQuery, "payload bytes");
  // Every strict prefix must report kNeedMore and consume nothing.
  for (size_t n = 0; n < wire.size(); ++n) {
    Slice in(wire.data(), n);
    Frame frame;
    std::string error;
    EXPECT_EQ(DecodeFrame(&in, &frame, &error), FrameDecode::kNeedMore)
        << "prefix of " << n << " bytes";
    EXPECT_EQ(in.size(), n) << "kNeedMore must not consume";
  }
}

TEST(FrameTest, BackToBackFramesDecodeInOrder) {
  std::string wire;
  AppendFrame(&wire, MessageType::kPing, "one");
  AppendFrame(&wire, MessageType::kQuery, "two");
  AppendFrame(&wire, MessageType::kHistory, "");

  Slice in(wire);
  Frame frame;
  std::string error;
  ASSERT_EQ(DecodeFrame(&in, &frame, &error), FrameDecode::kFrame);
  EXPECT_EQ(frame.payload, "one");
  ASSERT_EQ(DecodeFrame(&in, &frame, &error), FrameDecode::kFrame);
  EXPECT_EQ(frame.payload, "two");
  ASSERT_EQ(DecodeFrame(&in, &frame, &error), FrameDecode::kFrame);
  EXPECT_EQ(frame.type, MessageType::kHistory);
  EXPECT_TRUE(in.empty());
}

TEST(FrameTest, BadMagicIsRejected) {
  std::string wire = EncodeFrameBytes(MessageType::kPing, "x");
  wire[0] ^= 0x40;
  Slice in(wire);
  Frame frame;
  std::string error;
  EXPECT_EQ(DecodeFrame(&in, &frame, &error), FrameDecode::kBad);
  EXPECT_FALSE(error.empty());
}

TEST(FrameTest, FutureVersionIsRejected) {
  std::string wire = EncodeFrameBytes(MessageType::kPing, "x");
  wire[2] = static_cast<char>(kProtocolVersion + 1);
  Slice in(wire);
  Frame frame;
  std::string error;
  EXPECT_EQ(DecodeFrame(&in, &frame, &error), FrameDecode::kBad);
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(FrameTest, OversizedLengthIsRejectedBeforeBuffering) {
  // A header whose declared payload exceeds the cap must be rejected
  // immediately even though none of the payload bytes are present --
  // otherwise a 4GiB length would make the server buffer forever.
  std::string wire;
  PutFixed16(&wire, kFrameMagic);
  wire.push_back(static_cast<char>(kProtocolVersion));
  wire.push_back(static_cast<char>(MessageType::kPing));
  PutFixed32(&wire, kMaxPayloadBytes + 1);
  PutFixed32(&wire, 0);  // crc (never checked: length fails first)
  Slice in(wire);
  Frame frame;
  std::string error;
  EXPECT_EQ(DecodeFrame(&in, &frame, &error), FrameDecode::kBad);
  EXPECT_NE(error.find("payload"), std::string::npos) << error;
}

TEST(FrameTest, ServerConfiguredLowerCapApplies) {
  std::string wire = EncodeFrameBytes(MessageType::kPing, std::string(128, 'p'));
  Slice in(wire);
  Frame frame;
  std::string error;
  EXPECT_EQ(DecodeFrame(&in, &frame, &error, /*max_payload=*/64),
            FrameDecode::kBad);
}

TEST(FrameTest, CorruptPayloadFailsCrc) {
  std::string wire = EncodeFrameBytes(MessageType::kQuery, "checksummed");
  wire[kFrameHeaderSize + 3] ^= 0x01;  // flip one payload bit
  Slice in(wire);
  Frame frame;
  std::string error;
  EXPECT_EQ(DecodeFrame(&in, &frame, &error), FrameDecode::kBad);
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;
}

TEST(FrameTest, CorruptHeaderCrcFieldFailsCrc) {
  std::string wire = EncodeFrameBytes(MessageType::kQuery, "checksummed");
  wire[8] ^= 0x01;  // flip a bit of the stored crc itself
  Slice in(wire);
  Frame frame;
  std::string error;
  EXPECT_EQ(DecodeFrame(&in, &frame, &error), FrameDecode::kBad);
}

TEST(FrameTest, TornFrameIsJustNeedMore) {
  // A frame cut mid-payload (as a crashed peer would leave it) is not
  // corruption -- the reader waits for the rest or sees EOF.
  std::string wire = EncodeFrameBytes(MessageType::kStoreTree,
                                      std::string(1000, 't'));
  Slice in(wire.data(), wire.size() - 400);
  Frame frame;
  std::string error;
  EXPECT_EQ(DecodeFrame(&in, &frame, &error), FrameDecode::kNeedMore);
}

// -- fuzzing ----------------------------------------------------------------

void FuzzDecoderNeverCrashes(uint64_t seed, int iterations) {
  Rng rng(seed);
  std::string valid = EncodeFrameBytes(MessageType::kQuery, "fuzz seed corpus");
  for (int i = 0; i < iterations; ++i) {
    std::string input;
    if (rng.OneIn(2)) {
      // Mutated valid frame: flip 1-8 random bytes.
      input = valid;
      size_t flips = 1 + rng.Uniform(8);
      for (size_t f = 0; f < flips; ++f) {
        input[rng.Uniform(input.size())] ^=
            static_cast<char>(1 + rng.Uniform(255));
      }
    } else {
      // Pure noise of random length (including header-sized prefixes).
      input.resize(rng.Uniform(64));
      for (auto& c : input) c = static_cast<char>(rng.Next());
    }
    Slice in(input);
    Frame frame;
    std::string error;
    // Drain as a connection loop would: stop on kBad or kNeedMore.
    while (DecodeFrame(&in, &frame, &error) == FrameDecode::kFrame) {
      // Feed every frame that survives framing to every payload
      // decoder; none may crash on arbitrary CRC-valid bytes.
      Slice p1(frame.payload);
      (void)DecodeQueryEnvelope(&p1);
      Slice p2(frame.payload);
      (void)DecodeQueryResultWire(&p2);
      Slice p3(frame.payload);
      (void)DecodePackedTree(&p3);
      Slice p4(frame.payload);
      (void)DecodeStoreTreeRequest(&p4);
      Slice p5(frame.payload);
      (void)DecodeTreeInfoList(&p5);
      Slice p6(frame.payload);
      (void)DecodeHistoryEntries(&p6);
      Slice p7(frame.payload);
      Status decoded;
      (void)DecodeStatusPayload(&p7, &decoded);
    }
  }
}

TEST(FrameFuzzTest, RandomizedInputsNeverCrash) {
  FuzzDecoderNeverCrashes(/*seed=*/20260807, /*iterations=*/2000);
}

TEST(FrameFuzzTest, StressRandomizedInputsNeverCrash) {
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    FuzzDecoderNeverCrashes(seed, /*iterations=*/20000);
  }
}

TEST(PayloadFuzzTest, TruncatedValidPayloadsFailCleanly) {
  // Every strict prefix of a valid payload must decode to a typed
  // error, not a crash and not a bogus success that read past the end.
  std::string payload;
  EncodeQueryEnvelope(&payload,
                      {"a_tree", QueryRequest(ProjectQuery{{"a", "b", "c"}})});
  for (size_t n = 0; n < payload.size(); ++n) {
    Slice in(payload.data(), n);
    auto r = DecodeQueryEnvelope(&in);
    if (r.ok()) {
      // A prefix may decode successfully only by consuming everything
      // it was given (e.g. shorter species lists): re-encoding must
      // reproduce exactly those bytes.
      std::string again;
      EncodeQueryEnvelope(&again, *r);
      EXPECT_EQ(again, std::string(payload.data(), n));
    } else {
      EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
    }
  }
}

TEST(PayloadFuzzTest, HostileNodeCountDoesNotAllocate) {
  // A tree image claiming 2^31 nodes in a few bytes must be rejected by
  // the size bound, not die trying to allocate the columns.
  std::string payload;
  PutVarint32(&payload, kPackedTreeVersion);
  PutVarint64(&payload, 1u << 31);
  PutVarint64(&payload, 2);
  payload += "xx";
  Slice in(payload);
  auto r = DecodePackedTree(&in);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(PayloadFuzzTest, OverflowingNodeCountDoesNotAllocate) {
  // 2^60 + 1 nodes: count * 16 wraps to 16, which a multiplying size
  // check would accept against 16 column bytes plus a 2-byte arena.
  std::string payload;
  PutVarint32(&payload, kPackedTreeVersion);
  PutVarint64(&payload, (uint64_t{1} << 60) + 1);
  PutVarint64(&payload, 2);
  payload.append(16, '\0');
  payload.append(2, '\0');
  Slice in(payload);
  auto r = DecodePackedTree(&in);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

// -- typed payload round-trips ----------------------------------------------
//
// Encode -> decode -> re-encode must reproduce the original bytes
// exactly; this is the property the loopback tests lean on.

TEST(QueryCodecTest, EveryRequestKindRoundTripsByteIdentically) {
  const std::vector<QueryRequest> kAll = {
      QueryRequest(LcaQuery{"Lla", "Spy"}),
      QueryRequest(ProjectQuery{{"Bha", "Lla", "Syn"}}),
      QueryRequest(SampleUniformQuery{7}),
      QueryRequest(SampleTimeQuery{4, 1.25}),
      QueryRequest(CladeQuery{{"Lla", "Spy", "Bsu"}}),
      QueryRequest(PatternQuery{"((a,b),c);", true}),
  };
  for (const auto& request : kAll) {
    std::string bytes;
    EncodeQueryRequest(&bytes, request);
    Slice in(bytes);
    auto decoded = DecodeQueryRequestWire(&in);
    ASSERT_TRUE(decoded.ok())
        << QueryKindName(request) << ": " << decoded.status();
    EXPECT_TRUE(in.empty());
    EXPECT_EQ(decoded->index(), request.index());
    std::string again;
    EncodeQueryRequest(&again, *decoded);
    EXPECT_EQ(again, bytes) << QueryKindName(request);
  }
}

TEST(QueryCodecTest, RequestFieldsSurviveRoundTrip) {
  std::string bytes;
  EncodeQueryRequest(&bytes, QueryRequest(SampleTimeQuery{42, 0.375}));
  Slice in(bytes);
  auto decoded = DecodeQueryRequestWire(&in);
  ASSERT_TRUE(decoded.ok());
  const auto& q = std::get<SampleTimeQuery>(*decoded);
  EXPECT_EQ(q.k, 42u);
  EXPECT_EQ(q.time, 0.375);

  bytes.clear();
  EncodeQueryRequest(&bytes, QueryRequest(PatternQuery{"(x,y);", true}));
  Slice in2(bytes);
  auto p = DecodeQueryRequestWire(&in2);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(std::get<PatternQuery>(*p).pattern_newick, "(x,y);");
  EXPECT_TRUE(std::get<PatternQuery>(*p).match_weights);
}

TEST(QueryCodecTest, EnvelopeCarriesTreeName) {
  std::string bytes;
  EncodeQueryEnvelope(&bytes, {"tree/with odd name",
                               QueryRequest(LcaQuery{"a", "b"})});
  Slice in(bytes);
  auto decoded = DecodeQueryEnvelope(&in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->tree_name, "tree/with odd name");
  EXPECT_EQ(std::get<LcaQuery>(decoded->request).a, "a");
  std::string again;
  EncodeQueryEnvelope(&again, *decoded);
  EXPECT_EQ(again, bytes);
}

PhyloTree MakeTree(uint64_t seed, size_t leaves) {
  Rng rng(seed);
  YuleOptions yule;
  yule.n_leaves = leaves;
  auto tree = SimulateYule(yule, &rng);
  EXPECT_TRUE(tree.ok());
  return std::move(tree).value();
}

TEST(QueryCodecTest, EveryResultKindRoundTripsByteIdentically) {
  PhyloTree proj = MakeTree(7, 12);
  PhyloTree pat = MakeTree(9, 5);
  const std::vector<QueryResult> kAll = {
      QueryResult(LcaAnswer{NodeId{17}, "anc_17"}),
      QueryResult(ProjectAnswer{std::move(proj)}),
      QueryResult(SampleAnswer{{"S1", "S2", "S3"}}),
      QueryResult(CladeAnswer{NodeId{3}, 11, 6}),
      QueryResult(PatternAnswer{false, 0.625, std::move(pat)}),
  };
  for (const auto& result : kAll) {
    std::string bytes;
    EncodeQueryResult(&bytes, result);
    Slice in(bytes);
    auto decoded = DecodeQueryResultWire(&in);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_TRUE(in.empty());
    EXPECT_EQ(decoded->index(), result.index());
    // Byte identity of the re-encoding, and semantic identity of the
    // human renderings (what clients display / history stores).
    std::string again;
    EncodeQueryResult(&again, *decoded);
    EXPECT_EQ(again, bytes);
    EXPECT_EQ(RenderResult(*decoded), RenderResult(result));
    EXPECT_EQ(SummarizeResult(*decoded), SummarizeResult(result));
  }
}

TEST(TreeCodecTest, SimulatedTreeRoundTripsExactly) {
  PhyloTree tree = MakeTree(123, 64);
  std::string bytes;
  EncodePackedTree(tree, &bytes);
  Slice in(bytes);
  auto decoded = DecodePackedTree(&in);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(in.empty());
  ASSERT_EQ(decoded->size(), tree.size());
  EXPECT_EQ(decoded->LeafCount(), tree.LeafCount());
  // Bit-exact edge lengths and identical topology => identical Newick
  // and identical re-encoding.
  EXPECT_EQ(WriteNewick(*decoded), WriteNewick(tree));
  std::string again;
  EncodePackedTree(*decoded, &again);
  EXPECT_EQ(again, bytes);
}

TEST(TreeCodecTest, EmptyTreeRoundTrips) {
  PhyloTree empty;
  std::string bytes;
  EncodePackedTree(empty, &bytes);
  Slice in(bytes);
  auto decoded = DecodePackedTree(&in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(decoded->size(), 0u);
}

TEST(TreeCodecTest, EveryTruncationFailsCleanly) {
  std::string bytes;
  EncodePackedTree(MakeTree(5, 9), &bytes);
  for (size_t n = 0; n < bytes.size(); ++n) {
    Slice in(bytes.data(), n);
    auto r = DecodePackedTree(&in);
    ASSERT_FALSE(r.ok()) << "prefix " << n;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
  }
}

/// A packed image with hand-set parent links: names "" for every node.
std::string PackedImage(const std::vector<NodeId>& parents) {
  std::string bytes;
  PutVarint32(&bytes, kPackedTreeVersion);
  PutVarint64(&bytes, parents.size());
  PutVarint64(&bytes, 1);  // arena: the shared empty name
  for (NodeId p : parents) PutFixed32(&bytes, p);
  for (size_t i = 0; i < parents.size(); ++i) PutDouble(&bytes, 1.0);
  for (size_t i = 0; i < parents.size(); ++i) PutFixed32(&bytes, 0);
  bytes.push_back('\0');
  return bytes;
}

TEST(TreeCodecTest, RootWithParentIsRejected) {
  std::string good = PackedImage({kNoNode, 0, 0});
  Slice good_in(good);
  ASSERT_TRUE(DecodePackedTree(&good_in).ok());
  std::string bad = PackedImage({0, 0, 0});
  Slice in(bad);
  auto r = DecodePackedTree(&in);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
}

TEST(TreeCodecTest, ParentOutOfOrderIsRejected) {
  for (const std::vector<NodeId>& parents :
       {std::vector<NodeId>{kNoNode, 1}, std::vector<NodeId>{kNoNode, 0, 3},
        std::vector<NodeId>{kNoNode, 0, kNoNode}}) {
    std::string bad = PackedImage(parents);
    Slice in(bad);
    auto r = DecodePackedTree(&in);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
  }
}

TEST(TreeCodecTest, MutatedImagesAreRejectedOrReEncodeExactly) {
  // Any decodable mutation is a well-formed tree whose re-encoding
  // reproduces exactly the bytes the decoder consumed.
  std::string valid;
  EncodePackedTree(MakeTree(11, 16), &valid);
  Rng rng(0x7EE5);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string bytes = valid;
    const size_t flips = 1 + rng.Uniform(4);
    for (size_t f = 0; f < flips; ++f) {
      bytes[rng.Uniform(bytes.size())] ^=
          static_cast<char>(1 + rng.Uniform(255));
    }
    Slice in(bytes);
    auto r = DecodePackedTree(&in);
    if (!r.ok()) {
      EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
      continue;
    }
    EXPECT_TRUE(r->Validate().ok());
    std::string again;
    EncodePackedTree(*r, &again);
    EXPECT_EQ(again, bytes.substr(0, bytes.size() - in.size()));
  }
}

TEST(MetadataCodecTest, TreeInfoListRoundTrips) {
  std::vector<TreeInfo> infos(2);
  infos[0].tree_id = 1;
  infos[0].name = "alpha";
  infos[0].n_nodes = 100;
  infos[0].n_leaves = 51;
  infos[0].f = 3;
  infos[0].max_depth = 9;
  infos[1].tree_id = 2;
  infos[1].name = "beta";
  std::string bytes;
  EncodeTreeInfoList(&bytes, infos);
  Slice in(bytes);
  auto decoded = DecodeTreeInfoList(&in);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0].name, "alpha");
  EXPECT_EQ((*decoded)[0].n_nodes, 100);
  EXPECT_EQ((*decoded)[0].max_depth, 9);
  EXPECT_EQ((*decoded)[1].tree_id, 2);
  std::string again;
  EncodeTreeInfoList(&again, *decoded);
  EXPECT_EQ(again, bytes);
}

TEST(MetadataCodecTest, StoreTreeRequestRoundTrips) {
  StoreTreeRequest req;
  req.name = "stored";
  req.format = TreeFormat::kNexus;
  req.mode = LoadMode::kTreeWithSpeciesData;
  req.text = "#NEXUS\nbegin trees;\nend;\n";
  std::string bytes;
  EncodeStoreTreeRequest(&bytes, req);
  Slice in(bytes);
  auto decoded = DecodeStoreTreeRequest(&in);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->name, "stored");
  EXPECT_EQ(decoded->format, TreeFormat::kNexus);
  EXPECT_EQ(decoded->mode, LoadMode::kTreeWithSpeciesData);
  EXPECT_EQ(decoded->text, req.text);
}

TEST(MetadataCodecTest, HistoryEntriesRoundTrip) {
  std::vector<QueryRepository::Entry> entries(2);
  entries[0].query_id = 41;
  entries[0].timestamp_micros = 1754500000000000;
  entries[0].kind = "lca";
  entries[0].params = "tree=fig1&a=Lla&b=Spy";
  entries[0].summary = "lca(Lla,Spy) = n6";
  entries[1].query_id = 42;
  entries[1].kind = "sample_uniform";
  std::string bytes;
  EncodeHistoryEntries(&bytes, entries);
  Slice in(bytes);
  auto decoded = DecodeHistoryEntries(&in);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0].query_id, 41);
  EXPECT_EQ((*decoded)[0].params, "tree=fig1&a=Lla&b=Spy");
  EXPECT_EQ((*decoded)[1].kind, "sample_uniform");
  std::string again;
  EncodeHistoryEntries(&again, *decoded);
  EXPECT_EQ(again, bytes);
}

TEST(StatusCodecTest, EveryCodeRoundTrips) {
  const std::vector<Status> kAll = {
      Status::OK(),
      Status::NotFound("no such tree"),
      Status::Corruption("bad frame"),
      Status::InvalidArgument("bad arg"),
      Status::IOError("disk"),
      Status::AlreadyExists("dup tree"),
      Status::FailedPrecondition("version"),
      Status::OutOfRange("range"),
      Status::Unimplemented("todo"),
      Status::Internal("bug"),
      Status::ResourceExhausted("pool"),
      Status::Unavailable("saturated", /*retry_after_ms=*/35),
  };
  for (const Status& status : kAll) {
    std::string bytes;
    EncodeStatusPayload(&bytes, status);
    Slice in(bytes);
    Status decoded;
    ASSERT_TRUE(DecodeStatusPayload(&in, &decoded).ok());
    EXPECT_TRUE(in.empty());
    EXPECT_EQ(decoded.code(), status.code());
    EXPECT_EQ(decoded.message(), status.message());
    EXPECT_EQ(decoded.retry_after_ms(), status.retry_after_ms());
  }
}

TEST(StatusCodecTest, RetryAfterSurvivesTheWire) {
  std::string bytes;
  EncodeStatusPayload(&bytes, Status::Unavailable("busy", 250));
  Slice in(bytes);
  Status decoded;
  ASSERT_TRUE(DecodeStatusPayload(&in, &decoded).ok());
  EXPECT_TRUE(decoded.IsUnavailable());
  EXPECT_EQ(decoded.retry_after_ms(), 250);
}

TEST(StatusCodecTest, TruncatedStatusFailsCleanly) {
  std::string bytes;
  EncodeStatusPayload(&bytes, Status::NotFound("a reasonably long message"));
  for (size_t n = 0; n + 1 < bytes.size(); ++n) {
    Slice in(bytes.data(), n);
    Status decoded;
    Status ok = DecodeStatusPayload(&in, &decoded);
    // Either a clean decode failure, or (for prefixes that happen to
    // form a complete shorter encoding) a decodable status.
    if (!ok.ok()) EXPECT_TRUE(ok.IsInvalidArgument());
  }
}

TEST(StatsCodecTest, EveryCounterRoundTrips) {
  obs::MetricsSnapshot snapshot;
  uint64_t value = 100;
  for (const char* key :
       {"cache.hits", "cache.misses", "cache.insertions", "cache.evictions",
        "cache.bypassed", "cache.entries", "cache.bytes_used",
        "cache.budget_bytes",
        "crack.stores", "crack.pieces", "crack.loaded_pieces",
        "crack.sequences_loaded", "crack.sequences_resident",
        "crack.sequences_total", "crack.fetches", "crack.batches",
        "crack.piece_hits", "history.buffer_full", "history.flush_waits",
        "pages.captured_pages", "pages.version_hits",
        "pages.versions_dropped", "pages.live_versions",
        "pages.active_snapshots", "pages.committed_epoch"}) {
    snapshot.counters[key] = value++;
  }
  snapshot.counters["cache.bytes_used"] = uint64_t{1} << 40;  // multi-byte

  std::string bytes;
  EncodeMetricsSnapshot(&bytes, snapshot);
  Slice in(bytes);
  auto decoded = DecodeMetricsSnapshot(&in);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(decoded->counters, snapshot.counters);
  EXPECT_TRUE(decoded->histograms.empty());
}

TEST(StatsCodecTest, EncodingMatchesTheDocumentedLayout) {
  // The kStatsOk layout is a wire contract: a peer built from an older
  // tree decodes these exact bytes. Build them by hand from the
  // documented layout and compare.
  obs::MetricsSnapshot snapshot;
  snapshot.counters["cache.hits"] = 3;
  snapshot.counters["a.gauge"] = 300;
  obs::HistogramSnapshot h;
  h.bounds = {10, UINT64_MAX};
  h.counts = {2, 1};
  h.count = 3;
  h.sum = 40;
  snapshot.histograms["net.op.ping_us"] = h;

  std::string expected;
  PutVarint64(&expected, 2);  // counters, in sorted key order
  PutLengthPrefixedSlice(&expected, Slice("a.gauge"));
  PutVarint64(&expected, 300);
  PutLengthPrefixedSlice(&expected, Slice("cache.hits"));
  PutVarint64(&expected, 3);
  PutVarint64(&expected, 1);  // histograms
  PutLengthPrefixedSlice(&expected, Slice("net.op.ping_us"));
  PutVarint64(&expected, 2);  // buckets: (bound, count) pairs
  PutVarint64(&expected, 10);
  PutVarint64(&expected, 2);
  PutVarint64(&expected, UINT64_MAX);
  PutVarint64(&expected, 1);
  PutVarint64(&expected, 3);   // count
  PutVarint64(&expected, 40);  // sum

  std::string bytes;
  EncodeMetricsSnapshot(&bytes, snapshot);
  EXPECT_EQ(bytes, expected);
}

TEST(StatsCodecTest, UnknownKeysAreKeptAbsentKeysReadZero) {
  // A "future server" payload: one known counter, one unknown.
  std::string bytes;
  PutVarint64(&bytes, 2);
  PutLengthPrefixedSlice(&bytes, Slice("cache.hits"));
  PutVarint64(&bytes, 42);
  PutLengthPrefixedSlice(&bytes, Slice("cache.some_future_counter"));
  PutVarint64(&bytes, 7);

  Slice in(bytes);
  auto decoded = DecodeMetricsSnapshot(&in);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(decoded->counter("cache.hits"), 42u);
  EXPECT_EQ(decoded->counter("cache.some_future_counter"), 7u);
  EXPECT_EQ(decoded->counter("cache.misses"), 0u);
  EXPECT_EQ(decoded->counter("pages.committed_epoch"), 0u);
}

TEST(StatsCodecTest, RegistryCountersAndHistogramsRoundTrip) {
  obs::MetricsSnapshot snapshot;
  snapshot.counters["query.lca.count"] = 17;
  snapshot.counters["storage.pool.hits"] = 900;
  snapshot.counters["cache.hits"] = 999;
  obs::HistogramSnapshot h;
  h.bounds = {10, 100, UINT64_MAX};
  h.counts = {5, 2, 1};
  h.count = 8;
  h.sum = 1234;
  snapshot.histograms["query.lca.latency_us"] = h;

  std::string bytes;
  EncodeMetricsSnapshot(&bytes, snapshot);
  Slice in(bytes);
  auto decoded = DecodeMetricsSnapshot(&in);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(decoded->counter("query.lca.count"), 17u);
  EXPECT_EQ(decoded->counter("storage.pool.hits"), 900u);
  // The registry value is carried as is: nothing overlays it.
  EXPECT_EQ(decoded->counter("cache.hits"), 999u);
  const obs::HistogramSnapshot* dh =
      decoded->histogram("query.lca.latency_us");
  ASSERT_NE(dh, nullptr);
  EXPECT_EQ(dh->bounds, h.bounds);
  EXPECT_EQ(dh->counts, h.counts);
  EXPECT_EQ(dh->count, h.count);
  EXPECT_EQ(dh->sum, h.sum);
}

TEST(StatsCodecTest, DecodedSnapshotReEncodesByteIdentically) {
  obs::MetricsSnapshot snapshot;
  snapshot.counters["cache.hits"] = 42;
  snapshot.counters["pages.committed_epoch"] = 9;
  snapshot.counters["net.frames_received"] = 55;
  snapshot.counters["zz.some_gauge"] = 1;
  obs::HistogramSnapshot h;
  h.bounds = {1, 2, 4, UINT64_MAX};
  h.counts = {1, 0, 3, 0};
  h.count = 4;
  h.sum = 13;
  snapshot.histograms["net.op.ping_us"] = h;
  snapshot.histograms["query.stage.execute_us"] = h;
  snapshot.histograms["history.backpressure_us"] = h;

  std::string bytes;
  EncodeMetricsSnapshot(&bytes, snapshot);
  Slice in(bytes);
  auto decoded = DecodeMetricsSnapshot(&in);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->histograms.size(), snapshot.histograms.size());
  std::string again;
  EncodeMetricsSnapshot(&again, *decoded);
  EXPECT_EQ(again, bytes);
}

TEST(StatsCodecTest, CounterOnlyPayloadStillDecodes) {
  // A pre-histogram peer's payload ends right after the counter
  // dictionary; the decoder must treat the missing histogram section
  // as empty, not as truncation.
  std::string bytes;
  PutVarint64(&bytes, 1);
  PutLengthPrefixedSlice(&bytes, Slice("cache.hits"));
  PutVarint64(&bytes, 5);

  Slice in(bytes);
  auto decoded = DecodeMetricsSnapshot(&in);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(decoded->counter("cache.hits"), 5u);
  EXPECT_TRUE(decoded->histograms.empty());
}

TEST(StatsCodecTest, UnknownHistogramKeysAreCarriedNotFatal) {
  // A "future server" histogram under an unknown name must decode
  // cleanly (and survive a proxy re-encode).
  std::string bytes;
  PutVarint64(&bytes, 0);  // no counters
  PutVarint64(&bytes, 1);  // one histogram
  PutLengthPrefixedSlice(&bytes, Slice("future.subsystem.latency_us"));
  PutVarint64(&bytes, 2);  // two buckets
  PutVarint64(&bytes, 10);
  PutVarint64(&bytes, 3);
  PutVarint64(&bytes, UINT64_MAX);
  PutVarint64(&bytes, 1);
  PutVarint64(&bytes, 4);   // count
  PutVarint64(&bytes, 33);  // sum

  Slice in(bytes);
  auto decoded = DecodeMetricsSnapshot(&in);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(in.empty());
  EXPECT_TRUE(decoded->counters.empty());
  const obs::HistogramSnapshot* h =
      decoded->histogram("future.subsystem.latency_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 4u);
  EXPECT_EQ(h->sum, 33u);
  ASSERT_EQ(h->bounds.size(), 2u);
  EXPECT_EQ(h->bounds[1], UINT64_MAX);
  std::string again;
  EncodeMetricsSnapshot(&again, *decoded);
  EXPECT_EQ(again, bytes);
}

TEST(StatsCodecTest, TruncatedStatsFailCleanly) {
  obs::MetricsSnapshot snapshot;
  snapshot.counters["cache.hits"] = 5;
  std::string bytes;
  EncodeMetricsSnapshot(&bytes, snapshot);
  for (size_t n = 0; n + 1 < bytes.size(); ++n) {
    Slice in(bytes.data(), n);
    auto decoded = DecodeMetricsSnapshot(&in);
    if (!decoded.ok()) {
      EXPECT_TRUE(decoded.status().IsInvalidArgument());
    }
  }
}

}  // namespace
}  // namespace net
}  // namespace crimson
