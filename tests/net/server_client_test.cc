// Loopback tests for CrimsonServer + CrimsonClient: every session
// operation over the wire, byte-identity of wire results vs in-process
// execution, pipelining == sequential identity, typed errors,
// backpressure (kUnavailable + retry-after) under a saturated pool,
// hostile raw-socket input against a live server, and graceful drain.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "crimson/crimson.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "sim/seq_evolve.h"
#include "sim/tree_sim.h"
#include "tree/newick.h"

namespace crimson {
namespace net {
namespace {

constexpr char kFig1Newick[] =
    "(Syn:2.5,((Lla:1,Spy:1):0.5,Bha:1.5):0.75,Bsu:1.25)root;";

/// Holds structure queries inside their execution slot until released.
/// Installed as the session's slow-query sink under a 1us threshold:
/// the sink runs on the query thread after the query executed but
/// inside the server's ExecuteBatch call, so the slot stays taken
/// while a query is held.
class SlotLatch {
 public:
  void Hold() {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
  }

  /// True once a query is held; false if none arrives within a
  /// generous timeout.
  bool WaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(30),
                        [&] { return entered_; });
  }

  /// Lets every held (and every later) query through.
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

std::unique_ptr<Crimson> OpenSession(
    uint64_t seed, std::shared_ptr<SlotLatch> latch = nullptr) {
  CrimsonOptions opts;
  opts.f = 3;
  opts.seed = seed;
  opts.batch_workers = 2;
  if (latch != nullptr) {
    opts.slow_query_micros = 1;
    opts.slow_query_sink = [latch](const std::string&) { latch->Hold(); };
  }
  auto c = Crimson::Open(opts);
  EXPECT_TRUE(c.ok()) << c.status();
  return std::move(c).value();
}

/// One running server over one fresh in-memory session.
struct TestServer {
  std::unique_ptr<Crimson> session;
  std::unique_ptr<CrimsonServer> server;
  /// Set when started with hold_queries.
  std::shared_ptr<SlotLatch> latch;

  static TestServer Start(uint64_t seed, ServerOptions options = {},
                          bool hold_queries = false) {
    TestServer t;
    if (hold_queries) t.latch = std::make_shared<SlotLatch>();
    t.session = OpenSession(seed, t.latch);
    auto server = CrimsonServer::Start(t.session.get(), options);
    EXPECT_TRUE(server.ok()) << server.status();
    t.server = std::move(server).value();
    return t;
  }

  std::unique_ptr<CrimsonClient> Connect() {
    ClientOptions options;
    options.port = server->port();
    auto client = CrimsonClient::Connect(options);
    EXPECT_TRUE(client.ok()) << client.status();
    return std::move(client).value();
  }
};

std::string YuleNewick(uint64_t seed, size_t leaves) {
  Rng rng(seed);
  YuleOptions yule;
  yule.n_leaves = leaves;
  auto tree = SimulateYule(yule, &rng);
  EXPECT_TRUE(tree.ok());
  return WriteNewick(*tree);
}

std::vector<QueryRequest> SixKinds() {
  return {
      QueryRequest(LcaQuery{"Lla", "Syn"}),
      QueryRequest(ProjectQuery{{"Bha", "Lla", "Syn"}}),
      QueryRequest(SampleUniformQuery{3}),
      QueryRequest(SampleTimeQuery{4, 1.0}),
      QueryRequest(CladeQuery{{"Lla", "Spy"}}),
      QueryRequest(PatternQuery{"((Bha:1.5,Lla:1.5):0.75,Syn:2.5);", true}),
  };
}

/// Reads frames off a raw socket until EOF or `n` frames arrive.
std::vector<Frame> ReadFrames(const Socket& sock, size_t n) {
  std::vector<Frame> frames;
  std::string buffer;
  char chunk[4096];
  while (frames.size() < n) {
    auto got = RecvSome(sock, chunk, sizeof(chunk));
    if (!got.ok() || *got == 0) break;
    buffer.append(chunk, *got);
    Slice in(buffer);
    Frame frame;
    std::string error;
    FrameDecode rc;
    while ((rc = DecodeFrame(&in, &frame, &error)) == FrameDecode::kFrame) {
      frames.push_back(frame);
    }
    EXPECT_NE(rc, FrameDecode::kBad) << error;
    buffer.erase(0, buffer.size() - in.size());
  }
  return frames;
}

// -- session operations over the wire ---------------------------------------

TEST(ServerClientTest, PingEchoesPayload) {
  TestServer t = TestServer::Start(1);
  auto client = t.Connect();
  auto echo = client->Ping("twelve bytes");
  ASSERT_TRUE(echo.ok()) << echo.status();
  EXPECT_EQ(*echo, "twelve bytes");
  EXPECT_TRUE(client->Ping("").ok());
}

TEST(ServerClientTest, StoreOpenListAndHistory) {
  TestServer t = TestServer::Start(2);
  auto client = t.Connect();

  auto stored = client->StoreNewick("fig1", kFig1Newick);
  ASSERT_TRUE(stored.ok()) << stored.status();
  EXPECT_EQ(stored->name, "fig1");
  EXPECT_EQ(stored->n_nodes, 8);
  EXPECT_EQ(stored->n_leaves, 5);

  auto opened = client->OpenTree("fig1");
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(opened->tree_id, stored->tree_id);

  auto trees = client->ListTrees();
  ASSERT_TRUE(trees.ok());
  ASSERT_EQ(trees->size(), 1u);
  EXPECT_EQ((*trees)[0].name, "fig1");

  auto lca = client->Execute("fig1", QueryRequest(LcaQuery{"Lla", "Syn"}));
  ASSERT_TRUE(lca.ok()) << lca.status();
  EXPECT_EQ(std::get<LcaAnswer>(*lca).name, "root");

  // The query went through the session's recorded-history path.
  auto history = client->History(10);
  ASSERT_TRUE(history.ok()) << history.status();
  ASSERT_EQ(history->size(), 1u);
  EXPECT_EQ((*history)[0].kind, "lca");
  EXPECT_TRUE(client->Checkpoint().ok());
}

TEST(ServerClientTest, TypedErrorsTravelTheWire) {
  TestServer t = TestServer::Start(3);
  auto client = t.Connect();

  EXPECT_TRUE(client->OpenTree("ghost").status().IsNotFound());
  EXPECT_TRUE(client->Execute("ghost", QueryRequest(LcaQuery{"a", "b"}))
                  .status()
                  .IsNotFound());
  auto bad = client->StoreNewick("broken", "((((");
  EXPECT_FALSE(bad.ok());
  // The transport survives typed errors: the connection still works.
  EXPECT_TRUE(client->Ping("still here").ok());
}

// -- NEXUS stores in every load mode ----------------------------------------

constexpr char kFig1Nexus[] = R"(#NEXUS
BEGIN TAXA;
  TAXLABELS Syn Lla Spy Bha Bsu;
END;
BEGIN DATA;
  MATRIX
    Syn ACGTAC
    Lla ACGTTT
    Spy ACGAAT
    Bha TCGTAC
    Bsu ACCTAC
  ;
END;
BEGIN TREES;
  TREE fig1 = (Syn:2.5,((Lla:1,Spy:1):0.5,Bha:1.5):0.75,Bsu:1.25)root;
END;
)";

/// The sequences the session stored for tree `id`.
std::map<std::string, std::string> StoredSequences(Crimson* session,
                                                   int64_t id) {
  auto sequences = session->species_repository()->SequencesForTree(id);
  EXPECT_TRUE(sequences.ok()) << sequences.status();
  return sequences.ok() ? *sequences : std::map<std::string, std::string>{};
}

TEST(ServerClientTest, StoreNexusWithSpeciesAndStructureOnly) {
  TestServer t = TestServer::Start(11);
  auto client = t.Connect();

  auto with = client->StoreNexus("with", kFig1Nexus,
                                 LoadMode::kTreeWithSpeciesData);
  ASSERT_TRUE(with.ok()) << with.status();
  EXPECT_EQ(with->name, "with");
  EXPECT_EQ(with->n_nodes, 8);
  EXPECT_EQ(with->n_leaves, 5);
  const auto stored = StoredSequences(t.session.get(), with->tree_id);
  EXPECT_EQ(stored.size(), 5u);
  EXPECT_EQ(stored.at("Bha"), "TCGTAC");

  auto bare =
      client->StoreNexus("bare", kFig1Nexus, LoadMode::kTreeStructureOnly);
  ASSERT_TRUE(bare.ok()) << bare.status();
  EXPECT_EQ(bare->n_nodes, 8);
  EXPECT_NE(bare->tree_id, with->tree_id);
  EXPECT_TRUE(StoredSequences(t.session.get(), bare->tree_id).empty());

  auto trees = client->ListTrees();
  ASSERT_TRUE(trees.ok()) << trees.status();
  EXPECT_EQ(trees->size(), 2u);
}

TEST(ServerClientTest, StoreNexusAppendMatchesInProcessSession) {
  // Structure over the wire, then the species as an append-mode NEXUS
  // store: the stored sequences and the NEXUS export must equal an
  // in-process session that did the same two loads.
  TestServer t = TestServer::Start(12);
  auto client = t.Connect();
  auto stored = client->StoreNewick("fig1", kFig1Newick);
  ASSERT_TRUE(stored.ok()) << stored.status();
  auto appended = client->StoreNexus("fig1", kFig1Nexus,
                                     LoadMode::kAppendSpeciesData);
  ASSERT_TRUE(appended.ok()) << appended.status();
  EXPECT_EQ(appended->tree_id, stored->tree_id);
  EXPECT_EQ(appended->name, "fig1");
  EXPECT_EQ(appended->n_nodes, 8);

  auto local = OpenSession(12);
  auto loaded = local->LoadNewick("fig1", kFig1Newick);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto local_append =
      local->LoadNexus("fig1", kFig1Nexus, LoadMode::kAppendSpeciesData);
  ASSERT_TRUE(local_append.ok()) << local_append.status();
  EXPECT_EQ(local_append->species_loaded, 5u);
  EXPECT_EQ(local_append->ref, loaded->ref);

  EXPECT_EQ(StoredSequences(t.session.get(), appended->tree_id),
            StoredSequences(local.get(), local_append->tree_id));
  auto remote_ref = t.session->OpenTree("fig1");
  ASSERT_TRUE(remote_ref.ok()) << remote_ref.status();
  auto remote_export = t.session->ExportNexus(*remote_ref);
  auto local_export = local->ExportNexus(loaded->ref);
  ASSERT_TRUE(remote_export.ok()) << remote_export.status();
  ASSERT_TRUE(local_export.ok()) << local_export.status();
  EXPECT_EQ(*remote_export, *local_export);
  EXPECT_NE(remote_export->find("TCGTAC"), std::string::npos);
}

TEST(ServerClientTest, StoreNexusAppendToUnknownTreeIsNotFound) {
  TestServer t = TestServer::Start(13);
  auto client = t.Connect();
  auto appended = client->StoreNexus("ghost", kFig1Nexus,
                                     LoadMode::kAppendSpeciesData);
  EXPECT_TRUE(appended.status().IsNotFound()) << appended.status();
  auto trees = client->ListTrees();
  ASSERT_TRUE(trees.ok()) << trees.status();
  EXPECT_TRUE(trees->empty());
}

TEST(ServerClientTest, StoreNewickInAppendModeIsInvalidArgument) {
  TestServer t = TestServer::Start(14);
  auto client = t.Connect();
  auto appended = client->StoreNewick("fig1", kFig1Newick,
                                      LoadMode::kAppendSpeciesData);
  EXPECT_TRUE(appended.status().IsInvalidArgument()) << appended.status();
  auto trees = client->ListTrees();
  ASSERT_TRUE(trees.ok()) << trees.status();
  EXPECT_TRUE(trees->empty());
  EXPECT_TRUE(client->Ping("still here").ok());
}

// -- byte identity: wire == in-process --------------------------------------

TEST(ServerClientTest, WireResultsMatchInProcessExecution) {
  // Same seed, same tree, same query order: the remote session and the
  // local one must produce identical results (rendered and summarized
  // identically), because a remote query takes exactly the in-process
  // dispatch path.
  const std::string newick = YuleNewick(77, 64);
  TestServer t = TestServer::Start(99);
  auto client = t.Connect();
  ASSERT_TRUE(client->StoreNewick("twin", newick).ok());

  auto local = OpenSession(99);
  auto report = local->LoadNewick("twin", newick);
  ASSERT_TRUE(report.ok());

  for (const auto& request : SixKinds()) {
    auto wire = client->Execute("twin", request);
    auto in_process = local->Execute(report->ref, request);
    // Some fig1-specific species are absent from the Yule tree; the
    // two sides must fail or succeed together, identically.
    ASSERT_EQ(wire.ok(), in_process.ok()) << QueryKindName(request);
    if (!wire.ok()) {
      EXPECT_EQ(wire.status().code(), in_process.status().code());
      continue;
    }
    EXPECT_EQ(RenderResult(*wire), RenderResult(*in_process))
        << QueryKindName(request);
    EXPECT_EQ(SummarizeResult(*wire), SummarizeResult(*in_process))
        << QueryKindName(request);
  }
}

TEST(ServerClientTest, PipelinedBatchMatchesSequentialByteForByte) {
  // Two servers over two fresh same-seed sessions; one client
  // pipelines the whole batch (which the server coalesces into one
  // ExecuteBatch), the other issues the queries one at a time. The
  // encoded response payloads must be identical.
  const std::string newick = YuleNewick(5, 48);
  TestServer pipelined = TestServer::Start(1234);
  TestServer sequential = TestServer::Start(1234);
  auto pc = pipelined.Connect();
  auto sc = sequential.Connect();
  ASSERT_TRUE(pc->StoreNewick("t", newick).ok());
  ASSERT_TRUE(sc->StoreNewick("t", newick).ok());

  const std::vector<QueryRequest> requests = {
      QueryRequest(SampleUniformQuery{4}),
      QueryRequest(SampleUniformQuery{4}),
      QueryRequest(SampleTimeQuery{3, 0.5}),
      QueryRequest(LcaQuery{"S1", "S2"}),
      QueryRequest(SampleUniformQuery{2}),
  };
  auto batched = pc->ExecuteBatch("t", requests);
  ASSERT_EQ(batched.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    auto one = sc->Execute("t", requests[i]);
    ASSERT_EQ(batched[i].ok(), one.ok()) << "query " << i;
    if (!one.ok()) continue;
    std::string batched_bytes, one_bytes;
    EncodeQueryResult(&batched_bytes, *batched[i]);
    EncodeQueryResult(&one_bytes, *one);
    EXPECT_EQ(batched_bytes, one_bytes) << "query " << i;
  }
  // Coalescing actually happened: fewer batches than queries.
  const obs::MetricsSnapshot m = pipelined.session->SnapshotMetrics();
  EXPECT_EQ(m.counter("net.queries_executed"), requests.size());
  EXPECT_LT(m.counter("net.batches_executed"), requests.size());
}

TEST(ServerClientTest, PipelinedErrorsPreserveOrder) {
  TestServer t = TestServer::Start(6);
  auto client = t.Connect();
  ASSERT_TRUE(client->StoreNewick("fig1", kFig1Newick).ok());
  const std::vector<QueryRequest> requests = {
      QueryRequest(LcaQuery{"Lla", "Syn"}),
      QueryRequest(LcaQuery{"Lla", "no_such_species"}),
      QueryRequest(SampleUniformQuery{2}),
  };
  auto results = client->ExecuteBatch("fig1", requests);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
}

// -- backpressure ------------------------------------------------------------

TEST(ServerClientTest, SaturationRejectsWithRetryAfter) {
  ServerOptions options;
  options.max_exec_concurrency = 1;
  options.max_inflight_queries = 1;
  options.retry_after_ms = 7;
  TestServer t = TestServer::Start(7, options, /*hold_queries=*/true);
  auto slow_client = t.Connect();
  ASSERT_TRUE(slow_client->StoreNewick("fig1", kFig1Newick).ok());

  // Occupy the single admission slot with a query the latch holds...
  std::thread slow([&] {
    auto r = slow_client->Execute("fig1", QueryRequest(LcaQuery{"Lla", "Syn"}));
    EXPECT_TRUE(r.ok()) << r.status();
  });
  const bool held = t.latch->WaitEntered();

  // ...then a second client must be turned away with the typed signal.
  auto client = t.Connect();
  Result<QueryResult> rejected = Status::Internal("not attempted");
  if (held) {
    rejected = client->Execute("fig1", QueryRequest(LcaQuery{"Lla", "Syn"}));
  }
  t.latch->Release();
  slow.join();
  ASSERT_TRUE(held) << "no query reached the execution slot";
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsUnavailable()) << rejected.status();
  EXPECT_EQ(rejected.status().retry_after_ms(), 7);

  // The rejection was bounded-queue behavior, not a broken server: the
  // canonical retry loop succeeds once the slot frees up.
  auto retried = client->ExecuteWithRetry(
      "fig1", QueryRequest(LcaQuery{"Lla", "Syn"}), /*max_attempts=*/100);
  EXPECT_TRUE(retried.ok()) << retried.status();
  EXPECT_GT(t.session->SnapshotMetrics().counter("net.queries_rejected"), 0u);
}

TEST(ServerClientTest, ConnectionPoolBoundRejectsExtraConnections) {
  ServerOptions options;
  options.max_connections = 1;
  TestServer t = TestServer::Start(8, options);
  auto first = t.Connect();
  ASSERT_TRUE(first->Ping("a").ok());

  // The second connection is answered with kUnavailable and closed.
  // (Raw socket: nothing is sent, we just read the server's verdict.)
  auto second = ConnectTcp("127.0.0.1", t.server->port());
  ASSERT_TRUE(second.ok()) << second.status();  // TCP connect succeeds
  auto frames = ReadFrames(*second, 1);
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, MessageType::kError);
  Slice payload(frames[0].payload);
  Status carried;
  ASSERT_TRUE(DecodeStatusPayload(&payload, &carried).ok());
  EXPECT_TRUE(carried.IsUnavailable()) << carried;
  EXPECT_GT(carried.retry_after_ms(), 0);

  // The admitted connection is unaffected.
  EXPECT_TRUE(first->Ping("c").ok());
}

// -- hostile input against a live server ------------------------------------

TEST(ServerClientTest, GarbageBytesGetTypedErrorThenDisconnect) {
  TestServer t = TestServer::Start(9);
  auto raw = ConnectTcp("127.0.0.1", t.server->port());
  ASSERT_TRUE(raw.ok()) << raw.status();
  ASSERT_TRUE(SendAll(*raw, "not a frame at all, definitely garbage", 38).ok());

  auto frames = ReadFrames(*raw, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, MessageType::kError);
  Slice payload(frames[0].payload);
  Status carried;
  ASSERT_TRUE(DecodeStatusPayload(&payload, &carried).ok());
  EXPECT_TRUE(carried.IsCorruption()) << carried;

  // After the error the server hangs up (framing lost sync)...
  char byte;
  auto eof = RecvSome(*raw, &byte, 1);
  ASSERT_TRUE(eof.ok());
  EXPECT_EQ(*eof, 0u);

  // ...but the server itself is fine.
  auto client = t.Connect();
  EXPECT_TRUE(client->Ping("alive").ok());
  EXPECT_GT(t.session->SnapshotMetrics().counter("net.protocol_errors"), 0u);
}

TEST(ServerClientTest, OversizedFrameIsRejectedNotBuffered) {
  ServerOptions options;
  options.max_frame_payload = 1024;
  TestServer t = TestServer::Start(10, options);
  auto raw = ConnectTcp("127.0.0.1", t.server->port());
  ASSERT_TRUE(raw.ok());

  // A header declaring a 1GiB payload; no payload bytes follow.
  std::string header;
  PutFixed16(&header, kFrameMagic);
  header.push_back(static_cast<char>(kProtocolVersion));
  header.push_back(static_cast<char>(MessageType::kPing));
  PutFixed32(&header, 1u << 30);
  PutFixed32(&header, 0);
  ASSERT_TRUE(SendAll(*raw, header.data(), header.size()).ok());

  auto frames = ReadFrames(*raw, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, MessageType::kError);
}

TEST(ServerClientTest, UnknownMessageTypeGetsUnimplemented) {
  TestServer t = TestServer::Start(11);
  auto raw = ConnectTcp("127.0.0.1", t.server->port());
  ASSERT_TRUE(raw.ok());
  std::string wire;
  AppendFrame(&wire, static_cast<MessageType>(50), "mystery payload");
  ASSERT_TRUE(SendAll(*raw, wire.data(), wire.size()).ok());

  auto frames = ReadFrames(*raw, 1);
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, MessageType::kError);
  Slice payload(frames[0].payload);
  Status carried;
  ASSERT_TRUE(DecodeStatusPayload(&payload, &carried).ok());
  EXPECT_TRUE(carried.IsUnimplemented()) << carried;

  // Unknown types are recoverable (framing is intact): the same
  // connection still answers a well-formed request.
  wire.clear();
  AppendFrame(&wire, MessageType::kPing, "ok?");
  ASSERT_TRUE(SendAll(*raw, wire.data(), wire.size()).ok());
  frames = ReadFrames(*raw, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, MessageType::kPong);
  EXPECT_EQ(frames[0].payload, "ok?");
}

TEST(ServerClientTest, TruncatedFrameAtDisconnectIsHandled) {
  TestServer t = TestServer::Start(12);
  {
    auto raw = ConnectTcp("127.0.0.1", t.server->port());
    ASSERT_TRUE(raw.ok());
    // A valid frame cut mid-payload, then the peer vanishes.
    std::string wire;
    AppendFrame(&wire, MessageType::kPing, std::string(500, 'x'));
    ASSERT_TRUE(SendAll(*raw, wire.data(), wire.size() - 100).ok());
  }  // destructor closes the socket
  // The server must treat the torn tail as a dead peer, not corruption,
  // and keep serving.
  auto client = t.Connect();
  EXPECT_TRUE(client->Ping("after torn frame").ok());
}

TEST(ServerClientTest, StressRandomGarbageConnectionsNeverKillServer) {
  TestServer t = TestServer::Start(13);
  auto client = t.Connect();
  ASSERT_TRUE(client->StoreNewick("fig1", kFig1Newick).ok());

  Rng rng(20260807);
  for (int round = 0; round < 50; ++round) {
    auto raw = ConnectTcp("127.0.0.1", t.server->port());
    ASSERT_TRUE(raw.ok());
    // Noise may be an incomplete frame prefix, to which the server
    // rightly answers nothing -- bound the wait for its verdict.
    ASSERT_TRUE(SetRecvTimeout(*raw, 200).ok());
    std::string noise;
    if (rng.OneIn(3)) {
      // Mutated valid frame.
      AppendFrame(&noise, MessageType::kQuery, "target practice");
      size_t flips = 1 + rng.Uniform(6);
      for (size_t f = 0; f < flips; ++f) {
        noise[rng.Uniform(noise.size())] ^=
            static_cast<char>(1 + rng.Uniform(255));
      }
    } else {
      noise.resize(1 + rng.Uniform(256));
      for (auto& c : noise) c = static_cast<char>(rng.Next());
    }
    (void)SendAll(*raw, noise.data(), noise.size());
    // Half the time, wait for the server's verdict; otherwise slam the
    // connection shut mid-exchange.
    if (rng.OneIn(2)) (void)ReadFrames(*raw, 1);
  }

  // The server survived 50 hostile connections and still serves the
  // well-behaved one.
  auto lca = client->Execute("fig1", QueryRequest(LcaQuery{"Lla", "Syn"}));
  EXPECT_TRUE(lca.ok()) << lca.status();
}

// -- graceful drain -----------------------------------------------------------

TEST(ServerClientTest, ShutdownDrainsAndCheckpoints) {
  TestServer t = TestServer::Start(14, {}, /*hold_queries=*/true);
  auto client = t.Connect();
  ASSERT_TRUE(client->StoreNewick("fig1", kFig1Newick).ok());

  // An idle, already-served connection: the drain hangs up on it, so
  // its EOF tells the test that Shutdown has started.
  auto idle = ConnectTcp("127.0.0.1", t.server->port());
  ASSERT_TRUE(idle.ok()) << idle.status();
  std::string ping;
  AppendFrame(&ping, MessageType::kPing, "idle");
  ASSERT_TRUE(SendAll(*idle, ping.data(), ping.size()).ok());
  ASSERT_EQ(ReadFrames(*idle, 1).size(), 1u);
  ASSERT_TRUE(SetRecvTimeout(*idle, 30 * 1000).ok());

  // A query is held in its execution slot when the drain starts; its
  // response must still arrive (read side closes, write side flushes).
  std::thread in_flight([&] {
    auto r = client->Execute("fig1", QueryRequest(LcaQuery{"Lla", "Syn"}));
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(std::get<LcaAnswer>(*r).name, "root");
  });
  EXPECT_TRUE(t.latch->WaitEntered()) << "no query reached the execution slot";
  std::thread releaser([&] {
    char byte;
    auto got = RecvSome(*idle, &byte, 1);
    EXPECT_TRUE(got.ok() && *got == 0)
        << "the drain never hung up on the idle connection";
    t.latch->Release();
  });
  EXPECT_TRUE(t.server->Shutdown().ok());
  releaser.join();
  in_flight.join();

  // Shutdown is idempotent, and the port no longer accepts work.
  EXPECT_TRUE(t.server->Shutdown().ok());
  ClientOptions copts;
  copts.port = t.server->port();
  auto late = CrimsonClient::Connect(copts);
  if (late.ok()) EXPECT_FALSE((*late)->Ping("too late").ok());
}

TEST(ServerClientTest, ServerMetricsReflectCacheTraffic) {
  TestServer t = TestServer::Start(16);
  auto client = t.Connect();
  ASSERT_TRUE(client->StoreNewick("fig1", kFig1Newick).ok());

  // Fresh server: no cache traffic yet, but the budget is visible and
  // the MVCC epoch has advanced past the store.
  auto before = client->ServerMetrics();
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(before->counter("cache.hits"), 0u);
  EXPECT_GT(before->counter("cache.budget_bytes"), 0u);
  EXPECT_GT(before->counter("pages.committed_epoch"), 0u);

  // Same cacheable query three times: one miss, two hits -- and the
  // remote counters match what the in-process session reports.
  const QueryRequest lca{LcaQuery{"Lla", "Syn"}};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client->Execute("fig1", lca).ok());
  }
  ASSERT_TRUE(client->Execute("fig1",
                              QueryRequest(SampleUniformQuery{3})).ok());
  auto after = client->ServerMetrics();
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->counter("cache.hits"), 2u);
  EXPECT_EQ(after->counter("cache.misses"), 1u);
  EXPECT_EQ(after->counter("cache.entries"), 1u);
  EXPECT_EQ(after->counter("cache.bypassed"), 1u);

  const obs::MetricsSnapshot local = t.session->SnapshotMetrics();
  EXPECT_EQ(after->counter("cache.hits"), local.counter("cache.hits"));
  EXPECT_EQ(after->counter("cache.misses"), local.counter("cache.misses"));
  EXPECT_EQ(after->counter("cache.bytes_used"),
            local.counter("cache.bytes_used"));
  EXPECT_EQ(after->counter("pages.committed_epoch"),
            t.session->database()->committed_epoch());
}

TEST(ServerClientTest, WireMetricsEqualSnapshotMetrics) {
  // The kStats frame carries the session registry unchanged. Drive
  // every layer -- wire queries (cache hits and misses), then an
  // in-process experiment whose evaluation state DropTree discards --
  // and, with the server quiescent, the wire snapshot must equal the
  // in-process one key for key. The crack.* counters are the sharp
  // edge: they stay cumulative after the state that counted them is
  // gone.
  TestServer t = TestServer::Start(23);
  auto client = t.Connect();
  ASSERT_TRUE(client->StoreNewick("fig1", kFig1Newick).ok());
  for (int round = 0; round < 2; ++round) {
    for (const QueryRequest& request : SixKinds()) {
      ASSERT_TRUE(client->Execute("fig1", request).ok());
    }
  }

  Rng rng(0x5EED);
  YuleOptions yule;
  yule.n_leaves = 24;
  auto gold = SimulateYule(yule, &rng);
  ASSERT_TRUE(gold.ok());
  SeqEvolveOptions seq_opts;
  seq_opts.seq_length = 48;
  auto sequences =
      SequenceEvolver::Create(seq_opts)->EvolveLeaves(*gold, &rng);
  ASSERT_TRUE(sequences.ok());
  auto loaded = t.session->LoadTree("gold", *gold);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(t.session->AppendSpeciesData("gold", *sequences).ok());
  ExperimentSpec spec;
  spec.algorithms = {"nj"};
  SelectionSpec sel;
  sel.kind = SelectionSpec::Kind::kUniform;
  sel.k = 8;
  spec.selections = {sel};
  spec.replicates = 2;
  spec.compute_triplets = false;
  ASSERT_TRUE(t.session->RunExperiment(loaded->ref, spec).ok());
  ASSERT_TRUE(t.session->DropTree("gold").ok());

  auto wire = client->ServerMetrics();
  ASSERT_TRUE(wire.ok()) << wire.status();
  const obs::MetricsSnapshot local = t.session->SnapshotMetrics();
  ASSERT_GT(local.counter("crack.fetches"), 0u);
  EXPECT_EQ(local.counter("crack.stores"), 0u);

  std::set<std::string> keys;
  for (const auto& [key, value] : local.counters) keys.insert(key);
  for (const auto& [key, value] : wire->counters) keys.insert(key);
  for (const std::string& key : keys) {
    EXPECT_EQ(wire->counters.count(key), local.counters.count(key)) << key;
    EXPECT_EQ(wire->counter(key), local.counter(key)) << key;
  }
  // net.op.stats_us is observed after the stats response is encoded,
  // so the wire copy is one observation behind by construction.
  std::set<std::string> hist_keys;
  for (const auto& [key, h] : local.histograms) hist_keys.insert(key);
  for (const auto& [key, h] : wire->histograms) hist_keys.insert(key);
  for (const std::string& key : hist_keys) {
    const obs::HistogramSnapshot* w = wire->histogram(key);
    const obs::HistogramSnapshot* l = local.histogram(key);
    ASSERT_TRUE(w != nullptr && l != nullptr) << key;
    if (key == "net.op.stats_us") continue;
    EXPECT_EQ(w->bounds, l->bounds) << key;
    EXPECT_EQ(w->counts, l->counts) << key;
    EXPECT_EQ(w->count, l->count) << key;
    EXPECT_EQ(w->sum, l->sum) << key;
  }
}

TEST(ServerClientTest, ServerMetricsRoundTripsEveryLayer) {
  TestServer t = TestServer::Start(21);
  auto client = t.Connect();
  ASSERT_TRUE(client->StoreNewick("fig1", kFig1Newick).ok());
  const QueryRequest lca{LcaQuery{"Lla", "Syn"}};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client->Execute("fig1", lca).ok());
  }

  auto metrics = client->ServerMetrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status();

  // Session layer: per-kind counters and latency histograms.
  EXPECT_EQ(metrics->counter("query.lca.count"), 3u);
  const obs::HistogramSnapshot* lat =
      metrics->histogram("query.lca.latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 3u);
  EXPECT_FALSE(lat->bounds.empty());
  EXPECT_EQ(lat->bounds.back(), UINT64_MAX);

  // Storage layer: the store + reads touched the buffer pool.
  EXPECT_GT(metrics->counter("storage.pool.hits") +
                metrics->counter("storage.pool.misses"),
            0u);

  // Cache layer: one miss, two hits.
  EXPECT_EQ(metrics->counter("cache.hits"), 2u);
  EXPECT_EQ(metrics->counter("cache.misses"), 1u);

  // Net layer: this connection's frames and queries, plus per-op
  // latency histograms, all counted by the server front door.
  EXPECT_GT(metrics->counter("net.frames_received"), 0u);
  EXPECT_EQ(metrics->counter("net.queries_executed"), 3u);
  EXPECT_EQ(metrics->counter("net.connections_accepted"), 1u);
  const obs::HistogramSnapshot* query_run =
      metrics->histogram("net.op.query_run_us");
  ASSERT_NE(query_run, nullptr);
  EXPECT_EQ(query_run->count, 3u);
  const obs::HistogramSnapshot* admission =
      metrics->histogram("net.admission_wait_us");
  ASSERT_NE(admission, nullptr);
  EXPECT_EQ(admission->count, 3u);
}

TEST(ServerClientTest, StatsRejectsTrailingPayloadBytes) {
  TestServer t = TestServer::Start(17);
  ClientOptions copts;
  copts.port = t.server->port();
  auto sock = ConnectTcp(copts.host, copts.port);
  ASSERT_TRUE(sock.ok()) << sock.status();

  std::string wire;
  AppendFrame(&wire, MessageType::kStats, Slice("junk"));
  ASSERT_TRUE(SendAll(*sock, wire.data(), wire.size()).ok());
  std::vector<Frame> frames = ReadFrames(*sock, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, MessageType::kError);
  Slice in(frames[0].payload);
  Status carried;
  ASSERT_TRUE(DecodeStatusPayload(&in, &carried).ok());
  EXPECT_TRUE(carried.IsInvalidArgument());
}

TEST(ServerClientTest, DestructorShutsDownCleanly) {
  TestServer t = TestServer::Start(15);
  auto client = t.Connect();
  ASSERT_TRUE(client->Ping("x").ok());
  t.server.reset();  // ~CrimsonServer must not hang or crash
  EXPECT_FALSE(client->Ping("y").ok());
}

}  // namespace
}  // namespace net
}  // namespace crimson
