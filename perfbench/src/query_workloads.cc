// query_mix and query_wire: the paper's structure-query workload.
//
// Set-up stores four bound Yule trees in an on-disk database, reopens
// it, and binds them cold (query_wire instead starts a crimson_server
// on the database and binds over the wire). Three closed-loop clients
// then replay their seeded request streams -- batches of 8 requests
// against one tree, Zipf-skewed over 20k distinct requests per tree --
// either one Execute at a time (query_mix) or as one pipelined
// ExecuteBatch per batch (query_wire).

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>

#include "cache/query_cache.h"
#include "inputs.h"
#include "net/client.h"
#include "net/protocol.h"
#include "obs/trace.h"
#include "oracle.h"
#include "spans.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {

using crimson::Crimson;
using crimson::QueryRequest;
using crimson::QueryResult;
using crimson::Result;
using crimson::TreeRef;

namespace {

constexpr size_t kClients = 3;
constexpr size_t kBatch = 8;
/// Throughput is counted per window of this length.
constexpr double kWindowS = 0.5;

struct Scale {
  size_t trees = 4;
  uint32_t leaves = 30000;  // 59,999 nodes per tree
  size_t requests = 20000;  // distinct requests per tree
  double warmup_s = 1.0;
  size_t replay_cap = 4000;  // traced queries replayed through the layers
};

Scale ScaleFor(const RunConfig& config) {
  Scale s;
  if (config.smoke) {
    s.leaves = 1000;
    s.requests = 600;
    s.warmup_s = 0.2;
    s.replay_cap = 300;
  }
  return s;
}

/// Generated inputs plus the layer-replay oracle for each tree.
struct Fixture {
  std::vector<std::string> names;
  std::vector<std::string> newicks;
  std::vector<std::unique_ptr<Replica>> replicas;
  std::vector<std::vector<QueryRequest>> requests;
  uint64_t total_nodes = 0;
};

Fixture MakeFixture(const RunConfig& config, const Scale& scale) {
  Fixture f;
  for (size_t t = 0; t < scale.trees; ++t) {
    f.names.push_back("gold_" + std::to_string(t));
    f.newicks.push_back(YuleNewick(MixSeed(config.seed, 1, t), scale.leaves));
    f.replicas.push_back(Replica::Build(f.newicks.back()));
    f.requests.push_back(MakeRequests(f.replicas.back()->tree(),
                                      scale.requests,
                                      MixSeed(config.seed, 2, t)));
    f.total_nodes += f.replicas.back()->tree().size();
  }
  return f;
}

uint32_t KeyOf(size_t tree, uint32_t request) {
  return static_cast<uint32_t>(tree << 24) | request;
}

// -- crimson_server child process -------------------------------------------

/// A crimson_server child serving one database on an ephemeral port.
/// Its output goes to a log file, so a chatty server never blocks on a
/// full pipe.
class ServerProcess {
 public:
  static std::unique_ptr<ServerProcess> Start(const std::string& bin,
                                              const std::string& db,
                                              const std::string& log) {
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    std::vector<std::string> args = {bin, "--db=" + db, "--port=0",
                                     "--durability=group"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, bin.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) Fatal("cannot start " + bin);
    SetChild(pid);
    std::unique_ptr<ServerProcess> server(new ServerProcess(pid));
    // Wait for the "listening on host:port" line.
    const double deadline = NowSeconds() + 60;
    while (NowSeconds() < deadline) {
      std::ifstream in(log);
      std::string line;
      while (std::getline(in, line)) {
        const size_t at = line.find("listening on ");
        if (at == std::string::npos) continue;
        const size_t colon = line.find(':', at);
        server->port_ = static_cast<uint16_t>(atoi(line.c_str() + colon + 1));
        return server;
      }
      int status = 0;
      if (waitpid(pid, &status, WNOHANG) == pid) {
        server->pid_ = 0;
        SetChild(0);
        Fatal("crimson_server exited during start-up; see " + log);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Fatal("crimson_server did not start listening; see " + log);
  }

  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// Graceful drain (SIGTERM) and reap; true when the server exited 0.
  bool Stop() {
    if (pid_ == 0) return true;
    kill(pid_, SIGTERM);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = 0;
    SetChild(0);
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  explicit ServerProcess(pid_t pid) : pid_(pid) {}
  pid_t pid_;
  uint16_t port_ = 0;
};

// -- set-up -----------------------------------------------------------------

/// The program under test after set-up: an in-process session with the
/// trees bound (query_mix), or a server plus one connected client per
/// load thread (query_wire).
struct Deployment {
  std::unique_ptr<Crimson> session;
  std::vector<TreeRef> refs;
  std::unique_ptr<ServerProcess> server;
  std::vector<std::unique_ptr<crimson::net::CrimsonClient>> clients;
  std::string db_dir;
  double setup_s = 0;
  /// The session's storage-read stage time of the cold binds
  /// (in-process only).
  double storage_read_us = 0;
  uint64_t db_bytes = 0;

  crimson::obs::MetricsSnapshot Snapshot() {
    if (session) return session->SnapshotMetrics();
    auto m = clients[0]->ServerMetrics();
    if (!m.ok()) Fatal("server metrics: " + m.status().ToString());
    return *m;
  }
};

template <typename T>
T Must(Result<T> r, const std::string& what) {
  if (!r.ok()) Fatal(what + ": " + r.status().ToString());
  return std::move(*r);
}

void MustOk(const crimson::Status& s, const std::string& what) {
  if (!s.ok()) Fatal(what + ": " + s.ToString());
}

/// Stores the trees and checkpoints; returns with the session closed.
void StoreTrees(const Fixture& f, const std::string& db, uint64_t seed) {
  auto session = Must(Crimson::Open(SessionOptions(db, seed)), "open");
  for (size_t t = 0; t < f.names.size(); ++t) {
    Must(session->LoadNewick(f.names[t], f.newicks[t]), "LoadNewick");
  }
  MustOk(session->Checkpoint(), "Checkpoint");
}

std::unique_ptr<Deployment> SetUp(const RunConfig& config, const Fixture& f,
                                  bool wire, int rep) {
  auto d = std::make_unique<Deployment>();
  d->db_dir = JoinPath(config.work_dir, "db" + std::to_string(rep));
  ResetDir(d->db_dir);
  const std::string db = JoinPath(d->db_dir, "crimson.db");
  const double t0 = NowSeconds();
  StoreTrees(f, db, config.seed);
  d->db_bytes = DirBytes(d->db_dir);
  if (!wire) {
    d->session = Must(Crimson::Open(SessionOptions(db, config.seed)), "reopen");
    for (const std::string& name : f.names) {
      // The session's own stage accounting, collected through a trace
      // context installed around the call.
      crimson::obs::ScopedTrace trace;
      d->refs.push_back(Must(d->session->OpenTree(name), "OpenTree"));
      d->storage_read_us +=
          trace.context()->span_us(crimson::obs::Stage::kStorageRead);
    }
  } else {
    d->server = ServerProcess::Start(config.server_bin, db,
                                     JoinPath(d->db_dir, "server.log"));
    crimson::net::ClientOptions opts;
    opts.port = d->server->port();
    for (size_t c = 0; c < kClients; ++c) {
      d->clients.push_back(
          Must(crimson::net::CrimsonClient::Connect(opts), "connect"));
    }
    for (const std::string& name : f.names) {
      Must(d->clients[0]->OpenTree(name), "remote OpenTree");
    }
  }
  d->setup_s = NowSeconds() - t0;
  return d;
}

// -- the closed loop --------------------------------------------------------

struct Observed {
  uint32_t key;
  uint64_t hash;
};

/// One traced batch: what was sent and how long each call took.
struct TracedBatch {
  uint32_t tree = 0;
  std::vector<uint32_t> requests;
  std::vector<double> call_us;  // per Execute (mix) or one per batch (wire)
  uint64_t request_id = 0;      // of the first query in the batch
};

struct ClientOut {
  std::vector<double> lat_us;
  uint64_t queries = 0;
  uint64_t failed = 0;
  std::vector<Observed> observed;
  std::vector<TracedBatch> traced;
  std::vector<uint64_t> window_queries;  // completed per kWindowS window
  double end_s = 0;
};

struct PhaseOut {
  double elapsed_s = 0;
  uint64_t queries = 0;
  uint64_t failed = 0;
  std::vector<double> lat_us;
  std::vector<Observed> observed;
  std::vector<TracedBatch> traced;
  /// Queries per second in each whole kWindowS window of the phase.
  std::vector<double> window_qps;
};

class LoadGenerator {
 public:
  LoadGenerator(const RunConfig& config, const Fixture& f, Deployment* d,
             bool wire)
      : f_(f), d_(d), wire_(wire), zipf_(f.requests[0].size(), 1.0) {
    for (size_t c = 0; c < kClients; ++c) {
      streams_.emplace_back(MixSeed(config.seed, 3, c), f.names.size(), &zipf_,
                            kBatch);
    }
  }

  /// Runs every client for `seconds`; spans go to `recorder` if set.
  PhaseOut Run(double seconds, SpanRecorder* recorder) {
    std::vector<ClientOut> outs(kClients);
    std::vector<SpanLane*> lanes(kClients, nullptr);
    std::vector<uint32_t> span_names;
    if (recorder != nullptr) {
      for (size_t c = 0; c < kClients; ++c) lanes[c] = recorder->NewLane();
      for (int k = 0; k < kKindCount; ++k) {
        span_names.push_back(
            recorder->Intern(std::string("crimson.execute.") + KindName(k)));
      }
      span_names.push_back(recorder->Intern("net.execute_batch"));
    }
    const double start = NowSeconds();
    const double deadline = start + seconds;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Client(c, start, deadline, lanes[c], span_names, &outs[c]);
      });
    }
    for (std::thread& t : threads) t.join();
    PhaseOut out;
    for (ClientOut& o : outs) {
      out.elapsed_s = std::max(out.elapsed_s, o.end_s - start);
      out.queries += o.queries;
      out.failed += o.failed;
      out.lat_us.insert(out.lat_us.end(), o.lat_us.begin(), o.lat_us.end());
      out.observed.insert(out.observed.end(), o.observed.begin(),
                          o.observed.end());
      for (TracedBatch& b : o.traced) out.traced.push_back(std::move(b));
    }
    const size_t windows = static_cast<size_t>(seconds / kWindowS);
    for (size_t w = 0; w < windows; ++w) {
      uint64_t n = 0;
      for (const ClientOut& o : outs) {
        if (w < o.window_queries.size()) n += o.window_queries[w];
      }
      out.window_qps.push_back(n / kWindowS);
    }
    return out;
  }

 private:
  void Check(size_t tree, uint32_t r, const Result<QueryResult>& result,
             ClientOut* out) {
    ++out->queries;
    if (!result.ok()) {
      ++out->failed;
      return;
    }
    const QueryRequest& request = f_.requests[tree][r];
    if (IsSamplingKind(static_cast<int>(request.index()))) {
      if (!f_.replicas[tree]->ValidSample(request, *result)) ++out->failed;
    } else {
      out->observed.push_back({KeyOf(tree, r), AnswerHash(*result)});
    }
  }

  void Client(size_t c, double start, double deadline, SpanLane* lane,
              const std::vector<uint32_t>& span_names, ClientOut* out) {
    std::vector<uint32_t> batch;
    std::vector<QueryRequest> wire_batch;
    uint64_t next_request_id = (static_cast<uint64_t>(c) << 48) + 1;
    while (NowSeconds() < deadline) {
      const size_t tree = streams_[c].Next(&batch);
      TracedBatch traced;
      if (lane != nullptr) {
        traced.tree = static_cast<uint32_t>(tree);
        traced.requests = batch;
        traced.request_id = next_request_id;
      }
      if (!wire_) {
        for (uint32_t r : batch) {
          const QueryRequest& request = f_.requests[tree][r];
          uint64_t span = 0;
          if (lane != nullptr) {
            span = lane->Open(span_names[request.index()], next_request_id);
          }
          const double t0 = NowSeconds();
          Result<QueryResult> result =
              d_->session->Execute(d_->refs[tree], request);
          const double us = (NowSeconds() - t0) * 1e6;
          if (lane != nullptr) {
            lane->Close(span);
            traced.call_us.push_back(lane->DurationUs(span));
          }
          ++next_request_id;
          out->lat_us.push_back(us);
          Check(tree, r, result, out);
        }
      } else {
        wire_batch.clear();
        for (uint32_t r : batch) wire_batch.push_back(f_.requests[tree][r]);
        uint64_t span = 0;
        if (lane != nullptr) {
          span = lane->Open(span_names[kKindCount], next_request_id);
        }
        const double t0 = NowSeconds();
        std::vector<Result<QueryResult>> results =
            d_->clients[c]->ExecuteBatch(
                f_.names[tree],
                crimson::Span<const QueryRequest>(wire_batch.data(),
                                                  wire_batch.size()));
        const double us = (NowSeconds() - t0) * 1e6;
        if (lane != nullptr) {
          lane->Close(span);
          traced.call_us.push_back(lane->DurationUs(span));
        }
        next_request_id += batch.size();
        out->lat_us.push_back(us);
        for (size_t i = 0; i < batch.size(); ++i) {
          Check(tree, batch[i],
                i < results.size() ? results[i]
                                   : Result<QueryResult>(crimson::Status::Internal(
                                         "missing response")),
                out);
        }
      }
      if (lane != nullptr) out->traced.push_back(std::move(traced));
      const size_t window =
          static_cast<size_t>((NowSeconds() - start) / kWindowS);
      if (window >= out->window_queries.size()) {
        out->window_queries.resize(window + 1, 0);
      }
      out->window_queries[window] += batch.size();
    }
    out->end_s = NowSeconds();
  }

  const Fixture& f_;
  Deployment* d_;
  const bool wire_;
  Zipf zipf_;
  std::vector<RequestStream> streams_;
};

/// Compares every observed non-sampling answer with the oracle; returns
/// the number of executions whose answer differs.
uint64_t VerifyObserved(const Fixture& f, std::vector<Observed> observed) {
  std::sort(observed.begin(), observed.end(),
            [](const Observed& a, const Observed& b) { return a.key < b.key; });
  std::vector<size_t> starts;
  for (size_t i = 0; i < observed.size(); ++i) {
    if (i == 0 || observed[i].key != observed[i - 1].key) starts.push_back(i);
  }
  std::atomic<uint64_t> failed{0};
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kClients; ++w) {
    threads.emplace_back([&, w] {
      for (size_t s = w; s < starts.size(); s += kClients) {
        const uint32_t key = observed[starts[s]].key;
        const size_t tree = key >> 24;
        const QueryRequest& request = f.requests[tree][key & 0xffffff];
        Result<QueryResult> expected =
            f.replicas[tree]->Compute(request, nullptr);
        const uint64_t want = expected.ok() ? AnswerHash(*expected) : 0;
        const size_t end =
            s + 1 < starts.size() ? starts[s + 1] : observed.size();
        for (size_t i = starts[s]; i < end; ++i) {
          if (!expected.ok() || observed[i].hash != want) failed++;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return failed.load();
}

// -- layer replay (traced runs) ---------------------------------------------

struct ReplaySums {
  double compute_us[kKindCount] = {};
  uint64_t computes[kKindCount] = {};
  double call_us[kKindCount] = {};
  uint64_t calls[kKindCount] = {};
  double encode_us = 0;
  double lookup_us = 0;
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t queries = 0;
  uint64_t user_bytes = 0;  // history payload: kind + params + summary
  // Wire codec replay.
  double client_encode_us = 0;
  double client_decode_us = 0;
  uint64_t frame_bytes = 0;
  uint64_t batches = 0;
  double batch_call_us = 0;
};

/// Replays traced batches through the layer functions directly: the
/// cache key/probe on a private QueryCache, the query processors on
/// the replica, the history encoders, and (wire) the protocol codec.
ReplaySums Replay(const Fixture& f, const std::vector<TracedBatch>& traced,
                  size_t cap, bool wire, uint64_t seed, SpanRecorder* rec) {
  ReplaySums sums;
  SpanLane* lane = rec->NewLane();
  const uint32_t n_root = rec->Intern("replay.query");
  const uint32_t n_batch = rec->Intern("replay.batch");
  const uint32_t n_encode = rec->Intern("crimson.encode");
  const uint32_t n_lookup = rec->Intern("cache.lookup");
  const uint32_t n_cenc = rec->Intern("net.client_encode");
  const uint32_t n_cdec = rec->Intern("net.client_decode");
  uint32_t n_compute[kKindCount];
  for (int k = 0; k < kKindCount; ++k) {
    n_compute[k] = rec->Intern(std::string("query.compute.") + KindName(k));
  }
  crimson::cache::QueryCache cache(crimson::CrimsonOptions().query_cache_bytes);
  crimson::Rng rng(seed);
  for (const TracedBatch& b : traced) {
    if (sums.queries >= cap) break;
    const std::string& name = f.names[b.tree];
    uint64_t batch_span = 0;
    std::vector<QueryRequest> batch_requests;
    std::vector<QueryResult> batch_results;
    if (wire) {
      batch_span = lane->Open(n_batch, b.request_id);
      sums.batch_call_us += b.call_us[0];
      ++sums.batches;
    }
    for (size_t i = 0; i < b.requests.size(); ++i) {
      const QueryRequest& request = f.requests[b.tree][b.requests[i]];
      const int kind = static_cast<int>(request.index());
      const uint64_t rid = b.request_id + i;
      const uint64_t root = lane->Open(n_root, rid, batch_span);
      std::optional<QueryResult> hit;
      std::string key;
      const bool cacheable = crimson::cache::QueryCache::IsCacheable(request);
      if (cacheable) {
        uint64_t s = lane->Open(n_encode, rid, root);
        key = crimson::cache::QueryCache::KeyFor(name, request);
        lane->Close(s);
        sums.encode_us += lane->DurationUs(s);
        s = lane->Open(n_lookup, rid, root);
        hit = cache.Lookup(name, key);
        lane->Close(s);
        sums.lookup_us += lane->DurationUs(s);
        ++sums.lookups;
        if (hit) ++sums.hits;
      }
      QueryResult result;
      if (hit) {
        result = std::move(*hit);
      } else {
        const uint64_t s = lane->Open(n_compute[kind], rid, root);
        Result<QueryResult> computed = f.replicas[b.tree]->Compute(request, &rng);
        lane->Close(s);
        if (!computed.ok()) Fatal("replay: " + computed.status().ToString());
        sums.compute_us[kind] += lane->DurationUs(s);
        ++sums.computes[kind];
        result = std::move(*computed);
        if (cacheable) cache.Insert(name, key, cache.Stamp(name, 0), result);
      }
      const uint64_t s = lane->Open(n_encode, rid, root);
      const std::string params = crimson::EncodeQueryParams(name, request);
      const std::string summary = crimson::SummarizeResult(result);
      lane->Close(s);
      sums.encode_us += lane->DurationUs(s);
      lane->Close(root);
      sums.user_bytes += crimson::QueryKindName(request).size() +
                         params.size() + summary.size();
      if (!wire) {
        sums.call_us[kind] += b.call_us[i];
        ++sums.calls[kind];
      }
      ++sums.queries;
      if (wire) {
        batch_requests.push_back(request);
        batch_results.push_back(std::move(result));
      }
    }
    if (!wire) continue;
    // The client side of one pipelined batch, as CrimsonClient frames
    // it: request frames out, response frames back in.
    namespace net = crimson::net;
    uint64_t s = lane->Open(n_cenc, b.request_id, batch_span);
    std::string out;
    for (const QueryRequest& request : batch_requests) {
      std::string payload;
      net::EncodeQueryEnvelope(&payload, net::QueryEnvelope{name, request});
      net::AppendFrame(&out, net::MessageType::kQuery, payload);
    }
    lane->Close(s);
    sums.client_encode_us += lane->DurationUs(s);
    std::string in;
    for (const QueryResult& result : batch_results) {
      std::string payload;
      net::EncodeQueryResult(&payload, result);
      net::AppendFrame(&in, net::MessageType::kQueryOk, payload);
    }
    sums.frame_bytes += out.size() + in.size();
    s = lane->Open(n_cdec, b.request_id, batch_span);
    crimson::Slice cursor(in);
    for (size_t i = 0; i < batch_results.size(); ++i) {
      net::Frame frame;
      std::string error;
      if (net::DecodeFrame(&cursor, &frame, &error) != net::FrameDecode::kFrame) {
        Fatal("replay: frame decode: " + error);
      }
      crimson::Slice payload(frame.payload);
      if (!net::DecodeQueryResultWire(&payload).ok()) {
        Fatal("replay: result decode");
      }
    }
    lane->Close(s);
    sums.client_decode_us += lane->DurationUs(s);
    lane->Close(batch_span);
  }
  return sums;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace

RunResult RunQueryWorkload(const RunConfig& config, bool wire) {
  const Scale scale = ScaleFor(config);
  Fixture f = MakeFixture(config, scale);
  printf("workload %s: %zu Yule trees x %llu nodes, %zu distinct requests "
         "per tree (Zipf s=1, 6 kinds in equal shares), %zu closed-loop %s, "
         "batches of %zu\n",
         config.workload.c_str(), scale.trees,
         static_cast<unsigned long long>(f.total_nodes / scale.trees),
         scale.requests, kClients,
         wire ? "pipelined connections" : "threads", kBatch);
  printf("flush policy: %s\n", FlushPolicy().c_str());

  // Set-up, several times; the last deployment serves the load.
  std::vector<double> setups;
  std::unique_ptr<Deployment> d;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    d.reset();
    d = SetUp(config, f, wire, rep);
    setups.push_back(d->setup_s);
  }
  RunResult result;
  LoadGenerator generator(config, f, d.get(), wire);
  auto account = [&](const PhaseOut& p) {
    result.attempted += p.queries;
    result.failed += p.failed + VerifyObserved(f, p.observed);
  };
  account(generator.Run(scale.warmup_s, nullptr));

  auto before = d->Snapshot();
  PhaseOut measured = generator.Run(config.seconds, nullptr);
  auto after = d->Snapshot();
  const double qps = measured.queries / measured.elapsed_s;
  account(measured);

  Metrics e2e = EndToEndTemplate();
  e2e.Set("setup_s", Median(setups), "s");
  e2e.Set("ops_per_s", qps, "1/s");
  e2e.Set("op_p50_ms", Percentile(measured.lat_us, 50) / 1e3, "ms");
  e2e.Set("op_p99_ms", Percentile(measured.lat_us, 99) / 1e3, "ms");
  e2e.Set("peak_rss_mb",
          wire ? PeakRssMb(d->server->pid()) : PeakRssMb(getpid()), "MB");
  e2e.Set("bytes_per_node",
          static_cast<double>(d->db_bytes) / f.total_nodes, "B/node");

  Metrics breakdown;
  breakdown.Set("queries_per_s", qps, "1/s");
  breakdown.Set("call_p50_us", Percentile(measured.lat_us, 50), "us");
  breakdown.Set("call_p99_us", Percentile(measured.lat_us, 99), "us");
  breakdown.Set("call_samples", static_cast<double>(measured.lat_us.size()),
                "count");
  printf("queries/s per %.1f s window:", kWindowS);
  for (double q : measured.window_qps) printf(" %.0f", q);
  printf("\n");
  RegistryDelta load;
  load.Add(before, after);

  if (!config.trace) {
    result.metrics = e2e;
  } else {
    SpanRecorder recorder;
    auto t_before = d->Snapshot();
    PhaseOut traced = generator.Run(config.seconds, &recorder);
    auto t_after = d->Snapshot();
    account(traced);
    RegistryDelta reg;
    reg.Add(t_before, t_after);
    const double traced_qps = traced.queries / traced.elapsed_s;
    ReplaySums r =
        Replay(f, traced.traced, scale.replay_cap, wire, config.seed, &recorder);

    Metrics m = PerLayerTemplate();
    m.Set("queries_per_s", qps, "1/s");
    m.Set("call_p50_us", Percentile(measured.lat_us, 50), "us");
    m.Set("call_p99_us", Percentile(measured.lat_us, 99), "us");
    m.Set("obs.trace_overhead_frac", qps / traced_qps - 1.0, "frac");

    // src/crimson: per-kind Execute wall time (client spans in process;
    // the server's own per-kind histograms over the wire).
    const uint64_t hits = reg.Counter("cache.hits");
    const uint64_t misses = reg.Counter("cache.misses");
    const double hit_ratio = Ratio(hits, hits + misses);
    double call_total = 0, compute_total = 0, calls = 0;
    for (int k = 0; k < kKindCount; ++k) {
      const std::string kind = KindName(k);
      const double call_us =
          wire ? reg.HistMean("query." + kind + ".latency_us")
               : Ratio(r.call_us[k], r.calls[k]);
      const double compute_us = Ratio(r.compute_us[k], r.computes[k]);
      m.Set("crimson.call_us." + kind, call_us, "us");
      m.Set("query.compute_us." + kind, compute_us, "us");
      const double n =
          wire ? reg.HistCount("query." + kind + ".latency_us") : r.calls[k];
      const double compute_share = IsSamplingKind(k) ? 1.0 : 1.0 - hit_ratio;
      call_total += call_us * n;
      compute_total += compute_us * compute_share * n;
      calls += n;
    }
    m.Set("crimson.overhead_us", Ratio(call_total - compute_total, calls), "us");
    m.Set("crimson.encode_us", Ratio(r.encode_us, r.queries), "us");
    uint64_t executed = 0;
    for (int k = 0; k < kKindCount; ++k) {
      executed += reg.HistCount(std::string("query.") + KindName(k) +
                                ".latency_us");
    }
    m.Set("crimson.history_wal_bytes_per_query",
          Ratio(reg.Counter("storage.wal.bytes"), executed), "B");
    const double staged = reg.HistSumMatching("query.stage.", "_us");
    const double wall = reg.HistSumMatching("query.", ".latency_us");
    m.Set("crimson.unattributed_frac", 1.0 - Ratio(staged, wall), "frac");

    // src/cache
    m.Set("cache.hit_ratio", hit_ratio, "frac");
    m.Set("cache.evictions", reg.Counter("cache.evictions"), "count");
    m.Set("cache.lookup_us", Ratio(r.lookup_us, r.lookups), "us");

    // src/labeling, src/tree
    ReplayTreeLayers(f.newicks, &m);

    // src/storage
    const uint64_t pool_hits = reg.Counter("storage.pool.hits");
    const uint64_t pool_misses = reg.Counter("storage.pool.misses");
    m.Set("storage.pool.hit_ratio", Ratio(pool_hits, pool_hits + pool_misses),
          "frac");
    m.Set("storage.pool.misses", pool_misses, "count");
    m.Set("storage.pool.dirty_writebacks",
          reg.Counter("storage.pool.dirty_writebacks"), "count");
    m.Set("storage.wal.bytes_per_user_byte",
          Ratio(reg.Counter("storage.wal.bytes"),
                Ratio(r.user_bytes, r.queries) * executed),
          "B/B");
    m.Set("storage.wal.fsyncs", reg.Counter("storage.wal.fsyncs"), "count");
    m.Set("storage.wal.group_batch", reg.HistMean("storage.wal.group_batch"),
          "count");
    m.Set("storage.read_us", Ratio(d->storage_read_us, f.names.size()), "us");

    // src/net
    if (wire) {
      // Server execution time per client batch (a batch may be served
      // as more than one coalesced run).
      const double server_us =
          Ratio(reg.HistSum("net.op.query_run_us"), traced.lat_us.size());
      const double encode_us = Ratio(r.client_encode_us, r.batches);
      const double decode_us = Ratio(r.client_decode_us, r.batches);
      m.Set("net.client_encode_us", encode_us, "us");
      m.Set("net.client_decode_us", decode_us, "us");
      m.Set("net.server_run_us", server_us, "us");
      m.Set("net.transport_us",
            Ratio(r.batch_call_us, r.batches) - server_us - encode_us -
                decode_us,
            "us");
      m.Set("net.frame_bytes_per_query", Ratio(r.frame_bytes, r.queries), "B");
      m.Set("net.admission_wait_us", reg.HistMean("net.admission_wait_us"),
            "us");
    }
    result.metrics = m;

    recorder.PrintSelfTimeReport();
    const std::string spans = JoinPath(config.work_dir, "spans.jsonl");
    if (!recorder.WriteJsonLines(spans)) Fatal("cannot write " + spans);
    printf("spans written to %s\n", spans.c_str());
    printf("registry cross-check: cache hits %llu misses %llu "
           "(replay hit ratio %.3f), stage-attributed %.1f%% of Execute "
           "wall time, traced %.0f q/s vs untraced %.0f q/s\n",
           static_cast<unsigned long long>(hits),
           static_cast<unsigned long long>(misses),
           Ratio(r.hits, r.lookups),
           100.0 * Ratio(staged, wall), traced_qps, qps);
  }

  breakdown.Set("failed_frac", Ratio(result.failed, result.attempted), "frac");
  breakdown.Set("peak_rss_mb", e2e.Get("peak_rss_mb"), "MB");
  breakdown.PrintTable(config.workload + " end-to-end (untraced run)");
  printf("  registry during the measured run: %llu cache hits, %llu misses, "
         "%llu evictions, %llu WAL bytes, %llu fsyncs\n",
         static_cast<unsigned long long>(load.Counter("cache.hits")),
         static_cast<unsigned long long>(load.Counter("cache.misses")),
         static_cast<unsigned long long>(load.Counter("cache.evictions")),
         static_cast<unsigned long long>(load.Counter("storage.wal.bytes")),
         static_cast<unsigned long long>(load.Counter("storage.wal.fsyncs")));

  if (wire) {
    d->clients.clear();
    if (!d->server->Stop()) {
      fprintf(stderr, "crimson_server did not drain cleanly\n");
      ++result.failed;
    }
  }
  return result;
}

}  // namespace perfbench
