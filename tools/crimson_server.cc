// crimson_server: serves one Crimson session over the wire protocol.
//
//   crimson_server --db=/path/to.db [--host=127.0.0.1] [--port=9917]
//                  [--workers=8] [--max-connections=64]
//                  [--max-inflight=128] [--durability=off|commit]
//                  [--log-level=debug|info|warning|error]
//                  [--metrics-dump-secs=N] [--slow-query-micros=N]
//
// Prints one "listening on <host>:<port>" line once it is serving
// (scripts wait for it), then runs until SIGTERM/SIGINT, at which
// point it drains gracefully: stops accepting, finishes in-flight
// requests, flushes responses, checkpoints the session, and exits 0.
// With --metrics-dump-secs=N the serving loop logs one summary line of
// the session's metrics snapshot every N seconds; --slow-query-micros
// turns on the session slow-query log at that threshold.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/log.h"
#include "crimson/crimson.h"
#include "net/server.h"
#include "obs/metrics.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

/// One log line summarizing a metrics snapshot: total queries (and
/// overall latency percentiles folded across the per-kind histograms),
/// cache and buffer-pool hit traffic, WAL appends, and the wire-level
/// counts. Operators tailing the log get the health headline; the full
/// snapshot is one `crimson_stats` call away.
std::string MetricsDumpLine(const crimson::obs::MetricsSnapshot& m) {
  uint64_t queries = 0;
  for (const auto& [key, value] : m.counters) {
    if (key.rfind("query.", 0) == 0 &&
        key.size() > 6 && key.compare(key.size() - 6, 6, ".count") == 0) {
      queries += value;
    }
  }
  // Fold every per-kind latency histogram into one for the headline
  // percentiles (identical bucket bounds, so counts add bucket-wise).
  crimson::obs::HistogramSnapshot all;
  for (const auto& [key, h] : m.histograms) {
    if (key.rfind("query.", 0) != 0 ||
        key.size() < 11 || key.compare(key.size() - 11, 11, ".latency_us") != 0) {
      continue;
    }
    if (all.bounds.empty()) {
      all.bounds = h.bounds;
      all.counts.assign(h.counts.size(), 0);
    }
    if (h.bounds == all.bounds) {
      for (size_t i = 0; i < h.counts.size(); ++i) all.counts[i] += h.counts[i];
      all.count += h.count;
      all.sum += h.sum;
    }
  }
  char line[512];
  snprintf(line, sizeof(line),
           "metrics: queries=%llu p50=%.0fus p99=%.0fus slow=%llu "
           "cache=%llu/%llu hit/miss pool=%llu/%llu hit/miss "
           "wal_appends=%llu net_frames=%llu net_rejects=%llu",
           static_cast<unsigned long long>(queries), all.p50(), all.p99(),
           static_cast<unsigned long long>(m.counter("query.slow")),
           static_cast<unsigned long long>(m.counter("cache.hits")),
           static_cast<unsigned long long>(m.counter("cache.misses")),
           static_cast<unsigned long long>(m.counter("storage.pool.hits")),
           static_cast<unsigned long long>(m.counter("storage.pool.misses")),
           static_cast<unsigned long long>(m.counter("storage.wal.appends")),
           static_cast<unsigned long long>(m.counter("net.frames_received")),
           static_cast<unsigned long long>(
               m.counter("net.queries_rejected") +
               m.counter("net.connections_rejected")));
  return line;
}

}  // namespace

int main(int argc, char** argv) {
  using crimson::Crimson;
  using crimson::CrimsonOptions;
  using crimson::Durability;
  using crimson::net::CrimsonServer;
  using crimson::net::ServerOptions;

  CrimsonOptions session_opts;
  ServerOptions server_opts;
  server_opts.port = 9917;
  int metrics_dump_secs = 0;
  for (int i = 1; i < argc; ++i) {
    if (strncmp(argv[i], "--db=", 5) == 0) {
      session_opts.db_path = argv[i] + 5;
    } else if (strncmp(argv[i], "--host=", 7) == 0) {
      server_opts.host = argv[i] + 7;
    } else if (strncmp(argv[i], "--port=", 7) == 0) {
      server_opts.port = static_cast<uint16_t>(atoi(argv[i] + 7));
    } else if (strncmp(argv[i], "--workers=", 10) == 0) {
      server_opts.max_exec_concurrency = static_cast<size_t>(
          atoi(argv[i] + 10));
      session_opts.batch_workers = server_opts.max_exec_concurrency;
    } else if (strncmp(argv[i], "--max-connections=", 18) == 0) {
      server_opts.max_connections = static_cast<size_t>(atoi(argv[i] + 18));
    } else if (strncmp(argv[i], "--max-inflight=", 15) == 0) {
      server_opts.max_inflight_queries =
          static_cast<size_t>(atoi(argv[i] + 15));
    } else if (strcmp(argv[i], "--durability=commit") == 0 ||
               strcmp(argv[i], "--durability=group") == 0) {
      // "group" is the former group-commit spelling, still passed by
      // the frozen benchmark driver (perfbench/src/query_workloads.cc);
      // it means commit and goes when that driver is next changed.
      session_opts.durability = Durability::kCommit;
    } else if (strcmp(argv[i], "--durability=off") == 0) {
      session_opts.durability = Durability::kOff;
    } else if (strncmp(argv[i], "--log-level=", 12) == 0) {
      crimson::LogLevel level;
      if (!crimson::ParseLogLevel(argv[i] + 12, &level)) {
        fprintf(stderr, "bad --log-level (want debug|info|warning|error)\n");
        return 2;
      }
      crimson::SetMinLogLevel(level);
    } else if (strncmp(argv[i], "--metrics-dump-secs=", 20) == 0) {
      metrics_dump_secs = atoi(argv[i] + 20);
    } else if (strncmp(argv[i], "--slow-query-micros=", 20) == 0) {
      session_opts.slow_query_micros =
          static_cast<uint64_t>(atoll(argv[i] + 20));
    } else {
      fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  auto session_or = Crimson::Open(session_opts);
  if (!session_or.ok()) {
    fprintf(stderr, "failed to open session: %s\n",
            session_or.status().ToString().c_str());
    return 1;
  }
  auto session = std::move(session_or).value();

  auto server_or = CrimsonServer::Start(session.get(), server_opts);
  if (!server_or.ok()) {
    fprintf(stderr, "failed to start server: %s\n",
            server_or.status().ToString().c_str());
    return 1;
  }
  auto server = std::move(server_or).value();

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  printf("crimson_server listening on %s:%u (db=%s)\n",
         server_opts.host.c_str(), server->port(),
         session_opts.db_path.empty() ? "<memory>"
                                      : session_opts.db_path.c_str());
  fflush(stdout);

  int ticks_since_dump = 0;
  const int dump_every_ticks = metrics_dump_secs * 10;  // 100ms ticks
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (dump_every_ticks > 0 && ++ticks_since_dump >= dump_every_ticks) {
      ticks_since_dump = 0;
      CRIMSON_LOG(kInfo) << MetricsDumpLine(session->SnapshotMetrics());
    }
  }

  printf("signal received; draining...\n");
  fflush(stdout);
  crimson::Status drained = server->Shutdown();
  // The session outlives the server, so its registry is still live
  // here: every line below reads one snapshot of it.
  const crimson::obs::MetricsSnapshot m = session->SnapshotMetrics();
  auto v = [&m](const char* name) {
    return static_cast<unsigned long long>(m.counter(name));
  };
  printf("drained: %llu connections served, %llu queries "
         "(%llu rejected), checkpoint %s\n",
         v("net.connections_accepted"), v("net.queries_executed"),
         v("net.queries_rejected"),
         drained.ok() ? "ok" : drained.ToString().c_str());
  printf("cache: %llu hits / %llu misses (%llu entries, %llu bytes); "
         "experiments: %llu sequences read; mvcc: epoch %llu, %llu live "
         "versions\n",
         v("cache.hits"), v("cache.misses"), v("cache.entries"),
         v("cache.bytes_used"), v("experiment.sequences_read"),
         v("pages.committed_epoch"), v("pages.live_versions"));
  fflush(stdout);
  return drained.ok() ? 0 : 1;
}
