// crimson_perf: the end-to-end benchmark program.
//
//   crimson_perf --workload query_mix|query_wire|evaluate_cycle
//                --seed N --seconds S --trace 0|1
//                --work-dir DIR [--server PATH] [--smoke]
//
// Prints a readable report, then as its last line one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when any operation failed or any answer was
// wrong, 2 on a usage or set-up error.

#include <signal.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common/log.h"
#include "inputs.h"
#include "workloads.h"

namespace perfbench {

crimson::CrimsonOptions SessionOptions(const std::string& db_path,
                                       uint64_t seed) {
  crimson::CrimsonOptions options;
  options.db_path = db_path;
  options.durability = crimson::Durability::kGroupCommit;
  options.seed = seed;
  return options;
}

std::string FlushPolicy() {
  const crimson::CrimsonOptions defaults;
  char line[256];
  snprintf(line, sizeof(line),
           "on-disk database, Durability::kGroupCommit, history buffer %zu "
           "entries, auto-checkpoint at %llu MiB of WAL, result cache %llu "
           "MiB, buffer pool %zu pages",
           defaults.history_buffer_cap,
           static_cast<unsigned long long>(defaults.wal_checkpoint_bytes >> 20),
           static_cast<unsigned long long>(defaults.query_cache_bytes >> 20),
           defaults.buffer_pool_pages);
  return line;
}

Metrics EndToEndTemplate() {
  Metrics m;
  m.Set("setup_s", 0, "s");
  m.Set("ops_per_s", 0, "1/s");
  m.Set("op_p50_ms", 0, "ms");
  m.Set("op_p99_ms", 0, "ms");
  m.Set("peak_rss_mb", 0, "MB");
  m.Set("bytes_per_node", 0, "B/node");
  return m;
}

Metrics PerLayerTemplate() {
  Metrics m;
  // Workload-level figures (perfbench/README.md says which phase).
  m.Set("queries_per_s", 0, "1/s");
  m.Set("call_p50_us", 0, "us");
  m.Set("call_p99_us", 0, "us");
  m.Set("nodes_per_s", 0, "1/s");
  m.Set("store_p50_ms", 0, "ms");
  m.Set("append_p50_ms", 0, "ms");
  m.Set("open_p50_ms", 0, "ms");
  m.Set("experiment_p50_ms", 0, "ms");
  m.Set("drop_p50_ms", 0, "ms");
  // src/crimson
  for (int k = 0; k < kKindCount; ++k) {
    m.Set(std::string("crimson.call_us.") + KindName(k), 0, "us");
  }
  m.Set("crimson.overhead_us", 0, "us");
  m.Set("crimson.encode_us", 0, "us");
  m.Set("crimson.history_wal_bytes_per_query", 0, "B");
  m.Set("crimson.unattributed_frac", 0, "frac");
  // src/cache
  m.Set("cache.hit_ratio", 0, "frac");
  m.Set("cache.evictions", 0, "count");
  m.Set("cache.lookup_us", 0, "us");
  m.Set("crack.sequences_loaded_frac", 0, "frac");
  m.Set("crack.fetches", 0, "count");
  m.Set("crack.eval_build_us", 0, "us");
  // src/query
  for (int k = 0; k < kKindCount; ++k) {
    m.Set(std::string("query.compute_us.") + KindName(k), 0, "us");
  }
  // src/labeling, src/tree
  m.Set("labeling.build_ms", 0, "ms");
  m.Set("labeling.encode_ms", 0, "ms");
  m.Set("labeling.decode_ms", 0, "ms");
  m.Set("labeling.bytes_per_node", 0, "B/node");
  m.Set("tree.parse_ms", 0, "ms");
  m.Set("tree.bytes_per_node", 0, "B/node");
  // src/storage
  m.Set("storage.pool.hit_ratio", 0, "frac");
  m.Set("storage.pool.misses", 0, "count");
  m.Set("storage.pool.dirty_writebacks", 0, "count");
  m.Set("storage.wal.bytes_per_user_byte", 0, "B/B");
  m.Set("storage.wal.fsyncs", 0, "count");
  m.Set("storage.wal.group_batch", 0, "count");
  m.Set("storage.read_us", 0, "us");
  // src/recon
  m.Set("recon.sample_s", 0, "s");
  m.Set("recon.project_s", 0, "s");
  m.Set("recon.reconstruct_s", 0, "s");
  m.Set("recon.compare_s", 0, "s");
  // src/net
  m.Set("net.client_encode_us", 0, "us");
  m.Set("net.client_decode_us", 0, "us");
  m.Set("net.server_run_us", 0, "us");
  m.Set("net.transport_us", 0, "us");
  m.Set("net.frame_bytes_per_query", 0, "B");
  m.Set("net.admission_wait_us", 0, "us");
  // src/obs
  m.Set("obs.trace_overhead_frac", 0, "frac");
  return m;
}

namespace {
pid_t g_child = 0;
}  // namespace

void SetChild(pid_t pid) { g_child = pid; }

void Fatal(const std::string& what) {
  fflush(stdout);
  fprintf(stderr, "crimson_perf: %s\n", what.c_str());
  if (g_child != 0) {
    kill(g_child, SIGKILL);
    waitpid(g_child, nullptr, 0);
  }
  exit(2);
}

std::string JoinPath(const std::string& dir, const std::string& name) {
  return (std::filesystem::path(dir) / name).string();
}

}  // namespace perfbench

namespace {

[[noreturn]] void Usage(const char* why) {
  fprintf(stderr,
          "crimson_perf: %s\nusage: crimson_perf --workload "
          "query_mix|query_wire|evaluate_cycle --seed N --seconds S "
          "--trace 0|1 --work-dir DIR [--server PATH] [--smoke]\n",
          why);
  exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      config.workload = value();
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      config.trace = value() == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value();
    } else if (flag == "--server") {
      config.server_bin = value();
    } else if (flag == "--smoke") {
      config.smoke = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) Usage("--seed is required");
  if (config.work_dir.empty()) Usage("--work-dir is required");
  if (config.seconds <= 0) Usage("--seconds must be positive");
  perfbench::ResetDir(config.work_dir);
  // Keep the library's per-load INFO lines out of the report.
  crimson::SetMinLogLevel(crimson::LogLevel::kWarning);

  perfbench::RunResult result;
  if (config.workload == "query_mix") {
    result = perfbench::RunQueryWorkload(config, /*wire=*/false);
  } else if (config.workload == "query_wire") {
    if (config.server_bin.empty()) Usage("query_wire needs --server");
    result = perfbench::RunQueryWorkload(config, /*wire=*/true);
  } else if (config.workload == "evaluate_cycle") {
    result = perfbench::RunEvaluateCycle(config);
  } else {
    Usage("unknown workload");
  }
  printf("seed %llu, %s run of %.0f s: %llu operations attempted, %llu "
         "failed\n",
         static_cast<unsigned long long>(config.seed),
         config.trace ? "traced" : "untraced", config.seconds,
         static_cast<unsigned long long>(result.attempted),
         static_cast<unsigned long long>(result.failed));
  const bool correct = result.failed == 0 && result.attempted > 0;
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": {%s}}\n",
         correct ? "true" : "false",
         static_cast<unsigned long long>(result.attempted),
         static_cast<unsigned long long>(result.failed),
         result.metrics.JsonFields().c_str());
  fflush(stdout);
  return correct ? 0 : 1;
}
