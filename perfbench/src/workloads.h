// The three benchmark workloads and the metric sets they report.
//
//   query_mix       six query kinds, in process, 3 closed-loop threads
//   query_wire      the same request stream over loopback to a
//                   crimson_server, 3 pipelined connections
//   evaluate_cycle  load -> append -> cold open -> experiment ->
//                   checkpoint -> drop, single-threaded
//
// An untraced run reports the end-to-end metrics; a traced run
// (--trace 1) reports the per-layer metrics. Every workload reports
// every metric of the set it is asked for: a layer the workload does
// not exercise reads 0 (see perfbench/README.md).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>

#include "crimson/crimson.h"
#include "report.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small trees and short phases: exercises every code path and
  /// metric in seconds (perfbench/run.py --smoke).
  bool smoke = false;
  /// Scratch directory for databases, server logs and span dumps.
  std::string work_dir;
  /// The crimson_server binary (query_wire).
  std::string server_bin;
};

struct RunResult {
  Metrics metrics;  // the set printed in the final JSON line
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

RunResult RunQueryWorkload(const RunConfig& config, bool wire);
RunResult RunEvaluateCycle(const RunConfig& config);

/// How many times set-up is repeated per run (setup_s is the median).
inline constexpr int kSetupReps = 3;

/// Session options every workload uses: an on-disk database with group
/// commit, all other knobs at their production defaults (1024-entry
/// history buffer, 8 MiB result cache, 4096-page buffer pool).
crimson::CrimsonOptions SessionOptions(const std::string& db_path,
                                       uint64_t seed);
/// The flush policy line printed with every run.
std::string FlushPolicy();

/// End-to-end metrics, initialised to 0 with their units.
Metrics EndToEndTemplate();
/// Per-layer metrics, initialised to 0 with their units.
Metrics PerLayerTemplate();

/// Prints the error and exits with code 2 (set-up or usage failure),
/// first stopping and reaping the child registered with SetChild.
[[noreturn]] void Fatal(const std::string& what);
/// Registers the running child process (0 when none) for Fatal.
void SetChild(pid_t pid);
std::string JoinPath(const std::string& dir, const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
