#!/usr/bin/env python3
"""End-to-end benchmark for Crimson.

Run from the root of a checkout:

    python3 perfbench/run.py --workload query_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

The first run builds the library, crimson_server and crimson_perf from
source (CMake, Release) into .bench_build/perfbench. A run prints the
crimson_perf report, then as its last line one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

--smoke runs every workload at a small size, untraced and traced, and
fails loudly if any metric named in BENCHMARK.json is missing.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("query_mix", "query_wire", "evaluate_cycle")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures and builds the benchmark; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "crimson", "crimson.h")):
        fail("Crimson sources not found next to perfbench/; "
             "run from the root of a full checkout")
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(
            os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", out, "-j4"]):
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return out


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(out, workload, seed, seconds, trace, smoke):
    """Runs one workload; returns (exit code, stdout lines)."""
    work = os.path.join(ROOT, ".bench_work", workload)
    cmd = [os.path.join(out, "crimson_perf"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--work-dir", work,
           "--server", os.path.join(out, "crimson_server")]
    if smoke:
        cmd.append("--smoke")
    # Own process group, so a timeout also stops the server it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        # crimson_perf reaps the server it starts; this only catches a
        # server left behind when crimson_perf crashed.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    # Databases are large and rebuilt by every run; keep the span dump.
    if os.path.isdir(work):
        for entry in os.listdir(work):
            path = os.path.join(work, entry)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
    return proc.returncode, stdout.splitlines()


def check_result(lines, trace):
    """Parses the result line; returns (result, missing metric names)."""
    if not lines:
        return None, ["<no output>"]
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None, ["<last line is not JSON>"]
    metrics = result.get("metrics", {})
    missing = [m for m in expected_metrics(trace) if m not in metrics]
    extra = [m for m in metrics if m not in expected_metrics(trace)]
    return result, missing + ["unexpected:" + m for m in extra]


def smoke(out):
    failures = []
    for workload in WORKLOADS:
        for trace in (False, True):
            code, lines = run_workload(out, workload, seed=7, seconds=1,
                                     trace=trace, smoke=True)
            result, problems = check_result(lines, trace)
            label = "%s trace=%d" % (workload, trace)
            if code != 0 or result is None or not result.get("correct"):
                failures.append("%s: exit %d, result %s" %
                                (label, code, lines[-1] if lines else None))
            if problems:
                failures.append("%s: missing metrics %s" % (label, problems))
            zero = [k for k, v in (result or {}).get("metrics", {}).items()
                    if not trace and v["value"] == 0]
            if zero:
                failures.append("%s: end-to-end metrics read 0: %s" %
                                (label, zero))
            print("smoke %-28s exit %d, %s" %
                  (label, code, "ok" if result and not problems else "FAILED"))
    if failures:
        print("SMOKE FAILED:\n  " + "\n  ".join(failures), file=sys.stderr)
        sys.exit(1)
    print("smoke ok: every workload reported every metric")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload small, check all metrics")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")

    out = build()
    if args.smoke:
        smoke(out)
        return
    code, lines = run_workload(out, args.workload, args.seed, args.seconds,
                             bool(args.trace), smoke=False)
    result, problems = check_result(lines, bool(args.trace))
    for line in lines[:-1]:
        print(line)
    if result is None or problems:
        print("perfbench: bad result (%s); crimson_perf exit %d" %
              (", ".join(problems), code), file=sys.stderr)
        sys.exit(1)
    print(lines[-1])
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
