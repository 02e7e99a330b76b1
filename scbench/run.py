#!/usr/bin/env python3
"""Repository benchmark: builds the library and the scbench binary from
source, runs one workload, and prints its metrics.

Usage (from the repository root):
    python3 scbench/run.py --workload graph-op16 [--seed 1] [--seconds 10]
        [--trace 0|1]

--trace 0 prints the end-to-end metrics of the workload; --trace 1 runs the
traced layer-by-layer decomposition and prints the per-layer metrics.  The
last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it carries the host stamp.  Everything else (build output,
sample counts, fidelity messages) goes to standard error.

The build lands in $CARGO_TARGET_DIR/scbench when that variable is set and
in .bench_build/scbench otherwise, relative to the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("graph-op16", "design-sweep", "long-stream", "image-tiles")
DEFAULT_SEED = 1
# Set-up is measured in this many fresh processes per run (plus the main
# run's own cold start) and reported as their median.
SETUP_PROCESSES = 8
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
# Library environment hooks that would turn telemetry or a SIMD override on
# behind the benchmark's back.
SCRUBBED_ENV = ("SC_TRACE", "SC_METRICS", "SC_PROFILE", "SC_PROM",
                "SC_TRACE_CAPACITY", "SC_SIMD")


def log(message):
    print("scbench: " + message, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "scbench")


def build():
    """Configures (once) and builds the binary; returns its path."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(min(4, nproc()))])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S, check=False)
        if result.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))
    binary = os.path.join(out, "scbench")
    if not os.path.isfile(binary):
        raise RuntimeError("build produced no scbench binary")
    return binary


def child_env():
    env = dict(os.environ)
    for name in SCRUBBED_ENV:
        env.pop(name, None)
    return env


def run_binary(args):
    """Runs the binary; returns its parsed last stdout line."""
    result = subprocess.run(args, stdout=subprocess.PIPE, stderr=sys.stderr,
                            env=child_env(), cwd=ROOT, timeout=RUN_TIMEOUT_S,
                            check=False, text=True)
    lines = result.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("scbench printed no result (exit %d): %s"
                           % (result.returncode, " ".join(args)))
    return json.loads(lines[-1])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def end_to_end(binary, options):
    common = ["--workload", options.workload, "--seed", str(options.seed)]
    setups = [run_binary([binary, "setup"] + common)["setup_s"]
              for _ in range(SETUP_PROCESSES)]
    result = run_binary([binary, "run"] + common +
                        ["--seconds", str(options.seconds)])
    setups.append(result["metrics"]["setup_s"]["value"])
    result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    result["info"]["setup_processes"] = len(setups)
    return result


def traced(binary, options):
    trace_path = os.path.join(build_dir(), "trace-%s-%d.json"
                              % (options.workload, options.seed))
    result = run_binary([binary, "trace", "--workload", options.workload,
                         "--seed", str(options.seed), "--seconds",
                         str(options.seconds), "--trace-out", trace_path])
    validator = os.path.join(ROOT, "tools", "validate_trace.py")
    check = subprocess.run([sys.executable, validator, "--trace", trace_path],
                           stdout=sys.stderr, stderr=sys.stderr, check=False)
    if check.returncode != 0:
        log("FAILED: the trace does not pass tools/validate_trace.py")
        result["correct"] = False
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args()
    if options.seed < 0 or options.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
        result = (traced if options.trace else end_to_end)(binary, options)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as error:
        log("error: %s" % error)
        return 1

    metrics = result["metrics"]
    expected = expected_metrics(options.trace)
    if sorted(metrics) != sorted(expected):
        log("FAILED: metric names differ from BENCHMARK.json: %s"
            % sorted(set(metrics) ^ set(expected)))
        result["correct"] = False
    for name, value in sorted(result["info"].items()):
        log("%s = %s" % (name, value))
    print("host: " + json.dumps(result["host"], sort_keys=True))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": {name: metrics[name] for name in expected
                                  if name in metrics}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
