#!/usr/bin/env python3
"""Builds and runs the PYTHIA system benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is built from source with CMake
into <build>/perfbench, where <build> is $CARGO_TARGET_DIR if set, else
.bench_build. Scratch files go to <build>/work and are removed afterwards;
the spans of the latest traced run of each workload are kept, gzipped, in
<build>/traces. The last line of standard output is one JSON object:
correct, attempted, failed, metrics.
"""

import argparse
import fcntl
import gzip
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("replay-regular", "replay-irregular", "serve-mixed")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(source_dir, build_dir):
    """Configures (once) and builds both binaries; True on success."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = subprocess.run(
                ["cmake", "-S", source_dir, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, stderr=sys.stderr)
            if configure.returncode != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        made = subprocess.run(
            ["cmake", "--build", build_dir, "-j", jobs, "--target",
             "perfbench", "perfbench_traced"],
            stdout=sys.stderr, stderr=sys.stderr)
        return made.returncode == 0


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["attempted"], int)
            and result["attempted"] >= 1
            and isinstance(result["metrics"], dict))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    source_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.getcwd()
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    if not build(source_dir, build_dir):
        log("perfbench: build failed")
        return 1

    binary = os.path.join(build_dir,
                          "perfbench_traced" if args.trace else "perfbench")
    work_dir = os.path.join(build_root, "work",
                            "%s-%d-%d" % (args.workload, args.seed,
                                          os.getpid()))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--dir", work_dir]
    spans = os.path.join(work_dir, "spans.tsv")
    if args.trace:
        command += ["--spans", spans]

    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    started = time.monotonic()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                             text=True)
        if args.trace and run.returncode == 0 and os.path.exists(spans):
            trace_dir = os.path.join(build_root, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            with open(spans, "rb") as raw, gzip.open(
                    os.path.join(trace_dir, args.workload + ".spans.tsv.gz"),
                    "wb", compresslevel=1) as packed:
                shutil.copyfileobj(raw, packed)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stderr.write(run.stdout)
        log("perfbench: run failed (exit %d)" % run.returncode)
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.write("  wall %.1f s\n" % (time.monotonic() - started))
    sys.stdout.write(lines[-1] + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
