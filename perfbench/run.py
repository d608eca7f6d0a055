#!/usr/bin/env python3
"""Builds and runs the iFDK repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fdk_scan --seed 1 --seconds 20 --trace 0

The benchmark binary is configured and built from the repository sources
into .bench_build/perfbench (a no-op after the first build), then run with
the same arguments. Its standard output is passed through unchanged; the last
line is the JSON result. With --trace 1 the Chrome trace-event JSON of the
traced run is written to .bench_build/perfbench/traces/.

Exit status: 0 on a completed run (failed checks are reported in the JSON,
not in the status), 2 when the build fails, otherwise the binary's status.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("fdk_scan", "fdk_stream", "sart", "service_mixed")


def build():
    """Configures and builds the benchmark; returns True on success."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build failed (log: %s)\n" % log_path)
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test geometry (see perfbench/selftest.py)")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: corrupt one result before checking")
    args = parser.parse_args()

    if not build():
        return 2
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.tiny:
        command.append("--tiny")
    if args.corrupt:
        command.append("--corrupt")
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
