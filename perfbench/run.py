#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (the amdmb library, amdmb_serve and amdmb_bench, Release) into
.bench_build/; later calls only rebuild what changed. Build output goes to
stderr; stdout carries the benchmark's own lines, the last of which is the
JSON result. Exits non-zero when the build fails, when any output
mismatches its reference, or when the run overruns its time limit.
"""
import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def build():
    jobs = str(os.cpu_count() or 1)
    steps = []
    configured = any((BUILD / name).exists()
                     for name in ("Makefile", "build.ninja"))
    if not configured:
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "amdmb_bench", "amdmb_serve"])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["figures_quick", "kerncap_alu", "serve_open"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    if not build():
        return 1
    command = [str(BUILD / "amdmb_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--serve-binary", str(BUILD / "amdmb_serve"),
               "--reference-dir", "perfbench/reference",
               "--scratch-dir", ".bench_build/perfbench-run"]
    # Own process group, so a timeout also stops the daemon the benchmark
    # spawned for serve_open.
    child = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        os.killpg(child.pid, signal.SIGTERM)
        child.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
