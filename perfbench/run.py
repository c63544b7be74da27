#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository.  The first call
configures and builds perfbench/ (the simulator libraries from src/
plus the driver, in Release) under $CARGO_TARGET_DIR, default
.bench_build at the checkout root; later calls only re-check the build.
The driver then runs the workload for S host seconds and prints its
metrics; the last stdout line is the JSON result.  Build and driver
diagnostics go to log files in the build directory and are shown only
on failure.  Exits non-zero without printing a result when the build
or the run fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("replay_ssp", "hscc_migrate", "fleet_churn", "fleet_smp")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def fail(message, log=None):
    """Print @p message (and the tail of @p log) to stderr and exit 1."""
    print(f"perfbench: {message}", file=sys.stderr)
    if log is not None and log.exists():
        tail = log.read_text(errors="replace").splitlines()[-40:]
        print("\n".join(tail), file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configure once, then bring the driver up to date."""
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    with open(out / "build.lock", "w") as lock:
        # Concurrent runs in one checkout must not build over each other.
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log, "w") as sink:
            if not (out / "CMakeCache.txt").exists():
                configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                             "-DCMAKE_BUILD_TYPE=Release"]
                if shutil.which("ninja"):
                    configure += ["-G", "Ninja"]
                if subprocess.run(configure, stdout=sink,
                                  stderr=subprocess.STDOUT).returncode:
                    # A failed configure must not leave a cache that
                    # makes the next call skip configuring.
                    (out / "CMakeCache.txt").unlink(missing_ok=True)
                    fail("configure failed", log)
            jobs = str(min(4, os.cpu_count() or 1))
            if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                              stdout=sink,
                              stderr=subprocess.STDOUT).returncode:
                fail("build failed", log)
    return out / "kindle_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be 1..60")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    out = build_dir()
    exe = build(out)
    log = out / f"driver-{args.workload}.log"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    with open(log, "w") as sink:
        try:
            run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sink,
                                 text=True, timeout=args.seconds + 100)
        except subprocess.TimeoutExpired:
            fail("driver timed out", log)
    if run.returncode != 0:
        fail(f"driver exited with {run.returncode}", log)

    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("driver printed no result", log)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed driver result", log)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
