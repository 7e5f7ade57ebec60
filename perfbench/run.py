#!/usr/bin/env python3
"""Builds the DQuaG benchmark from source and runs one workload.

    python3 perfbench/run.py --workload offline_csv --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The library and the benchmark are built with
CMake into .bench_build/perfbench (configured once, rebuilt incrementally).
An untraced run is split into PARTS benchmark processes, one after another,
whose samples a last invocation merges. The benchmark's human-readable
report goes to stdout, followed by a run envelope line and, last, one JSON
result line. The exit code is the benchmark's: non-zero when the build
fails, when a correctness gate fails, or when the open-loop generator fell
behind its schedule.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
# A cold build takes about a minute on four cores; the first run of a
# checkout has 900 s for build and run together.
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170
# Compile jobs: the build is the only work running at that point, but the
# machine may be shared, so stay below its core count.
BUILD_JOBS = max(1, min(3, os.cpu_count() or 1))
# Processes an untraced run is split into. On a shared VM one process runs
# faster or slower than the next by more than its own rounds vary, so
# pooling the rounds of several processes steadies the medians.
PARTS = 3


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def child_env():
    """Keeps compiler and benchmark temporary files inside the checkout."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def run_quiet(command, timeout):
    """Runs a build step; its output is shown only when it fails."""
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout,
                              env=child_env())
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(command))
    if done.returncode != 0:
        sys.stderr.write(done.stdout.decode(errors="replace")[-8000:])
        fail("failed: " + " ".join(command))


def build(target):
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("no %s under %s: run from a checkout of the repository"
                 % (required, ROOT))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                   "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                  deadline - time.monotonic())
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", target,
               "-j", str(BUILD_JOBS)], max(1, deadline - time.monotonic()))
    return os.path.join(BUILD_DIR, target)


def run_child(command, deadline):
    """Runs one benchmark process to the end (killed at the deadline);
    returns its exit code."""
    child = subprocess.Popen(command, cwd=ROOT, env=child_env())
    try:
        return child.wait(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, subdirs, files in os.walk(os.path.join(ROOT, top)):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        done = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    sha = done.stdout.decode().strip()
    return sha if done.returncode == 0 and sha else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the helper self-test instead")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([binary], cwd=ROOT, env=child_env())
                 .returncode)
    if not args.workload:
        fail("--workload is required")

    binary = build("dquag_perfbench")
    common = [binary, "--workload", args.workload, "--seed", str(args.seed),
              "--trace", str(args.trace),
              "--git-sha", git_sha(), "--source-digest", source_digest()]
    scratch = os.path.join(ROOT, ".bench_build",
                           "perfbench-run-%d" % os.getpid())
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.trace:
        sys.exit(run_child(common + ["--seconds", str(args.seconds),
                                     "--work-dir", scratch], deadline))

    # An untraced run is split into PARTS processes run one after another,
    # each for its share of --seconds; the last invocation merges their
    # samples into the metrics.
    part_files = [scratch + "-part%d.txt" % i for i in range(PARTS)]
    try:
        for i, part_file in enumerate(part_files):
            code = run_child(common + ["--seconds", repr(args.seconds / PARTS),
                                       "--part", str(i),
                                       "--part-out", part_file,
                                       "--work-dir", scratch], deadline)
            if code != 0:
                sys.exit(code)
        sys.exit(run_child(common + ["--seconds", str(args.seconds),
                                     "--merge", ",".join(part_files)],
                           deadline))
    finally:
        for part_file in part_files:
            if os.path.exists(part_file):
                os.remove(part_file)


if __name__ == "__main__":
    main()
