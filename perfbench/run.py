#!/usr/bin/env python3
"""Build and run the MD-DSM wall-clock benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/; later runs only
rebuild what changed. Before measuring, the harness unit tests run.
The benchmark's last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the line before it holds
the run's metadata. Build and test output goes to stderr.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("session_update", "session_churn", "cluster_wire")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, **kwargs):
    """Run a build/test step with its output on stderr."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kwargs)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configured = run_logged(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
            if configured.returncode != 0:
                fail("cmake configure failed")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        built = run_logged(["cmake", "--build", build_dir, "--target",
                            "perfbench", "perfbench_tests", "-j", jobs])
        if built.returncode != 0:
            fail("build failed")


def source_revision():
    """The git commit when available, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no middleware sources under {os.path.join(ROOT, 'src')}")
    build_dir = os.path.join(ROOT, ".bench_build")
    build(build_dir)

    tests = run_logged([os.path.join(build_dir, "perfbench_tests"),
                        "--gtest_brief=1"], timeout=60)
    if tests.returncode != 0:
        fail("harness unit tests failed")

    env = dict(os.environ, PERFBENCH_COMMIT=source_revision())
    try:
        bench = subprocess.run(
            [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", args.trace],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True, env=env,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(bench.stdout)
    sys.stdout.flush()
    sys.exit(bench.returncode)


if __name__ == "__main__":
    main()
