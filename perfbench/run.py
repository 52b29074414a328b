#!/usr/bin/env python3
"""Builds and runs the cqac benchmark (perfbench).

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig4-cold --seed 1 --seconds 30 --trace 0

`--workload all` runs fig4-cold, chain-parallel and served-mixed in turn,
each in its own process, and prints every workload's output.

Configures and builds perfbench/CMakeLists.txt (the cqac library from src/
plus the benchmark) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the binary with the same arguments.
Build output goes to standard error; the benchmark's last line of
standard output is its JSON result.  Exits non-zero without a result when
the library sources are missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["fig4-cold", "chain-parallel", "served-mixed"]
ROOT = os.path.dirname(HERE)


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def cpu_count():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no cqac sources next to the benchmark (src/CMakeLists.txt)")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(cpu_count())])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    build(build_dir)
    work_dir = os.path.join(target, "perfbench-run")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--data-dir", os.path.join(HERE, "data"),
           "--work-dir", os.path.relpath(work_dir, os.getcwd()),
           "--commit", commit()]
    args = sys.argv[1:]
    sys.stdout.flush()
    if "--workload" in args and args[args.index("--workload") + 1:][:1] == ["all"]:
        status = 0
        for workload in WORKLOADS:
            args[args.index("--workload") + 1] = workload
            print("## %s" % workload, flush=True)
            status |= subprocess.run(cmd + args).returncode
        sys.exit(status)
    sys.exit(subprocess.run(cmd + args).returncode)


if __name__ == "__main__":
    main()
