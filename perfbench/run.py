#!/usr/bin/env python3
"""Builds the CERES benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch_swde --seed 1 --seconds 15 --trace 0

The first run configures and compiles the program's libraries plus the
benchmark binary (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or
.bench_build when unset; later runs only re-check the build. The binary's
standard output is passed through, so its last line is the result object.
Build output goes to standard error. Exits non-zero, without a result line,
when the sources are missing, the build fails, or an output check fails.
Extra flags (--tamper, --self-test, --list-metrics) are passed to the
binary; see perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root, build_root):
    build_dir = os.path.join(build_root, "perfbench")
    binary = os.path.join(build_dir, "ceres_perfbench")
    env = dict(os.environ)
    tmp = os.path.join(build_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # compiler temporaries stay inside the checkout
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    result = subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target",
         "ceres_perfbench"], stdout=sys.stderr, env=env)
    if result.returncode or not os.path.exists(binary):
        fail("build failed")
    return binary, env


def main(argv):
    root = os.getcwd()
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(root, needed)):
            fail("run from the root of a CERES checkout (missing %s)" % needed)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary, env = build(root, build_root)
    command = [binary, "--work-dir", os.path.join(build_root, "work")] + argv
    try:
        result = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
