#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper|serve|mixed --seed N \
        --seconds S --trace 0|1

The driver (perfbench/CMakeLists.txt) compiles the library in src/ on its
own, into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); a
build that is up to date costs about a second. Build output goes to
standard error, so the last line of standard output is the driver's JSON
result. The exit code is the driver's: non-zero when a result check
failed, the build failed, or the run overran its time limit.

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own tests (perfbench/checks_test.cc).
"""

import os
import shutil
import subprocess
import sys

# A run must end within 180 s; stop the driver well before that.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 1500


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root, target):
    """Configures (once) and builds `target`; returns the build directory."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, base, "perfbench")
    source_dir = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no library sources (src/CMakeLists.txt) under " + root)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_step(configure)
    run_step(["cmake", "--build", build_dir, "--target", target,
              "--parallel", jobs])
    return build_dir


def run_step(command):
    try:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("build step timed out: " + " ".join(command))
    if done.returncode != 0:
        fail("build step failed: " + " ".join(command))


def main(argv):
    root = os.getcwd()
    if argv == ["--selftest"]:
        build_dir = build(root, "perfbench_checks_test")
        test = os.path.join(build_dir, "perfbench_checks_test")
        return subprocess.run([test], check=False, timeout=RUN_TIMEOUT_S).returncode

    allowed = {"--workload", "--seed", "--seconds", "--trace"}
    if len(argv) % 2 != 0 or any(flag not in allowed for flag in argv[0::2]):
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    build_dir = build(root, "perfbench_driver")
    driver = os.path.join(build_dir, "perfbench_driver")
    command = [driver] + argv
    sys.stdout.flush()
    proc = subprocess.Popen(command)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("the run overran %d s and was stopped" % RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
