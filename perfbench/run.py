#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload serve-paced --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run configures and builds the library
and the benchmark under .bench_build/perfbench (a few minutes); later runs
only check that the build is current. Build output goes to standard error;
standard output is the benchmark's report, whose last line is one JSON
object. Any DSX_* variable in the environment is reported and removed, so the
numbers always describe the program's default configuration.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("the program's sources (CMakeLists.txt, src/) are not next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", BUILD, "--target", "dsx_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "dsx_perfbench")


def main():
    exe = build()
    env = dict(os.environ)
    for key in sorted(k for k in env if k.startswith("DSX_")):
        print("perfbench: ignoring %s=%s (default configuration only)" % (key, env[key]),
              file=sys.stderr)
        del env[key]
    try:
        proc = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
