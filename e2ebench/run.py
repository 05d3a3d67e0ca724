#!/usr/bin/env python3
"""Builds the end-to-end benchmark against the repository's libigepa (Release)
and runs one workload.

    python3 e2ebench/run.py --workload <offline-solve|sharded-spill|serve-durable>
                            --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --self-test      # the output checker's own tests

Run it from anywhere inside a checkout; the build goes to
.bench_build/e2ebench/ at the checkout root, and so do the per-run inputs
(removed when the run ends) and the traced run's outputs (out/). The last
line of stdout is the benchmark's JSON result; build output goes to
.bench_build/e2ebench/build.log.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
LOG = os.path.join(BUILD, "build.log")


def fail(message):
    sys.stderr.write("e2ebench: " + message + "\n")
    sys.exit(2)


def build(target):
    """Configures once, then (re)builds `target`; a no-op when up to date."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no igepa source tree at " + ROOT + " (CMakeLists.txt and src/ are needed)")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    tree = os.path.join(BUILD, "tree")
    os.makedirs(BUILD, exist_ok=True)
    with open(LOG, "a") as log:
        if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=subprocess.STDOUT) != 0:
                fail("cmake configure failed, see " + LOG)
        command = ["cmake", "--build", tree, "--target", target, "-j", "4"]
        if subprocess.call(command, stdout=log, stderr=subprocess.STDOUT) != 0:
            fail("build failed, see " + LOG)
    return os.path.join(tree, target)


def main(argv):
    if argv == ["--self-test"]:
        binary = build("e2ebench_checker_test")
        scratch = os.path.join(BUILD, "test-tmp")
        os.makedirs(scratch, exist_ok=True)
        return subprocess.call([binary], env=dict(os.environ, TEST_TMPDIR=scratch))
    binary = build("e2ebench")
    command = [
        binary,
        "--work-dir",
        os.path.join(BUILD, "work"),
        "--out-dir",
        os.path.join(BUILD, "out"),
    ] + argv
    return subprocess.call(command, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
