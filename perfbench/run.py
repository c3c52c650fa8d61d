#!/usr/bin/env python3
"""Builds and runs the BrAID end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a BrAID checkout. The benchmark is compiled from
source with dune (release profile, build directory .bench_build), then
perfbench/main.exe runs one workload: it prints a human-readable report
and, as its last line, the result as one JSON object. Exits 2 when the
BrAID sources are not next to the benchmark, so nothing can be built.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (
        os.path.isfile(os.path.join(root, "dune-project"))
        and os.path.isdir(os.path.join(root, "lib"))
    ):
        print(
            "perfbench: no BrAID sources (dune-project, lib/) next to the benchmark",
            file=sys.stderr,
        )
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", root, "--build-dir", BUILD_DIR,
         "--profile", "release", "--display", "quiet", TARGET],
        cwd=root,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(root, BUILD_DIR, "default", "perfbench", "main.exe")
    return subprocess.run([exe] + argv, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
