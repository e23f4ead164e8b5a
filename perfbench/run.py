#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

Run from the root of a checkout:

    python3 perfbench/run.py --workload kdd12-sketchml --seed 1 \\
        --seconds 20 --trace 0

The first run configures and builds the SketchML libraries and the
perfbench driver (Release) into .bench_build/ at the checkout root; later
runs rebuild incrementally. Build output goes to stderr. Every argument is
passed to the driver, whose last stdout line is the JSON result.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: no SketchML sources at %s/src; run from the root "
              "of a full checkout" % root, file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=root).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return 2
    return subprocess.run([os.path.join(build, "perfbench")] + sys.argv[1:],
                          cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
