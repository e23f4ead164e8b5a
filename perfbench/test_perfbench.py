#!/usr/bin/env python3
"""The benchmark's own test, in short-length mode.

For every workload in BENCHMARK.json and both modes (--trace 0 and 1), it
runs the benchmark with --short and checks that the last stdout line
parses, that the run is correct with no failed iterations, and that
exactly the metrics BENCHMARK.json names are emitted, each with its unit
and a finite number. It asserts no timings. Run from the checkout root:

    python3 perfbench/test_perfbench.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(workload, trace, expected):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--short"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    where = "%s --trace %d" % (workload, trace)
    assert proc.returncode == 0, "%s exited %d:\n%s" % (
        where, proc.returncode, proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, "%s not correct:\n%s" % (where,
                                                               proc.stdout)
    assert result["failed"] == 0, where
    assert isinstance(result["attempted"], int), where
    assert result["attempted"] >= 1, where
    metrics = result["metrics"]
    assert set(metrics) == set(expected), "%s metrics differ: %s" % (
        where, sorted(set(metrics) ^ set(expected)))
    for name, unit in expected.items():
        entry = metrics[name]
        assert set(entry) == {"value", "unit"}, (where, name)
        assert entry["unit"] == unit, (where, name, entry["unit"], unit)
        value = entry["value"]
        assert isinstance(value, (int, float)) and not isinstance(
            value, bool), (where, name)
        assert math.isfinite(value), (where, name)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    modes = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for workload in bench["workloads"]:
        for trace, metrics in modes.items():
            check(workload["name"], trace,
                  {m["name"]: m["unit"] for m in metrics})
            print("ok  %s --trace %d" % (workload["name"], trace))
    # Without the library sources next to it the benchmark must fail
    # without printing a result.
    bare = os.path.join(ROOT, ".bench_build", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable] + bench["command"][1:] + [
            "--workload", bench["workloads"][0]["name"], "--seed", "1",
            "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  refuses to run without sources")
    print("all ok")


if __name__ == "__main__":
    main()
