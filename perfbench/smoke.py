#!/usr/bin/env python3
"""Tiny-size smoke of all four workloads.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json with tiny inputs for one second, once
untraced and once traced, and checks the result line: exactly the keys
correct / attempted / failed / metrics, every end-to-end metric (untraced) or
per-layer metric (traced) present with the unit BENCHMARK.json gives it,
ok_share reported, and every op correct. Exit status is 1 on any failure.
It touches nothing outside the benchmark's build directory.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(workload, trace, expected):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    problems = []
    if out.returncode != 0 or not lines:
        return ["exit status %d, %d output lines; stderr ends: %s" % (
            out.returncode, len(lines), out.stderr[-500:])]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    if result.get("correct") is not True:
        problems.append("correct is %r" % result.get("correct"))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted is %r" % result.get("attempted"))
    metrics = result.get("metrics", {})
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            problems.append("missing " + m["name"])
        elif got.get("unit") != m["unit"] or not isinstance(
                got.get("value"), (int, float)):
            problems.append("bad %s: %r" % (m["name"], got))
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        problems.append("unexpected metrics %s" % sorted(extra))
    if trace == 0 and "ok_share" not in metrics:
        problems.append("ok_share not reported")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failed = False
    for w in bench["workloads"]:
        for trace, expected in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            problems = check(w["name"], trace, expected)
            print("%-12s trace=%d %s" % (w["name"], trace,
                                         "ok" if not problems else
                                         "FAIL: " + "; ".join(problems)))
            failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
