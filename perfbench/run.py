#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run configures and builds
perfbench (the treeaa libraries from src/ plus perfbench/src) into
.bench_build/; later runs only check that the build is current. The last line
of standard output is the result object printed by perfbench; in traced runs
the per-layer metrics of BENCHMARK.json that belong to other workloads are
added as 0. Build output goes to standard error.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("cli_tree20k", "sweep_grid", "serve_mix", "net_mesh4")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no treeaa sources at " + os.path.join(ROOT, "src"))
    os.makedirs(BUILD, exist_ok=True)
    out = os.path.join(BUILD, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    # One build at a time per checkout, even if runs are started together.
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env).returncode:
                fail("build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs (smoke test only)")
    args = ap.parse_args()

    binary = build()
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.relpath(work, ROOT)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        # Relative work dir: Unix socket paths must stay short.
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail("perfbench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print("\n".join(lines))
        fail("perfbench exited with status %d" % proc.returncode)
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    if args.trace == "1":
        # A traced run splits only its own workload's layers; every other
        # per-layer metric of BENCHMARK.json reads 0 (that layer does not
        # run in this workload).
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            per_layer = json.load(f)["per_layer"]
        for m in per_layer:
            result["metrics"].setdefault(m["name"],
                                         {"value": 0, "unit": m["unit"]})
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
