#!/usr/bin/env python3
"""Repeats one workload and reports how steady its end-to-end metrics are.

Spread mode (default) runs the workload once per seed and prints, for every
end-to-end metric, the median, the quartiles and the spread (q3 - q1) /
median next to the metric's bound from BENCHMARK.json. It runs the first
seed twice in a row and checks that the count metrics repeat exactly and
that setup_s repeats within a tenth:

    python3 perfbench/steady.py --workload serve_mix --runs 10

Compare mode runs this checkout and a baseline checkout (for example the
parent commit, exported with `git archive`) in alternating order on the same
seeds and prints both sides per metric, with the share of pairs this
checkout won:

    python3 perfbench/steady.py --workload serve_mix --runs 10 --baseline ../parent

Add --trace to run the traced (per-layer) mode instead; spreads are then
printed without bounds. Exit status is 1 if a check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNTS = ("rounds_per_op", "msgs_per_op", "bytes_per_op")


def run(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("steady.py: run failed: " + " ".join(cmd))
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("  seed %d: correct = false (%d of %d failed)"
              % (seed, result["failed"], result["attempted"]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--baseline", help="root of a baseline checkout")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    ok = True

    if args.baseline:
        sides = {"change": [], "baseline": []}
        for i, seed in enumerate(seeds):
            order = [("change", ROOT), ("baseline", args.baseline)]
            for side, root in (order if i % 2 == 0 else order[::-1]):
                sides[side].append(run(root, args.workload, seed, seconds,
                                       args.trace))
        print("%-34s %12s %12s %7s" % ("metric", "change", "baseline", "wins"))
        for name in sorted(sides["change"][0]):
            a = [r[name] for r in sides["change"]]
            b = [r[name] for r in sides["baseline"]]
            higher = bounds.get(name, {}).get("better") == "higher"
            wins = sum((x > y) if higher else (x < y) for x, y in zip(a, b))
            print("%-34s %12.6g %12.6g %4d/%d" % (name, statistics.median(a),
                                                 statistics.median(b), wins,
                                                 len(a)))
        return 0

    runs = []
    again = None
    for s in seeds:
        runs.append(run(ROOT, args.workload, s, seconds, args.trace))
        if again is None and not args.trace:
            # The repeat follows at once, so drift of the host's speed over
            # minutes does not pass for a difference between two runs.
            again = run(ROOT, args.workload, s, seconds, False)
    print("%d runs of %s, %g s each, seeds %d..%d" % (
        len(runs), args.workload, seconds, seeds[0], seeds[-1]))
    print("%-34s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3",
                                             "spread", "bound"))
    for name in sorted(runs[0]):
        values = [r[name] for r in runs]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name, {}).get("bound") if not args.trace else None
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "ok" if spread <= bound / 3 else (
                "wide" if spread <= bound else "OVER")
            ok &= spread <= bound
        print("%-34s %12.6g %12.6g %12.6g %8.4f %6s %s" % (
            name, med, q1, q3, spread, "" if bound is None else bound, flag))

    if again is not None:
        first = runs[0]
        for name in COUNTS:
            same = again[name] == first[name]
            ok &= same
            print("repeat seed %d: %s %s (%r vs %r)" % (
                seeds[0], name, "identical" if same else "DIFFERS",
                first[name], again[name]))
        a, b = first["setup_s"], again["setup_s"]
        close = abs(a - b) <= 0.1 * min(a, b)
        ok &= close
        print("repeat seed %d: setup_s %.6g vs %.6g: %s" % (
            seeds[0], a, b, "within a tenth" if close else "NOT within a tenth"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
