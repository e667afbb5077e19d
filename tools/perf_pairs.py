#!/usr/bin/env python3
"""Alternate two built daelite_perfbench binaries and compare their end-to-end metrics.

    python3 tools/perf_pairs.py --parent /path/parent/daelite_perfbench \\
        --change .bench_build/perfbench/daelite_perfbench \\
        --workload sim_recovery --seed 1 --pairs 10 --seconds 6

Each pair runs both binaries once with the same arguments; the side that
runs first swaps every pair, so a slow or fast spell of the host does not
always land on the same side. Per pair it prints every end-to-end metric
of both runs; at the end, per metric, the parent and change medians, the
parent's quartiles and how many pairs the change won (was better in the
metric's direction, as BENCHMARK.json declares it). A run that reads
`correct: false` or `failed` > 0 is reported and makes the exit status 1.

Both binaries read the repository's perfbench/digests.tsv (or --digests);
this script only runs them and reads their last output line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_metrics(path):
    """End-to-end metric names and their better direction, from BENCHMARK.json."""
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def run_once(binary, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--digests", args.digests]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          timeout=args.timeout, check=False)
    lines = done.stdout.decode().strip().splitlines()
    if not lines:
        raise RuntimeError(f"{binary} printed nothing (exit {done.returncode})")
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="parent build's daelite_perfbench")
    p.add_argument("--change", required=True, help="changed build's daelite_perfbench")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=6.0, help="per run")
    p.add_argument("--trace", choices=("0", "1"), default="0")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--digests", default=os.path.join(ROOT, "perfbench", "digests.tsv"))
    p.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    p.add_argument("--timeout", type=float, default=600.0, help="per run, seconds")
    args = p.parse_args()

    metrics = load_metrics(args.benchmark)
    sides = {"parent": args.parent, "change": args.change}
    values = {side: {name: [] for name, _ in metrics} for side in sides}
    wins = {name: 0 for name, _ in metrics}
    ok = True
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        result = {side: run_once(sides[side], args) for side in order}
        cells = []
        for side in ("parent", "change"):
            r = result[side]
            if not r.get("correct") or r.get("failed", 0) != 0:
                ok = False
                print(f"pair {i + 1}: {side} run reads correct={r.get('correct')} "
                      f"failed={r.get('failed')}")
        for name, better in metrics:
            a = result["parent"]["metrics"].get(name, {}).get("value")
            b = result["change"]["metrics"].get(name, {}).get("value")
            if a is None or b is None:
                continue
            values["parent"][name].append(a)
            values["change"][name].append(b)
            if (b < a) if better == "lower" else (b > a):
                wins[name] += 1
            cells.append(f"{name} {a:.4g}/{b:.4g}")
        print(f"pair {i + 1} ({order[0]} first): " + ", ".join(cells), flush=True)

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs (parent/change):")
    print(f"{'metric':<12} {'parent':>12} {'change':>12} {'delta':>8} "
          f"{'parent q1..q3':>24} {'change won':>11}")
    for name, _ in metrics:
        a, b = values["parent"][name], values["change"][name]
        if not a:
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        q1, q3 = quartiles(a)
        delta = f"{(mb - ma) / ma * 100:+.1f}%" if ma else "n/a"
        print(f"{name:<12} {ma:>12.5g} {mb:>12.5g} {delta:>8} "
              f"{f'{q1:.5g}..{q3:.5g}':>24} {f'{wins[name]}/{len(a)}':>11}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
