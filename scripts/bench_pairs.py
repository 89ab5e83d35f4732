#!/usr/bin/env python3
"""Run alternating pairs of the benchmark on two checkouts and summarize them.

Usage, from the repository root::

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload medium-teach \\
        --seed 1 --seconds 32 --pairs 10

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, one
after the other: the parent first in even pairs, the change first in odd
ones. Only a run's last stdout line, its JSON result, is read. For every
end-to-end metric of the change's ``BENCHMARK.json`` the summary gives each
side's median and quartiles (``statistics.quantiles``, inclusive method),
the pairs each side ran better (ties count for neither), and the gap between
the medians beside the parent's interquartile range. A pair in which a run
reported no metrics is left out of every line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced ``perfbench/run.py`` run in ``checkout``."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=checkout, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def summarize(pairs: list[tuple[dict, dict]], metrics: list[tuple[str, str]]) -> list[str]:
    """One line per (name, "lower" or "higher" is better) metric over (parent,
    change) result-line pairs, after a line counting the runs not correct."""
    wrong = sum(not r["correct"] for pair in pairs for r in pair)
    pairs = [p for p in pairs if all(r["metrics"] for r in p)]
    lines = [f"{len(pairs)} pairs with metrics; runs not correct: {wrong}"]
    for name, better in metrics:
        sides = [[r["metrics"][name]["value"] for r in side] for side in zip(*pairs)]
        # > 0 where the change ran worse than the parent in that pair
        worse = [(c - p) * (1 if better == "lower" else -1) for p, c in zip(*sides)]
        (p_lo, p_mid, p_hi), (c_lo, c_mid, c_hi) = (
            statistics.quantiles(v, n=4, method="inclusive") for v in sides)
        lines.append(
            f"{name} ({better} is better): parent {p_mid:.4f} [{p_lo:.4f}, {p_hi:.4f}], "
            f"change {c_mid:.4f} [{c_lo:.4f}, {c_hi:.4f}] ({c_mid / p_mid - 1:+.1%}); "
            f"change better in {sum(w < 0 for w in worse)}/{len(worse)}, "
            f"parent in {sum(w > 0 for w in worse)}/{len(worse)}; "
            f"median gap {abs(c_mid - p_mid):.4f}, parent IQR {p_hi - p_lo:.4f}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = [(m["name"], m["better"]) for m in json.load(fh)["end_to_end"]]

    pairs = []
    for i in range(args.pairs):
        sides = (args.parent, args.change)[::1 if i % 2 == 0 else -1]
        first, second = (run_once(d, args.workload, args.seed, args.seconds) for d in sides)
        pairs.append((first, second) if i % 2 == 0 else (second, first))
        print(f"pair {i}: " + json.dumps(
            {side: {k: m["value"] for k, m in r["metrics"].items()} | {"correct": r["correct"]}
             for side, r in zip(("parent", "change"), pairs[-1])}), flush=True)
    print("\n".join(summarize(pairs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
