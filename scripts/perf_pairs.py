"""Alternating perfbench pairs: a parent checkout against a change.

    python3 scripts/perf_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N --seconds S

Pair i runs `python3 perfbench/run.py --workload W --seed i --seconds S
--trace 0` in both checkouts, one after the other, the parent first in
even pairs and the change first in odd ones, so a drift of the machine's
speed falls on both sides alike.  For each end-to-end metric that
CHANGE_DIR's `BENCHMARK.json` declares, it prints both medians with
their quartiles, how far apart the medians lie against the parent's
interquartile range, and the pairs in which the change did better.
Exits 1 if any execution was not `correct`, else 0.  Standard library
only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_side(root, workload, seed, seconds):
    """The result JSON that perfbench prints last, run from `root`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "metrics": {}}


def quartiles(values):
    """(first quartile, median, third quartile), by statistics' inclusive rule."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, declared):
    """Summary lines and whether every execution was correct.

    `pairs` is a list of (parent result, change result), each as perfbench
    prints it; `declared` the `end_to_end` list of BENCHMARK.json.  A metric
    that either side of a pair lacks leaves that pair out of its line.
    """
    lines = []
    for metric in declared:
        name = metric["name"]
        kept = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                for p, c in pairs
                if name in p.get("metrics", {}) and name in c.get("metrics", {})]
        if not kept:
            lines.append(f"{name}: no pair has it")
            continue
        old = [p for p, _ in kept]
        new = [c for _, c in kept]
        lower = metric["better"] == "lower"
        wins = sum(1 for p, c in kept if (c < p if lower else c > p))
        (o1, o2, o3), (n1, n2, n3) = quartiles(old), quartiles(new)
        change = (n2 - o2) / o2 if o2 else float("nan")
        lines.append(
            f"{name}: parent {o2:.6g} [{o1:.6g}, {o3:.6g}]  change {n2:.6g} "
            f"[{n1:.6g}, {n3:.6g}]  {change:+.1%}, medians {abs(n2 - o2):.3g} apart "
            f"against a parent IQR of {o3 - o1:.3g}  better in {wins}/{len(kept)} "
            f"({metric['better']} is better)")
    bad = [f"pair {i} {side}" for i, pair in enumerate(pairs)
           for side, res in zip(("parent", "change"), pair) if not res.get("correct")]
    if bad:
        lines.append("not correct: " + ", ".join(bad))
    return lines, not bad


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    args = parser.parse_args(argv)
    declared = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = []
    for i in range(args.pairs):
        pair = [None, None]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            pair[side] = run_side((args.parent, args.change)[side], args.workload, i,
                                  args.seconds)
        pairs.append(tuple(pair))
        run_s = [res["metrics"].get("run_s", {}).get("value") for res in pairs[-1]]
        print(f"pair {i}: run_s parent {run_s[0]} change {run_s[1]}", flush=True)
    lines, ok = summarize(pairs, declared)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
