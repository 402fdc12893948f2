#!/usr/bin/env python3
"""Turn one parent/change A/B session of mtgpu-perf into trajectory rows.

Input: the report lines of the two sides, one JSON report per line (the
last line each `mtgpu-perf` run prints), pair i being line i of each file.
Output on stdout: the session's two rows in the schema of
bench/trajectory/README.md, parent first. On stderr: per end-to-end metric
of BENCHMARK.json, both medians, change / parent, the pairs the change won
and whether the gap between the medians is wider than the parent's
inter-quartile distance.

    scripts/trajectory.py parent.jsonl change.jsonl --parent-sha 0ffdba7 \\
        --seed 42 --seconds 20 [--change-sha SHA] \\
        [--append bench/trajectory/tenant_mix.jsonl]

Without --change-sha the change row's sha is null: the commit that adds it.
The reports do not carry the seed or the run length, so both are given.
"""

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def end_to_end():
    """(name, higher_is_better) for each end-to-end metric of the benchmark."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["better"] == "higher") for m in spec["end_to_end"]]


def reports(path):
    lines = Path(path).read_text().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def summary(values):
    """Median and quartiles, linear between order statistics; six
    significant digits unless every run read the same value."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    if len(set(values)) > 1:
        q1, med, q3 = (float(f"{v:.6g}") for v in (q1, med, q3))
    return {"median": med, "q1": q1, "q3": q3}


def row(sha, role, paired_with, seed, seconds, metrics):
    return {
        "sha": sha,
        "role": role,
        "paired_with": paired_with,
        "seed": seed,
        "n": len(next(iter(metrics.values()))),
        "seconds": seconds,
        "metrics": {name: summary(values) for name, values in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="the parent side's report lines")
    ap.add_argument("change", help="the change side's report lines")
    ap.add_argument("--parent-sha", required=True)
    ap.add_argument("--change-sha", default=None)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--append", metavar="JSONL", help="also append both rows to this file")
    args = ap.parse_args()

    parent, change = reports(args.parent), reports(args.change)
    if len(parent) != len(change) or not parent:
        sys.exit(f"need as many parent as change runs, at least one: {len(parent)} vs {len(change)}")
    both = parent + change
    seed, seconds = args.seed, args.seconds

    metrics = end_to_end()
    values = {
        side: {name: [r["metrics"][name]["value"] for r in runs] for name, _ in metrics}
        for side, runs in (("parent", parent), ("change", change))
    }
    rows = [
        row(args.parent_sha, "parent", args.change_sha, seed, seconds, values["parent"]),
        row(args.change_sha, "change", args.parent_sha, seed, seconds, values["change"]),
    ]
    lines = [json.dumps(r) for r in rows]
    # Append before printing: a reader that closes stdout early must not
    # cost the rows.
    if args.append:
        try:
            with open(args.append, "a") as out:
                out.write("".join(line + "\n" for line in lines))
        except OSError as e:
            sys.exit(f"cannot append to {args.append}: {e}")
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:
        # The reader stopped reading (`| head -1`) after what it wanted, and
        # the rows are appended: not a failure. Stdout goes to /dev/null so
        # the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())

    failed = sum(r["failed"] for r in both)
    wrong = sum(not r["correct"] for r in both)
    n = len(parent)
    print(f"seed {seed}, {n} pairs, {failed} failed ops, {wrong} runs not correct", file=sys.stderr)
    print(f"{'metric':<14} {'parent':>12} {'change':>12} {'ratio':>7}  won  gap>IQR", file=sys.stderr)
    for name, higher in metrics:
        p, c = values["parent"][name], values["change"][name]
        pm, cm = statistics.median(p), statistics.median(c)
        won = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
        ps = summary(p)
        iqr = ps["q3"] - ps["q1"]
        ratio = cm / pm if pm else float("nan")
        wide = "yes" if abs(cm - pm) > iqr else "no"
        # An exact metric (each side reads one value) prints in full.
        exact = len(set(p)) == 1 and len(set(c)) == 1
        digits, same = (10, "  identical in every run") if exact else (6, "")
        print(f"{name:<14} {pm:>12.{digits}g} {cm:>12.{digits}g} {ratio:>7.3f} {won:>2}/{n}  {wide}{same}",
              file=sys.stderr)


if __name__ == "__main__":
    main()
