#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``.

``compare.py BASE.json CHANGE.json`` prints, for every workload on its
own rows, each end-to-end metric's two medians, their ratio, how much of
the base's median the change is worse by, the base's own interquartile
spread, and a verdict:

``ok``          worse by no more than the metric's bound;
``regressed``   worse by more than the bound;
``unresolved``  the base's spread is wider than the bound, so this pair
                of files cannot tell either way — not "unchanged".

Exit status is 1 when anything regressed.  The spreads come from the
files themselves, so the gate is relative to what was measured, not to a
fixed percentage.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional, Sequence


def worsening(base: float, change: float, better: str) -> float:
    """Share of the base's median by which the change is worse
    (negative when it is better)."""
    delta = change - base if better == "lower" else base - change
    return delta / base


def verdict(worse_by: float, base_spread: float, bound: float) -> str:
    if base_spread > bound:
        return "unresolved"
    return "regressed" if worse_by > bound else "ok"


def compare(base: dict, change: dict) -> List[dict]:
    """One row per (workload, end-to-end metric) present in both files."""
    rows = []
    for name, base_workload in base["workloads"].items():
        change_workload = change["workloads"].get(name)
        if change_workload is None:
            continue
        for metric, base_row in base_workload["end_to_end"].items():
            change_row = change_workload["end_to_end"].get(metric)
            if change_row is None:
                continue
            worse_by = worsening(
                base_row["median"], change_row["median"], base_row["better"]
            )
            rows.append(
                {
                    "workload": name,
                    "metric": metric,
                    "unit": base_row["unit"],
                    "better": base_row["better"],
                    "base": base_row["median"],
                    "change": change_row["median"],
                    "ratio": change_row["median"] / base_row["median"],
                    "worse_by": worse_by,
                    "base_spread": base_row["spread"],
                    "bound": base_row["bound"],
                    "verdict": verdict(
                        worse_by, base_row["spread"], base_row["bound"]
                    ),
                }
            )
    return rows


def output_differences(base: dict, change: dict) -> Dict[str, List[str]]:
    """Per workload, which exactly-repeating outputs differ.  Only
    meaningful when both files used the same seed and seconds."""
    differences: Dict[str, List[str]] = {}
    for name, base_workload in base["workloads"].items():
        change_workload = change["workloads"].get(name)
        if change_workload is None:
            continue
        differing = [
            key
            for key in ("output_sha256", "failed")
            if base_workload[key] != change_workload[key]
        ]
        differing += [
            key
            for key, value in base_workload["exact"].items()
            if change_workload["exact"].get(key) != value
        ]
        if differing:
            differences[name] = differing
    return differences


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        base = json.load(handle)
    with open(argv[1], encoding="utf-8") as handle:
        change = json.load(handle)
    rows = compare(base, change)
    print(
        f"{'workload':<15}{'metric':<16}{'better':>7}{'base':>12}{'change':>12}"
        f"{'ratio':>8}{'worse by':>10}{'base iqr':>10}{'bound':>7}  verdict"
    )
    previous = None
    for row in rows:
        if previous not in (None, row["workload"]):
            print()
        previous = row["workload"]
        print(
            f"{row['workload']:<15}{row['metric']:<16}{row['better']:>7}"
            f"{row['base']:>12.4f}{row['change']:>12.4f}{row['ratio']:>8.3f}"
            f"{row['worse_by']:>+10.3f}{row['base_spread']:>10.3f}"
            f"{row['bound']:>7.2f}  {row['verdict']}"
        )
    same_inputs = all(
        base.get(key) == change.get(key) for key in ("seed", "seconds")
    )
    if same_inputs:
        differences = output_differences(base, change)
        for name, keys in differences.items():
            print(f"outputs differ on {name}: {', '.join(keys)}")
        if not differences:
            print("outputs identical (output_sha256, exact counts, failed)")
    else:
        print("different seed or seconds: outputs not compared")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
