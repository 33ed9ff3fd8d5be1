"""Compare two result sets from ``suite.py --out``, metric by metric.

    python3 perfbench/compare.py PARENT.json CHANGE.json

For each end-to-end metric and workload the verdict is one of:

``worse``       the change's median is worse than the parent's by more
                than the metric's bound;
``improved``    the change wins at least nine tenths of the run pairs
                (ties count for neither) and the medians differ by more
                than the parent's own quartile spread;
``unresolved``  the run-to-run spread of either side is wider than the
                bound, and not every change run beats every parent run;
``unchanged``   otherwise.

Pairs are taken in run order; make both sets with the same ``--runs``,
``--seed`` and ``--seconds``, alternating which side runs first.
Exit status 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import List, Sequence

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import catalog  # noqa: E402
from common import median, quartile_spread  # noqa: E402


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    p = [sign * v for v in parent]  # lower is better from here on
    c = [sign * v for v in change]
    pm, cm = median(p), median(c)
    if cm - pm > bound * abs(pm):
        return "worse"
    pairs = list(zip(p, c))
    wins = sum(1 for a, b in pairs if b < a)
    q1, _q2, q3 = statistics.quantiles(p, n=4) if len(p) > 1 \
        else (p[0], p[0], p[0])
    if pairs and wins >= 0.9 * len(pairs) and pm - cm > q3 - q1:
        return "improved"
    noisy = quartile_spread(parent) > bound or \
        quartile_spread(change) > bound
    if noisy and not max(c) < min(p):
        return "unresolved"
    return "unchanged"


def compare(parent: dict, change: dict) -> List[tuple]:
    rows = []
    for workload in catalog.WORKLOADS:
        if workload not in parent["runs"] or workload not in change["runs"]:
            continue
        for name, unit, better, bound in catalog.END_TO_END:
            p = [r["metrics"][name]["value"] for r in parent["runs"][workload]]
            c = [r["metrics"][name]["value"] for r in change["runs"][workload]]
            rows.append((workload, name, unit, median(p), median(c),
                         verdict(p, c, better, bound)))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        parent = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        change = json.load(fh)
    rows = compare(parent, change)
    for workload, name, unit, pm, cm, result in rows:
        print(f"{workload:<16} {name:<12} {pm:>12.4g} -> {cm:<12.4g} "
              f"{unit:<5} {result}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
