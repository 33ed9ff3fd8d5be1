"""Run every workload, print the end-to-end table, keep a result set.

    python3 perfbench/suite.py [--runs N] [--seed S] [--seconds T]
                               [--workloads W ...] [--out RESULTS.json]
    python3 perfbench/suite.py --write-benchmark-json
    python3 perfbench/suite.py --check-repeat [--seed S]

The default prints one row per workload with every end-to-end metric by
name and unit (median over the runs, and the quartile spread as a share
of the median) plus ``fail_rate`` = failed / attempted operations. Run
``i`` uses seed ``S + i``. ``--out`` saves the raw results as a result
set for ``compare.py``.

``--write-benchmark-json`` regenerates ``BENCHMARK.json`` from
``catalog.py``. ``--check-repeat`` makes the traced run twice with one
seed and asserts that every per-layer count repeats exactly, then once
with another seed and asserts that every check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import catalog  # noqa: E402
from checks import check_counts_repeat  # noqa: E402
from common import median, quartile_spread  # noqa: E402

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} failed (exit {proc.returncode}):\n"
            f"{proc.stderr.strip()[-3000:]}"
        )
    return json.loads(lines[-1])


def table(results: dict) -> str:
    names = [name for name, _u, _b, _bound in catalog.END_TO_END]
    units = catalog.END_TO_END_UNITS
    header = ["workload"] + [f"{n} [{units[n]}]" for n in names] + \
        ["fail_rate", "runs"]
    rows = [header]
    for workload, runs in results.items():
        row = [workload]
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            row.append(f"{median(values):.4g} ±{quartile_spread(values):.1%}")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        row.append(f"{failed}/{attempted}")
        row.append(str(len(runs)))
        rows.append(row)
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        for row in rows
    )


def check_repeat(workloads, seed: int) -> int:
    status = 0
    for workload in workloads:
        runs = [run_once(workload, seed, 1, 1) for _ in range(2)]
        counts = [
            {name: run["metrics"][name]["value"]
             for name, unit in catalog.PER_LAYER_UNITS.items()
             if unit in ("count", "bytes")}
            for run in runs
        ]
        problems = check_counts_repeat(counts)
        other = run_once(workload, seed + 1, 1, 1)
        if not all(run["correct"] for run in runs + [other]):
            problems.append("a traced run failed its checks")
        print(f"{workload}: "
              f"{'counts repeat, second seed passes' if not problems else problems}")
        status |= bool(problems)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    parser.add_argument("--workloads", nargs="+", default=list(catalog.WORKLOADS),
                        choices=list(catalog.WORKLOADS))
    parser.add_argument("--out")
    parser.add_argument("--write-benchmark-json", action="store_true")
    parser.add_argument("--check-repeat", action="store_true")
    args = parser.parse_args(argv)

    if args.write_benchmark_json:
        with open("BENCHMARK.json", "w", encoding="utf-8") as fh:
            fh.write(catalog.render_benchmark_json())
        print("wrote BENCHMARK.json")
        return 0
    if args.check_repeat:
        return check_repeat(args.workloads, args.seed)

    results = {}
    for workload in args.workloads:
        results[workload] = [
            run_once(workload, args.seed + i, args.seconds, 0)
            for i in range(args.runs)
        ]
    print(table(results))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": args.seconds, "seed": args.seed,
                       "runs": results}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
