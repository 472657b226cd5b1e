"""Steadiness report: repeat each workload over several seeds and compare
each end-to-end metric's spread with the bound ``BENCHMARK.json`` fixes.

Usage, from the repository root::

    python3 perfbench/steady.py [--out perfbench/out/steady.json]

It runs every workload of ``BENCHMARK.json`` with seeds 1 to 10, for
``run_seconds`` each.  For every metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``), the spread
``(Q3 - Q1) / median`` and the bound.  A spread is ``steady`` below a third
of the bound, ``within`` below the bound, and ``OVER`` above it.  The same
is printed, without a verdict, for the unscaled timings each run reports
next to the scaled ones, so that the need for the scaling can be checked.
Last it runs the ``lattice-defects`` workload once, ungraded, and lists the
ops that still fail on the known eigen-analysis defect.
Runs go one at a time, so they never compete for the CPU.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
# Not a measured workload: its ops fail until the defect is fixed.
KNOWN_DEFECTS = "lattice-defects"
FAILED_OP = re.compile(r"failed op (\d+) shape=(.*?): (.*)$")


def group_failures(lines):
    """Failed ops grouped by shape and problem: ``{problem: [op ids]}`` per
    shape, so a repeated defect is listed once with every op it hit."""
    groups = {}
    for line in lines:
        op, shape, problem = FAILED_OP.match(line).groups()
        groups.setdefault(shape, {}).setdefault(problem, []).append(int(op))
    return groups


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = done.stdout.strip().splitlines()
    failures = [line for line in lines if line.startswith("failed op")]
    facts = next(json.loads(line[7:]) for line in lines if line.startswith("facts: "))
    unscaled = next(json.loads(line[10:]) for line in lines if line.startswith("unscaled: "))
    return json.loads(lines[-1]), failures, facts, unscaled


def spread_row(vals, bound, unit):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "bound": bound, "unit": unit, "values": vals}


def print_row(name, row, verdict):
    print(f"  {name:12s} {row['median']:12.6g} {row['q1']:12.6g} {row['q3']:12.6g} "
          f"{row['spread']:8.4f} {row['bound']:6.3f}  {verdict} ({row['unit']})")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="also write the summary as JSON here")
    args = parser.parse_args(argv)

    seeds = list(SEEDS)
    summary = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        raw_values = {}
        runs = []
        for seed in seeds:
            result, failures, facts, unscaled = run_once(workload, seed, spec["run_seconds"])
            runs.append({"facts": facts, "attempted": result["attempted"],
                         "failed": result["failed"], "failures": group_failures(failures)})
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            for name, value in unscaled.items():
                raw_values.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: attempted {result['attempted']}, "
                  f"failed {result['failed']}", flush=True)
        print(f"\n{workload}: {len(seeds)} runs")
        print(f"  {'metric':12s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        rows, raw_rows = {}, {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = rows[name] = spread_row(values[name], bound, metric["unit"])
            if row["spread"] < bound / 3:
                verdict = "steady"
            elif row["spread"] <= bound:
                verdict = "within"
            else:
                verdict = "OVER"
            print_row(name, row, verdict)
        print("  unscaled:")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name in raw_values:
                raw_rows[name] = spread_row(raw_values[name], metric["bound"], metric["unit"])
                print_row(name, raw_rows[name], "")
        summary["workloads"][workload] = {"metrics": rows, "unscaled": raw_rows, "runs": runs}
        print(flush=True)
    result, failures, facts, _ = run_once(KNOWN_DEFECTS, SEEDS[0], 5)
    summary["known_defect"] = {"facts": facts, "attempted": result["attempted"],
                               "failed": result["failed"],
                               "failures": group_failures(failures)}
    print(f"{KNOWN_DEFECTS}: {result['failed']} of {result['attempted']} ops fail")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
