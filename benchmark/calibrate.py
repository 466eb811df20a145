#!/usr/bin/env python3
"""Measure the run-to-run spread of every end-to-end metric.

Runs the command in BENCHMARK.json on each workload once per seed, in
several sets of seeds, and prints per set, workload and metric the median,
the quartile spread (Q3 - Q1, as a share of the median) and, from the
second set on, the drift of the median against the first set. A spread
above a third of the metric's bound, or a drift above the bound, is
flagged: widen the bound or measure more work per run.

Usage, from the repository root:
    python3 benchmark/calibrate.py [--runs 10] [--sets 2] [--workload W ...]
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(config, workload, seed):
    command = config["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(config["run_seconds"]),
        "--trace", "0",
    ]
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if done.returncode != 0 or not lines:
        sys.exit(f"{' '.join(command)} failed:\n{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} failed its checks:\n{done.stdout}")
    # Every run's metric and sample lines, for a closer look later.
    print(f"# {workload} seed {seed}", file=sys.stderr)
    print("\n".join(lines[:-1]), file=sys.stderr, flush=True)
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--sets", type=int, default=2, help="sets of runs")
    parser.add_argument("--workload", action="append", help="limit to these")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        config = json.load(f)
    workloads = args.workload or [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    first_medians = {}
    print("| set | workload | metric | median | Q1 | Q3 | spread | drift | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    for s in range(args.sets):
        for workload in workloads:
            seeds = range(1 + s * args.runs, 1 + (s + 1) * args.runs)
            runs = [run_once(config, workload, seed) for seed in seeds]
            for metric, bound in bounds.items():
                values = [r[metric] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                key = (workload, metric)
                first_medians.setdefault(key, med)
                drift = med / first_medians[key] - 1
                ok = drift <= bound and (metric == "setup_s" or spread < bound / 3)
                print(
                    f"| {s + 1} | {workload} | {metric} | {med:.6g} | {q1:.6g} | "
                    f"{q3:.6g} | {spread:.2%} | {drift:+.2%} | "
                    f"{'ok' if ok else 'WIDE'} |",
                    flush=True,
                )


if __name__ == "__main__":
    main()
