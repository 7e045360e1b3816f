#!/usr/bin/env python3
"""Steadiness report: run each workload once per seed and summarise the
spread of every end-to-end metric.

    python3 perfbench/steadiness.py --seeds 1-10 [--seconds 25]
                                    [--save raw.json] [--against raw.json]

--seeds takes a range (1-10), a list (1,4,7) or one seed repeated (1x10:
ten runs of seed 1, the repeat spread a regression check meets).

For each (workload, metric) it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)), the spread (q3 - q1) /
median, the bound BENCHMARK.json fixes, and the bound the spread supports
(three times the spread, rounded up to a whole percent). A metric is steady
when its spread is below a third of its bound.

--save keeps the raw values; --against compares this set of runs with a
saved one: every median must be no worse than the saved median by more
than the metric's bound, and every sim_* value must be identical seed by
seed.
"""
import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    if "x" in text:
        seed, count = text.split("x")
        return [int(seed)] * int(count)
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--save", help="write the raw values (JSON) here")
    parser.add_argument("--against", help="raw values (JSON) of an earlier set to compare with")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else None
    seeds = parse_seeds(args.seeds)
    raw = {"seeds": seeds, "values": {}}
    rows = ["| workload | metric | median | q1 | q3 | spread | bound | supports | steady |"
            + (" earlier median | change | agrees |" if earlier else ""),
            "|---|---|---|---|---|---|---|---|---|" + ("---|---|---|" if earlier else "")]
    steady_all = True
    for workload in (w["name"] for w in bench["workloads"]):
        values = {}
        for seed in seeds:
            for name, value in run_once(workload, seed, args.seconds).items():
                values.setdefault(name, []).append(value)
            print(f"  {workload} seed {seed} done", file=sys.stderr)
        raw["values"][workload] = values
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else math.inf
            bound = bounds.get(name, 0)
            steady = spread < bound / 3
            steady_all = steady_all and steady
            supports = min(0.25, math.ceil(300 * spread) / 100)
            row = (f"| {workload} | {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                   f"{spread:.4f} | {bound} | {supports:.2f} | {'yes' if steady else 'NO'} |")
            if earlier:
                old_vals = earlier["values"][workload][name]
                old = statistics.median(old_vals)
                change = (med - old) / old
                worse = -change if better[name] == "higher" else change
                agrees = worse <= bound
                if name.startswith("sim_"):
                    agrees = agrees and vals == old_vals and raw["seeds"] == earlier["seeds"]
                steady_all = steady_all and agrees
                row += f" {old:.6g} | {change:+.4f} | {'yes' if agrees else 'NO'} |"
            rows.append(row)
    report = (f"Seeds {args.seeds}, --seconds {args.seconds}, one run per seed.\n\n"
              + "\n".join(rows) + "\n")
    print(report)
    if args.save:
        Path(args.save).write_text(json.dumps(raw, indent=1) + "\n")
    return 0 if steady_all else 1


if __name__ == "__main__":
    sys.exit(main())
