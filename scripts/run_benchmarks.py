#!/usr/bin/env python3
"""Run the quantitative benchmark and print a metrics table.

Ten noiseless direct-command runs plus a 25-run noise-calibrated batch
(five scenarios, five seeds each: perceiver position sigma 0.15 cells,
5% misclassification). Reports completion rate, mean collision events per
pick-transport-place, and placement error statistics.

    python scripts/run_benchmarks.py [--csv out.csv]
"""

import argparse
import os
import statistics
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from agnav.presets import noise_batch_suite, type_a_scenario
from agnav.scenario import run_scenario


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--csv", default=None, help="optional per-run CSV output")
    args = ap.parse_args()

    rows = []
    print("== noiseless direct commands (10 runs) ==")
    for i in range(10):
        scen, res = run_scenario(type_a_scenario(i, seed=i))
        errors = [p["error_m"] for p in res.placements if not p["approach"]]
        rows.append(("noiseless", i, 0, res.success, res.collisions, res.steps))
        print(f"  {i}: success={res.success} collisions={res.collisions} "
              f"steps={res.steps} placement={max(errors, default=float('nan')):.3f} m "
              f"({res.wall_time:.1f}s)  task: {scen.task}")

    print("== noise-calibrated batch (5 scenarios x 5 seeds) ==")
    successes, collisions = [], []
    for si, doc in enumerate(noise_batch_suite()):
        for seed in range(5):
            scen, res = run_scenario(doc, seed)
            successes.append(res.success)
            collisions.append(res.collisions)
            rows.append(("noisy", si, seed, res.success, res.collisions, res.steps))
            print(f"  scenario {si} seed {seed}: success={res.success} "
                  f"collisions={res.collisions} steps={res.steps} ({res.wall_time:.1f}s)")

    rate = sum(successes) / len(successes)
    print("== summary ==")
    print(f"  task completion rate: {rate:.2f}")
    print(f"  mean collision events per run: {statistics.mean(collisions):.2f}")

    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("suite,scenario,seed,success,collisions,steps\n")
            for r in rows:
                fh.write(",".join(str(int(v) if isinstance(v, bool) else v) for v in r) + "\n")
        print(f"  per-run rows written to {args.csv}")


if __name__ == "__main__":
    main()
