"""Every metric of every workload in one listing.

Run from the root of a checkout:

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs perfbench/run.py on each workload with --trace 0 (end-to-end metrics)
and --trace 1 (per-layer metrics and the traced run), one run at a time,
and prints one line per metric: workload, name, value and unit, plus each
run's digest changes and known defects. Writes the same numbers as JSON to
perfbench/out/report.json.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("logistic", "coverage-kt12", "choose-mech")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args()
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            *notes, last = proc.stdout.strip().splitlines()
            result = json.loads(last)
            results[f"{workload}/trace{trace}"] = result
            print(f"== {workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for line in notes:
                if not line.startswith("machine:") or workload == WORKLOADS[0]:
                    print("   " + line)
            for name, metric in result["metrics"].items():
                print(f"{workload:14s} {name:40s} {metric['value']:>14.6g} {metric['unit']}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "report.json"), "w") as fh:
        json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
