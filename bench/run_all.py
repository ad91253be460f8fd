"""Run every workload, each in its own fresh process, and print a table.

Usage, from the repository root:

    python3 bench/run_all.py [--seed N] [--seconds S] [--trace 0|1]

Untraced, it prints each end-to-end metric by name with its unit, and the
failed share (failed / attempted job runs).  Traced, it prints every
per-layer metric and names the layer with the most self time.  It exits
with 1 if any run was not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import layers
import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    all_correct = True
    for workload in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=workloads.ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}\n{proc.stderr}")
            all_correct = False
            continue
        result = json.loads(lines[-1])
        all_correct = all_correct and result["correct"]
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        print(f"  {'failed_share':34s} {result['failed'] / result['attempted']:.4g} 1")
        for name, metric in result["metrics"].items():
            print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
        if args.trace:
            top = max(layers.LAYERS,
                      key=lambda layer: result["metrics"][f"{layer}.self_s"]["value"])
            print(f"  layer with the most self time: {top}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
