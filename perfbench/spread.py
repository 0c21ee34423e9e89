"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload sat20-chains --seeds 1 2 3 4 5

Runs ``run.py --trace 0`` once per seed at ``run_seconds`` from
BENCHMARK.json, one after another, and prints each end-to-end metric's
median and its interquartile range as a share of the median (the spread
the bounds in BENCHMARK.json are checked against).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                               args.workload, "--seed", str(seed), "--seconds",
                               str(seconds), "--trace", "0"],
                              capture_output=True, text=True, cwd=HERE.parent)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: " + " ".join(
            f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        print(f"{name:28s} median {med:12.6g} spread {spread:7.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
