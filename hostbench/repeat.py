"""Repeat the benchmark over seeds and summarise each metric's spread.

Run from the root of a source checkout::

    python3 hostbench/repeat.py --workload cc-l3-logic --runs 10 --trace 0

Each run is ``hostbench/run.py`` with another seed (``--first-seed`` on).
For every metric the summary gives the median, the quartiles as
``statistics.quantiles(values, n=4)`` computes them, and the spread: the
distance between the quartiles as a share of the median.  ``--out``
writes the summary, with every run's result line, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    info = {}
    for line in lines[:-1]:
        key, _, value = line.removeprefix("hostbench: ").partition(": ")
        info[key] = json.loads(value)
    return {"seed": seed, "info": info, "result": json.loads(lines[-1])}


def summarise(runs: list[dict]) -> dict:
    names = runs[0]["result"]["metrics"]
    out = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "unit": runs[0]["result"]["metrics"][name]["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        runs.append(run_once(args.workload, seed, args.seconds, args.trace))
        res = runs[-1]["result"]
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} digest={runs[-1]['info'].get('sim_digest')}",
              flush=True)
    summary = summarise(runs)
    for name, row in summary.items():
        print(f"{name:45s} median {row['median']:12.6g} {row['unit']:6s} "
              f"spread {100 * row['spread']:6.2f}%")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload,
                                        "seconds": args.seconds,
                                        "trace": args.trace,
                                        "summary": summary, "runs": runs},
                                       indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
