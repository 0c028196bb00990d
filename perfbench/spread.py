"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root:

    python3 perfbench/spread.py --seeds 10 [--workload NAME ...] [--out FILE]

Each run is a fresh ``perfbench/run.py`` process with its own seed, one
after another. For every workload and end-to-end metric this prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` next to the metric's bound from ``BENCHMARK.json``.
With ``--out`` the same figures are written as JSON together with the
Python version and CPU count, as a noise record for later comparisons.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run\n{proc.stdout}{proc.stderr}")
    return result


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "bound": bound,
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="write the noise record here as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = [run_once(workload, seed, args.seconds, 0)["metrics"] for seed in seeds]
        rows = {
            name: summarize([r[name]["value"] for r in runs], bound) for name, bound in bounds.items()
        }
        record["workloads"][workload] = rows
        for name, row in rows.items():
            flag = "" if row["spread"] < row["bound"] / 3 else "  <-- above bound/3"
            print(
                f"{workload:<14} {name:<12} median {row['median']:<14.6g} q1 {row['q1']:<12.6g} "
                f"q3 {row['q3']:<12.6g} spread {row['spread']:.4f} bound {row['bound']}{flag}",
                flush=True,
            )
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
