"""Paired A/B benchmark of the working tree against a base revision.

Run from anywhere inside the repository:

    python3 scripts/ab_bench.py --base HEAD~1 --workload replay-sparse --seeds 40-49

The base revision is checked out into a temporary git worktree. For each
seed, both sides run ``python3 perfbench/run.py --workload W --seed N
--seconds 20 --trace 0`` from their own root, and the side that runs first
alternates from pair to pair. The script refuses to run when ``perfbench/``
or ``BENCHMARK.json`` differ between the two sides, since the runs would
then not measure the same thing.

It prints each pair, then for every end-to-end metric of BENCHMARK.json:
each side's median and quartiles (``statistics.quantiles(values, n=4)``),
the number of pairs the change wins and the base's interquartile range.
It exits 1 if any run reports ``failed > 0`` or does not finish. Stdlib
only.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 20
SHARED = ("perfbench", "BENCHMARK.json")


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)


def run_side(root: Path, workload: str, seed: int) -> dict:
    """One benchmark run; its last stdout line is the result object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"failed": 1, "metrics": {}}
    return json.loads(lines[-1])


def value(metrics: dict, name: str) -> float:
    return metrics.get(name, {}).get("value", float("nan"))


def summarize(name: str, better: str, base: list[float], change: list[float]) -> str:
    def quartiles(values: list[float]) -> tuple[float, float, float]:
        if len(values) < 2:
            return values[0], values[0], values[0]
        q1, median, q3 = statistics.quantiles(values, n=4)
        return q1, median, q3

    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    ratio = cm / bm if bm else float("nan")
    return (
        f"{name:<12} base {bm:.6g} [{b1:.6g}, {b3:.6g}]  change {cm:.6g} [{c1:.6g}, {c3:.6g}]"
        f"  ratio {ratio:.3f}  change wins {wins}/{len(base)}"
        f"  |median gap| {abs(cm - bm):.6g} vs base IQR {b3 - b1:.6g}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="inclusive range A-B")
    args = parser.parse_args(argv)

    if git("rev-parse", "--verify", "--quiet", args.base + "^{commit}").returncode != 0:
        parser.error(f"unknown revision {args.base!r}")
    untracked = git("ls-files", "--others", "--exclude-standard", "--", *SHARED).stdout
    if untracked or git("diff", "--quiet", args.base, "--", *SHARED).returncode != 0:
        sys.stderr.write(f"refusing: {' or '.join(SHARED)} differ from {args.base}\n")
        return 1
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    names = [metric["name"] for metric in end_to_end]

    tmp = Path(tempfile.mkdtemp(prefix="ab_bench-"))
    base_root = tmp / "base"
    failed = 0
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    try:
        added = git("worktree", "add", "--detach", str(base_root), args.base)
        if added.returncode != 0:
            sys.stderr.write(added.stderr)
            return 1
        sides = {"base": base_root, "change": ROOT}
        for i, seed in enumerate(args.seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                result = run_side(sides[side], args.workload, seed)
                failed += result["failed"] > 0
                runs[side].append(result)
            pair = [runs[side][-1]["metrics"] for side in ("base", "change")]
            cells = "  ".join(
                f"{name} {value(pair[0], name):.6g} -> {value(pair[1], name):.6g}" for name in names
            )
            print(f"seed {seed} ({order[0]} first)  {cells}", flush=True)
    finally:
        git("worktree", "remove", "--force", str(base_root))
        git("worktree", "prune")
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"\n{args.workload}, {len(args.seeds)} pairs, seeds {args.seeds[0]}-{args.seeds[-1]}")
    for name, metric in zip(names, end_to_end):
        base, change = ([value(r["metrics"], name) for r in runs[side]] for side in ("base", "change"))
        print(summarize(name, metric["better"], base, change))
    if failed:
        sys.stderr.write(f"{failed} run(s) reported failed operations or did not finish\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
