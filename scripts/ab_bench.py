"""Paired A/B benchmark of the working tree against a base revision.

Run from anywhere inside the repository:

    python3 scripts/ab_bench.py --base HEAD~1 --workload replay-sparse --seeds 40-49

The base revision's files are extracted (``git archive``) into a
temporary directory. For each seed, both sides run ``python3
perfbench/run.py --workload W --seed N --seconds 20 --trace 0`` from their
own root, and the side that runs first alternates from pair to pair. The
script refuses to run when ``perfbench/`` or ``BENCHMARK.json`` differ
between the two sides, since the runs would then not measure the same
thing.

It prints each pair, then for every end-to-end metric of BENCHMARK.json:
each side's median and quartiles (``statistics.quantiles(values, n=4)``),
the number of pairs the change wins, the base's interquartile range, and
how far the change's median moves from the base's in the metric's worse
direction, relative to the base median, flagged ``OUTSIDE BOUND`` when
that move exceeds the metric's ``bound``, and flagged ``UNRESOLVED`` when
the base runs spread wider than the bound (base IQR over base median) and
not every change run reads better than every base run: such a verdict
cannot tell a move inside the bound from noise. Then each side's median host
seconds of a timed pass, of a calibration run and of one scenario or
input load, read from the summary lines ``run.py`` prints: reference
seconds divide a pass or a load by the calibration, so a ``wall_s`` or
``setup_s`` verdict that host seconds contradict shows up as a
calibration that moved. The calibration line covers the passes' runs
only; beside it stands the implied host calibration of the set-up,
``setup_cal_s = reference x load_s / setup_s``. It is approximate,
since ``setup_s`` is a median of per-load ratios, not a ratio of
medians.
``--json PATH`` also writes that summary as one JSON object: the base and
head revisions (head is ``HEAD``, flagged ``head_dirty`` when the working
tree differs from it), the workload, the seeds, the failed run count, and
per metric its unit, direction, bound, each side's values, median and
quartiles, the change's wins, the base IQR, the relative worse move
(``worse_by``, negative when the change is better), ``outside_bound`` and
``unresolved``, and under ``host`` each side's per-run values and median
of ``pass_s``, ``cal_s``, ``load_s`` and ``setup_cal_s``.
A run fails when it does not finish or reports ``correct: false`` (failed
operations, or a problem such as a digest that does not match); the script
prints each failed run's problems and exits 1 if any run failed. Stdlib
only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 20
SHARED = ("perfbench", "BENCHMARK.json")
# host seconds in run.py's summary lines: the median timed pass, the
# median calibration run and the median load behind setup_s
HOST_LINES = {
    "pass_s": re.compile(r"\s*wall_s .*\(host: .*median (\S+) s,"),
    "cal_s": re.compile(r"\s*calibration loop (\S+) host s"),
    "load_s": re.compile(r"\s*setup_s .*\(host (\S+) s\)"),
}
# the reference seconds a calibration run is scaled to
CAL_REF = re.compile(r"\s*calibration loop .*\(reference (\S+) s\)")
HOST_NAMES = (*HOST_LINES, "setup_cal_s")


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)


def run_side(root: Path, workload: str, seed: int) -> dict:
    """One benchmark run; its last stdout line is the result object, to
    which the ``problem:`` lines of its stderr are added as ``problems``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        problem = f"did not finish (exit code {proc.returncode})"
        return {"correct": False, "failed": 1, "metrics": {}, "problems": [problem]}
    result = json.loads(lines[-1])
    result["host"] = host_times(lines, value(result["metrics"], "setup_s"))
    prefix = "problem: "
    result["problems"] = [
        line.removeprefix(prefix) for line in proc.stderr.splitlines() if line.startswith(prefix)
    ]
    return result


def host_times(lines: list[str], setup_s: float) -> dict[str, float]:
    """The host seconds of ``HOST_LINES`` found in a run's stdout lines, and
    ``setup_cal_s``, the set-up's implied host calibration, when the
    reference, ``load_s`` and a positive ``setup_s`` (reference s) are known."""
    found, ref = {}, None
    for line in lines:
        for name, pattern in HOST_LINES.items():
            match = pattern.match(line)
            if match:
                found[name] = float(match.group(1))
        match = CAL_REF.match(line)
        if match:
            ref = float(match.group(1))
    if ref is not None and "load_s" in found and setup_s > 0:
        found["setup_cal_s"] = ref * found["load_s"] / setup_s
    return found


def host_medians(runs: list[dict]) -> dict[str, dict]:
    """Per ``HOST_NAMES`` name, each run's value (NaN when absent) and the
    median of those present (NaN when none is)."""
    out = {}
    for name in HOST_NAMES:
        values = [r.get("host", {}).get(name, math.nan) for r in runs]
        present = [v for v in values if not math.isnan(v)]
        out[name] = {"values": values, "median": statistics.median(present) if present else math.nan}
    return out


def value(metrics: dict, name: str) -> float:
    return metrics.get(name, {}).get("value", float("nan"))


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def compare(metric: dict, base: list[float], change: list[float]) -> dict:
    """One end-to-end metric over all pairs: each side's spread and the wins."""
    sign = -1.0 if metric["better"] == "lower" else 1.0
    b, c = quartiles(base), quartiles(change)
    worse_by = -sign * (c["median"] - b["median"]) / b["median"] if b["median"] else float("nan")
    spread = (b["q3"] - b["q1"]) / abs(b["median"]) if b["median"] else float("nan")
    every_run_better = all(sign * (y - x) > 0 for x in base for y in change)
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "base": {**b, "values": base},
        "change": {**c, "values": change},
        "change_wins": sum(sign * (y - x) > 0 for x, y in zip(base, change)),
        "pairs": len(base),
        "base_iqr": b["q3"] - b["q1"],
        "worse_by": worse_by,
        "outside_bound": worse_by > metric["bound"],
        "unresolved": spread > metric["bound"] and not every_run_better,
    }


def summarize(name: str, row: dict) -> str:
    b, c = row["base"], row["change"]
    ratio = c["median"] / b["median"] if b["median"] else float("nan")
    return (
        f"{name:<12} base {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}]"
        f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
        f"  ratio {ratio:.3f}  change wins {row['change_wins']}/{row['pairs']}"
        f"  |median gap| {abs(c['median'] - b['median']):.6g} vs base IQR {row['base_iqr']:.6g}"
        f"  worse by {row['worse_by']:+.1%} (bound {row['bound']:.0%})"
        + ("  UNRESOLVED" if row["unresolved"] else "")
        + ("  OUTSIDE BOUND" if row["outside_bound"] else "")
    )


def extract(revision: str, dest: Path) -> bool:
    """Write the committed files of ``revision`` under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", revision], capture_output=True)
    if archive.returncode != 0:
        sys.stderr.write(archive.stderr.decode())
        return False
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="inclusive range A-B")
    parser.add_argument("--json", type=Path, metavar="PATH", help="also write the summary as JSON")
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
    failed = 0
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    try:
        if not extract(args.base, tmp):
            return 1
        sides = {"base": tmp, "change": ROOT}
        for i, seed in enumerate(args.seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                result = run_side(sides[side], args.workload, seed)
                if not result["correct"]:
                    failed += 1
                    problems = result["problems"] or [f"{result['failed']} failed operations"]
                    for problem in problems:
                        sys.stderr.write(f"seed {seed} {side}: {problem}\n")
                runs[side].append(result)
            pair = [runs[side][-1]["metrics"] for side in ("base", "change")]
            cells = "  ".join(
                f"{name} {value(pair[0], name):.6g} -> {value(pair[1], name):.6g}" for name in names
            )
            print(f"seed {seed} ({order[0]} first)  {cells}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    rows = {}
    for metric in end_to_end:
        base, change = ([value(r["metrics"], metric["name"]) for r in runs[side]] for side in ("base", "change"))
        rows[metric["name"]] = compare(metric, base, change)
    print(f"\n{args.workload}, {len(args.seeds)} pairs, seeds {args.seeds[0]}-{args.seeds[-1]}")
    for name, row in rows.items():
        print(summarize(name, row))
    host = {side: host_medians(runs[side]) for side in ("base", "change")}
    for name in HOST_NAMES:
        b, c = host["base"][name]["median"], host["change"][name]["median"]
        ratio = c / b if b else math.nan
        note = "implied, " if name == "setup_cal_s" else ""
        print(f"host {name:<7} base {b:.6g}  change {c:.6g}  ratio {ratio:.3f}  ({note}median host s)")
    if args.json:
        summary = {
            "base": git("rev-parse", args.base + "^{commit}").stdout.strip(),
            "head": git("rev-parse", "HEAD").stdout.strip(),
            "head_dirty": git("diff", "--quiet", "HEAD").returncode != 0,
            "workload": args.workload,
            "seeds": args.seeds,
            "seconds": SECONDS,
            "failed": failed,
            "metrics": rows,
            "host": host,
        }
        args.json.write_text(json.dumps(summary, indent=2) + "\n")
    if failed:
        sys.stderr.write(f"{failed} run(s) were not correct or did not finish\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
