"""Garbage collections in one benchmark load, one warm pass and the
calibration after it, and the Python-level calls of one pass; counts only,
no timings.

Run from anywhere:

    python3 scripts/cost_counts.py --workload detect-eval --seed 0 [--size K]

The workload's inputs are generated into a temporary directory by
``perfbench/workloads.py`` at its benchmark size, or at ``--size`` (walks,
images, or samples per case). ``perfbench/workloads.py``,
``perfbench/tracing.py`` (for ``NullTracer``) and ``perfbench/run.py``
(for ``calibrate``) are imported read-only. After one ``gc.collect()``,
the script follows ``run.py``'s order:

1. ``load``: the inputs are loaded once through the workload's loader;
2. ``tracked_after_load``: the GC-tracked objects then alive in the
   process (``len(gc.get_objects())``);
3. every operation runs once, and ``calibrate()`` once, uncounted (the
   warm-up);
4. ``pass``: every operation runs once more;
5. ``calibrate``: ``calibrate()`` runs right after the pass, as after
   each timed pass of ``run.py``, so a collection that the pass held back
   and that comes due here is counted here;
6. ``calls``: every operation runs once more under ``sys.setprofile``,
   which counts its ``call`` events: one per call of a Python function
   and one per resume of a generator, C functions not included. This
   pass comes last and is not counted for collections, since the profile
   hook makes a frame object per event, which the collector tracks.

It prints one JSON line: the workload, seed, size and Python version, the
collections that started in each of ``load``, ``pass`` and ``calibrate``
as a list [generation 0, generation 1, generation 2],
``tracked_after_load`` and ``calls``. The counts depend only on the
inputs, the code and the Python build, so two fresh processes print the
same line. To compare two revisions, run the script from each checkout.
Counts are not time: a collection or a call saved is a cost saved only
where the timings agree. It imports
the package from the ``src/`` next to it and always uses the bundled
data. Stdlib only.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
PHASES = ("load", "pass", "calibrate")


def _load(name: str, path: Path):
    """Import a perfbench file read-only, under a name of its own."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # @dataclass looks its class's module up there
    spec.loader.exec_module(module)
    return module


def cost_counts(workload, seed: int, size: int | None) -> dict[str, object]:
    """The counts of one workload, in the order the module docstring gives."""
    tracing = _load("perfbench_tracing", PERFBENCH / "tracing.py")
    bench = _load("perfbench_run", PERFBENCH / "run.py")
    counts = {phase: [0, 0, 0] for phase in PHASES}
    phase = [None]  # the phase being counted; None between phases

    def count(event: str, info: dict) -> None:
        if event == "start" and phase[0] is not None:
            counts[phase[0]][info["generation"]] += 1

    def counted(name: str, call):
        phase[0] = name
        try:
            return call()
        finally:
            phase[0] = None

    null = tracing.NullTracer()

    def run_pass() -> None:
        for op in ops:
            op.run(null)

    calls = 0

    def profile(frame, event: str, arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    with tempfile.TemporaryDirectory() as tmp:
        workload.generate(seed, Path(tmp), size)
        gc.collect()
        gc.callbacks.append(count)
        try:
            loaded = counted("load", lambda: workload.load(Path(tmp)))
            tracked = len(gc.get_objects())
            ops = workload.operations(loaded, seed)
            run_pass()
            bench.calibrate()
            counted("pass", run_pass)
            counted("calibrate", bench.calibrate)
        finally:
            gc.callbacks.remove(count)
        sys.setprofile(profile)
        try:
            run_pass()
        finally:
            sys.setprofile(None)
    return {
        "workload": workload.name,
        "seed": seed,
        "size": size or workload.size,
        "python": platform.python_version(),
        **counts,
        "tracked_after_load": tracked,
        "calls": calls,
    }


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("PERCEPT_CANE_DATA", None)  # always the bundled data
    workloads = _load("perfbench_workloads", PERFBENCH / "workloads.py").WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", type=int, help="walks, images or samples per case (default: the benchmark's)")
    args = parser.parse_args(argv)
    if args.size is not None and args.size < 1:
        parser.error("--size must be positive")
    print(json.dumps(cost_counts(workloads[args.workload], args.seed, args.size)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
