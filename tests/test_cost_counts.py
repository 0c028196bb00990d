"""scripts/cost_counts.py prints the same collection and call counts from
two fresh processes, each with its own hash seed."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "cost_counts.py"


def test_cost_counts_repeat_in_fresh_processes():
    argv = [sys.executable, str(SCRIPT), "--workload", "detect-eval", "--seed", "3", "--size", "30"]
    procs = [subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) for _ in range(2)]
    runs = [proc.communicate(timeout=60) + (proc.returncode,) for proc in procs]
    for out, err, code in runs:
        assert (code, err) == (0, "")
    first, second = (json.loads(out) for out, _, _ in runs)
    assert first == second
    assert list(first) == [
        "workload", "seed", "size", "python", "load", "pass", "calibrate", "tracked_after_load", "calls",
    ]
    assert (first["workload"], first["seed"], first["size"]) == ("detect-eval", 3, 30)
    for phase in ("load", "pass", "calibrate"):
        assert len(first[phase]) == 3 and all(type(n) is int and n >= 0 for n in first[phase])
    # calibrate() alone builds tens of thousands of tracked objects
    assert sum(first["calibrate"]) > 0 and first["tracked_after_load"] > 0
    assert type(first["calls"]) is int and first["calls"] > 0
