"""scripts/ap_scale.py runs end to end at a tiny size and prints both
timings with values that agree with the literal AP formula."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

from oracles import literal_ap

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "ap_scale.py"
_spec = importlib.util.spec_from_file_location("ap_scale", SCRIPT)
ap_scale = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ap_scale)


def test_ap_scale_runs_at_a_tiny_size():
    argv = [sys.executable, str(SCRIPT), "--images", "5", "--plateaus", "50", "--repeats", "1"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert len(lines) == 3
    assert re.fullmatch(r"average_precision: \d+\.\d{3} s \(20 predictions, 15 truths, AP \S+\)", lines[0])
    ap = re.fullmatch(r"exact AP sum: \d+\.\d{3} s \(50 plateaus, AP (\S+)\)", lines[1])
    assert ap
    ranks = ap_scale.falling_precision_ranks(50)
    assert float(ap[1]) == float(literal_ap(ranks, 51))
    assert lines[2] == "min of 1 process_time runs each"
