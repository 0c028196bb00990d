"""scripts/ap_scale.py runs end to end at a tiny size and prints its three
timings with values that agree with the assignment oracle and the literal
AP formula."""

import importlib.util
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from oracles import brute_force_ap, literal_ap
from percept_cane.detector_lab import MAP_RANGE_THRESHOLDS, MAX_IOU_PAIRS, average_precision

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
    assert len(lines) == 4
    assert re.fullmatch(r"average_precision: \d+\.\d{3} s \(20 predictions, 15 truths, AP \S+\)", lines[0])
    maps = re.fullmatch(r"map50_and_range: \d+\.\d{3} s \(mAP50 (\S+), mAP50-95 (\S+)\)", lines[1])
    assert maps
    preds, truths = ap_scale.fixture(5)
    aps = [brute_force_ap(preds, truths, ap_scale.LABEL, thr) for thr in MAP_RANGE_THRESHOLDS]
    assert (float(maps[1]), float(maps[2])) == (float(aps[0] * 100), float(sum(aps, Fraction()) * 10))
    ap = re.fullmatch(r"exact AP sum: \d+\.\d{3} s \(50 plateaus, AP (\S+)\)", lines[2])
    assert ap
    ranks = ap_scale.falling_precision_ranks(50)
    assert float(ap[1]) == float(literal_ap(ranks, 51))
    assert lines[3] == "min of 1 process_time runs each"


def test_default_fixture_fits_the_pair_cap():
    # 8,000 images of 3 truths and 4 predictions: 96,000 pairs
    preds, truths = ap_scale.fixture(8000)
    assert len(preds) * 3 == 96_000 <= MAX_IOU_PAIRS
    assert 0 < average_precision(preds, truths, ap_scale.LABEL, 0.5) <= 1
