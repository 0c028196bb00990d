"""scripts/ab_bench.py counts a run that is not correct as failed, and
flags a metric whose median moves past its bound.

git, the base extraction and the benchmark runs are stubbed, so only the
script's own tally and report are under test.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_bench.py"
_spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

END_TO_END = json.loads((ab_bench.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
NAMES = [m["name"] for m in END_TO_END]


def _stub_git(monkeypatch):
    monkeypatch.setattr(ab_bench, "git", lambda *args: subprocess.CompletedProcess(args, 0, "", ""))
    monkeypatch.setattr(ab_bench, "extract", lambda revision, dest: True)


@pytest.mark.parametrize(
    "change, failed, message",
    [
        ({"correct": True, "failed": 0, "problems": []}, 0, None),
        (
            {"correct": False, "failed": 0, "problems": ["tracing wrappers left installed"]},
            2,
            "seed 5 change: tracing wrappers left installed",
        ),
        ({"correct": False, "failed": 3, "problems": []}, 2, "seed 6 change: 3 failed operations"),
    ],
    ids=["correct", "problem", "failed-operations"],
)
def test_incorrect_runs_count_as_failed(monkeypatch, capsys, tmp_path, change, failed, message):
    _stub_git(monkeypatch)

    def run_side(root, workload, seed):
        metrics = {name: {"value": float(seed)} for name in NAMES}
        clean = {"correct": True, "failed": 0, "problems": []}
        return {**(change if root == ab_bench.ROOT else clean), "metrics": metrics}

    monkeypatch.setattr(ab_bench, "run_side", run_side)
    summary = tmp_path / "summary.json"
    argv = ["--base", "base", "--workload", "ocr-bench", "--seeds", "5-6", "--json", str(summary)]
    assert ab_bench.main(argv) == (1 if failed else 0)
    assert json.loads(summary.read_text())["failed"] == failed
    err = capsys.readouterr().err
    if message:
        assert message in err
    else:
        assert err == ""


def test_run_side_reads_problems_from_stderr(monkeypatch):
    stdout = "wall_s 1.0\n" + json.dumps({"correct": False, "failed": 0, "metrics": {}}) + "\n"
    stderr = "problem: ocr-bench: digest mismatch\nnote: other\n"
    monkeypatch.setattr(
        ab_bench.subprocess, "run", lambda cmd, **kw: subprocess.CompletedProcess(cmd, 0, stdout, stderr)
    )
    result = ab_bench.run_side(Path("."), "ocr-bench", 1)
    assert (result["correct"], result["problems"]) == (False, ["ocr-bench: digest mismatch"])


@pytest.mark.parametrize(
    "change, outside",
    [
        ({"wall_s": 1.1, "items_per_s": 0.9, "setup_s": 0.5}, set()),
        ({"wall_s": 1.3, "items_per_s": 0.7, "setup_s": 0.5}, {"wall_s", "items_per_s"}),
    ],
    ids=["inside", "outside"],
)
def test_metric_outside_its_bound_is_flagged(monkeypatch, capsys, tmp_path, change, outside):
    # every metric reads 1.0 on the base; the change moves some of them
    _stub_git(monkeypatch)

    def run_side(root, workload, seed):
        values = change if root == ab_bench.ROOT else {}
        metrics = {name: {"value": values.get(name, 1.0)} for name in NAMES}
        return {"correct": True, "failed": 0, "problems": [], "metrics": metrics}

    monkeypatch.setattr(ab_bench, "run_side", run_side)
    summary = tmp_path / "summary.json"
    argv = ["--base", "base", "--workload", "replay-sparse", "--seeds", "1", "--json", str(summary)]
    assert ab_bench.main(argv) == 0
    rows = json.loads(summary.read_text())["metrics"]
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines() if "worse by" in line}
    worse = {"wall_s": 0.1, "items_per_s": 0.1, "setup_s": -0.5, "peak_rss_mb": 0.0}
    if outside:
        worse.update(wall_s=0.3, items_per_s=0.3)
    for metric in END_TO_END:
        name, row = metric["name"], rows[metric["name"]]
        assert row["bound"] == metric["bound"]
        assert row["worse_by"] == pytest.approx(worse[name])
        assert row["outside_bound"] is (name in outside)
        assert lines[name].endswith("OUTSIDE BOUND") is (name in outside)
