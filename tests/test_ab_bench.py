"""scripts/ab_bench.py counts a run that is not correct as failed.

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

NAMES = [m["name"] for m in json.loads((ab_bench.ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


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
    monkeypatch.setattr(ab_bench, "git", lambda *args: subprocess.CompletedProcess(args, 0, "", ""))
    monkeypatch.setattr(ab_bench, "extract", lambda revision, dest: True)

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
