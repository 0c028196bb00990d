"""scripts/ab_bench.py counts a run that is not correct as failed, flags a
metric whose median moves past its bound or whose base runs spread wider
than it, and reports each side's median host pass and calibration seconds
and the set-up calibration they imply.

git, the base extraction and the benchmark runs are stubbed, so only the
script's own tally and report are under test.
"""

import importlib.util
import json
import math
import subprocess
import sys
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


@pytest.mark.parametrize(
    "base, change, unresolved",
    [
        # base IQR 0.15 over median 1.0 is inside the 0.25 bound
        ([0.9, 1.0, 1.1, 0.95, 1.05], [1.0, 1.0, 1.0, 1.0, 1.0], False),
        # base IQR 0.6 over median 1.0 is wider than the bound
        ([0.6, 1.0, 1.4, 0.8, 1.2], [1.0, 0.9, 1.1, 0.7, 1.3], True),
        # as wide, but every change run beats every base run
        ([0.6, 1.0, 1.4, 0.8, 1.2], [0.5, 0.4, 0.3, 0.45, 0.55], False),
    ],
    ids=["narrow", "wide", "wide-every-run-better"],
)
def test_metric_spread_wider_than_its_bound_is_unresolved(
    monkeypatch, capsys, tmp_path, base, change, unresolved
):
    # setup_s (lower is better, bound 0.25) takes the values; the rest read 1.0
    _stub_git(monkeypatch)
    calls = {"base": 0, "change": 0}

    def run_side(root, workload, seed):
        side = "change" if root == ab_bench.ROOT else "base"
        value = {"base": base, "change": change}[side][calls[side]]
        calls[side] += 1
        metrics = {name: {"value": value if name == "setup_s" else 1.0} for name in NAMES}
        return {"correct": True, "failed": 0, "problems": [], "metrics": metrics}

    monkeypatch.setattr(ab_bench, "run_side", run_side)
    summary = tmp_path / "summary.json"
    argv = ["--base", "base", "--workload", "replay-sparse", "--seeds", "1-5", "--json", str(summary)]
    assert ab_bench.main(argv) == 0
    rows = json.loads(summary.read_text())["metrics"]
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines() if "worse by" in line}
    assert rows["setup_s"]["bound"] == 0.25
    assert rows["setup_s"]["unresolved"] is unresolved
    assert ("UNRESOLVED" in lines["setup_s"]) is unresolved
    for name in NAMES:
        if name != "setup_s":
            assert rows[name]["unresolved"] is False and "UNRESOLVED" not in lines[name]


_run_spec = importlib.util.spec_from_file_location("perfbench_run", ab_bench.ROOT / "perfbench" / "run.py")
perfbench_run = importlib.util.module_from_spec(_run_spec)
sys.modules[_run_spec.name] = perfbench_run  # its dataclasses look their module up
_run_spec.loader.exec_module(perfbench_run)


def _summary(pass_s: float, cal_s: float, load_s: float = 0.02, setup_s: float = 0.01) -> str:
    """A run's stdout, summary lines rendered by perfbench/run.py itself."""
    metrics = {"setup_s": (setup_s, "s"), "wall_s": (0.2, "s"), "items_per_s": (5.0, "1/s")}
    metrics["peak_rss_mb"] = (30.0, "MB")
    report = dict(workload="ocr-bench", seed=3, passes=9, operations=4, items="samples")
    report.update(host_wall_s=(pass_s / 2, pass_s, pass_s * 2), host_setup_s=load_s, cal_s=cal_s)
    report.update(setup_loads=(7, 12), device=None, pass_digest="0" * 16, digest_source="recorded")
    result = perfbench_run.Result(True, 36, 0, metrics, report)
    return "\n".join(perfbench_run.describe(result)) + "\n" + result.json_line() + "\n"


def test_host_pass_and_calibration_medians_are_reported(monkeypatch, capsys, tmp_path):
    # reference wall_s is equal on both sides, yet the change's host pass is
    # faster and its calibration faster still: the host lines show it, and
    # the host load seconds behind setup_s beside them
    _stub_git(monkeypatch)
    times = {
        "base": [(0.30, 0.060, 0.105), (0.34, 0.064, 0.115), (0.32, 0.062, 0.110)],
        "change": [(0.25, 0.041, 0.070), (0.21, 0.039, 0.066), (0.23, 0.040, 0.068)],
    }
    calls = []

    def fake_run(cmd, cwd, **kw):
        side = "change" if Path(cwd) == ab_bench.ROOT else "base"
        calls.append(side)
        run = times[side][sum(s == side for s in calls) - 1]
        return subprocess.CompletedProcess(cmd, 0, _summary(*run), "")

    monkeypatch.setattr(ab_bench.subprocess, "run", fake_run)
    summary = tmp_path / "summary.json"
    argv = ["--base", "base", "--workload", "ocr-bench", "--seeds", "1-3", "--json", str(summary)]
    assert ab_bench.main(argv) == 0
    host = json.loads(summary.read_text())["host"]
    assert host["base"]["pass_s"] == {"values": [0.30, 0.34, 0.32], "median": 0.32}
    assert host["base"]["cal_s"] == {"values": [0.060, 0.064, 0.062], "median": 0.062}
    assert host["change"]["pass_s"] == {"values": [0.25, 0.21, 0.23], "median": 0.23}
    assert host["change"]["cal_s"] == {"values": [0.041, 0.039, 0.040], "median": 0.040}
    assert host["base"]["load_s"] == {"values": [0.105, 0.115, 0.110], "median": 0.110}
    assert host["change"]["load_s"] == {"values": [0.070, 0.066, 0.068], "median": 0.068}
    out = capsys.readouterr().out
    assert "host pass_s  base 0.32  change 0.23  ratio 0.719" in out
    assert "host cal_s   base 0.062  change 0.04  ratio 0.645" in out
    assert "host load_s  base 0.11  change 0.068  ratio 0.618" in out


def test_host_times_absent_read_as_nan(monkeypatch):
    stdout = json.dumps({"correct": False, "failed": 0, "metrics": {}}) + "\n"
    monkeypatch.setattr(
        ab_bench.subprocess, "run", lambda cmd, **kw: subprocess.CompletedProcess(cmd, 0, stdout, "")
    )
    result = ab_bench.run_side(Path("."), "ocr-bench", 1)
    assert result["host"] == {}
    medians = ab_bench.host_medians([result, {"host": {"pass_s": 0.5}}])
    assert medians["pass_s"]["median"] == 0.5
    for name in ("cal_s", "load_s"):
        absent = medians[name]
        assert all(math.isnan(v) for v in absent["values"]) and math.isnan(absent["median"])


def test_setup_calibration_is_implied_from_load_and_setup_s(monkeypatch, capsys, tmp_path):
    # run.py prints only the passes' calibration; the set-up's is the
    # reference 0.04 s times host load_s over reference setup_s
    _stub_git(monkeypatch)
    loads = {
        "base": [(0.090, 0.08), (0.100, 0.08), (0.094, 0.08)],
        "change": [(0.100, 0.08), (0.104, 0.08), (0.090, 0.06)],
    }
    calls = []

    def fake_run(cmd, cwd, **kw):
        side = "change" if Path(cwd) == ab_bench.ROOT else "base"
        calls.append(side)
        load_s, setup_s = loads[side][sum(s == side for s in calls) - 1]
        return subprocess.CompletedProcess(cmd, 0, _summary(0.3, 0.05, load_s, setup_s), "")

    monkeypatch.setattr(ab_bench.subprocess, "run", fake_run)
    summary = tmp_path / "summary.json"
    argv = ["--base", "base", "--workload", "replay-dense", "--seeds", "1-3", "--json", str(summary)]
    assert ab_bench.main(argv) == 0
    host = json.loads(summary.read_text())["host"]
    assert host["base"]["setup_cal_s"]["values"] == pytest.approx([0.045, 0.050, 0.047])
    assert host["change"]["setup_cal_s"]["values"] == pytest.approx([0.050, 0.052, 0.060])
    assert host["base"]["setup_cal_s"]["median"] == pytest.approx(0.047)
    assert host["change"]["setup_cal_s"]["median"] == pytest.approx(0.052)
    out = capsys.readouterr().out
    assert "host setup_cal_s base 0.047  change 0.052  ratio 1.106  (implied, median host s)" in out
