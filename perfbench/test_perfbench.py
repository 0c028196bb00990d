"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They use tiny inputs; none of them measures performance.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.import_package()
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {"replay-sparse": 1, "replay-dense": 1, "detect-eval": 20, "ocr-bench": 50}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def quick_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 2)
    monkeypatch.setattr(run, "SETUP_BATCH_S", 0.0)


class RaisingOcr:
    backend_id = "raising"

    def extract(self, frame):
        raise RuntimeError("engine crashed")

    def transcribe(self, text, key):
        raise RuntimeError("engine crashed")


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic(name, tmp_path):
    for sub, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / sub).mkdir()
        WORKLOADS[name].generate(seed, tmp_path / sub, TINY[name])
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_untraced_and_traced_agree(name):
    plain = run.measure(name, 3, 0, False, size=TINY[name])
    traced = run.measure(name, 3, 0, True, size=TINY[name])
    for result in (plain, traced):
        assert result.correct, result.problems
        assert result.failed == 0 and result.attempted > 0
    assert list(plain.metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(traced.metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert all(value > 0 for value, _ in plain.metrics.values())
    assert plain.report["pass_digest"] == traced.report["pass_digest"]
    assert plain.report["device"] == traced.report["device"]


@pytest.mark.parametrize("name", ["replay-dense", "ocr-bench"])
def test_raising_backend_counts_as_failed(name):
    result = run.measure(name, 3, 0, False, size=TINY[name], ocr=RaisingOcr())
    assert not result.correct
    assert result.failed == result.attempted > 0
    assert any("engine crashed" in p for p in result.problems)


def test_recorded_digest_mismatch_counts_as_failed():
    result = run.measure("detect-eval", 3, 0, False, size=TINY["detect-eval"], expected=["0" * 16])
    assert not result.correct
    assert result.failed == result.attempted


def test_wrappers_are_removed():
    before = tracing.originals()
    result = run.measure("replay-sparse", 3, 0, True, size=1)
    assert result.correct, result.problems
    assert tracing.originals() == before
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.originals() != before
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.remove()
    assert tracing.originals() == before


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [(n, u) for n, u, _ in run.PER_LAYER]
    recorded = json.loads(run.EXPECTED_FILE.read_text())
    assert set(recorded["workloads"]) == set(WORKLOADS)


def test_fails_without_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ocr-bench", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
