"""The benchmark tracer's hook points exist in the package and are used,
and the benchmark's output checks accept the package's runs.

perfbench/tracing.py times layers by replacing package attributes that
``pipeline.run`` and the labs look up at call time. Renaming or removing
one of them, or binding one to a local name before the tick loop, leaves
the package's own tests green but breaks or blinds every benchmark
workload.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from percept_cane import ocr_lab
from percept_cane.perception import build_ocr
from percept_cane.pipeline import demo_scenario_path, load_config, load_scenario, run, run_report_to_csv
from percept_cane.speech import SpeechMessage

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _load(name: str, path: Path):
    """Import a perfbench file read-only, under a name of its own."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # @dataclass looks its class's module up there
    spec.loader.exec_module(module)
    return module


tracing = _load("perfbench_tracing", PERFBENCH / "tracing.py")
workloads = _load("perfbench_workloads", PERFBENCH / "workloads.py")


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for owner, attr, _ in tracing.WRAPPED],
    ids=[layer for _, _, layer in tracing.WRAPPED],
)
def test_wrapped_attribute_resolves(owner, attr):
    assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} is gone"


def outputs(result):
    return result.transcript.render(), run_report_to_csv(result.report), result.log.render()


def test_run_calls_wrapped_layers_per_call():
    scenario = load_scenario(demo_scenario_path())
    untraced = run(scenario)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = run(scenario)
    finally:
        tracer.remove()
    _, _, counts = tracer.take()
    ticks = result.report.stages["sensor"].count
    assert ticks == 120
    assert counts["sensor"] == counts["alerts"] == ticks
    # one distance line per event, not per tick
    assert counts["alerts.log_line"] == len(scenario.events)
    assert counts["alerts.fired"] == result.report.alerts_fired == 1
    assert counts["perception.ocr"] == counts["perception.detect"] == 1
    assert counts["speech.submit"] == len(result.transcript) == 3
    # one speech drain per alert, none on quiet ticks
    assert counts["speech.drain"] == result.report.alerts_fired
    # run reads the virtual time back from the wrapped speak_all, so the
    # wrappers must pass every result through untouched
    assert outputs(result) == outputs(untraced)


def test_ocr_benchmark_calls_wrapped_layers_per_call():
    # run_benchmark looks up generate_samples and score through ocr_lab and
    # transcribes each sample with its own call; binding or bypassing one
    # of them blinds the ocr-bench layer that wraps it
    untraced = ocr_lab.run_benchmark("numbers", 50, build_ocr("mock-easyocr", seed=0), 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = ocr_lab.run_benchmark("numbers", 50, build_ocr("mock-easyocr", seed=0), 0)
    finally:
        tracer.remove()
    _, _, counts = tracer.take()
    assert counts["ocr_lab.generate"] == counts["ocr_lab.score"] == 1
    assert counts["perception.transcribe"] == 50
    csv = ocr_lab.report_to_csv
    assert csv(report, include_speed=False) == csv(untraced, include_speed=False)


@pytest.mark.parametrize(
    "scenario, config",
    [
        ("demo", None),
        ("multi_event_scenario.json", None),
        ("multi_event_scenario.json", "stress_config.json"),
        ("multi_event_scenario.json", "drop_config.json"),
    ],
)
def test_replay_check_accepts_runs(scenario, config):
    # Replay.check reads transcript.entries; a wrong shape there would show
    # only as failed benchmark operations
    path = demo_scenario_path() if scenario == "demo" else GOLDEN / scenario
    result = run(load_scenario(path), load_config(GOLDEN / config) if config else None)
    assert len(result.transcript.entries) == len(result.transcript) > 0
    assert workloads.Replay.check(workloads.Outcome((), 0, result)) is None
    # and it is not vacuous: an ALERT that is a plain int fails it
    first = result.transcript.messages[0]
    result.transcript.messages[0] = SpeechMessage(first.text, int(first.priority))
    assert workloads.Replay.check(workloads.Outcome((), 0, result)) is not None
