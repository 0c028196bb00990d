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
from fractions import Fraction
from pathlib import Path

import pytest

from percept_cane import detector_lab, ocr_lab
from percept_cane.detector_lab import PredictionBox, TruthBox
from percept_cane.perception import BoundingBox, build_ocr
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
    return result.transcript.render(), run_report_to_csv(result.report), result.report.render_log()


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
    # extract transcribes each text with its own MockOcr.transcribe call; an
    # alerted frame is the latest event's at the alert tick
    alerted = [
        [e for e in scenario.events if e.t_s <= k * scenario.tick_s][-1].frame
        for k in result.report.ticks
    ]
    assert counts["perception.transcribe"] == sum(len(f.texts) for f in alerted if f) == 1
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


def test_detect_eval_calls_iou_through_the_module_per_pair():
    # the candidate table computes each same-label, same-image IoU once,
    # through the module global detector_lab.iou; an alias bound at import
    # or an inlined IoU would blind detect-eval's detector_lab.iou_calls
    truths = [
        TruthBox(image, label, BoundingBox(0.1 * k, 0.1, 0.1 * k + 0.3, 0.5))
        for k, (image, label) in enumerate([("a", "cat"), ("a", "cat"), ("a", "dog"), ("b", "cat"), ("b", "dog")])
    ]
    preds = [
        PredictionBox(image, label, conf, BoundingBox(0.1 * k + 0.05, 0.1, 0.1 * k + 0.35, 0.5))
        for k, (image, label, conf) in enumerate(
            [("a", "cat", 0.9), ("a", "dog", 0.8), ("b", "cat", 0.7), ("c", "cat", 0.6), ("a", "bus", 0.5)]
        )
    ]
    pairs = sum(t.image_id == p.image_id and t.label == p.label for t in truths for p in preds)
    assert pairs == 4
    untraced = detector_lab.map50_and_range(preds, truths)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = detector_lab.map50_and_range(preds, truths)
    finally:
        tracer.remove()
    _, _, counts = tracer.take()
    assert counts["detector_lab.iou_calls"] == pairs
    assert traced == untraced


@pytest.mark.parametrize("seed", [6, 9])
def test_detect_eval_map_range_is_the_exact_mean(seed, tmp_path):
    # on these seeds' inputs, the built-in float sum of the ten map_at values
    # over ten is one unit in the last place off the exact mean on Python 3.11
    workload = workloads.WORKLOADS["detect-eval"]
    workload.generate(seed, tmp_path)
    truths, preds = workload.load(tmp_path)
    labels = sorted({t.label for t in truths})
    sums = detector_lab._ap_sums(preds, truths, labels, detector_lab.MAP_RANGE_THRESHOLDS)
    exact = sum(Fraction(num * 100, den * len(labels)) for num, den in sums) / len(sums)
    assert detector_lab.map_range(preds, truths) == float(exact)
    assert detector_lab.map50_and_range(preds, truths)[1] == float(exact)


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
