"""The benchmark tracer's hook points exist in the package and are used.

perfbench/tracing.py times layers by replacing package attributes that
``pipeline.run`` and the labs look up at call time. Renaming or removing
one of them, or binding one to a local name before the tick loop, leaves
the package's own tests green but breaks or blinds every benchmark
workload.
"""

import importlib.util
from pathlib import Path

import pytest

from percept_cane.pipeline import demo_scenario_path, load_scenario, run, run_report_to_csv

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for owner, attr, _ in tracing.WRAPPED],
    ids=[layer for _, _, layer in tracing.WRAPPED],
)
def test_wrapped_attribute_resolves(owner, attr):
    assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} is gone"


def outputs(result):
    return result.transcript.render(), run_report_to_csv(result.report), list(result.log)


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
